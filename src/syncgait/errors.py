"""Exception hierarchy shared across the pipeline."""


class SyncGaitError(Exception):
    """Base class for all library errors."""


class SeriesTooShort(SyncGaitError):
    pass


class DegenerateSeries(SyncGaitError):
    pass


class NonUnitQuaternion(SyncGaitError):
    pass


class InvalidBand(SyncGaitError):
    pass


class InsufficientOverlap(SyncGaitError):
    pass


class NegativeRoundTrip(SyncGaitError):
    pass


class NoCyclesFound(SyncGaitError):
    pass


class CycleTooShort(SyncGaitError):
    pass


class PairTooShort(SyncGaitError):
    pass


class DegenerateChannel(SyncGaitError):
    pass


class DegenerateClass(SyncGaitError):
    pass


class TooFewSamples(SyncGaitError):
    pass


class EmptyScores(SyncGaitError):
    pass


class EnrollmentMissing(SyncGaitError):
    pass


class InvalidDuration(SyncGaitError):
    pass


class IoFailure(SyncGaitError):
    pass
