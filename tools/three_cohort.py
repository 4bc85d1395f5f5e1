"""Print the three-cohort scoring table that ROADMAP's Baseline and README's
"Why three consistency features" compare variants with.

Run from the repository root:

    PYTHONPATH=src python3 tools/three_cohort.py

Each cohort is `make_cohort(10, seed=s)` for s = 11, 1000 and 99, filmed by
the default `CameraModel` with a clock offset of 0.08 s. Every subject is
enrolled from 8 sessions of 8 s at seed offsets 10-17, the cohort in one
`enroll_subjects` call. Each subject gives genuine captures at seed offsets
60 and 61. Victim v is attacked by each subject j of v+1, v+2 and v+3 (mod
10): j is that attacker's cohort index, not its trial number, and every
capture of the pair (v, j) is drawn at seed offset 900 + 10 v + j. Against
each j the victim meets one capture of each attack:

- relay: v's IMU with j's keypoints;
- in-step relay: the same, with j's `cycle_period` set to v's;
- hijack: j's own streams;
- mimicry at fidelity 0.5 and 0.9: j's walk blended toward v's.

Every capture is scored directly, with `ClockOffsetEstimate.known(0.08)`,
as one `protocol.attempt_scores` batch of `pipeline.Capture` records whose
`imu_valid` and `kp_valid` are None: nothing was lost, so the phone's
consistency score is the drone's. "Fused" means that both the
consistency and the gait score are >= 0. The table prints one row per
cohort and their sum, then the median genuine consistency and gait scores
of each cohort.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from syncgait.pipeline import Capture, enroll_subjects
from syncgait.protocol import attempt_scores
from syncgait.synth import (CameraModel, HijackAttack, MimicryAttack,
                            RelayAttack, generate_attack, generate_session,
                            make_cohort, shared_walks)
from syncgait.syncing import ClockOffsetEstimate

COHORT_SEEDS = (11, 1000, 99)
COHORT_SIZE = 10
ATTACKERS = 3            # victim v meets subjects v+1 .. v+3 (mod 10)
ENROLL_SESSIONS = 8
GENUINE_SESSIONS = 2
DURATION = 8.0
CLOCK_OFFSET = 0.08

ATTACKS = {
    "relay": lambda v, j: RelayAttack(v, j),
    "in-step relay": lambda v, j: RelayAttack(
        v, replace(j, cycle_period=v.cycle_period)),
    "hijack": lambda v, j: HijackAttack(j),
    "mimicry 0.5": lambda v, j: MimicryAttack(j, v, 0.5),
    "mimicry 0.9": lambda v, j: MimicryAttack(j, v, 0.9),
}
# (heading, capture kind, score: "cons", "gait" or "fused")
COLUMNS = (("genuine cons", "genuine", "cons"),
           ("genuine gait", "genuine", "gait"),
           ("relay fused", "relay", "fused"),
           ("in-step relay fused", "in-step relay", "fused"),
           ("hijack cons", "hijack", "cons"),
           ("hijack gait", "hijack", "gait"),
           ("mimicry 0.5 gait", "mimicry 0.5", "gait"),
           ("mimicry 0.9 gait", "mimicry 0.9", "gait"))


@shared_walks()
def score_cohort(seed: int) -> dict[str, list[tuple[float, float]]]:
    """(consistency, gait) score of each capture of one cohort, by kind."""
    cam, offset = CameraModel(), ClockOffsetEstimate.known(CLOCK_OFFSET)
    cohort = make_cohort(COHORT_SIZE, seed=seed)

    def capture(subject, seed_offset, enrollment=None):
        imu, kp, _ = generate_session(subject, cam, DURATION, CLOCK_OFFSET,
                                      seed_offset=seed_offset)
        return Capture(imu, kp, offset, enrollment=enrollment)

    enrollments = enroll_subjects([
        [capture(subject, 10 + k) for k in range(ENROLL_SESSIONS)]
        for subject in cohort])
    kinds, captures = [], []
    for v, (victim, enrollment) in enumerate(zip(cohort, enrollments)):
        for k in range(GENUINE_SESSIONS):
            kinds.append("genuine")
            captures.append(capture(victim, 60 + k, enrollment))
        for j in ((v + 1 + k) % COHORT_SIZE for k in range(ATTACKERS)):
            for kind, spec in ATTACKS.items():
                imu, kp, _ = generate_attack(spec(victim, cohort[j]), cam,
                                             DURATION, CLOCK_OFFSET,
                                             seed_offset=900 + 10 * v + j)
                kinds.append(kind)
                captures.append(Capture(imu, kp, offset,
                                        enrollment=enrollment))
    # every sample of every capture arrived, so the phone's consistency
    # score is the drone's
    attempts = attempt_scores(captures)
    scores: dict[str, list[tuple[float, float]]] = {}
    for kind, (cons, _, gait) in zip(kinds, attempts):
        scores.setdefault(kind, []).append((cons, gait))
    return scores


def passes(scores: list[tuple[float, float]], score: str) -> int:
    """How many (consistency, gait) pairs pass `score`."""
    cons, gait = np.array(scores).T >= 0
    return int({"cons": cons, "gait": gait, "fused": cons & gait}[score].sum())


def main() -> None:
    by_cohort = {seed: score_cohort(seed) for seed in COHORT_SEEDS}
    print("| cohort seed | " + " | ".join(h for h, _, _ in COLUMNS) + " |")
    print("| --- " * (len(COLUMNS) + 1) + "|")
    for label, cohorts in [*((str(s), [s]) for s in COHORT_SEEDS),
                           ("sum", list(COHORT_SEEDS))]:
        cells = []
        for _, kind, score in COLUMNS:
            runs = [by_cohort[s][kind] for s in cohorts]
            cells.append(f"{sum(passes(r, score) for r in runs)}/"
                         f"{sum(map(len, runs))}")
        print(f"| {label} | " + " | ".join(cells) + " |")
    for name, column in (("consistency", 0), ("gait", 1)):
        medians = [float(np.median([s[column]
                                    for s in by_cohort[seed]["genuine"]]))
                   for seed in COHORT_SEEDS]
        print(f"median genuine {name}: "
              + " / ".join(f"{m:+.3f}" for m in medians))


if __name__ == "__main__":
    main()
