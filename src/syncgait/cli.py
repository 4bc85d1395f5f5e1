"""Command-line entry points: synth, enroll, evaluate.

`synth` writes a deterministic synthetic cohort to disk, `enroll` trains the
two per-user models from recorded sessions, and `evaluate` runs a full
genuine-plus-attack experiment through the session protocol and writes a
metrics report with ROC curves. A config's `scenarios` list makes one
`evaluate` a sweep: each entry overrides `loss_rate`, `attacks` or
`fidelity` (knobs enrollment does not read), its trials run against the
one enrollment of the base config, and the report gains one entry per
scenario. Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (InsufficientOverlap, IoFailure, SyncGaitError,
                     TooFewSamples)
from .io import read_imu_npy, read_keypoint_npy, write_imu_npy, \
    write_keypoint_npy
from .metrics import evaluate as score_evaluate
from .metrics import roc_points_csv
from .classify import deserialize_model, serialize_model
from .features import FEATURE_NAMES
from .gait import CYCLE_FEATURE_COUNT
from .pipeline import Enrollment, enroll, enroll_subjects
from .protocol import (ChannelModel, DecisionRecord, SessionConfig,
                       run_sessions)
from .synth import (IMU_RATE, CameraModel, HijackAttack, MimicryAttack,
                    RelayAttack, check_walk, generate_attack,
                    generate_session, make_cohort, shared_walks)
from .syncing import MIN_OVERLAP_S, ClockOffsetEstimate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

# attack kind -> the capture spec of one (victim, attacker, fidelity) trial
ATTACK_SPECS = {
    "relay": lambda victim, attacker, fidelity: RelayAttack(victim, attacker),
    "hijack": lambda victim, attacker, fidelity: HijackAttack(attacker),
    "mimicry": lambda victim, attacker, fidelity: MimicryAttack(
        attacker, victim, fidelity),
}
ATTACK_KINDS = tuple(ATTACK_SPECS)
# cmd_evaluate makes each capture once, and each subject's walk once, from
# the base config's camera, duration and clock offset, so no key here may
# change a capture
SCENARIO_KEYS = ("loss_rate", "attacks", "fidelity")
MANIFEST_FORMAT = "gaitsync-v4"   # the session files' version


@dataclass
class ExperimentConfig:
    """Resolved knobs for one experiment: the config file's values, then
    the command-line flags that name a field.

    Construction also builds the session settings each trial runs with
    (`session`), the camera the sessions are synthesized through
    (`camera`) and one resolved config per scenario (`scenario_configs`);
    their own checks reject a bad duration, loss rate, camera or scenario
    value, and a walk that would reach the camera."""

    cohort_size: int = 5
    sessions_per_subject: int = 1     # synth output sessions
    enroll_sessions: int = 8          # evaluate: in-memory enrollment depth
    duration: float = 8.0             # seconds per session
    clock_offset: float = 0.08        # drone clock minus phone clock
    loss_rate: float = 0.0
    genuine_trials: int = 2           # per subject
    attack_trials: int = 2            # per subject per attack kind
    attacks: tuple[str, ...] = ATTACK_KINDS
    fidelity: float = 0.5             # mimicry blend weight
    fps: float = 60.0
    distance: float = 18.0
    hover_height: float = 4.0
    angle: float = 0.0
    seed: int = 0
    scenarios: tuple[dict, ...] = ()  # evaluate: overrides of SCENARIO_KEYS

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not _has_type(getattr(self, f.name), f.type):
                raise ValueError(f"{f.name} must be "
                                 + _TYPE_NAMES.get(f.type, "a list of strings"))
        if self.cohort_size < 2:
            raise ValueError("cohort_size must be >= 2")
        if self.sessions_per_subject < 1 or self.enroll_sessions < 1:
            raise ValueError("session counts must be >= 1")
        if self.genuine_trials < 1 or self.attack_trials < 1:
            raise ValueError("trial counts must be >= 1")
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError("fidelity must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        self.attacks = tuple(self.attacks)
        for a in self.attacks:
            if a not in ATTACK_KINDS:
                raise ValueError(f"unknown attack kind {a!r}")
        if not self.attacks:
            raise ValueError("attacks must name at least one attack kind")
        if len(set(self.attacks)) < len(self.attacks):
            raise ValueError(f"attacks {list(self.attacks)} repeat a kind")
        self.scenarios = tuple(self.scenarios)
        for entry in self.scenarios:
            unknown = set(entry) - set(SCENARIO_KEYS)
            if unknown:
                raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        self.scenario_configs = tuple(
            dataclasses.replace(self, scenarios=(), **entry)
            for entry in self.scenarios)
        self.session = SessionConfig(
            max_attempts=1, sample_duration=self.duration,
            channel=ChannelModel(loss_rate=self.loss_rate),
            clock_offset=self.clock_offset)
        self.camera = CameraModel(hover_height=self.hover_height,
                                  horizontal_distance=self.distance,
                                  horizontal_angle=self.angle, fps=self.fps)
        check_walk(self.duration, self.camera)

    @classmethod
    def load(cls, path: str | None, flags: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        data: dict = {}
        if path is not None:
            try:
                data = json.loads(Path(path).read_text())
            except OSError as exc:
                raise IoFailure(str(exc)) from exc
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"config is not valid JSON: {exc!r}") from exc
            if not isinstance(data, dict):
                raise ValueError("config must be a JSON object")
            unknown = set(data) - known
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data.update({k: v for k, v in flags.items()
                     if k in known and v is not None})
        return cls(**data)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["attacks"] = list(self.attacks)
        if not self.scenarios:   # the digest of a plain config stays put
            del d["scenarios"]
        return d

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


_TYPE_NAMES = {"int": "an integer", "float": "a finite number",
               "tuple[dict, ...]": "a list of objects"}


def _has_type(value, name: str) -> bool:
    """Whether a config value has its field's JSON type, without coercion:
    an int is not a bool, a float is finite and may be an int, attacks are
    strings, scenarios are objects."""
    if isinstance(value, bool):
        return False
    if name == "int":
        return isinstance(value, int)
    if name == "float":   # abs() < inf: finite, and exact for big ints
        return isinstance(value, (int, float)) and abs(value) < math.inf
    item = dict if name == "tuple[dict, ...]" else str
    return (isinstance(value, (list, tuple))
            and all(isinstance(a, item) for a in value))


def _json_ready(obj):
    """Round floats to 9 significant digits so reports are reproducible."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _write_bytes(path: Path, blob: bytes) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _write_json(path: Path, payload: dict) -> None:
    _write_bytes(path, (json.dumps(_json_ready(payload), sort_keys=True,
                                   indent=2) + "\n").encode())


# --- synth -------------------------------------------------------------------

@shared_walks()
def cmd_synth(cfg: ExperimentConfig, out: Path) -> int:
    cohort = make_cohort(cfg.cohort_size, seed=cfg.seed)
    manifest = {"format": MANIFEST_FORMAT, "config": cfg.to_dict(),
                "config_sha256": cfg.digest(), "imu_rate": IMU_RATE,
                "subjects": []}
    for si, subject in enumerate(cohort):
        entry = {"index": si, "cycle_period": subject.cycle_period,
                 "sessions": []}
        for k in range(cfg.sessions_per_subject):
            imu, kp, gt = generate_session(subject, cfg.camera, cfg.duration,
                                           cfg.clock_offset, seed_offset=k)
            if si == k == 0:    # a config synth refuses writes nothing
                try:
                    out.mkdir(parents=True, exist_ok=True)
                except OSError as exc:
                    raise IoFailure(str(exc)) from exc
            imu_name, kp_name = _session_names(si, k)
            write_imu_npy(out / imu_name, imu)
            write_keypoint_npy(out / kp_name, kp)
            entry["sessions"].append({
                "imu": imu_name, "keypoints": kp_name,
                "clock_offset": gt.clock_offset,
                "cycle_boundaries": [round(b, 6)
                                     for b in gt.cycle_boundaries],
            })
        manifest["subjects"].append(entry)
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {cfg.cohort_size} subjects x {cfg.sessions_per_subject} "
          f"sessions to {out}")
    return EXIT_OK


# --- enroll ------------------------------------------------------------------

def _load_manifest(data_dir: Path) -> dict:
    try:
        manifest = json.loads((data_dir / "manifest.json").read_text())
    except OSError as exc:
        raise IoFailure(f"cannot read manifest: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise IoFailure(f"manifest is not valid JSON: {exc!r}") from exc
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("subjects"), list)):
        raise IoFailure("manifest must be a JSON object with a subjects list")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise IoFailure(f"manifest format {manifest.get('format')!r} is not "
                        f"{MANIFEST_FORMAT!r}")
    return manifest


def cmd_enroll(cfg: ExperimentConfig, data_dir: Path, subject: int,
               out: Path) -> int:
    manifest = _load_manifest(data_dir)
    subjects = manifest["subjects"]
    if not 0 <= subject < len(subjects):
        raise ValueError(f"subject index {subject} outside cohort of "
                         f"{len(subjects)}")
    try:
        imu_rate = float(manifest["imu_rate"])
        fps = float(manifest["config"]["fps"])
        entries = [(s["imu"], s["keypoints"], float(s["clock_offset"]))
                   for s in subjects[subject]["sessions"]]
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise IoFailure(f"malformed manifest: {exc!r}") from exc
    if not all(math.isfinite(offset) for _, _, offset in entries):
        raise IoFailure("malformed manifest: clock_offset must be finite")
    for k, entry in enumerate(entries):
        if entry[:2] != (names := _session_names(subject, k)):
            raise IoFailure(f"session {k} files must be named {names}")
    sessions = [(read_imu_npy(data_dir / imu_name, sample_rate=imu_rate),
                 read_keypoint_npy(data_dir / kp_name, frame_rate=fps),
                 ClockOffsetEstimate.known(clock_offset))
                for imu_name, kp_name, clock_offset in entries]
    # before the fit, so that a wrong IMU rate or clock offset is named, not
    # blamed on a failed alignment; synth starts each keypoint file at its
    # IMU file's first timestamp plus the offset
    for (imu, kp, _), (imu_name, kp_name, offset) in zip(sessions, entries):
        _check_step(data_dir / imu_name, imu.t, "imu_rate", imu_rate)
        gap = float(kp.t[0]) - offset - float(imu.t[0])
        if not abs(gap) * fps <= 0.5:
            raise IoFailure(f"{data_dir / kp_name}: manifest clock_offset "
                            f"{offset:g} s puts its first frame {gap:+.6g} s "
                            f"from its IMU file's first sample")
    enrollment = _enroll_subject(sessions, subject,
                                 f"session count {len(sessions)}",
                                 "the sessions' synth duration")
    # after the fit, so that a frame rate the Kalman pass cannot run stays
    # a configuration error naming the rate
    for (_, kp, _), (_, kp_name, _) in zip(sessions, entries):
        _check_step(data_dir / kp_name, kp.t, "fps", fps)

    cons_name, gait_name = _model_names(subject)
    _write_bytes(out / cons_name,
                 serialize_model(enrollment.consistency_model))
    _write_bytes(out / gait_name, serialize_model(enrollment.gait_model))
    meta = {"subject": subject,
            "config_sha256": cfg.digest(),
            "feature_mask": enrollment.feature_mask.astype(int).tolist(),
            "consistency_model": cons_name,
            "gait_model": gait_name,
            "fisher": {n: float(s) for n, s in
                       zip(FEATURE_NAMES, enrollment.fisher.normalized)}}
    _write_json(out / f"subject{subject:02d}_enrollment.json", meta)
    print(f"enrolled subject {subject}: {cons_name}, {gait_name}")
    return EXIT_OK


def _check_step(path: Path, t: np.ndarray, name: str, rate: float) -> None:
    """IoFailure unless the median timestamp step of a file of two or more
    rows lies within 1 % of 1 / rate, the manifest's `name`."""
    if len(t) < 2:
        return
    with np.errstate(over="ignore"):
        step = float(np.median(np.diff(t)))
    if not abs(step * rate - 1.0) <= 0.01:
        raise IoFailure(f"{path}: manifest {name} {rate:g} does not match "
                        f"the median timestamp step {step:.6g} s")


def _enroll_subject(sessions: list, subject: int, count: str,
                    duration: str) -> Enrollment:
    """enroll(sessions), with too few sessions or sessions too short to
    align refused as a ValueError naming `count` or `duration`, the knob
    behind them."""
    try:
        return enroll(sessions)
    except TooFewSamples as exc:
        raise ValueError(f"{count} is too few to enroll subject {subject}: "
                         f"{exc}") from exc
    except InsufficientOverlap as exc:
        raise ValueError(f"{duration} is too short to align subject "
                         f"{subject}'s enrollment captures (MIN_OVERLAP_S "
                         f"{MIN_OVERLAP_S} s): {exc}") from exc


def _session_names(subject: int, k: int) -> tuple[str, str]:
    """The only session file names synth writes and enroll opens."""
    stem = f"subject{subject:02d}_session{k:02d}"
    return f"{stem}_imu.npy", f"{stem}_keypoints.npy"


def _model_names(subject: int) -> tuple[str, str]:
    """The only model file names enroll writes and load_enrollment opens."""
    return (f"subject{subject:02d}_consistency.model",
            f"subject{subject:02d}_gait.model")


def load_enrollment(out: Path, subject: int) -> Enrollment:
    """Read back the model files written by the enroll command. The feature
    mask must hold one 0/1 entry per consistency feature and keep as many
    as the consistency model is wide; the gait model must be as wide as
    the per-cycle gait feature vector. Only enroll's model file names load."""
    meta_path = out / f"subject{subject:02d}_enrollment.json"
    names = _model_names(subject)
    try:
        meta = json.loads(meta_path.read_text())
        if (meta["consistency_model"], meta["gait_model"]) != names:
            raise ValueError(f"model files must be named {names}")
        cons = deserialize_model((out / names[0]).read_bytes())
        gait = deserialize_model((out / names[1]).read_bytes())
        mask = meta["feature_mask"]
        if isinstance(mask, list) and len(mask) != len(FEATURE_NAMES):
            raise ValueError(f"found {len(mask)} feature mask entries, "
                             f"expected one per feature of {FEATURE_NAMES}")
        if not (isinstance(mask, list)
                and all(type(v) is int and v in (0, 1) for v in mask)
                and sum(mask) == cons.support_vectors.shape[1]):
            raise ValueError(f"feature mask {mask!r} does not fit the "
                             "consistency model")
        if gait.support_vectors.shape[1] != CYCLE_FEATURE_COUNT:
            raise ValueError("gait model does not fit the cycle features")
        mask = np.array(mask, dtype=bool)
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise IoFailure(f"cannot load enrollment of subject {subject}: "
                        f"{exc!r}") from exc
    return Enrollment(consistency_model=cons, gait_model=gait,
                      feature_mask=mask)


# --- evaluate ----------------------------------------------------------------

# a trial whose session made no decision: rejected, -1.0 on every score
NO_DECISION = DecisionRecord(attempt=0, consistency_score_drone=-1.0,
                             consistency_score_phone=-1.0, gait_score=-1.0)


@shared_walks()
def cmd_evaluate(cfg: ExperimentConfig, out: Path) -> int:
    """Enroll the cohort as one enroll_subjects batch, then run the trials.
    A batch that raises is enrolled again subject by subject, so the error
    names the first subject that fails alone. Each genuine capture, and
    each distinct attack spec of a trial, is synthesized once and run under
    every config (the base one and each scenario's) that lists its kind;
    the configs differ in SCENARIO_KEYS only. Every subject's trials under
    one config, subject by subject and genuine then attack, run as one
    run_sessions batch, so their attempts share each chain stage and
    feature pass; each trial's record is what it gives alone, and every
    capture of the run is held until its config's batch runs. Every
    capture is its walk plus its own noise, and the run computes each walk
    (a subject's, or a mimicry blend's) once."""
    # a victim's attack trials take distinct other subjects, and enrollment
    # captures (seed offsets 10..59) stay clear of genuine ones (60..)
    if cfg.attack_trials >= cfg.cohort_size:
        raise ValueError(f"attack_trials {cfg.attack_trials} must be below "
                         f"cohort_size {cfg.cohort_size}")
    if cfg.enroll_sessions > 50:
        raise ValueError(f"enroll_sessions {cfg.enroll_sessions} exceeds 50")
    cohort = make_cohort(cfg.cohort_size, seed=cfg.seed)
    offset = ClockOffsetEstimate.known(cfg.clock_offset)

    sessions = [[(*generate_session(subject, cfg.camera, cfg.duration,
                                    cfg.clock_offset,
                                    seed_offset=10 + k)[:2], offset)
                 for k in range(cfg.enroll_sessions)] for subject in cohort]
    try:
        enrollments = enroll_subjects(sessions)
    except SyncGaitError:   # name the first subject that fails alone
        enrollments = [_enroll_subject(
            own, si, f"enroll_sessions {cfg.enroll_sessions}",
            f"duration {cfg.duration} s at fps {cfg.fps}")
            for si, own in enumerate(sessions)]

    configs = (cfg, *cfg.scenario_configs)
    trials = [([], {kind: [] for kind in c.attacks}) for c in configs]
    # per config, (records, enrollment, (imu, kp), seed) of each trial
    queues = [[] for _ in configs]
    for si, (victim, enrollment) in enumerate(zip(cohort, enrollments)):
        for k in range(cfg.genuine_trials):
            capture = generate_session(victim, cfg.camera, cfg.duration,
                                       cfg.clock_offset,
                                       seed_offset=60 + k)[:2]
            for c, queue, (genuine, _) in zip(configs, queues, trials):
                queue.append((genuine, enrollment, capture,
                              c.seed * 100000 + si * 100 + k))
        for k in range(cfg.attack_trials):
            attacker = cohort[(si + 1 + k) % cfg.cohort_size]
            captures = {}
            for c, queue, (_, attacks) in zip(configs, queues, trials):
                for kind in c.attacks:
                    spec = ATTACK_SPECS[kind](victim, attacker, c.fidelity)
                    if spec not in captures:
                        captures[spec] = generate_attack(
                            spec, cfg.camera, cfg.duration, cfg.clock_offset,
                            seed_offset=900 + 10 * si + k)[:2]
                    queue.append((attacks[kind], enrollment, captures[spec],
                                  c.seed * 100000 + 7000 + si * 100 + k * 10
                                  + ATTACK_KINDS.index(kind)))
    for c, queue in zip(configs, queues):
        results = run_sessions(c.session, [
            (enrollment, lambda attempt, imu=imu: imu,
             lambda attempt, kp=kp: kp, seed)
            for _, enrollment, (imu, kp), seed in queue])
        for (records, *_), result in zip(queue, results):
            records.append(result.record or NO_DECISION)

    (base, rocs), *scenarios = [_summary(*t) for t in trials]
    report = {"config": cfg.to_dict(), "config_sha256": cfg.digest(), **base}
    for name, rep in rocs.items():
        _write_bytes(out / f"roc_{name}.csv", roc_points_csv(rep).encode())
    print(json.dumps(_json_ready(report["scores"]), sort_keys=True))
    if cfg.scenarios:
        report["scenarios"] = [
            {"config": scenario.to_dict(), "config_sha256": scenario.digest(),
             **entries}
            for scenario, (entries, _) in zip(cfg.scenario_configs,
                                              scenarios)]
    _write_json(out / "report.json", report)
    print(f"report written to {out / 'report.json'}")
    return EXIT_OK


def _summary(genuine: list[DecisionRecord],
             attacks: dict[str, list[DecisionRecord]]) -> tuple[dict, dict]:
    all_attacks = [r for records in attacks.values() for r in records]
    rocs = {name: score_evaluate([getattr(r, field) for r in genuine],
                                 [getattr(r, field) for r in all_attacks])
            for name, field in (("consistency", "consistency"),
                                ("gait", "gait_score"), ("fused", "fused"))}
    return {"genuine": _rates(genuine),
            "attacks": {kind: _rates(records)
                        for kind, records in attacks.items()},
            "scores": {name: rep.to_dict()
                       for name, rep in rocs.items()}}, rocs


def _rates(records: list[DecisionRecord]) -> dict:
    n = len(records)
    return {
        "n": n,
        "accept_rate": sum(r.accepted for r in records) / n,
        "consistency_pass_rate": sum(r.consistency_pass for r in records) / n,
        "gait_pass_rate": sum(r.gait_pass for r in records) / n,
        "fused_pass_rate": sum(r.fused >= 0 for r in records) / n,
    }


# --- argument parsing --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncgait",
        description="cross-modal gait authentication experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="experiment seed")
        p.add_argument("--out", required=True, help="output directory")

    p_synth = sub.add_parser("synth", help="write a synthetic cohort")
    common(p_synth)

    p_enroll = sub.add_parser("enroll", help="train per-user models")
    common(p_enroll)
    p_enroll.add_argument("--data", required=True,
                          help="directory written by synth")
    p_enroll.add_argument("--subject", type=int, required=True,
                          help="cohort subject index")

    p_eval = sub.add_parser("evaluate",
                            help="genuine + attack experiment with report")
    common(p_eval)
    p_eval.add_argument("--loss-rate", type=float, dest="loss_rate",
                        help="channel loss probability in [0, 0.6]")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config, vars(args))
        out = Path(args.out)
        if args.command == "synth":
            return cmd_synth(cfg, out)
        if args.command == "enroll":
            return cmd_enroll(cfg, Path(args.data), args.subject, out)
        return cmd_evaluate(cfg, out)
    except IoFailure as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, SyncGaitError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
