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

from .errors import IoFailure, SyncGaitError, TooFewSamples
from .io import read_imu_npy, read_keypoint_npy, write_imu_npy, \
    write_keypoint_npy
from .metrics import evaluate as score_evaluate
from .metrics import roc_points_csv
from .classify import deserialize_model, serialize_model
from .features import FEATURE_NAMES
from .gait import CYCLE_FEATURE_COUNT
from .pipeline import Enrollment, enroll
from .protocol import ChannelModel, SessionConfig, SessionState, run_session
from .synth import (IMU_RATE, CameraModel, HijackAttack, MimicryAttack,
                    RelayAttack, generate_attack, generate_session,
                    make_cohort)
from .syncing import ClockOffsetEstimate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

ATTACK_KINDS = ("relay", "hijack", "mimicry")
SCENARIO_KEYS = ("loss_rate", "attacks", "fidelity")
MANIFEST_FORMAT = "gaitsync-v3"   # the session files' version


@dataclass
class ExperimentConfig:
    """Resolved knobs for one experiment: the config file's values, then
    the `--seed` and `--loss-rate` flags.

    Construction also builds the session settings each trial runs with
    (`session`), the camera the sessions are synthesized through
    (`camera`) and one resolved config per scenario (`scenario_configs`);
    their own checks reject a bad duration, loss rate, camera or scenario
    value."""

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

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "ExperimentConfig":
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
            known = {f.name for f in dataclasses.fields(cls)}
            unknown = set(data) - known
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
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

def cmd_synth(cfg: ExperimentConfig, out: Path) -> int:
    cohort = make_cohort(cfg.cohort_size, seed=cfg.seed)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    manifest = {"format": MANIFEST_FORMAT, "config": cfg.to_dict(),
                "config_sha256": cfg.digest(), "imu_rate": IMU_RATE,
                "subjects": []}
    for si, subject in enumerate(cohort):
        entry = {"index": si, "cycle_period": subject.cycle_period,
                 "sessions": []}
        for k in range(cfg.sessions_per_subject):
            imu, kp, gt = generate_session(subject, cfg.camera, cfg.duration,
                                           cfg.clock_offset, seed_offset=k)
            stem = f"subject{si:02d}_session{k:02d}"
            write_imu_npy(out / f"{stem}_imu.npy", imu)
            write_keypoint_npy(out / f"{stem}_keypoints.npy", kp)
            entry["sessions"].append({
                "imu": f"{stem}_imu.npy",
                "keypoints": f"{stem}_keypoints.npy",
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
            and isinstance(manifest.get("subjects", []), list)):
        raise IoFailure("manifest must be a JSON object with a subjects list")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise IoFailure(f"manifest format {manifest.get('format')!r} is not "
                        f"{MANIFEST_FORMAT!r}")
    return manifest


def cmd_enroll(cfg: ExperimentConfig, data_dir: Path, subject: int,
               out: Path) -> int:
    manifest = _load_manifest(data_dir)
    subjects = manifest.get("subjects", [])
    if not 0 <= subject < len(subjects):
        raise ValueError(f"subject index {subject} outside cohort of "
                         f"{len(subjects)}")
    try:
        imu_rate = float(manifest["imu_rate"])
        fps = float(manifest["config"]["fps"])
        entries = [(data_dir / sess["imu"], data_dir / sess["keypoints"],
                    float(sess["clock_offset"]))
                   for sess in subjects[subject]["sessions"]]
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise IoFailure(f"malformed manifest: {exc!r}") from exc
    sessions = [(read_imu_npy(imu_path, sample_rate=imu_rate),
                 read_keypoint_npy(kp_path, frame_rate=fps),
                 ClockOffsetEstimate(clock_offset, 1e-6, 0.005))
                for imu_path, kp_path, clock_offset in entries]
    enrollment = enroll(sessions, seed=cfg.seed)

    cons_path = out / f"subject{subject:02d}_consistency.model"
    gait_path = out / f"subject{subject:02d}_gait.model"
    _write_bytes(cons_path, serialize_model(enrollment.consistency_model))
    _write_bytes(gait_path, serialize_model(enrollment.gait_model))
    meta = {"subject": subject,
            "config_sha256": cfg.digest(),
            "feature_mask": enrollment.feature_mask.astype(int).tolist(),
            "consistency_model": cons_path.name,
            "gait_model": gait_path.name}
    if enrollment.fisher is not None:
        meta["fisher"] = {n: float(s) for n, s in
                          zip(FEATURE_NAMES,
                              enrollment.fisher.normalized)}
    _write_json(out / f"subject{subject:02d}_enrollment.json", meta)
    print(f"enrolled subject {subject}: {cons_path.name}, {gait_path.name}")
    return EXIT_OK


def load_enrollment(out: Path, subject: int) -> Enrollment:
    """Read back the model files written by the enroll command. The feature
    mask must hold one 0/1 entry per consistency feature and keep as many
    as the consistency model is wide; the gait model must be as wide as
    the per-cycle gait feature vector."""
    meta_path = out / f"subject{subject:02d}_enrollment.json"
    try:
        meta = json.loads(meta_path.read_text())
        cons = deserialize_model((out / meta["consistency_model"]).read_bytes())
        gait = deserialize_model((out / meta["gait_model"]).read_bytes())
        mask = meta["feature_mask"]
        if not (isinstance(mask, list) and len(mask) == len(FEATURE_NAMES)
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

def _run_trial(cfg: ExperimentConfig, enrollment: Enrollment,
               imu, kp, seed: int) -> dict:
    result = run_session(cfg.session, enrollment,
                         lambda attempt: imu, lambda attempt: kp, seed=seed)
    if result.record is None:
        return {"accepted": False, "consistency": -1.0, "gait": -1.0,
                "fused": -1.0}
    rec = result.record
    cons = min(rec.consistency_score_drone, rec.consistency_score_phone)
    return {"accepted": result.state == SessionState.ACCEPTED,
            "consistency": cons, "gait": rec.gait_score,
            "fused": min(cons, rec.gait_score)}


def _attack_spec(kind: str, victim, attacker, fidelity: float):
    if kind == "relay":
        return RelayAttack(victim, attacker)
    if kind == "hijack":
        return HijackAttack(attacker)
    return MimicryAttack(attacker, victim, fidelity)


def cmd_evaluate(cfg: ExperimentConfig, out: Path) -> int:
    cohort = make_cohort(cfg.cohort_size, seed=cfg.seed)
    offset = ClockOffsetEstimate(cfg.clock_offset, 1e-6, 0.005)

    enrollments = {}
    for si, subject in enumerate(cohort):
        sessions = []
        for k in range(cfg.enroll_sessions):
            imu, kp, _ = generate_session(subject, cfg.camera, cfg.duration,
                                          cfg.clock_offset,
                                          seed_offset=10 + k)
            sessions.append((imu, kp, offset))
        try:
            enrollments[si] = enroll(sessions, seed=cfg.seed)
        except TooFewSamples as exc:
            raise ValueError(f"enroll_sessions {cfg.enroll_sessions} is too "
                             f"few to enroll subject {si}: {exc}") from exc

    (trials, rocs), *scenarios = _run_trials(
        (cfg, *cfg.scenario_configs), cohort, enrollments)
    report = {"config": cfg.to_dict(), "config_sha256": cfg.digest(),
              **trials}
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


def _run_trials(configs: tuple[ExperimentConfig, ...], cohort,
                enrollments: dict) -> list[tuple[dict, dict]]:
    """Run each config's genuine and attack trials against the cohort's
    enrollments. The configs differ in SCENARIO_KEYS only, so each capture
    is synthesized once, and every config that needs it runs its trial on
    it before the next capture is made: a genuine capture serves every
    config, an attack capture every config with its kind (and, for
    mimicry, its fidelity). Returns, per config, the report's `genuine`,
    `attacks` and `scores` entries, and each score stream's metrics report
    for its ROC file."""
    base = configs[0]
    genuine: list[list[dict]] = [[] for _ in configs]
    for si in range(base.cohort_size):
        for k in range(base.genuine_trials):
            imu, kp, _ = generate_session(cohort[si], base.camera,
                                          base.duration, base.clock_offset,
                                          seed_offset=60 + k)
            for cfg, trials in zip(configs, genuine):
                trials.append(_run_trial(cfg, enrollments[si], imu, kp,
                                         seed=cfg.seed * 100000 + si * 100 + k))

    attacks = [{kind: [] for kind in cfg.attacks} for cfg in configs]
    for si in range(base.cohort_size):
        for k in range(base.attack_trials):
            ai = (si + 1 + k) % base.cohort_size
            users: dict[tuple, list] = {}
            for cfg, trials in zip(configs, attacks):
                for kind in cfg.attacks:
                    key = (kind, cfg.fidelity if kind == "mimicry" else None)
                    users.setdefault(key, []).append((cfg, trials[kind]))
            for (kind, _), runs in users.items():
                spec = _attack_spec(kind, cohort[si], cohort[ai],
                                    runs[0][0].fidelity)
                imu, kp, _ = generate_attack(spec, base.camera, base.duration,
                                             base.clock_offset,
                                             seed_offset=900 + 10 * si + k)
                for cfg, trials in runs:
                    trials.append(_run_trial(
                        cfg, enrollments[si], imu, kp,
                        seed=cfg.seed * 100000 + 7000 + si * 100 + k * 10
                        + ATTACK_KINDS.index(kind)))
    return [_summary(g, a) for g, a in zip(genuine, attacks)]


def _summary(genuine: list[dict],
             attacks: dict[str, list[dict]]) -> tuple[dict, dict]:
    all_attacks = [t for trials in attacks.values() for t in trials]
    rocs = {name: score_evaluate([t[name] for t in genuine],
                                 [t[name] for t in all_attacks])
            for name in ("consistency", "gait", "fused")}
    return {"genuine": _rates(genuine),
            "attacks": {kind: _rates(trials)
                        for kind, trials in attacks.items()},
            "scores": {name: rep.to_dict()
                       for name, rep in rocs.items()}}, rocs


def _rates(trials: list[dict]) -> dict:
    n = len(trials)
    return {
        "n": n,
        "accept_rate": sum(t["accepted"] for t in trials) / n,
        "consistency_pass_rate": sum(t["consistency"] >= 0
                                     for t in trials) / n,
        "gait_pass_rate": sum(t["gait"] >= 0 for t in trials) / n,
        "fused_pass_rate": sum(t["fused"] >= 0 for t in trials) / n,
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


_OVERRIDE_KEYS = ("seed", "loss_rate")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(
            args.config, {k: getattr(args, k, None) for k in _OVERRIDE_KEYS})
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
