"""The three benchmark workloads, driven through syncgait's public API.

Each workload builds its inputs from the seed in `setup`, lists one cycle
of ops in `cycle`, runs one op in `run` (the timed part) and checks that
op's outputs in `check` (untimed). A check returns the reasons the op
failed (an empty list means the op's outputs are correct) and the op's
facts, including a fingerprint that must repeat whenever the same cycle
position runs again.

Import this module only after the BLAS thread count is fixed: it imports
numpy through syncgait.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from syncgait.classify import serialize_model
from syncgait.cli import load_enrollment
from syncgait.cli import main as cli_main
from syncgait.pipeline import consistency_vector, enroll, gait_vectors
from syncgait import protocol
from syncgait.protocol import ChannelModel, SessionConfig, SessionState
from syncgait.synth import (HijackAttack, MimicryAttack, RelayAttack,
                            generate_attack, generate_session, make_cohort)
from syncgait.syncing import ClockOffsetEstimate

from stats import median, tail_percentile

LOSS_RATE = 0.3
CLOCK_OFFSET = 0.08
DURATION = 8.0
FIDELITY = 0.5


class SetupError(Exception):
    """Set-up could not build the workload's inputs."""


def _offset() -> ClockOffsetEstimate:
    return ClockOffsetEstimate(CLOCK_OFFSET, 1e-6, 0.005)


def _quiet_cli(argv: list[str]) -> int:
    """cli.main in-process, its progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# --- verify ------------------------------------------------------------------

@dataclass(frozen=True)
class Trial:
    index: int            # position in the cycle; also fixes the session seed
    kind: str             # "genuine" or an attack kind
    subject: int          # whose enrollment the session verifies against
    captures: tuple       # (imu, keypoints) for attempts 1, 2, 3


class Verify:
    """One protocol session per op at 30 % loss, default three attempts.

    Enrollments (six sessions each) and every capture are built in setup.
    A cycle is twelve genuine sessions (four per subject) and one relay,
    one hijack and one mimicry session, four genuine to one attack. Each
    attempt of a session gets its own capture.
    """

    name = "verify"
    COHORT = 3
    ENROLL_SESSIONS = 6   # >= 12 gait cycles even at the slowest cadence
    CAPTURES = 3          # = max_attempts, so no attempt repeats a capture
    ATTACKS = ("relay", "hijack", "mimicry")

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.session_cfg = SessionConfig(
            channel=ChannelModel(loss_rate=LOSS_RATE),
            clock_offset=CLOCK_OFFSET, sample_duration=DURATION)

    def setup(self):
        cohort = make_cohort(self.COHORT, seed=self.seed)
        self.enrollments = []
        for subject in cohort:
            sessions = []
            for k in range(self.ENROLL_SESSIONS):
                imu, kp, _ = generate_session(subject, duration=DURATION,
                                              clock_offset=CLOCK_OFFSET,
                                              seed_offset=10 + k)
                sessions.append((imu, kp, _offset()))
            self.enrollments.append(enroll(sessions, seed=self.seed))
        genuine = [[generate_session(subject, duration=DURATION,
                                     clock_offset=CLOCK_OFFSET,
                                     seed_offset=60 + k)[:2]
                    for k in range(self.CAPTURES)] for subject in cohort]
        attacks = []
        for ki, kind in enumerate(self.ATTACKS):
            victim = ki % self.COHORT
            attacker = (victim + 1) % self.COHORT
            spec = {"relay": RelayAttack(cohort[victim], cohort[attacker]),
                    "hijack": HijackAttack(cohort[attacker]),
                    "mimicry": MimicryAttack(cohort[attacker], cohort[victim],
                                             FIDELITY)}[kind]
            caps = tuple(generate_attack(spec, duration=DURATION,
                                         clock_offset=CLOCK_OFFSET,
                                         seed_offset=900 + 10 * victim + a)[:2]
                         for a in range(self.CAPTURES))
            attacks.append((kind, victim, caps))

        self.trials = []
        g = 0
        for kind, victim, caps in attacks:
            for _ in range(4):
                subject, j = g % self.COHORT, g // self.COHORT
                pool = genuine[subject]
                self.trials.append(Trial(
                    len(self.trials), "genuine", subject,
                    tuple(pool[(j + a) % self.CAPTURES]
                          for a in range(self.CAPTURES))))
                g += 1
            self.trials.append(Trial(len(self.trials), kind, victim, caps))
        return [serialize_model(m) for e in self.enrollments
                for m in (e.consistency_model, e.gait_model)]

    def cycle(self) -> list[Trial]:
        return self.trials

    def run(self, trial: Trial):
        caps = trial.captures
        # through the module attribute, so the traced run sees the call
        return protocol.run_session(
            self.session_cfg, self.enrollments[trial.subject],
            lambda attempt: caps[attempt - 1][0],
            lambda attempt: caps[attempt - 1][1],
            seed=self.seed * 1000 + trial.index)

    def check(self, trial: Trial, result) -> tuple[list[str], dict]:
        failures = []
        rec = result.record
        if result.state not in (SessionState.ACCEPTED, SessionState.FAILED):
            failures.append(f"session ended in {result.state}")
        if rec is None:
            failures.append("no attempt reached a decision")
            scores = ()
        else:
            scores = (rec.consistency_score_drone,
                      rec.consistency_score_phone, rec.gait_score)
            if not all(math.isfinite(s) for s in scores):
                failures.append(f"non-finite score in {scores}")
            if rec.accepted != all(s >= 0 for s in scores):
                failures.append("decision is not the conjunction of scores")
            if rec.accepted != (result.state == SessionState.ACCEPTED):
                failures.append("session state disagrees with the decision")
        if not 1 <= result.attempts <= self.session_cfg.max_attempts:
            failures.append(f"{result.attempts} attempts")
        info = {"genuine": trial.kind == "genuine",
                "accepted": result.state == SessionState.ACCEPTED,
                "fingerprint": (result.state.value, result.attempts, scores)}
        return failures, info

    def summary(self, ops) -> tuple[dict, list[str]]:
        """Figures of a run by name, and the reasons it fails its gate."""
        done = [o for o in ops if o.info]
        genuine = [o for o in done if o.info["genuine"]]
        attack = [o for o in done if not o.info["genuine"]]
        accept_ms = [o.norm_ms for o in done if o.info["accepted"]]
        reject_ms = [o.norm_ms for o in done if not o.info["accepted"]]
        frr = (sum(not o.info["accepted"] for o in genuine)
               / max(len(genuine), 1))
        far = sum(o.info["accepted"] for o in attack) / max(len(attack), 1)
        figures = {"accept_ms_p50": (median(accept_ms), "ms"),
                   "accept_ms_p90": (tail_percentile(accept_ms, 90), "ms"),
                   "reject_ms_p50": (median(reject_ms), "ms"),
                   "frr": (frr, "share"), "far": (far, "share")}
        return figures, _accuracy_gate(frr, far)


def _accuracy_gate(frr: float, far: float) -> list[str]:
    """A run that accepts (or rejects) most of everything has changed its
    decisions, whatever its speed."""
    failures = []
    if frr > 0.5:
        failures.append(f"genuine sessions mostly rejected (frr {frr:.2f})")
    if far > 0.5:
        failures.append(f"attack sessions mostly accepted (far {far:.2f})")
    return failures


# --- enroll ------------------------------------------------------------------

class Enroll:
    """One in-process CLI `enroll` of one subject from eight recorded
    sessions per op; the CLI `synth` writes the cohort in setup."""

    name = "enroll"
    SYNTH_CONFIG = {"cohort_size": 2, "sessions_per_subject": 8,
                    "duration": DURATION, "clock_offset": CLOCK_OFFSET}

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work = work_dir
        self.config = work_dir / "synth.json"
        self.data = work_dir / "data"

    def setup(self):
        self.config.write_text(json.dumps(self.SYNTH_CONFIG))
        code = _quiet_cli(["synth", "--config", str(self.config),
                           "--seed", str(self.seed), "--out", str(self.data)])
        if code != 0:
            raise SetupError(f"cli synth exited with {code}")
        return _tree_bytes(self.data)

    def cycle(self) -> list[int]:
        return list(range(self.SYNTH_CONFIG["cohort_size"]))

    def _out(self, subject: int) -> Path:
        return self.work / f"models{subject:02d}"

    def run(self, subject: int) -> int:
        return _quiet_cli(["enroll", "--data", str(self.data),
                           "--subject", str(subject), "--seed", str(self.seed),
                           "--out", str(self._out(subject))])

    def check(self, subject: int, code: int) -> tuple[list[str], dict]:
        if code != 0:
            return [f"cli enroll exited with {code}"], {}
        failures = []
        files = _tree_bytes(self._out(subject))
        enrollment = load_enrollment(self._out(subject), subject)
        for model in (enrollment.consistency_model, enrollment.gait_model):
            params = (model.rho, model.gamma, *model.dual_coef)
            if not all(math.isfinite(p) for p in params):
                failures.append("non-finite model parameter")
        return failures, {"fingerprint": files}

    def summary(self, ops) -> tuple[dict, list[str]]:
        seconds = [o.norm_ms / 1e3 for o in ops]
        return {"enroll_s_p50": (median(seconds), "s")}, []


# --- evaluate ----------------------------------------------------------------

class Evaluate:
    """One in-process CLI `evaluate` at 30 % loss with all three attacks per
    op, on a small fixed experiment."""

    name = "evaluate"
    CONFIG = {"cohort_size": 2, "enroll_sessions": 6, "genuine_trials": 2,
              "attack_trials": 1, "duration": DURATION,
              "clock_offset": CLOCK_OFFSET}

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.config = work_dir / "evaluate.json"
        self.out = work_dir / "results"

    def setup(self):
        """Write the config, then score one session so that lazy imports
        and first-call set-up are paid before any op is timed."""
        self.config.write_text(json.dumps(self.CONFIG))
        subject = make_cohort(self.CONFIG["cohort_size"], seed=self.seed)[0]
        imu, kp, _ = generate_session(subject, duration=DURATION,
                                      clock_offset=CLOCK_OFFSET)
        vec = consistency_vector(imu, kp, _offset()).as_array()
        return [vec.tobytes(), gait_vectors(imu).tobytes()]

    def cycle(self) -> list[int]:
        return [0]

    def run(self, _slot: int) -> int:
        return _quiet_cli(["evaluate", "--config", str(self.config),
                           "--seed", str(self.seed),
                           "--loss-rate", str(LOSS_RATE),
                           "--out", str(self.out)])

    def check(self, _slot: int, code: int) -> tuple[list[str], dict]:
        if code != 0:
            return [f"cli evaluate exited with {code}"], {}
        blob = (self.out / "report.json").read_bytes()
        report = json.loads(blob)
        n_attacks = sum(r["n"] for r in report["attacks"].values())
        info = {"frr": 1.0 - report["genuine"]["accept_rate"],
                "far": sum(r["accept_rate"] * r["n"]
                           for r in report["attacks"].values()) / n_attacks,
                "fused_eer": report["scores"]["fused"]["eer"],
                "fingerprint": blob}
        return [], info

    def summary(self, ops) -> tuple[dict, list[str]]:
        seconds = [o.norm_ms / 1e3 for o in ops]
        figures = {"evaluate_s": (median(seconds), "s")}
        done = [o.info for o in ops if o.info]
        if not done:
            return figures, []
        first = done[0]
        figures.update({"frr": (first["frr"], "share"),
                        "far": (first["far"], "share"),
                        "fused_eer": (first["fused_eer"], "share")})
        return figures, _accuracy_gate(first["frr"], first["far"])


WORKLOADS = {w.name: w for w in (Verify, Enroll, Evaluate)}
