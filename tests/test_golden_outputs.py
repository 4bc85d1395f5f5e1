"""Golden CLI outputs: the files `synth` writes, the models `enroll` trains
from them and `evaluate`'s report, byte for byte.

The report digest was recorded before the synthesizer's unread kinematics
and one-value settings were deleted, the model digests before the keypoint
files became CSV; any change to what the program writes, down to the last
printed digit, shows here.
"""

import hashlib
import json

from syncgait.cli import EXIT_OK, main

SEED = "7"
SYNTH_CONFIG = {"cohort_size": 2, "sessions_per_subject": 1, "duration": 4.0}
EVALUATE_CONFIG = {"cohort_size": 2, "enroll_sessions": 6, "genuine_trials": 1,
                   "attack_trials": 1, "loss_rate": 0.3}

SYNTH_SHA256 = {
    "manifest.json":
        "67990b747984266c8b864777af1868986651c11571c2768e381bf240948d9fbf",
    "subject01_session00_imu.csv":
        "84f5c62ddd538ada00aa138710a2ebd2ae2923be45805bc651d8d06f38517342",
    "subject01_session00_keypoints.csv":
        "811981bfa57a9f454cc1ab9dfc51ef5e312fd11b785d021754ed777ac42b44be",
}
REPORT_SHA256 = (
    "2e75017390c7d5d59871e905243e3b10e574767546e4f4a37152b35b47abc9f5")
# enroll subject 0 from its synthesized sessions: the models depend on every
# value the session files carry, so they pin the readers' round trip
ENROLL_CONFIG = {"cohort_size": 2, "sessions_per_subject": 6}
ENROLL_SHA256 = {
    "subject00_consistency.model":
        "1a970b4bef00a6ef6ed7c69e18147d6ed928f313d29950f18e7a02f8e8b25068",
    "subject00_gait.model":
        "18adb272f47a55acd96690c66c7073051baa77fd7f2fb9431b0a29684ab40c84",
    "subject00_enrollment.json":
        "800f52527cb61865770e00283111923c0deaba4c161eb636ad985ee5401912c9",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(tmp_path, command, config, *args):
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / command
    assert main([command, "--config", str(cfg), "--seed", SEED,
                 "--out", str(out), *args]) == EXIT_OK
    return out


def test_synth_files_are_golden(tmp_path):
    out = _run(tmp_path, "synth", SYNTH_CONFIG)
    assert {name: _sha256(out / name) for name in SYNTH_SHA256} == SYNTH_SHA256


def test_evaluate_report_is_golden(tmp_path):
    out = _run(tmp_path, "evaluate", EVALUATE_CONFIG)
    assert _sha256(out / "report.json") == REPORT_SHA256


def test_enroll_models_are_golden(tmp_path):
    data = _run(tmp_path, "synth", ENROLL_CONFIG)
    out = _run(tmp_path, "enroll", ENROLL_CONFIG, "--data", str(data),
               "--subject", "0")
    assert {name: _sha256(out / name)
            for name in ENROLL_SHA256} == ENROLL_SHA256
