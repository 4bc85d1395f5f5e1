"""Golden CLI outputs: the files `synth` writes, the models `enroll` trains
from them and `evaluate`'s report, byte for byte.

The report digest was recorded before the synthesizer's unread kinematics
and one-value settings were deleted, the model digests when the session
files became exact binary matrices; any change to what the program writes,
down to the last printed digit, shows here.
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
        "bd8a4822ba537d96b9be74a54434677547ccd02683f6fb25b412921ca150d8eb",
    "subject01_session00_imu.npy":
        "d36e4e107b148de83282c35d06a8cb55892696f3acf2aedab8c0ae832c05a3ae",
    "subject01_session00_keypoints.npy":
        "b267ec745fc36b2f4126c455af71e6de7d4a83bb75b48221b3f08ea9ee45fd3a",
}
REPORT_SHA256 = (
    "2e75017390c7d5d59871e905243e3b10e574767546e4f4a37152b35b47abc9f5")
# enroll subject 0 from its synthesized sessions: the models depend on every
# value the session files carry, so they pin the readers' round trip
ENROLL_CONFIG = {"cohort_size": 2, "sessions_per_subject": 6}
ENROLL_SHA256 = {
    "subject00_consistency.model":
        "6a716adc2eefca621fe54db5d17e26b66b7ffd0382f05f72b4baa6ffe47f6f68",
    "subject00_gait.model":
        "bf6d69899c9984cfe289bd7d7bf6b08c88444ece022d13d2cd2824c17dfba1f0",
    "subject00_enrollment.json":
        "929338649cb546295797e55e0d9360df6173ee10c0b0263fb0d1d98b2e872f86",
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
