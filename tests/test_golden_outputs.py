"""Golden CLI outputs: the files `synth` writes and `evaluate`'s report,
byte for byte.

The digests were recorded before the synthesizer's unread kinematics and
one-value settings were deleted; any change to what the program writes,
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
        "8af32d492c11983904693fcec1db487a3be0581c3d11c294d72e5de3de88b6a4",
    "subject01_session00_imu.csv":
        "1acf973b4e24c52343834ebc691e8d12a2f02bbaf770c7f1942879b4f567f493",
    "subject01_session00_keypoints.jsonl":
        "8c8271201f7cd2d3187f86f4ff506e0c45eeb42a02448f31a772415458f37bf1",
}
REPORT_SHA256 = (
    "2e75017390c7d5d59871e905243e3b10e574767546e4f4a37152b35b47abc9f5")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(tmp_path, command, config):
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / command
    assert main([command, "--config", str(cfg), "--seed", SEED,
                 "--out", str(out)]) == EXIT_OK
    return out


def test_synth_files_are_golden(tmp_path):
    out = _run(tmp_path, "synth", SYNTH_CONFIG)
    assert {name: _sha256(out / name) for name in SYNTH_SHA256} == SYNTH_SHA256


def test_evaluate_report_is_golden(tmp_path):
    out = _run(tmp_path, "evaluate", EVALUATE_CONFIG)
    assert _sha256(out / "report.json") == REPORT_SHA256
