"""Golden CLI outputs: the files `synth` writes, the models `enroll` trains
from them and `evaluate`'s report, byte for byte.

The report digest was recorded before the synthesizer's unread kinematics
and one-value settings were deleted, the model digests when the session
files became exact binary matrices. The manifest, report and model digests
were re-captured when the attitude became the levelled prefix product of
the gyro: the manifest carries cycle cuts made through it. The enrollment
JSON digest was re-captured when the consistency features went from six to
three, since its mask and Fisher scores list them. Any change to what the
program writes, down to the last printed digit, shows here.
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
        "d90769466ead1d917ac1c52fd62c5c4086cc466d5bfaa3fbef7d530603e0440e",
    "subject01_session00_imu.npy":
        "d36e4e107b148de83282c35d06a8cb55892696f3acf2aedab8c0ae832c05a3ae",
    "subject01_session00_keypoints.npy":
        "b267ec745fc36b2f4126c455af71e6de7d4a83bb75b48221b3f08ea9ee45fd3a",
}
REPORT_SHA256 = (
    "c28bbffe6df9f1a1c0d6fd611da6cba5b8b03197af9e7f12992e1fb9f6a3f66e")
# enroll subject 0 from its synthesized sessions: the models depend on every
# value the session files carry, so they pin the readers' round trip
ENROLL_CONFIG = {"cohort_size": 2, "sessions_per_subject": 6}
ENROLL_SHA256 = {
    "subject00_consistency.model":
        "c2aeafbc51542fa6aa40c781b6fbc71ea9ffee056516ead12244fa1b406a0306",
    "subject00_gait.model":
        "17693c1cf91db1155aa2a7816d5ae043bec38d01a6f8d7cb902031b4559c033e",
    "subject00_enrollment.json":
        "9a51712d0a49141988567db1044a52bc8519bcb54c957838d7225d351aa5d0fb",
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
