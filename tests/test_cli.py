"""Command-line workflows: synth -> enroll -> evaluate, exit codes,
reproducibility of on-disk artifacts."""

import json
import math
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from syncgait import cli, pipeline, protocol, synth
from syncgait.classify import fit_ocsvm_fixed, serialize_model
from syncgait.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, MANIFEST_FORMAT,
                          ExperimentConfig, build_parser, load_enrollment,
                          main)
from syncgait.errors import InsufficientOverlap, InvalidDuration, IoFailure
from syncgait.io import (read_imu_npy, read_keypoint_npy, write_imu_npy,
                         write_keypoint_npy)
from syncgait.pipeline import enroll
from syncgait.protocol import SessionConfig
from syncgait.series import JOINT_INDEX, ImuSeries, KeypointSeries
from syncgait.synth import SubjectParams, generate_session
from syncgait.syncing import (MIN_OVERLAP_S, MIN_SESSION_S,
                              ClockOffsetEstimate)

FAST_SYNTH = {"cohort_size": 2, "sessions_per_subject": 2, "duration": 4.0}
FAST_ENROLL = {"cohort_size": 2, "sessions_per_subject": 4, "duration": 8.0}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(cohort_size=1)
    with pytest.raises(ValueError):
        ExperimentConfig(loss_rate=0.9)
    with pytest.raises(ValueError):
        ExperimentConfig(fidelity=2.0)
    with pytest.raises(ValueError):
        ExperimentConfig(attacks=("teleport",))


def test_one_session_length_floor(tmp_path):
    assert MIN_SESSION_S == 3.0
    with pytest.raises(InvalidDuration):
        generate_session(SubjectParams(), duration=2.9)
    with pytest.raises(ValueError):
        SessionConfig(sample_duration=2.9)
    with pytest.raises(ValueError):
        ExperimentConfig(duration=2.9)
    cfg = _write_config(tmp_path, dict(FAST_SYNTH, duration=2.9))
    assert main(["synth", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert not (tmp_path / "x").exists()

    imu, _, _ = generate_session(SubjectParams(), duration=3.0)
    assert len(imu) == 300
    assert SessionConfig(sample_duration=3.0).sample_duration == 3.0
    assert ExperimentConfig(duration=3.0).duration == 3.0


@pytest.mark.parametrize("walk", [{"duration": 1e12}, {"duration": 20.0},
                                  {"duration": 10.0, "distance": 12.0}],
                         ids=["huge", "under_camera", "near_camera"])
@pytest.mark.parametrize("command", ["synth", "evaluate"])
def test_walk_reaching_the_camera_is_config_error_and_writes_nothing(
        tmp_path, capsys, walk, command):
    with pytest.raises(InvalidDuration):
        ExperimentConfig(**walk)
    cfg = _write_config(tmp_path, dict(walk, cohort_size=2))
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "reaches the camera" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the longest walk the goldens take, 14.4 m of 18
    assert ExperimentConfig(duration=12.0).duration == 12.0


@pytest.mark.parametrize("geometry", [{"distance": 1e300},
                                      {"hover_height": 1e200}],
                         ids=["distance", "height"])
@pytest.mark.parametrize("command", ["synth", "evaluate"])
def test_camera_whose_squares_overflow_is_config_error_before_synthesis(
        tmp_path, capsys, session_calls, geometry, command):
    # the projection would overflow to inf with a numpy RuntimeWarning (an
    # error under this suite's warning filter) and then fail on its pixels
    cfg = _write_config(tmp_path, dict(geometry, cohort_size=3,
                                       attack_trials=1))
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "camera geometry" in capsys.readouterr().err
    assert session_calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("offset", [1e17, 1e300])
def test_synth_refusing_a_clock_offset_is_config_error_and_writes_nothing(
        tmp_path, capsys, offset):
    cfg = _write_config(tmp_path, {"cohort_size": 2, "clock_offset": offset})
    assert main(["synth", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "strictly increasing" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    '{"cohort_size": "3"}', '{"duration": "8"}', '{"seed": 1.5}',
    '{"loss_rate": null}', '{"attacks": 5}', '{"attacks": "relay"}',
    '{"attacks": ["relay", 1]}', '{"cohort_size": true}',
    '{"duration": NaN}', '{"fps": Infinity}', "[" * 100000,
    '{"scenarios": {"loss_rate": 0.3}}', '{"scenarios": "loss_rate"}',
    '{"scenarios": [0.3]}',
], ids=["str_int", "str_float", "float_int", "null_float", "int_attacks",
        "str_attacks", "int_attack", "bool_int", "nan_float", "inf_float",
        "deep_nesting", "object_scenarios", "str_scenarios",
        "number_scenario"])
def test_ill_typed_config_is_config_error(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["synth", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert not (tmp_path / "x").exists()


def test_config_values_are_not_coerced(tmp_path):
    cfg = _write_config(tmp_path, dict(FAST_SYNTH, duration=4))
    out = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert type(manifest["config"]["duration"]) is int
    assert manifest["config_sha256"] == ExperimentConfig(
        **dict(FAST_SYNTH, duration=4)).digest()


def test_config_digest_is_stable_and_sensitive():
    a = ExperimentConfig(seed=1)
    b = ExperimentConfig(seed=1)
    c = ExperimentConfig(seed=2)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_synth_writes_cohort_and_manifest(tmp_path):
    cfg = _write_config(tmp_path, FAST_SYNTH)
    out = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--seed", "3",
                 "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == MANIFEST_FORMAT == "gaitsync-v4"
    assert len(manifest["subjects"]) == 2
    for entry in manifest["subjects"]:
        assert len(entry["sessions"]) == 2
        for sess in entry["sessions"]:
            assert (out / sess["imu"]).exists()
            assert (out / sess["keypoints"]).exists()
            assert len(sess["cycle_boundaries"]) >= 2


def test_synth_is_deterministic(tmp_path):
    cfg = _write_config(tmp_path, FAST_SYNTH)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["synth", "--config", cfg, "--seed", "3", "--out", str(out1)])
    main(["synth", "--config", cfg, "--seed", "3", "--out", str(out2)])
    for name in ("subject00_session00_imu.npy",
                 "subject00_session00_keypoints.npy"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert ((out1 / "manifest.json").read_bytes()
            == (out2 / "manifest.json").read_bytes())


def test_synth_rejects_cohort_of_one(tmp_path):
    cfg = _write_config(tmp_path, {"cohort_size": 1})
    assert main(["synth", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_unknown_config_key_rejected(tmp_path):
    cfg = _write_config(tmp_path, {"chort_size": 3})
    assert main(["synth", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_enroll_flow_and_reload(tmp_path):
    cfg = _write_config(tmp_path, FAST_ENROLL)
    data = tmp_path / "data"
    models = tmp_path / "models"
    assert main(["synth", "--config", cfg, "--seed", "5",
                 "--out", str(data)]) == EXIT_OK
    assert main(["enroll", "--config", cfg, "--seed", "5", "--data",
                 str(data), "--subject", "0", "--out", str(models)]) == EXIT_OK
    meta = json.loads((models / "subject00_enrollment.json").read_text())
    assert sum(meta["feature_mask"]) >= 2
    enrollment = load_enrollment(models, 0)
    assert enrollment.consistency_model is not None
    assert enrollment.gait_model is not None


def test_enroll_from_files_equals_enroll_in_memory(tmp_path):
    # the session files carry every value exactly, so enrolling from them
    # trains the models that the synthesized sessions train in memory
    cfg = _write_config(tmp_path, FAST_ENROLL)
    data, models = tmp_path / "data", tmp_path / "models"
    assert main(["synth", "--config", cfg, "--seed", "5",
                 "--out", str(data)]) == EXIT_OK
    assert main(["enroll", "--config", cfg, "--seed", "5", "--data",
                 str(data), "--subject", "0", "--out", str(models)]) == EXIT_OK
    config = ExperimentConfig(seed=5, **FAST_ENROLL)
    subject = synth.make_cohort(config.cohort_size, seed=5)[0]
    sessions = []
    for k in range(config.sessions_per_subject):
        imu, kp, gt = generate_session(subject, config.camera, config.duration,
                                       config.clock_offset, seed_offset=k)
        sessions.append((imu, kp,
                         ClockOffsetEstimate.known(gt.clock_offset)))
    expected, got = enroll(sessions), load_enrollment(models, 0)
    for name in ("consistency_model", "gait_model"):
        assert (serialize_model(getattr(got, name))
                == serialize_model(getattr(expected, name)))


def test_enroll_is_deterministic(tmp_path):
    cfg = _write_config(tmp_path, FAST_ENROLL)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--seed", "5", "--out", str(data)])
    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    for m in (m1, m2):
        assert main(["enroll", "--config", cfg, "--seed", "5", "--data",
                     str(data), "--subject", "1", "--out", str(m)]) == EXIT_OK
    name = "subject01_gait.model"
    assert (m1 / name).read_bytes() == (m2 / name).read_bytes()
    assert ((m1 / "subject01_consistency.model").read_bytes()
            == (m2 / "subject01_consistency.model").read_bytes())


def test_enroll_insufficient_data_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, {"cohort_size": 2,
                                   "sessions_per_subject": 1,
                                   "duration": 4.0})
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--out", str(data)])
    assert main(["enroll", "--config", cfg, "--data", str(data),
                 "--subject", "0",
                 "--out", str(tmp_path / "m")]) == EXIT_CONFIG


def test_enroll_missing_data_dir_is_io_error(tmp_path):
    assert main(["enroll", "--data", str(tmp_path / "absent"),
                 "--subject", "0",
                 "--out", str(tmp_path / "m")]) == EXIT_IO


def test_enroll_bad_subject_index(tmp_path):
    cfg = _write_config(tmp_path, FAST_SYNTH)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--out", str(data)])
    assert main(["enroll", "--data", str(data), "--subject", "9",
                 "--out", str(tmp_path / "m")]) == EXIT_CONFIG


@pytest.mark.parametrize("field", ["clock_offset", "imu", "keypoints"])
def test_enroll_manifest_session_without_field_is_io_error(tmp_path, field):
    cfg = _write_config(tmp_path, FAST_SYNTH)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--out", str(data)])
    manifest = json.loads((data / "manifest.json").read_text())
    del manifest["subjects"][0]["sessions"][1][field]
    (data / "manifest.json").write_text(json.dumps(manifest))
    assert main(["enroll", "--data", str(data), "--subject", "0",
                 "--out", str(tmp_path / "m")]) == EXIT_IO


def test_enroll_deeply_nested_manifest_is_io_error(tmp_path):
    (tmp_path / "manifest.json").write_text("[" * 100000)
    assert main(["enroll", "--data", str(tmp_path), "--subject", "0",
                 "--out", str(tmp_path / "m")]) == EXIT_IO


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.integers(min_value=2 ** 1024) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)
_SESSION = st.fixed_dictionaries({}, optional={
    "imu": st.sampled_from(["", "manifest.json", "absent.npy"]) | _ANY_JSON,
    "keypoints": _ANY_JSON, "clock_offset": _ANY_JSON})
_MANIFEST = st.fixed_dictionaries({}, optional={
    "format": st.just(MANIFEST_FORMAT) | _ANY_JSON,
    "imu_rate": _ANY_JSON,
    "config": st.fixed_dictionaries({"fps": _ANY_JSON}) | _ANY_JSON,
    "subjects": st.lists(st.fixed_dictionaries(
        {"sessions": st.lists(_SESSION, max_size=2) | _ANY_JSON})
        | _ANY_JSON, max_size=2) | _ANY_JSON})


@given(st.binary(max_size=200)
       | _MANIFEST.map(lambda m: json.dumps(m).encode()))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_manifest_bytes_exit_config_or_io(tmp_path, blob):
    (tmp_path / "manifest.json").write_bytes(blob)
    assert main(["enroll", "--data", str(tmp_path), "--subject", "0",
                 "--out", str(tmp_path / "m")]) in (EXIT_CONFIG, EXIT_IO)


@pytest.fixture(scope="module")
def enroll_data(tmp_path_factory):
    """A synthesized data directory that enrolls subject 0."""
    root = tmp_path_factory.mktemp("enroll")
    cfg = _write_config(root, FAST_ENROLL)
    assert main(["synth", "--config", cfg, "--seed", "5",
                 "--out", str(root / "data")]) == EXIT_OK
    return root / "data"


def _enroll_edited(tmp_path, data, edit):
    """Enroll subject 0 from a copy of `data` whose manifest `edit` changed."""
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    edit(manifest)
    (copy / "manifest.json").write_text(json.dumps(manifest))
    return main(["enroll", "--data", str(copy), "--subject", "0",
                 "--out", str(tmp_path / "m")])


def test_enroll_manifest_without_subjects_is_io_error(tmp_path, capsys,
                                                     enroll_data):
    # as a subjects value that is not a list is: no empty cohort stands in
    assert _enroll_edited(tmp_path, enroll_data,
                          lambda m: m.pop("subjects")) == EXIT_IO
    assert "subjects list" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize(
    "version", ["gaitsync-v9", "", 2, None,
                "gaitsync-v1", "gaitsync-v2", "gaitsync-v3"],
    ids=["newer", "empty", "number", "absent",
         "gaitsync-v1", "gaitsync-v2", "gaitsync-v3"])
def test_enroll_manifest_of_another_format_is_io_error(tmp_path, capsys,
                                                       enroll_data, version):
    # a data directory of an older format is refused by name, as any other
    def edit(manifest):
        if version is None:
            del manifest["format"]
        else:
            manifest["format"] = version
    assert _enroll_edited(tmp_path, enroll_data, edit) == EXIT_IO
    assert f"format {version!r}" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, None],
                         ids=["nan", "inf", "missing"])
@pytest.mark.parametrize("field", ["imu_rate", "fps"])
def test_enroll_non_finite_rate_is_io_error(tmp_path, enroll_data, field,
                                            value):
    # the manifest is the one source of both rates: no default stands in
    def edit(manifest):
        owner = manifest if field == "imu_rate" else manifest["config"]
        if value is None:
            del owner[field]
        else:
            owner[field] = value
    assert _enroll_edited(tmp_path, enroll_data, edit) == EXIT_IO


@pytest.mark.parametrize("field, value, step", [
    ("fps", 30, "0.0166667"), ("fps", 10, "0.0166667"),
    ("imu_rate", 5, "0.01"), ("imu_rate", 1e6, "0.01")])
def test_enroll_rate_that_disagrees_with_the_files_is_io_error(
        tmp_path, capsys, enroll_data, field, value, step):
    # the files are at 60 fps and 100 Hz: a manifest rate off by more
    # than 1 % of the median timestamp step is refused, and nothing written;
    # at 1e6 Hz the streams would overlap by 0.001 s, so the rate is named
    # before any alignment can blame the duration
    def edit(manifest):
        (manifest if field == "imu_rate" else manifest["config"])[field] = value
    assert _enroll_edited(tmp_path, enroll_data, edit) == EXIT_IO
    err = capsys.readouterr().err
    assert (f"session00_{'imu' if field == 'imu_rate' else 'keypoints'}.npy: "
            f"manifest {field} {value:g} does not match the median timestamp "
            f"step {step} s") in err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "minus_inf"])
def test_enroll_non_finite_clock_offset_is_io_error(tmp_path, capsys,
                                                    enroll_data, value):
    # the manifest's offset of one session, not a failed alignment
    def edit(manifest):
        manifest["subjects"][0]["sessions"][1]["clock_offset"] = value
    assert _enroll_edited(tmp_path, enroll_data, edit) == EXIT_IO
    assert "clock_offset" in capsys.readouterr().err


@pytest.mark.parametrize("shift, code", [
    (0.004, EXIT_OK), (0.5, EXIT_IO), (100.0, EXIT_IO)])
def test_enroll_clock_offset_that_disagrees_with_the_files_is_io_error(
        tmp_path, capsys, enroll_data, shift, code):
    # synth starts each keypoint file at its IMU file's first timestamp plus
    # the offset, and enroll allows half a frame (1/120 s at 60 fps). Shifted
    # 0.5 s, the offsets would train a consistency model that reads a
    # genuine capture as inconsistent; shifted 100 s, the failed alignment
    # would be blamed on the sessions' duration
    def edit(manifest):
        for session in manifest["subjects"][0]["sessions"]:
            session["clock_offset"] += shift
    assert _enroll_edited(tmp_path, enroll_data, edit) == code
    if code == EXIT_IO:
        assert ("session00_keypoints.npy: manifest clock_offset "
                f"{0.08 + shift:g} s puts its first frame {-shift:+.6g} s "
                "from its IMU file's first sample") in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("fps", [1e-200, 1e200], ids=["tiny", "huge"])
def test_enroll_fps_outside_the_kalman_range_is_config_error(
        tmp_path, capsys, enroll_data, fps):
    def edit(manifest):
        manifest["config"]["fps"] = fps
    assert _enroll_edited(tmp_path, enroll_data, edit) == EXIT_CONFIG
    assert f"frame rate {fps} Hz" in capsys.readouterr().err


@pytest.mark.parametrize("field, name", [
    ("imu", "absolute"), ("imu", "../elsewhere/x_imu.npy"),
    ("keypoints", "subject01_session00_keypoints.npy"),
    ("keypoints", "subject00_session01_keypoints.npy")],
    ids=["absolute", "parent_dir", "other_subject", "other_session"])
def test_enroll_opens_only_the_session_names_synth_writes(
        tmp_path, capsys, enroll_data, field, name):
    # every name leads to a valid session file that enroll would load
    elsewhere = tmp_path / "elsewhere" / "x_imu.npy"
    elsewhere.parent.mkdir()
    shutil.copy(enroll_data / "subject00_session00_imu.npy", elsewhere)
    if name == "absolute":
        name = str(elsewhere)

    def edit(manifest):
        manifest["subjects"][0]["sessions"][0][field] = name
    assert _enroll_edited(tmp_path, enroll_data, edit) == EXIT_IO
    assert ("session 0 files must be named ('subject00_session00_imu.npy', "
            "'subject00_session00_keypoints.npy')" in capsys.readouterr().err)
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("count", [0, 1])
def test_enroll_names_a_session_count_too_few_to_train(tmp_path, capsys,
                                                       enroll_data, count):
    def edit(manifest):
        del manifest["subjects"][0]["sessions"][count:]
    assert _enroll_edited(tmp_path, enroll_data, edit) == EXIT_CONFIG
    assert (f"session count {count} is too few to enroll subject 0"
            in capsys.readouterr().err)
    assert not (tmp_path / "m").exists()


def test_enroll_names_a_duration_too_short_to_align(tmp_path, capsys):
    cfg = _write_config(tmp_path, dict(FAST_ENROLL, duration=3))
    assert main(["synth", "--config", cfg,
                 "--out", str(tmp_path / "data")]) == EXIT_OK
    capsys.readouterr()
    assert main(["enroll", "--data", str(tmp_path / "data"), "--subject",
                 "0", "--out", str(tmp_path / "m")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert ("the sessions' synth duration is too short to align subject 0"
            in err)
    assert f"(MIN_OVERLAP_S {MIN_OVERLAP_S} s): overlap 2.983 s" in err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("command", ["synth", "enroll", "evaluate"])
def test_negative_seed_is_config_error_and_writes_nothing(
        tmp_path, capsys, enroll_data, command):
    data = (["--data", str(enroll_data), "--subject", "0"]
            if command == "enroll" else [])
    assert main([command, "--seed", "-1", *data,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=-1)


@pytest.mark.parametrize("fault", ["subnormal_keypoints", "short_imu"])
def test_enroll_with_one_faulty_session_file_is_config_error(
        tmp_path, capsys, enroll_data, fault):
    # the faulty session sits among good ones: its named error still ends
    # the enrollment with exit 2, and no model is written
    copy = tmp_path / "data"
    shutil.copytree(enroll_data, copy)
    stem = copy / "subject00_session01"
    imu = read_imu_npy(f"{stem}_imu.npy")
    kp = read_keypoint_npy(f"{stem}_keypoints.npy")
    if fault == "short_imu":
        write_imu_npy(f"{stem}_imu.npy", ImuSeries(
            imu.t[:10], imu.acc[:10], imu.gyro[:10]))
    else:
        uv = kp.uv.copy()
        uv[:, JOINT_INDEX["wrist_r"], 0] = np.resize([0.0, 5e-324], len(uv))
        write_keypoint_npy(f"{stem}_keypoints.npy",
                           KeypointSeries(kp.t, uv, kp.conf))
    assert main(["enroll", "--data", str(copy), "--subject", "0",
                 "--out", str(tmp_path / "m")]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_enroll_unwritable_output_is_io_error(tmp_path):
    cfg = _write_config(tmp_path, FAST_ENROLL)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--seed", "5", "--out", str(data)])
    out = data / "manifest.json" / "models"    # a path below a file
    assert main(["enroll", "--config", cfg, "--seed", "5", "--data",
                 str(data), "--subject", "0", "--out", str(out)]) == EXIT_IO


CONS, GAIT = "subject00_consistency.model", "subject00_gait.model"


def _write_model(path, width):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(serialize_model(fit_ocsvm_fixed(
        np.random.default_rng(width).normal(size=(20, width)),
        nu=0.1, gamma=0.5)))


def _write_meta(models, consistency=CONS, gait=GAIT, **extra):
    (models / "subject00_enrollment.json").write_text(json.dumps(
        {"consistency_model": consistency, "gait_model": gait, **extra}))


@pytest.mark.parametrize("meta, models", [
    ("{not json", "whole"),
    ('{"consistency_model": "CONS", "gait_model": "GAIT"}', "whole"),
    ('["CONS"]', "whole"),
    ('{"consistency_model": "CONS", "gait_model": "GAIT", '
     '"feature_mask": [1, 1]}', "no_gait_file"),
    ('{"consistency_model": "CONS", "gait_model": "GAIT", '
     '"feature_mask": [1, 1]}', "truncated"),
    ('{"consistency_model": "CONS", "gait_model": "GAIT", '
     '"feature_mask": [1, 1]}', "whole"),
    ('{"consistency_model": "CONS", "gait_model": "GAIT", '
     '"feature_mask": [1, 1, 1]}', "whole"),
    ('{"consistency_model": "CONS", "gait_model": "GAIT", '
     '"feature_mask": [1, "1", 0]}', "whole"),
    ("[" * 100000, "whole"),
    ('{"consistency_model": "CONS", "gait_model": "GAIT", '
     '"feature_mask": [1, 1, 0]}', "whole"),
    # a model directory of the six-feature format, which loads if its
    # mask is read by width alone
    ('{"consistency_model": "CONS", "gait_model": "GAIT", '
     '"feature_mask": [1, 0, 1, 0, 0, 0]}', "gait_30_wide"),
], ids=["bad_json", "no_mask", "not_an_object", "missing_model",
        "truncated_model", "short_mask", "mask_wider_than_model",
        "non_integer_mask", "deep_nesting", "gait_model_not_30_wide",
        "six_entry_mask"])
def test_load_enrollment_failures_are_io_failures(tmp_path, meta, models):
    # both models are 2 wide, so only the consistency model fits its mask,
    # unless the gait model is 30 wide
    blob = serialize_model(fit_ocsvm_fixed(
        np.random.default_rng(0).normal(size=(20, 2)), nu=0.1, gamma=0.5))
    (tmp_path / CONS).write_bytes(blob[:50] if models == "truncated"
                                  else blob)
    if models == "gait_30_wide":
        _write_model(tmp_path / GAIT, 30)
    elif models != "no_gait_file":
        (tmp_path / GAIT).write_bytes(blob)
    (tmp_path / "subject00_enrollment.json").write_text(
        meta.replace('"CONS"', f'"{CONS}"').replace('"GAIT"', f'"{GAIT}"'))
    with pytest.raises(IoFailure):
        load_enrollment(tmp_path, 0)


def test_load_enrollment_accepts_mask_of_model_width(tmp_path):
    _write_model(tmp_path / CONS, 2)
    _write_model(tmp_path / GAIT, 30)
    _write_meta(tmp_path, feature_mask=[0, 1, 1])
    mask = load_enrollment(tmp_path, 0).feature_mask
    assert mask.tolist() == [False, True, True]


def test_load_enrollment_names_the_mask_length_it_expects(tmp_path):
    _write_model(tmp_path / CONS, 2)
    _write_model(tmp_path / GAIT, 30)
    _write_meta(tmp_path, feature_mask=[1, 0, 1, 0, 0, 0])
    with pytest.raises(IoFailure, match=r"found 6 feature mask entries, "
                       r"expected one per feature of \('pcc', 'mae', "
                       r"'coh'\)"):
        load_enrollment(tmp_path, 0)


@pytest.mark.parametrize("where", ["relative", "absolute", "other_subject"])
def test_load_enrollment_opens_only_the_names_enroll_writes(tmp_path, where):
    # a valid gait model outside its name: the JSON may not point at it
    models = tmp_path / "models"
    _write_model(models / CONS, 2)
    elsewhere = {"relative": tmp_path / "elsewhere" / "g.model",
                 "absolute": tmp_path / "elsewhere" / "g.model",
                 "other_subject": models / "subject01_gait.model"}[where]
    _write_model(elsewhere, 30)
    name = {"relative": "../elsewhere/g.model", "absolute": str(elsewhere),
            "other_subject": elsewhere.name}[where]
    _write_meta(models, gait=name, feature_mask=[0, 1, 1])
    with pytest.raises(IoFailure, match="must be named"):
        load_enrollment(models, 0)
    # the same files under enroll's names load
    elsewhere.rename(models / GAIT)
    _write_meta(models, feature_mask=[0, 1, 1])
    assert load_enrollment(models, 0).gait_model is not None


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "x")]) == EXIT_IO


def test_cli_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path, dict(FAST_SYNTH, seed=4))
    out = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--seed", "9",
                 "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9


def test_enroll_takes_no_camera_flags(tmp_path):
    # the camera knobs, attacks and fidelity are set in the config file
    # only, so no subcommand takes a flag for them
    required = {"synth": [], "evaluate": [],
                "enroll": ["--data", str(tmp_path), "--subject", "0"]}
    for command, args in required.items():
        for flag in ("--fps", "--distance", "--hover-height", "--angle",
                     "--attack", "--fidelity"):
            with pytest.raises(SystemExit) as exc:
                main([command, flag, "1", *args,
                      "--out", str(tmp_path / "x")])
            assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "x").exists()


def test_readme_commands_parse():
    # every flag of README's command lines exists on that subcommand
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    inline = re.findall(r"`python3 -m syncgait\.cli ([^`]*)`", readme)
    blocks = re.findall(r"^python3 -m syncgait\.cli ((?:.*\\\n)*.*)",
                        readme, re.MULTILINE)
    commands = [shlex.split(c.replace("\\\n", " "))
                for c in inline + blocks]
    assert len(commands) == readme.count("python3 -m syncgait.cli")
    assert {c[0] for c in commands} == {"synth", "enroll", "evaluate"}
    for command in commands:
        build_parser().parse_args(command)


@pytest.mark.parametrize("sessions, seed, subject", [
    pytest.param(1, 1, 0, id="1-1"), pytest.param(2, 3, 0, id="2-3"),
    # subject 0 enrolls from two sessions, subject 1 cannot
    pytest.param(2, 7, 1, id="2-7")])
def test_evaluate_names_enroll_sessions_too_few_to_train(
        tmp_path, capsys, session_calls, sessions, seed, subject):
    cfg = _write_config(tmp_path, {"cohort_size": 2, "seed": seed,
                                   "enroll_sessions": sessions,
                                   "attack_trials": 1})
    assert main(["evaluate", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert (f"enroll_sessions {sessions} is too few to enroll subject "
            f"{subject}" in capsys.readouterr().err)
    # the cohort enrolls as one batch, so every subject's enrollment
    # captures are made, and no trial capture is, before the error
    assert session_calls == [10 + k for k in range(sessions)] * 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("fps, overlap", [(60.0, 2.983), (10.0, 2.9)])
def test_evaluate_names_a_duration_too_short_to_align(tmp_path, capsys, fps,
                                                      overlap):
    cfg = _write_config(tmp_path, {"cohort_size": 2, "attack_trials": 1,
                                   "duration": 3, "fps": fps})
    assert main(["evaluate", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"duration 3 s at fps {fps} is too short to align subject 0" in err
    assert f"(MIN_OVERLAP_S {MIN_OVERLAP_S} s): overlap {overlap:.3f} s" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("payload, message", [
    # a victim's second attack trial would take the victim as attacker
    ({"cohort_size": 2, "attack_trials": 2},
     "attack_trials 2 must be below cohort_size 2"),
    ({"cohort_size": 3, "attack_trials": 5},
     "attack_trials 5 must be below cohort_size 3"),
    # enrollment session 50 would be genuine trial 0's capture
    ({"cohort_size": 2, "attack_trials": 1, "enroll_sessions": 51},
     "enroll_sessions 51 exceeds 50"),
], ids=["self_attack", "attacks_beyond_cohort", "enrollment_leak"])
def test_evaluate_refuses_trials_that_reuse_a_subject_or_capture(
        tmp_path, capsys, session_calls, payload, message):
    cfg = _write_config(tmp_path, payload)
    assert main(["evaluate", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert session_calls == []
    assert not (tmp_path / "x").exists()


def test_invalid_loss_rate_flag(tmp_path):
    assert main(["evaluate", "--loss-rate", "0.9",
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG


TINY_EVALUATE = {"cohort_size": 2, "enroll_sessions": 6,
                 "genuine_trials": 1, "attack_trials": 1}
SCENARIOS = [{"loss_rate": 0.3}, {"attacks": ["mimicry"], "fidelity": 0.9}]


def _evaluate_report(tmp_path, name, payload):
    cfg = _write_config(tmp_path, payload, name=f"{name}.json")
    out = tmp_path / name
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    return json.loads((out / "report.json").read_text())


def test_evaluate_scenarios_equal_separate_flagged_runs(tmp_path):
    sweep = _evaluate_report(tmp_path, "sweep",
                             dict(TINY_EVALUATE, scenarios=SCENARIOS))
    plain = _evaluate_report(tmp_path, "plain", TINY_EVALUATE)
    assert sweep["config"]["scenarios"] == SCENARIOS
    assert {k: v for k, v in sweep.items()
            if k not in ("config", "config_sha256", "scenarios")} == {
        k: v for k, v in plain.items() if k not in ("config", "config_sha256")}
    assert len(sweep["scenarios"]) == len(SCENARIOS)
    for i, (scenario, entry) in enumerate(zip(sweep["scenarios"], SCENARIOS)):
        alone = _evaluate_report(tmp_path, f"alone{i}",
                                 dict(TINY_EVALUATE, **entry))
        assert scenario == alone


def test_evaluate_counts_a_trial_without_a_decision_as_rejected(
        tmp_path, monkeypatch):
    # every batch, and so every attempt re-scored alone, fails before it is
    # scored: no session makes a decision, so each trial is rejected and
    # reads -1.0 on every score stream
    def no_scores(attempts):
        raise InsufficientOverlap("no scores")
    monkeypatch.setattr(protocol, "attempt_scores", no_scores)
    report = _evaluate_report(tmp_path, "x", TINY_EVALUATE)
    for rates in (report["genuine"], *report["attacks"].values()):
        assert rates == {"n": 2, "accept_rate": 0.0,
                         "consistency_pass_rate": 0.0,
                         "gait_pass_rate": 0.0, "fused_pass_rate": 0.0}
    for name in ("consistency", "gait", "fused"):
        assert (tmp_path / "x" / f"roc_{name}.csv").read_text() == (
            "threshold,far,tar\n-2,1,1\n-1,1,1\n0,0,0\n")


def test_evaluate_scores_each_configs_trials_as_one_batch(tmp_path,
                                                         monkeypatch):
    # one feature pass for the cohort's enrollment, and one per config:
    # every subject's genuine and attack trials of a config run as one batch
    calls = []
    real = pipeline.compute_features

    def counted(pairs):
        calls.append(len(pairs))
        return real(pairs)
    monkeypatch.setattr(pipeline, "compute_features", counted)
    report = _evaluate_report(tmp_path, "x",
                              dict(TINY_EVALUATE, scenarios=SCENARIOS))
    assert len(calls) == 1 + 1 + len(SCENARIOS)
    # each batch holds every trial of its config, one pair apiece
    trials = [run["genuine"]["n"]
              + sum(attack["n"] for attack in run["attacks"].values())
              for run in (report, *report["scenarios"])]
    assert calls[1:] == trials


def test_evaluate_without_scenarios_keeps_its_config_and_digest():
    cfg = ExperimentConfig(**TINY_EVALUATE)
    assert cfg.to_dict() == ExperimentConfig(**TINY_EVALUATE,
                                             scenarios=[]).to_dict()
    assert "scenarios" not in cfg.to_dict()
    assert cfg.scenario_configs == ()


@pytest.mark.parametrize("scenarios", [
    [{"distance": 30.0}], [{"loss_rate": 0.3, "scenarios": []}],
    [{"loss_rate": 0.9}], [{"attacks": ["teleport"]}], [{"fidelity": "high"}],
], ids=["distance_key", "nested_key", "bad_loss_rate", "bad_attack",
        "bad_fidelity"])
def test_evaluate_bad_scenarios_are_config_errors(tmp_path, scenarios):
    cfg = _write_config(tmp_path, dict(TINY_EVALUATE, scenarios=scenarios))
    assert main(["evaluate", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert not (tmp_path / "x").exists()


@pytest.fixture
def session_calls(monkeypatch):
    """Counts generate_session calls, from cli and from generate_attack."""
    calls = []
    real = synth.generate_session

    def counted(*args, **kwargs):
        calls.append(kwargs.get("seed_offset"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_session", counted)
    monkeypatch.setattr(synth, "generate_session", counted)
    return calls


def test_evaluate_sweep_synthesizes_each_capture_once(tmp_path,
                                                      session_calls):
    _evaluate_report(tmp_path, "plain", TINY_EVALUATE)
    plain = sorted(session_calls)
    # 12 enrollment captures, 2 genuine, and per subject a relay (two
    # sessions), a hijack and a mimicry capture
    assert len(plain) == 12 + 2 + 2 * 4
    # README's attack table adds, per subject, a mimicry capture at each
    # of two more fidelities
    table = {"attacks": ["relay", "hijack"],
             "scenarios": [{"attacks": ["mimicry"], "fidelity": f}
                           for f in (0.0, 0.5, 0.9)]}
    table_offsets = sorted(plain + [900, 900, 910, 910])
    assert len(table_offsets) == 26
    for name, payload, offsets in [
            ("sweep", {"scenarios": [{"loss_rate": 0.3}, {"loss_rate": 0.6}]},
             plain),
            ("table", table, table_offsets)]:
        session_calls.clear()
        _evaluate_report(tmp_path, name, dict(TINY_EVALUATE, **payload))
        assert sorted(session_calls) == offsets


@pytest.mark.parametrize("where", ["base", "scenario"])
@pytest.mark.parametrize("attacks", [[], ["relay", "relay"]],
                         ids=["empty", "repeated"])
def test_evaluate_refuses_empty_or_repeated_attacks_before_synthesis(
        tmp_path, capsys, session_calls, where, attacks):
    payload = (dict(TINY_EVALUATE, attacks=attacks) if where == "base"
               else dict(TINY_EVALUATE, scenarios=[{"attacks": attacks}]))
    cfg = _write_config(tmp_path, payload)
    assert main(["evaluate", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "attacks" in capsys.readouterr().err
    assert session_calls == []
    assert not (tmp_path / "x").exists()
