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

from syncgait import cli, synth
from syncgait.classify import fit_ocsvm_fixed, serialize_model
from syncgait.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, MANIFEST_FORMAT,
                          ExperimentConfig, build_parser, load_enrollment,
                          main)
from syncgait.errors import InvalidDuration, IoFailure
from syncgait.pipeline import enroll
from syncgait.protocol import SessionConfig
from syncgait.synth import SubjectParams, generate_session
from syncgait.syncing import MIN_SESSION_S, ClockOffsetEstimate

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
    assert manifest["format"] == MANIFEST_FORMAT == "gaitsync-v3"
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
                         ClockOffsetEstimate(gt.clock_offset, 1e-6, 0.005)))
    expected, got = enroll(sessions, seed=5), load_enrollment(models, 0)
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


def test_enroll_refuses_a_v1_data_directory(tmp_path, capsys, enroll_data):
    # and a v2 one: a data directory of an older format is refused by name
    for version in ("gaitsync-v1", "gaitsync-v2"):
        shutil.rmtree(tmp_path / "data", ignore_errors=True)
        assert _enroll_edited(tmp_path, enroll_data,
                              lambda m: m.update(format=version)) == EXIT_IO
        assert f"{version!r}" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("version", ["gaitsync-v9", "", 2, None],
                         ids=["newer", "empty", "number", "absent"])
def test_enroll_manifest_of_another_format_is_io_error(tmp_path, capsys,
                                                       enroll_data, version):
    def edit(manifest):
        if version is None:
            del manifest["format"]
        else:
            manifest["format"] = version
    assert _enroll_edited(tmp_path, enroll_data, edit) == EXIT_IO
    assert f"format {version!r}" in capsys.readouterr().err


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


@pytest.mark.parametrize("fps", [1e-200, 1e200], ids=["tiny", "huge"])
def test_enroll_fps_outside_the_kalman_range_is_config_error(
        tmp_path, capsys, enroll_data, fps):
    def edit(manifest):
        manifest["config"]["fps"] = fps
    assert _enroll_edited(tmp_path, enroll_data, edit) == EXIT_CONFIG
    assert f"frame rate {fps} Hz" in capsys.readouterr().err


def test_enroll_unwritable_output_is_io_error(tmp_path):
    cfg = _write_config(tmp_path, FAST_ENROLL)
    data = tmp_path / "data"
    main(["synth", "--config", cfg, "--seed", "5", "--out", str(data)])
    out = data / "manifest.json" / "models"    # a path below a file
    assert main(["enroll", "--config", cfg, "--seed", "5", "--data",
                 str(data), "--subject", "0", "--out", str(out)]) == EXIT_IO


@pytest.mark.parametrize("meta, truncate", [
    ("{not json", False),
    ('{"consistency_model": "c.model", "gait_model": "c.model"}', False),
    ('["c.model"]', False),
    ('{"consistency_model": "c.model", "gait_model": "absent.model", '
     '"feature_mask": [1, 1]}', False),
    ('{"consistency_model": "c.model", "gait_model": "c.model", '
     '"feature_mask": [1, 1]}', True),
    ('{"consistency_model": "c.model", "gait_model": "c.model", '
     '"feature_mask": [1, 1]}', False),
    ('{"consistency_model": "c.model", "gait_model": "c.model", '
     '"feature_mask": [1, 1, 1, 0, 0, 0]}', False),
    ('{"consistency_model": "c.model", "gait_model": "c.model", '
     '"feature_mask": [1, "1", 0, 0, 0, 0]}', False),
    ("[" * 100000, False),
    ('{"consistency_model": "c.model", "gait_model": "c.model", '
     '"feature_mask": [1, 1, 0, 0, 0, 0]}', False),
], ids=["bad_json", "no_mask", "not_an_object", "missing_model",
        "truncated_model", "short_mask", "mask_wider_than_model",
        "non_integer_mask", "deep_nesting", "gait_model_not_30_wide"])
def test_load_enrollment_failures_are_io_failures(tmp_path, meta, truncate):
    blob = serialize_model(fit_ocsvm_fixed(
        np.random.default_rng(0).normal(size=(20, 2)), nu=0.1, gamma=0.5))
    (tmp_path / "c.model").write_bytes(blob[:50] if truncate else blob)
    (tmp_path / "subject00_enrollment.json").write_text(meta)
    with pytest.raises(IoFailure):
        load_enrollment(tmp_path, 0)


def test_load_enrollment_accepts_mask_of_model_width(tmp_path):
    rng = np.random.default_rng(0)
    for name, width in (("c.model", 2), ("g.model", 30)):
        (tmp_path / name).write_bytes(serialize_model(fit_ocsvm_fixed(
            rng.normal(size=(20, width)), nu=0.1, gamma=0.5)))
    (tmp_path / "subject00_enrollment.json").write_text(json.dumps(
        {"consistency_model": "c.model", "gait_model": "g.model",
         "feature_mask": [0, 1, 0, 0, 1, 0]}))
    mask = load_enrollment(tmp_path, 0).feature_mask
    assert mask.tolist() == [False, True, False, False, True, False]


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


@pytest.mark.parametrize("sessions, seed", [(1, 1), (2, 3)])
def test_evaluate_names_enroll_sessions_too_few_to_train(tmp_path, capsys,
                                                         sessions, seed):
    cfg = _write_config(tmp_path, {"cohort_size": 2, "seed": seed,
                                   "enroll_sessions": sessions})
    assert main(["evaluate", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert (f"enroll_sessions {sessions} is too few to enroll subject 0"
            in capsys.readouterr().err)


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
    plain = len(session_calls)
    session_calls.clear()
    _evaluate_report(tmp_path, "sweep", dict(
        TINY_EVALUATE, scenarios=[{"loss_rate": 0.3}, {"loss_rate": 0.6}]))
    assert len(session_calls) == plain
    # 12 enrollment captures, 2 genuine, and per subject a relay (two
    # sessions), a hijack and a mimicry capture
    assert plain == 12 + 2 + 2 * 4


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
