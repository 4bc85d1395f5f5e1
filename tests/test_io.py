"""On-disk formats: versioned CSV/JSONL round trips and malformed input."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from syncgait.errors import IoFailure
from syncgait.io import (FORMAT_TAG, IMU_COLUMNS, read_imu_csv,
                         read_keypoint_jsonl, write_imu_csv,
                         write_keypoint_jsonl)
from syncgait.series import ImuSeries, KeypointSeries
from syncgait.synth import SubjectParams, generate_session


@pytest.fixture(scope="module")
def session():
    return generate_session(SubjectParams(seed=31), duration=4.0)


def test_imu_csv_round_trip(tmp_path, session):
    imu, _, _ = session
    path = tmp_path / "imu.csv"
    write_imu_csv(path, imu)
    lines = path.read_text().splitlines()
    assert lines[0] == FORMAT_TAG
    assert lines[1] == IMU_COLUMNS
    back = read_imu_csv(path)
    assert np.allclose(back.t, imu.t, atol=1e-9)
    assert np.allclose(back.acc, imu.acc, rtol=1e-6)
    assert np.allclose(back.gyro, imu.gyro, rtol=1e-6)
    assert np.allclose(back.mag, imu.mag, rtol=1e-6)


def test_keypoint_jsonl_round_trip(tmp_path, session):
    _, kp, _ = session
    path = tmp_path / "kp.jsonl"
    write_keypoint_jsonl(path, kp)
    assert path.read_text().splitlines()[0] == FORMAT_TAG
    back = read_keypoint_jsonl(path)
    assert np.array_equal(back.t, kp.t)
    assert np.array_equal(back.uv, kp.uv)
    assert np.array_equal(back.conf, kp.conf)
    write_keypoint_jsonl(tmp_path / "again.jsonl", back)
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_missing_header_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,ax\n0,1\n")
    with pytest.raises(IoFailure):
        read_imu_csv(bad)
    with pytest.raises(IoFailure):
        read_keypoint_jsonl(bad)


@pytest.mark.parametrize("body", [
    "",
    "0,1,2,3,4,5,6,7,8,9\n0.01,1,2,3\n",
    "0,1,2,3,4,5,6,7,8\n",
    "0,1,2,3,4,5,6,7,8,x\n",
    "0,1,2,3,4,5,6,7,8,9\n0.01,1,2,nan,4,5,6,7,8,9\n",
    "0,1,2,3,4,5,6,7,8,9\n0,1,2,3,4,5,6,7,8,9\n",
], ids=["header_only", "ragged_row", "short_rows", "non_numeric",
        "non_finite", "repeated_time"])
def test_malformed_imu_rows_raise_io_failure(tmp_path, body):
    path = tmp_path / "imu.csv"
    path.write_text(f"{FORMAT_TAG}\n{IMU_COLUMNS}\n{body}")
    with pytest.raises(IoFailure):
        read_imu_csv(path)


def test_missing_file_raises_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_imu_csv(tmp_path / "nope.csv")
    with pytest.raises(IoFailure):
        write_imu_csv(tmp_path / "no" / "dir" / "imu.csv",
                      generate_session(SubjectParams(seed=1),
                                       duration=4.0)[0])


def _frame(t=0.0, **joints):
    return json.dumps({"t": t, "joints": joints or {"wrist_r": [1, 2, 0.5]}})


@pytest.mark.parametrize("body", [
    "",
    "{not json\n",
    json.dumps({"t": 0.0}) + "\n",
    json.dumps({"joints": {}}) + "\n",
    _frame(wrist_r=[1.0, 2.0]) + "\n",
    _frame(wrist_r=[1.0, "x", 0.5]) + "\n",
    _frame(wrist_r=[float("nan"), 2.0, 0.5]) + "\n",
    _frame(wrist_r=[1.0, 2.0, 1.5]) + "\n",
    _frame(spine=[1.0, 2.0, 0.5]) + "\n",
    _frame(0.1) + "\n" + _frame(0.1) + "\n",
    "[1, 2, 3]\n",
    "[" * 100000 + "\n",
], ids=["no_frames", "bad_json", "no_joints", "no_t", "two_element_joint",
        "non_numeric", "nan_coordinate", "bad_confidence", "unknown_joint",
        "repeated_time", "not_an_object", "deep_nesting"])
def test_malformed_keypoint_frames_raise_io_failure(tmp_path, body):
    path = tmp_path / "kp.jsonl"
    path.write_text(f"{FORMAT_TAG}\n{body}")
    with pytest.raises(IoFailure):
        read_keypoint_jsonl(path)


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["t", "joints", "wrist_r", "spine"]) | _TEXT,
        inner, max_size=4),
    max_leaves=12)


@given(st.lists(_TEXT | _JSON.map(json.dumps) | st.floats().map(_frame),
                max_size=4))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_keypoint_text_reads_or_raises_io_failure(tmp_path, lines):
    path = tmp_path / "kp.jsonl"
    path.write_text("\n".join([FORMAT_TAG, *lines]), encoding="utf-8")
    try:
        kp = read_keypoint_jsonl(path)
    except IoFailure:
        return
    assert isinstance(kp, KeypointSeries) and len(kp) >= 1


_FIELD = st.floats().map(repr) | st.integers().map(str) | st.text(max_size=4)


@given(st.lists(_TEXT | st.lists(_FIELD, max_size=11).map(",".join),
                max_size=5))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_imu_text_reads_or_raises_io_failure(tmp_path, lines):
    path = tmp_path / "imu.csv"
    path.write_text("\n".join([FORMAT_TAG, IMU_COLUMNS, *lines]),
                    encoding="utf-8")
    try:
        imu = read_imu_csv(path)
    except IoFailure:
        return
    assert isinstance(imu, ImuSeries) and len(imu) >= 1
