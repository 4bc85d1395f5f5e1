"""On-disk formats: versioned CSV/JSONL round trips and the cycle record."""

import numpy as np
import pytest

from syncgait.errors import IoFailure
from syncgait.io import (FORMAT_TAG, IMU_COLUMNS, pack_cycle, read_imu_csv,
                         read_keypoint_jsonl, unpack_cycle, write_imu_csv,
                         write_keypoint_jsonl)
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
    assert len(back.frames) == len(kp.frames)
    for a, b in zip(kp.frames[:10], back.frames[:10]):
        assert a.t == pytest.approx(b.t)
        for name, (u, v, c) in a.joints.items():
            bu, bv, bc = b.joints[name]
            assert (u, v, c) == (bu, bv, bc)


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
], ids=["header_only", "ragged_row", "short_rows", "non_numeric"])
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


def test_cycle_record_round_trip_exact():
    rng = np.random.default_rng(3)
    channels = rng.normal(size=(6, 150))
    blob = pack_cycle(channels, 1.25, 2.75)
    back, t0, t1 = unpack_cycle(blob)
    assert np.array_equal(back, channels)
    assert (t0, t1) == (1.25, 2.75)
    # fixed header layout: u32 length, u32 channels, two f64 timestamps
    assert len(blob) == 24 + 6 * 150 * 8
