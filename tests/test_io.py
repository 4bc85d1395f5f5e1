"""On-disk formats: binary IMU and keypoint session files, their bit-exact
round trips and malformed input."""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from syncgait import io as session_io
from syncgait.errors import IoFailure
from syncgait.io import (read_imu_npy, read_keypoint_npy, write_imu_npy,
                         write_keypoint_npy)
from syncgait.series import (JOINT_INDEX, REQUIRED_JOINTS, ImuSeries,
                             KeypointSeries)
from syncgait.synth import SubjectParams, generate_session

IMU_WIDTH = 10
KEYPOINT_WIDTH = 1 + 3 * len(REQUIRED_JOINTS)
# (reader, series class, matrix width) for each kind of session file
READERS = [(read_imu_npy, ImuSeries, IMU_WIDTH),
           (read_keypoint_npy, KeypointSeries, KEYPOINT_WIDTH)]
READER_IDS = ["imu", "keypoints"]


@pytest.fixture(scope="module")
def session():
    return generate_session(SubjectParams(seed=31), duration=4.0)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _npy_bytes(array, **header):
    """`array` as np.save writes it, or, given `header` fields, its raw
    bytes below a forged version 1.0 header."""
    buf = io.BytesIO()
    if header:
        np.lib.format.write_array_header_1_0(buf, {
            "descr": "<f8", "fortran_order": False, "shape": array.shape,
            **header})
        buf.write(array.tobytes())
    else:
        np.save(buf, array, allow_pickle=array.dtype == object)
    return buf.getvalue()


def _valid_matrix(n, width):
    """n rows that read as a series of either kind: increasing t, values
    in [0, 1]."""
    data = np.full((n, width), 0.5)
    data[:, 0] = np.arange(n) / 60
    return data


def test_imu_csv_round_trip(tmp_path, session):
    # the benchmark's traced run wraps the binary writer and reader by
    # their former names
    assert session_io.write_imu_csv is write_imu_npy
    assert session_io.read_imu_csv is read_imu_npy
    imu, _, _ = session
    path = tmp_path / "imu.npy"
    session_io.write_imu_csv(path, imu)
    back = session_io.read_imu_csv(path, sample_rate=imu.sample_rate)
    for name in ("t", "acc", "gyro", "mag"):
        assert _bits(getattr(back, name)) == _bits(getattr(imu, name))
    assert np.load(path).shape == (len(imu), IMU_WIDTH)


def test_imu_csv_with_a_non_finite_field_loads(tmp_path, session):
    # no stage reads the magnetometer, so a broken field refuses no capture
    imu, _, _ = session
    mag = imu.mag.copy()
    mag[10, 0] = np.nan
    path = tmp_path / "imu.npy"
    write_imu_npy(path, ImuSeries(imu.t, imu.acc, imu.gyro, mag,
                                  imu.sample_rate))
    back = read_imu_npy(path)
    assert np.isnan(back.mag[10, 0])
    assert np.isfinite(np.delete(back.mag, 10, axis=0)).all()
    assert np.array_equal(back.acc, imu.acc)


def test_keypoint_columns_hold_each_joint_field_in_order(tmp_path, session):
    _, kp, _ = session
    path = tmp_path / "kp.npy"
    write_keypoint_npy(path, kp)
    data = np.load(path, allow_pickle=False)
    assert data.shape == (len(kp), KEYPOINT_WIDTH)
    assert data.dtype == np.dtype("<f8") and data.flags.c_contiguous
    assert np.array_equal(data[:, 0], kp.t)
    j = JOINT_INDEX["wrist_r"]
    assert np.array_equal(data[:, 1 + 3 * j:4 + 3 * j],
                          np.column_stack([kp.uv[:, j], kp.conf[:, j]]))


def test_keypoint_csv_round_trip(tmp_path, session):
    # named for the former keypoint CSV, as test_imu_csv_round_trip is
    assert session_io.write_keypoint_jsonl is write_keypoint_npy
    assert session_io.read_keypoint_jsonl is read_keypoint_npy
    _, kp, _ = session
    path = tmp_path / "kp.npy"
    write_keypoint_npy(path, kp)
    back = read_keypoint_npy(path)
    for name in ("t", "uv", "conf"):
        assert _bits(getattr(back, name)) == _bits(getattr(kp, name))
    assert all(a.flags.c_contiguous for a in (back.t, back.uv, back.conf))
    write_keypoint_npy(tmp_path / "again.npy", back)
    assert (tmp_path / "again.npy").read_bytes() == path.read_bytes()


_FINITE = (st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-309, 1e308,
                            -1e308])
           | st.floats(allow_nan=False, allow_infinity=False))
_UNIT = st.sampled_from([-0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0)
_TIMES = st.integers(1, 4).flatmap(lambda n: st.lists(
    _FINITE, min_size=n, max_size=n, unique=True).map(sorted))
_KEYPOINT_ARRAYS = _TIMES.flatmap(lambda t: st.tuples(
    st.just(t),
    arrays(float, (len(t), len(REQUIRED_JOINTS), 2), elements=_FINITE),
    arrays(float, (len(t), len(REQUIRED_JOINTS)), elements=_UNIT)))
# the magnetometer may hold any value, NaN and inf included
_IMU_ARRAYS = _TIMES.flatmap(lambda t: st.tuples(
    st.just(t), *(arrays(float, (len(t), 3), elements=_FINITE)
                  for _ in range(2)),
    arrays(float, (len(t), 3), elements=st.floats())))


@given(_KEYPOINT_ARRAYS)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_finite_keypoints_round_trip_bit_exact(tmp_path, columns):
    kp = KeypointSeries(*columns)
    path = tmp_path / "kp.npy"
    write_keypoint_npy(path, kp)
    back = read_keypoint_npy(path)
    for name in ("t", "uv", "conf"):
        assert _bits(getattr(back, name)) == _bits(getattr(kp, name))


@given(_IMU_ARRAYS)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_finite_imu_round_trips_bit_exact(tmp_path, columns):
    imu = ImuSeries(*columns)
    path = tmp_path / "imu.npy"
    write_imu_npy(path, imu)
    back = read_imu_npy(path)
    for name in ("t", "acc", "gyro", "mag"):
        assert _bits(getattr(back, name)) == _bits(getattr(imu, name))


def test_missing_header_rejected(tmp_path):
    # a text file, such as a gaitsync-v2 CSV, has no .npy header
    bad = tmp_path / "bad.npy"
    bad.write_text("#gaitsync-v2\nt,ax\n0,1\n")
    with pytest.raises(IoFailure):
        read_imu_npy(bad)
    with pytest.raises(IoFailure):
        read_keypoint_npy(bad)


def _edited(width, cells):
    """A valid 3-row matrix of `width` columns with some (row, col) cells
    replaced."""
    data = _valid_matrix(3, width)
    for (row, col), value in cells.items():
        data[row, col] = value
    return data


def _raw_header(text):
    """A version 1.0 .npy header holding `text`, and no rows."""
    body = text.encode("latin-1")
    return b"\x93NUMPY\x01\x00" + len(body).to_bytes(2, "little") + body


@pytest.mark.parametrize("blob", [
    _npy_bytes(np.zeros((0, IMU_WIDTH))),
    _npy_bytes(np.array([list(range(10)), [0.01, 1, 2, 3]], dtype=object)),
    _npy_bytes(_valid_matrix(3, IMU_WIDTH - 1)),
    _npy_bytes(np.full((3, IMU_WIDTH), "x")),
    _npy_bytes(_edited(IMU_WIDTH, {(1, 3): np.nan})),
    _npy_bytes(_edited(IMU_WIDTH, {(1, 0): 0.0})),
    _npy_bytes(_valid_matrix(3, IMU_WIDTH + 1)),
], ids=["header_only", "ragged_row", "short_rows", "non_numeric",
        "non_finite", "repeated_time", "long_rows"])
def test_malformed_imu_rows_raise_io_failure(tmp_path, blob):
    path = tmp_path / "imu.npy"
    path.write_bytes(blob)
    with pytest.raises(IoFailure) as exc:
        read_imu_npy(path)
    assert str(path) in str(exc.value)
    path.write_bytes(_npy_bytes(_valid_matrix(3, IMU_WIDTH)))
    assert len(read_imu_npy(path)) == 3


_IMU = _valid_matrix(3, IMU_WIDTH)


def _npy_v2_bytes(array):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, version=(2, 0))
    return buf.getvalue()


@pytest.mark.parametrize("blob", [
    _IMU.tobytes(),
    _npy_bytes(_IMU.astype(">f8")),
    _npy_bytes(_IMU.astype("<f4")),
    _npy_bytes(np.asfortranarray(_IMU)),
    _npy_v2_bytes(_IMU),
], ids=["no_header", "big_endian", "float32", "fortran_order", "version_2"])
def test_wrong_imu_header_raises_io_failure_naming_the_path(tmp_path, blob):
    # only the header np.save writes for a C-order little-endian float64
    # matrix is taken, though np.load reads all but the first of these
    path = tmp_path / "imu.npy"
    path.write_bytes(blob)
    with pytest.raises(IoFailure) as exc:
        read_imu_npy(path)
    assert str(path) in str(exc.value)
    path.write_bytes(_npy_bytes(_IMU))
    assert len(read_imu_npy(path)) == 3


def test_missing_file_raises_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_imu_npy(tmp_path / "nope.npy")
    with pytest.raises(IoFailure):
        write_imu_npy(tmp_path / "no" / "dir" / "imu.npy",
                      generate_session(SubjectParams(seed=1),
                                       duration=4.0)[0])


_KP = _npy_bytes(_valid_matrix(3, KEYPOINT_WIDTH))
_WRIST_U = 1 + 3 * JOINT_INDEX["wrist_r"]
_V1_FRAME = '{"joints": {"wrist_r": [1.0, 2.0, 0.5]}, "t": 0.0}\n'


@pytest.mark.parametrize("blob", [
    pytest.param(_KP.replace(b"NUMPY", b"NUMPX"), id="wrong_tag"),
    pytest.param(_KP.replace(b"'descr'", b"'dtype'"), id="wrong_header"),
    pytest.param(_npy_bytes(_valid_matrix(3, KEYPOINT_WIDTH + 3)),
                 id="unknown_joint"),
    pytest.param(_npy_bytes(_valid_matrix(3, KEYPOINT_WIDTH - 1)),
                 id="no_t"),
    pytest.param(_npy_bytes(_valid_matrix(3, KEYPOINT_WIDTH + 1)),
                 id="wrong_width"),
    pytest.param(_npy_bytes(_valid_matrix(3, 1 + 2 * len(REQUIRED_JOINTS))),
                 id="two_element_joint"),
    pytest.param(_npy_bytes(_valid_matrix(3, 1)), id="no_joints"),
    pytest.param(_npy_bytes(np.full((3, KEYPOINT_WIDTH), "0.5")),
                 id="non_numeric"),
    pytest.param(_npy_bytes(_edited(KEYPOINT_WIDTH, {(0, _WRIST_U): np.nan})),
                 id="nan_coordinate"),
    pytest.param(_npy_bytes(_edited(KEYPOINT_WIDTH, {(0, _WRIST_U + 2): 1.5})),
                 id="bad_confidence"),
    pytest.param(_npy_bytes(_edited(KEYPOINT_WIDTH, {(1, 0): 0.0})),
                 id="repeated_time"),
    pytest.param(_npy_bytes(np.zeros((0, KEYPOINT_WIDTH))), id="no_frames"),
    pytest.param(_V1_FRAME.encode(), id="bad_json"),
    # a flat vector, not a matrix
    pytest.param(_npy_bytes(np.full(KEYPOINT_WIDTH, 0.5)), id="not_an_object"),
    pytest.param(_raw_header("{'descr': '<f8', 'fortran_order': False, "
                             "'shape': " + "(" * 5000 + "}\n"),
                 id="deep_nesting"),
    pytest.param(_npy_bytes(_valid_matrix(3, KEYPOINT_WIDTH).astype(object)),
                 id="pickled_objects"),
    pytest.param(_KP[:-8], id="truncated"),
    pytest.param(_KP + bytes(8), id="trailing_bytes"),
])
def test_malformed_keypoint_frames_raise_io_failure(tmp_path, blob):
    path = tmp_path / "kp.npy"
    path.write_bytes(blob)
    with pytest.raises(IoFailure) as exc:
        read_keypoint_npy(path)
    assert str(path) in str(exc.value)
    path.write_bytes(_KP)
    assert len(read_keypoint_npy(path)) == 3


@pytest.mark.parametrize("rows", [10 ** 12, 2 ** 63, 10 ** 40])
@pytest.mark.parametrize("read, kind, width", READERS, ids=READER_IDS)
def test_forged_huge_header_is_io_failure_not_memory_error(tmp_path, read,
                                                           kind, width, rows):
    # np.load would try to allocate the claimed rows (269 TiB for 10**12)
    path = tmp_path / "forged.npy"
    path.write_bytes(_npy_bytes(_valid_matrix(2, width), shape=(rows, width)))
    with pytest.raises(IoFailure, match="size"):
        read(path)


# --- any bytes in a session file read as a series or raise IoFailure --------

def _read_or_none(read, kind, path):
    """The series read from `path`, or None on an IoFailure naming it."""
    try:
        series = read(path)
    except IoFailure as exc:
        assert str(path) in str(exc)
        return None
    assert isinstance(series, kind) and len(series) >= 1
    return series


_ENCODINGS = {
    "float64": _npy_bytes,
    "fortran_order": lambda m: _npy_bytes(np.asfortranarray(m)),
    "big_endian": lambda m: _npy_bytes(m.astype(">f8")),
    "float32": lambda m: _npy_bytes(np.clip(m, -1, 1).astype("<f4")),
    "int": lambda m: _npy_bytes(np.arange(m.size).reshape(m.shape)),
    "object": lambda m: _npy_bytes(m.astype(object)),
    "1-d": lambda m: _npy_bytes(m.ravel()),
}


@st.composite
def _session_file_bytes(draw, width):
    """The bytes of a session file of `width` columns: any bytes, or an
    encoded (n, w) array, truncated, corrupted or under a forged header."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=300))
    # each choice leans toward a file that reads
    n = draw(st.integers(0, 3))
    w = draw(st.just(width) | st.sampled_from([width - 1, width + 1]))
    data = (_valid_matrix(n, w) if draw(st.booleans())
            else draw(arrays(float, (n, w))))
    encoding = draw(st.just("float64") | st.sampled_from(sorted(_ENCODINGS)))
    blob = bytearray(_ENCODINGS[encoding](data))
    change = draw(st.just("none") | st.sampled_from(["truncate", "flip",
                                                     "splice", "forge"]))
    if change == "truncate":
        del blob[draw(st.integers(0, len(blob))):]
    elif change == "flip":
        blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
    elif change == "splice":
        at = draw(st.integers(0, len(blob)))
        blob[at:at + draw(st.integers(0, 8))] = draw(st.binary(max_size=8))
    elif change == "forge":
        shape = draw(st.tuples(st.integers(-2, 10 ** 15),
                               st.sampled_from([width, w]))
                     | st.lists(st.integers(0, 10 ** 15),
                                max_size=3).map(tuple))
        blob = _npy_bytes(data, shape=shape, fortran_order=draw(st.booleans()),
                          descr=draw(st.sampled_from(
                              ["<f8", ">f8", "<f4", "<i8", "|O"])))
    return bytes(blob)


@pytest.mark.parametrize("read, kind, width", READERS, ids=READER_IDS)
@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_session_file_bytes_read_or_raise_io_failure(tmp_path, read, kind,
                                                         width, data):
    path = tmp_path / "session.npy"
    path.write_bytes(data.draw(_session_file_bytes(width)))
    _read_or_none(read, kind, path)


# latin-1 text, whose characters are the bytes 0-255
_TEXT = st.lists(st.text(st.characters(max_codepoint=255), max_size=40),
                 max_size=4).map("\n".join)


def _text_file(tmp_path, text, width, after_header):
    """`text` in a session file; after a valid header, its bytes are the
    rows, so whole rows of them read as a series or fail as its values."""
    blob = text.encode("latin-1")
    if after_header:
        rows = np.frombuffer(blob[:len(blob) // (8 * width) * 8 * width])
        blob = _npy_bytes(rows.reshape(-1, width))
    path = tmp_path / "session.npy"
    path.write_bytes(blob)
    return path


@given(_TEXT, st.booleans())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_imu_text_reads_or_raises_io_failure(tmp_path, text, after_header):
    # such as a gaitsync-v2 IMU CSV in place of its .npy file
    path = _text_file(tmp_path, text, IMU_WIDTH, after_header)
    _read_or_none(read_imu_npy, ImuSeries, path)


@given(_TEXT, st.booleans())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_keypoint_text_reads_or_raises_io_failure(tmp_path, text,
                                                      after_header):
    path = _text_file(tmp_path, text, KEYPOINT_WIDTH, after_header)
    _read_or_none(read_keypoint_npy, KeypointSeries, path)
