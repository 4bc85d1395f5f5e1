"""On-disk formats: versioned IMU and keypoint CSV round trips and
malformed input."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from syncgait.errors import IoFailure
from syncgait.io import (FORMAT_TAG, IMU_COLUMNS, KEYPOINT_COLUMNS,
                         read_imu_csv, read_keypoint_csv, write_imu_csv,
                         write_keypoint_csv)
from syncgait.series import (JOINT_INDEX, REQUIRED_JOINTS, ImuSeries,
                             KeypointSeries)
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


def test_imu_csv_with_a_non_finite_field_loads(tmp_path, session):
    # no stage reads the magnetometer, so a broken field refuses no capture
    imu, _, _ = session
    mag = imu.mag.copy()
    mag[10, 0] = np.nan
    path = tmp_path / "imu.csv"
    write_imu_csv(path, ImuSeries(imu.t, imu.acc, imu.gyro, mag,
                                  imu.sample_rate))
    assert ",nan," in path.read_text()
    back = read_imu_csv(path)
    assert np.isnan(back.mag[10, 0])
    assert np.isfinite(np.delete(back.mag, 10, axis=0)).all()
    assert np.allclose(back.acc, imu.acc, rtol=1e-6)


def test_imu_csv_rows_are_the_per_value_9g_join(tmp_path, session):
    imu, _, _ = session
    acc, mag = imu.acc[:6].copy(), imu.mag[:6].copy()
    acc[:5, 0] = [-0.0, 1e-300, 1e300, 123456789.0, -1e-300]
    mag[2, 1] = np.nan
    edge = ImuSeries(imu.t[:6], acc, imu.gyro[:6], mag, imu.sample_rate)
    path = tmp_path / "imu.csv"
    write_imu_csv(path, edge)
    rows = [",".join(f"{x:.9g}" for x in [edge.t[i], *edge.acc[i],
                                          *edge.gyro[i], *edge.mag[i]])
            for i in range(len(edge))]
    text = "\n".join([FORMAT_TAG, IMU_COLUMNS, *rows]) + "\n"
    assert path.read_text() == text
    assert rows[0].split(",")[1] == "-0" and ",nan," in rows[2]


def test_keypoint_csv_header_names_each_joint_field_in_order():
    names = KEYPOINT_COLUMNS.split(",")
    assert names[:4] == ["t", "shoulder_l_u", "shoulder_l_v", "shoulder_l_c"]
    assert names[1 + 3 * JOINT_INDEX["wrist_r"] + 2] == "wrist_r_c"
    assert len(names) == 1 + 3 * len(REQUIRED_JOINTS)


def test_keypoint_csv_rows_are_the_per_value_repr_join(tmp_path, session):
    _, kp, _ = session
    uv, conf = kp.uv[:5].copy(), kp.conf[:5].copy()
    conf[1, JOINT_INDEX["wrist_r"]] = 0.0   # undetected joints: confidence 0
    conf[3, :] = 5e-324
    uv[2, 0] = [-0.0, 1e308]
    uv[4, 1] = [-1e308, 2.2250738585072014e-309]
    edge = KeypointSeries(kp.t[:5], uv, conf, kp.frame_rate)
    path = tmp_path / "kp.csv"
    write_keypoint_csv(path, edge)
    rows = [",".join(repr(float(x)) for x in [
        edge.t[i], *(v for j in range(len(REQUIRED_JOINTS))
                     for v in [*edge.uv[i, j], edge.conf[i, j]])])
        for i in range(len(edge))]
    text = "\n".join([FORMAT_TAG, KEYPOINT_COLUMNS, *rows]) + "\n"
    assert path.read_text() == text
    assert rows[2].split(",")[1:3] == ["-0.0", "1e+308"]


def test_keypoint_csv_round_trip(tmp_path, session):
    _, kp, _ = session
    path = tmp_path / "kp.csv"
    write_keypoint_csv(path, kp)
    assert path.read_text().splitlines()[:2] == [FORMAT_TAG, KEYPOINT_COLUMNS]
    back = read_keypoint_csv(path)
    assert np.array_equal(back.t, kp.t)
    assert np.array_equal(back.uv, kp.uv)
    assert np.array_equal(back.conf, kp.conf)
    assert all(a.flags.c_contiguous for a in (back.t, back.uv, back.conf))
    write_keypoint_csv(tmp_path / "again.csv", back)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


_FINITE = (st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-309, 1e308,
                            -1e308])
           | st.floats(allow_nan=False, allow_infinity=False))
_UNIT = st.sampled_from([-0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0)
_KEYPOINT_ARRAYS = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(_FINITE, min_size=n, max_size=n, unique=True).map(sorted),
    arrays(float, (n, len(REQUIRED_JOINTS), 2), elements=_FINITE),
    arrays(float, (n, len(REQUIRED_JOINTS)), elements=_UNIT)))


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@given(_KEYPOINT_ARRAYS)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_finite_keypoints_round_trip_bit_exact(tmp_path, columns):
    kp = KeypointSeries(*columns)
    path = tmp_path / "kp.csv"
    write_keypoint_csv(path, kp)
    back = read_keypoint_csv(path)
    for name in ("t", "uv", "conf"):
        assert _bits(getattr(back, name)) == _bits(getattr(kp, name))


def test_missing_header_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,ax\n0,1\n")
    with pytest.raises(IoFailure):
        read_imu_csv(bad)
    with pytest.raises(IoFailure):
        read_keypoint_csv(bad)


@pytest.mark.parametrize("body", [
    "",
    "0,1,2,3,4,5,6,7,8,9\n0.01,1,2,3\n",
    "0,1,2,3,4,5,6,7,8\n",
    "0,1,2,3,4,5,6,7,8,x\n",
    "0,1,2,3,4,5,6,7,8,9\n0.01,1,2,nan,4,5,6,7,8,9\n",
    "0,1,2,3,4,5,6,7,8,9\n0,1,2,3,4,5,6,7,8,9\n",
    "0,1,2,3,4,5,6,7,8,9,10\n",
    "0,1,2,3,4,5,6,7,8,9#\n",
], ids=["header_only", "ragged_row", "short_rows", "non_numeric",
        "non_finite", "repeated_time", "long_rows", "hash_in_field"])
def test_malformed_imu_rows_raise_io_failure(tmp_path, body):
    path = tmp_path / "imu.csv"
    path.write_text(f"{FORMAT_TAG}\n{IMU_COLUMNS}\n{body}")
    with pytest.raises(IoFailure):
        read_imu_csv(path)


@pytest.mark.parametrize("header", [
    "t,gx,gy,gz,ax,ay,az,mx,my,mz\n",   # would load acc and gyro swapped
    "",                                  # would lose the first sample
], ids=["gyro_before_acc", "no_header"])
def test_wrong_imu_header_raises_io_failure_naming_the_path(tmp_path, header):
    path = tmp_path / "imu.csv"
    body = "".join(f"{k / 100},1,2,3,4,5,6,7,8,9\n" for k in range(3))
    path.write_text(f"{FORMAT_TAG}\n{header}{body}")
    with pytest.raises(IoFailure) as exc:
        read_imu_csv(path)
    assert str(path) in str(exc.value)
    path.write_text(f"{FORMAT_TAG}\n{IMU_COLUMNS}\n{body}")
    assert len(read_imu_csv(path)) == 3


def test_missing_file_raises_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_imu_csv(tmp_path / "nope.csv")
    with pytest.raises(IoFailure):
        write_imu_csv(tmp_path / "no" / "dir" / "imu.csv",
                      generate_session(SubjectParams(seed=1),
                                       duration=4.0)[0])


def _keypoint_row(t=0.0, **fields):
    """A valid row at time t, with some `<joint>_<u|v|c>` fields replaced."""
    values = dict.fromkeys(KEYPOINT_COLUMNS.split(",")[1:], "0.5")
    values.update(fields)
    return ",".join([str(t), *values.values()]) + "\n"


_KEYPOINT_HEAD = f"{FORMAT_TAG}\n{KEYPOINT_COLUMNS}\n"


_V1_FRAME = '{"joints": {"wrist_r": [1.0, 2.0, 0.5]}, "t": 0.0}\n'


@pytest.mark.parametrize("text", [
    pytest.param(f"#gaitsync-v1\n{KEYPOINT_COLUMNS}\n{_keypoint_row()}",
                 id="wrong_tag"),
    pytest.param(FORMAT_TAG + "\n" + KEYPOINT_COLUMNS.replace(
        "wrist_r_u,wrist_r_v", "wrist_r_v,wrist_r_u") + "\n" + _keypoint_row(),
                 id="wrong_header"),
    pytest.param(FORMAT_TAG + "\n" + KEYPOINT_COLUMNS.replace(
        "wrist_r", "spine") + "\n" + _keypoint_row(), id="unknown_joint"),
    pytest.param(FORMAT_TAG + "\n" + KEYPOINT_COLUMNS[len("t,"):] + "\n"
                 + _keypoint_row().split(",", 1)[1], id="no_t"),
    pytest.param(_KEYPOINT_HEAD + _keypoint_row()[:-1] + ",0.5\n",
                 id="wrong_width"),
    pytest.param(_KEYPOINT_HEAD + _keypoint_row()[:-len(",0.5\n")] + "\n",
                 id="two_element_joint"),
    pytest.param(_KEYPOINT_HEAD + "0.0\n", id="no_joints"),
    pytest.param(_KEYPOINT_HEAD + _keypoint_row(wrist_r_u="x"),
                 id="non_numeric"),
    pytest.param(_KEYPOINT_HEAD + _keypoint_row(wrist_r_u="nan"),
                 id="nan_coordinate"),
    pytest.param(_KEYPOINT_HEAD + _keypoint_row(wrist_r_c="1.5"),
                 id="bad_confidence"),
    pytest.param(_KEYPOINT_HEAD + _keypoint_row(0.1) + _keypoint_row(0.1),
                 id="repeated_time"),
    pytest.param(_KEYPOINT_HEAD + "\n \n", id="no_frames"),
    pytest.param(_KEYPOINT_HEAD + _V1_FRAME, id="bad_json"),
    pytest.param(_KEYPOINT_HEAD + "[1, 2, 3]\n", id="not_an_object"),
    pytest.param(_KEYPOINT_HEAD + "[" * 100000 + "\n", id="deep_nesting"),
])
def test_malformed_keypoint_frames_raise_io_failure(tmp_path, text):
    path = tmp_path / "kp.csv"
    path.write_text(text)
    with pytest.raises(IoFailure) as exc:
        read_keypoint_csv(path)
    assert str(path) in str(exc.value)
    path.write_text(_KEYPOINT_HEAD + _keypoint_row())
    assert len(read_keypoint_csv(path)) == 1


# --- the IMU reader loads what the per-value reference reader loads ----------

def _reference_read_imu_csv(path, sample_rate=100.0):
    """Reference: the reader that parsed each field with its own float()."""
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != FORMAT_TAG:
        raise IoFailure(f"missing {FORMAT_TAG} header in {path}")
    if len(lines) < 2 or lines[1].strip() != IMU_COLUMNS:
        raise IoFailure(f"missing {IMU_COLUMNS} header in {path}")
    rows = [ln.split(",") for ln in lines[2:] if ln.strip()]
    if not rows:
        raise IoFailure(f"no samples in {path}")
    width = len(IMU_COLUMNS.split(","))
    if any(len(row) != width for row in rows):
        raise IoFailure(f"rows of {path} must hold {width} fields")
    try:
        data = np.array([[float(x) for x in row] for row in rows])
        return ImuSeries(t=data[:, 0], acc=data[:, 1:4], gyro=data[:, 4:7],
                         mag=data[:, 7:10], sample_rate=sample_rate)
    except ValueError as exc:
        raise IoFailure(f"bad samples in {path}: {exc}") from exc


def _read_or_none(read, path):
    try:
        return read(path)
    except IoFailure:
        return None


def _assert_reads_as_reference(read, reference, path, fields):
    """The same outcome, load or IoFailure, and on load byte-equal arrays
    of the same dtype and shape; returns the series read, or None."""
    got, want = _read_or_none(read, path), _read_or_none(reference, path)
    assert (got is None) == (want is None)
    for name in fields if got is not None else ():
        assert _bits(getattr(got, name)) == _bits(getattr(want, name))
    return got


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
_KEYPOINT_FIELD = (_FINITE.map(repr) | st.floats().map(repr)
                   | st.integers().map(str) | st.text(max_size=4))
# rows at increasing times, some of whose fields are off or missing
_KEYPOINT_FILES = st.lists(
    st.lists(_UNIT.map(repr) | _KEYPOINT_FIELD, min_size=35, max_size=37),
    min_size=1, max_size=4).map(
    lambda rows: [",".join([str(k / 60), *row]) for k, row in enumerate(rows)])


@given(st.lists(_TEXT | st.lists(_KEYPOINT_FIELD, max_size=38).map(",".join),
                max_size=4) | _KEYPOINT_FILES)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_keypoint_text_reads_or_raises_io_failure(tmp_path, lines):
    path = tmp_path / "kp.csv"
    path.write_text("\n".join([FORMAT_TAG, KEYPOINT_COLUMNS, *lines]),
                    encoding="utf-8")
    kp = _read_or_none(read_keypoint_csv, path)
    if kp is not None:
        assert isinstance(kp, KeypointSeries) and len(kp) >= 1
        assert np.isfinite(kp.uv).all() and (kp.conf <= 1.0).all()
        assert all(a.flags.c_contiguous for a in (kp.t, kp.uv, kp.conf))


_FIELD = st.floats().map(repr) | st.integers().map(str) | st.text(max_size=4)
# rows at increasing times, each value as the writer or repr() spells it
_IMU_FILES = st.lists(
    st.lists(st.floats(-1e6, 1e6) | st.floats(), min_size=9, max_size=9),
    min_size=1, max_size=5).flatmap(
    lambda rows: st.sampled_from(["{:.9g}", "{!r}", " {} "]).map(
        lambda spelling: [",".join(spelling.format(x)
                                   for x in [k / 100, *row])
                          for k, row in enumerate(rows)]))


def _is_plain_ascii(path):
    """No underscore and no non-ASCII character: the field spellings that
    np.loadtxt and float() parse alike."""
    text = path.read_text(encoding="utf-8")
    return text.isascii() and "_" not in text


@given(st.lists(_TEXT | st.lists(_FIELD, max_size=11).map(",".join),
                max_size=5) | _IMU_FILES)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_imu_text_reads_or_raises_io_failure(tmp_path, lines):
    path = tmp_path / "imu.csv"
    path.write_text("\n".join([FORMAT_TAG, IMU_COLUMNS, *lines]),
                    encoding="utf-8")
    if not _is_plain_ascii(path) and _read_or_none(read_imu_csv, path) is None:
        return  # the reference's float() also takes "1_0" and non-ASCII digits
    imu = _assert_reads_as_reference(read_imu_csv, _reference_read_imu_csv,
                                     path, ("t", "acc", "gyro", "mag"))
    if imu is not None:
        assert isinstance(imu, ImuSeries) and len(imu) >= 1


@pytest.mark.parametrize("field", ["1_0", "\u0661", "\uff11"],
                         ids=["digit_group_underscore", "arabic_indic_one",
                              "fullwidth_one"])
def test_imu_fields_must_be_plain_ascii_decimals(tmp_path, field):
    # float() accepts these spellings; the whole-array parse does not
    path = tmp_path / "imu.csv"
    row = f"0,{field},2,3,4,5,6,7,8,9"
    path.write_text(f"{FORMAT_TAG}\n{IMU_COLUMNS}\n{row}\n", encoding="utf-8")
    assert len(_reference_read_imu_csv(path)) == 1
    with pytest.raises(IoFailure) as exc:
        read_imu_csv(path)
    assert str(path) in str(exc.value)
