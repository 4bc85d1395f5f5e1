"""On-disk formats: versioned CSV/JSONL round trips and malformed input."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from syncgait.errors import IoFailure
from syncgait.io import (FORMAT_TAG, IMU_COLUMNS, _read_lines, read_imu_csv,
                         read_keypoint_jsonl, write_imu_csv,
                         write_keypoint_jsonl)
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


def test_keypoint_jsonl_frames_are_json_dumps_per_frame(tmp_path, session):
    _, kp, _ = session
    conf = kp.conf[:5].copy()
    conf[1, JOINT_INDEX["wrist_r"]] = 0.0   # missing joints: confidence 0
    conf[3, :] = 0.0
    missing = KeypointSeries(kp.t[:5], kp.uv[:5], conf, kp.frame_rate)
    path = tmp_path / "kp.jsonl"
    write_keypoint_jsonl(path, missing)
    frames = [json.dumps({"t": missing.t[i].item(), "joints": {
        n: [*missing.uv[i, j].tolist(), missing.conf[i, j].item()]
        for j, n in enumerate(REQUIRED_JOINTS)}}, sort_keys=True)
        for i in range(len(missing))]
    assert path.read_text() == "\n".join([FORMAT_TAG, *frames]) + "\n"


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


# --- the readers load what the per-value reference readers load -------------

def _reference_read_imu_csv(path, sample_rate=100.0):
    """Reference: the reader that parsed each field with its own float()."""
    lines = _read_lines(path)
    if not lines or lines[0].strip() != IMU_COLUMNS:
        raise IoFailure(f"missing {IMU_COLUMNS} header in {path}")
    rows = [ln.split(",") for ln in lines[1:] if ln.strip()]
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


def _reference_read_keypoint_jsonl(path, frame_rate=60.0):
    """Reference: the reader that built per-joint tuples and nested lists."""
    t, uv, conf = [], [], []
    for k, ln in enumerate(_read_lines(path)):
        if not ln.strip():
            continue
        frame_uv = [(0.0, 0.0)] * len(REQUIRED_JOINTS)
        frame_conf = [0.0] * len(REQUIRED_JOINTS)
        try:
            rec = json.loads(ln)
            for name, (u, v, c) in rec["joints"].items():
                frame_uv[JOINT_INDEX[name]] = (float(u), float(v))
                frame_conf[JOINT_INDEX[name]] = float(c)
            t.append(float(rec["t"]))
        except (ValueError, TypeError, KeyError, AttributeError,
                OverflowError, RecursionError) as exc:
            raise IoFailure(f"bad frame on line {k + 2} of {path}: "
                            f"{exc!r}") from exc
        uv.append(frame_uv)
        conf.append(frame_conf)
    if not t:
        raise IoFailure(f"no frames in {path}")
    try:
        return KeypointSeries(np.array(t), np.array(uv), np.array(conf),
                              frame_rate=frame_rate)
    except ValueError as exc:
        raise IoFailure(f"bad frames in {path}: {exc}") from exc


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
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                   b.tobytes())
    return got


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["t", "joints", "wrist_r", "spine"]) | _TEXT,
        inner, max_size=4),
    max_leaves=12)
_COORD = st.floats(-1e3, 1e3) | st.integers(-1000, 1000)
_CONF = st.floats(0.0, 1.0)
_JOINT = st.tuples(_COORD | _COORD.map(str), _COORD | _COORD.map(str),
                   _CONF | _CONF.map(str)).map(list)
# frames at increasing times whose joints are missing, reordered or strings
_FRAME_FILES = st.lists(
    st.permutations(REQUIRED_JOINTS).flatmap(
        lambda names: st.lists(_JOINT, max_size=len(names)).map(
            lambda values: dict(zip(names, values)))),
    min_size=1, max_size=6).map(
    lambda frames: [json.dumps({"joints": joints, "t": k / 60})
                    for k, joints in enumerate(frames)])


@given(st.lists(_TEXT | _JSON.map(json.dumps) | st.floats().map(_frame),
                max_size=4) | _FRAME_FILES)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_keypoint_text_reads_or_raises_io_failure(tmp_path, lines):
    path = tmp_path / "kp.jsonl"
    path.write_text("\n".join([FORMAT_TAG, *lines]), encoding="utf-8")
    kp = _assert_reads_as_reference(read_keypoint_jsonl,
                                    _reference_read_keypoint_jsonl, path,
                                    ("t", "uv", "conf"))
    if kp is not None:
        assert isinstance(kp, KeypointSeries) and len(kp) >= 1
        assert kp.uv.flags.c_contiguous and kp.conf.flags.c_contiguous


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
