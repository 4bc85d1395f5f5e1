"""Unit tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import speed
import stats
import tracer
from tracer import Recorder, Span, covered_ns, layer_metrics, self_times_ns

SRC = Path(__file__).resolve().parent.parent / "src"


def _clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


# --- self time ---

def test_covered_ns_merges_overlaps_and_skips_empty_intervals():
    assert covered_ns([]) == 0
    assert covered_ns([(10, 30), (20, 50), (60, 60), (70, 80)]) == 50


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [Span("root", 0, 100),
             Span("a", 10, 30, parent=0),
             Span("b", 20, 50, parent=0),      # overlaps a: union 10..50
             Span("c", 90, 120, parent=0),     # clipped to the parent: 10
             Span("grandchild", 12, 18, parent=1)]
    assert self_times_ns(spans) == [50, 14, 30, 30, 6]


def test_self_times_sum_to_the_root_duration():
    rec = Recorder(clock=_clock([0, 5, 7, 20, 22, 40, 41, 100]))
    with rec.op(3):
        outer = rec.open("outer")
        inner = rec.open("inner")
        rec.close(inner)
        second = rec.open("inner")
        rec.close(second)
        rec.close(outer)
    assert [s.parent for s in rec.spans] == [None, 0, 1, 1]
    assert {s.op for s in rec.spans} == {3}
    assert sum(self_times_ns(rec.spans)) == 100


# --- the rule of ten samples beyond a percentile ---

def test_tail_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert stats.tail_percentile(values, 90) == 90
    assert stats.tail_percentile(values[:99], 90) is None
    assert stats.tail_percentile([], 90) is None


def test_tail_percentile_counts_ties_as_not_beyond():
    assert stats.tail_percentile([1.0] * 200, 50) is None


def test_percentile_is_nearest_rank():
    assert stats.percentile([3, 1, 2], 50) == 2
    assert stats.percentile([5], 90) == 5
    assert stats.percentile(range(1, 11), 100) == 10


# --- speed-normalised timing ---

def test_normalised_time_scales_by_the_mean_speed_up():
    assert speed.normalised_ms(100.0, [0.4], reference_ms=0.4) == 100.0
    # half the samples at half speed: 100 ms of CPU is 75 ms of work
    assert speed.normalised_ms(100.0, [0.4, 0.8], reference_ms=0.4) \
        == pytest.approx(75.0)
    assert speed.normalised_ms(10.0, [0.0, 0.2], reference_ms=0.4) == 20.0
    with pytest.raises(ValueError):
        speed.normalised_ms(10.0, [])


def test_stopwatch_samples_inside_the_block_and_restores_the_handler():
    import signal
    before = signal.getsignal(signal.SIGPROF)
    with speed.Stopwatch() as watch:
        end = time.process_time() + 0.1
        while time.process_time() < end:
            pass
    norm_ms, cpu_ms, wall_ms = watch.result
    assert len(watch.samples_ms) >= 2       # one before, some inside
    assert 0 < cpu_ms <= wall_ms + 1.0
    assert norm_ms > 0
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


# --- per-layer figures ---

def _session(attempts, rounds, chunks, sent):
    event = {"detail": {"chunks": chunks, "sent": sent,
                        "retransmit_rounds": rounds}}
    return SimpleNamespace(attempts=attempts, transcript=[event, {}])


def test_layer_metrics_counts_per_op_and_waste_per_attempt():
    spans = [Span("op", 0, 100, op=0),
             Span(tracer.SESSION, 0, 100, parent=0, op=0,
                  result=_session(2, 3, 79, 80)),
             Span("orientation.ahrs_stream", 10, 20, parent=1, op=0),
             Span("orientation.ahrs_stream", 20, 30, parent=1, op=0),
             Span("op", 100, 150, op=1),
             Span("orientation.ahrs_stream", 110, 120, parent=4, op=1)]
    m = layer_metrics(spans, n_ops=2)
    assert m["orientation.ahrs_stream.calls"] == 1.5
    assert m["orientation.ahrs_stream.self_ms"] == pytest.approx(15e-6)
    assert m[f"{tracer.SESSION}.self_ms"] == pytest.approx(40e-6)
    # only calls inside a session count against its attempts
    assert m["orientation.ahrs_stream.per_attempt"] == 1.0
    assert m["protocol.attempts"] == 2
    assert m["protocol.arq_rounds"] == 3
    assert m["protocol.partial_views"] == 1
    assert m["classify.fit_ocsvm_fixed.per_enroll"] == 0.0
    assert set(m) | {"trace.overhead_ms", "trace.overhead_pct"} \
        == set(tracer.layer_metric_units())


# --- installing the wrappers ---

@pytest.fixture
def package():
    sys.path.insert(0, str(SRC))
    try:
        yield tracer.package_modules()
    finally:
        sys.path.remove(str(SRC))


def test_install_wraps_every_holder_and_remove_restores(package):
    protocol = package["syncgait.protocol"]
    pipeline = package["syncgait.pipeline"]
    original = pipeline.consistency_score
    rec = Recorder()
    installed = tracer.Installation(rec)
    try:
        assert installed.unwrapped() == []
        # protocol imported the function by name: its copy is wrapped too
        assert protocol.consistency_score is not original
        assert protocol.consistency_score.__wrapped__ is original
        assert package["syncgait"].run_session is protocol.run_session
    finally:
        installed.remove()
    assert protocol.consistency_score is original
    assert pipeline.consistency_score is original
    assert "__wrapped__" not in vars(package["syncgait.classify"]
                                     .OcSvmModel.score)


def test_wrapped_method_records_a_span(package):
    classify = package["syncgait.classify"]
    import numpy as np
    model = classify.fit_ocsvm_fixed(np.random.default_rng(0).normal(
        size=(12, 2)), nu=0.2, gamma=1.0)
    rec = Recorder()
    installed = tracer.Installation(rec)
    try:
        with rec.op(0):
            model.score(np.zeros(2))
    finally:
        installed.remove()
    assert [s.name for s in rec.spans] == ["op", "classify.OcSvmModel.score"]
    assert rec.spans[1].parent == 0


# --- BENCHMARK.json agrees with what the run prints ---

def test_benchmark_json_lists_exactly_the_reported_metrics():
    import json
    import run
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracer.layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
