"""Span recorder and outside-in function wrappers for the traced run.

An `Installation` replaces each target function, at every `syncgait` module
attribute that holds it (a module that did `from .x import f` holds its own
reference), by a wrapper that opens a span on entry and closes it on exit.
A span records its name, start, end, parent span and the op it belongs to.
Self time is a span's duration minus the time its child spans cover.

Nothing here imports `syncgait` at module load, so the helpers can be
unit-tested without the package.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "syncgait"

# <module>.<function> or <module>.<Class>.<method>, timed in the traced run.
TARGETS = (
    "synth.generate_session",
    "series.wavelet_denoise",
    "orientation.ahrs_stream",
    "posture.adct_smooth",
    "posture.mjckf_correct",
    "posture.adaptive_bandpass",
    "posture.estimate_band",
    "pipeline.calibrate_keypoints",
    "pipeline.imu_speed_channel",
    "pipeline.video_speed_channel",
    "pipeline.consistency_score",
    "pipeline.gait_score",
    "pipeline.enroll",
    "gait.gait_representation",
    "syncing.align",
    "features.compute_features",
    "features.fisher_select",
    "classify.fit_ocsvm_fixed",
    "classify.train_ocsvm",
    "classify.train_ocsvm_calibrated",
    "classify.OcSvmModel.scores",
    "classify.OcSvmModel.score",
    "metrics.evaluate",
    "protocol.run_session",
    "io.read_imu_csv",
    "io.read_keypoint_jsonl",
    "io.write_imu_csv",
    "io.write_keypoint_jsonl",
    "cli.cmd_enroll",
    "cli.cmd_evaluate",
)

LAYERS = ("synth", "series", "orientation", "posture", "syncing", "gait",
          "features", "classify", "metrics", "protocol", "pipeline", "io",
          "cli")

SESSION = "protocol.run_session"
ENROLL = "pipeline.enroll"

# Calls made inside a session (per protocol attempt) or inside an
# enrollment (per enroll call): a chain computed once would lower these.
WASTE_RATIOS = (
    ("orientation.ahrs_stream", SESSION, "per_attempt"),
    ("posture.mjckf_correct", SESSION, "per_attempt"),
    ("series.wavelet_denoise", SESSION, "per_attempt"),
    ("classify.fit_ocsvm_fixed", ENROLL, "per_enroll"),
)

# Which end-to-end figure each layer's counts and self time should move.
LAYER_MOVES = {
    "series": "op_norm_ms_p50/op_norm_ms_mean on verify (accept and "
              "reject paths) and enroll; a smaller share of evaluate",
    "orientation": "same as series",
    "posture": "same as series",
    "syncing": "same as series",
    "gait": "same as series",
    "features": "same as series",
    "pipeline": "same as series (the glue between the chains)",
    "classify": "fitting: op_norm_ms_* on enroll and evaluate, no change on "
                "verify; scoring: verify too",
    "synth": "op_norm_ms_* on evaluate and setup_s of verify and enroll; no "
             "change to their op latency",
    "io": "op_norm_ms_* on enroll (reads) and setup_s of enroll (writes); no "
          "change elsewhere",
    "protocol": "self time and counters explain reject_ms_p50 ~ 3x "
                "accept_ms_p50 on verify",
    "metrics": "op_norm_ms_* on evaluate only",
    "cli": "op_norm_ms_* on evaluate (and the enroll glue) only",
}


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int | None = None
    op: int | None = None
    result: object = None


class Recorder:
    """In-memory spans of one process; single-threaded by design."""

    def __init__(self, clock=time.perf_counter_ns):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._clock = clock

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), parent=parent,
                               op=self._op))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, result=None) -> None:
        span = self.spans[index]
        span.end = self._clock()
        if span.name == SESSION:      # its transcript gives the counters
            span.result = result
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; spans opened inside carry op_id."""
        self._op = op_id
        index = self.open("op")
        try:
            yield
        finally:
            self.close(index)
            self._op = None


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.close(index, result)
    return traced


def package_modules() -> dict:
    """The package and every layer module, imported."""
    importlib.import_module(PACKAGE)
    for layer in LAYERS:
        importlib.import_module(f"{PACKAGE}.{layer}")
    return {n: m for n, m in sys.modules.items()
            if n == PACKAGE or n.startswith(PACKAGE + ".")}


def _resolve(modules: dict, target: str):
    module, *path = target.split(".")
    owner = modules[f"{PACKAGE}.{module}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], getattr(owner, path[-1])


_ABSENT = object()


class Installation:
    """Wrappers installed for a recorder; `remove` restores the originals."""

    def __init__(self, recorder: Recorder):
        self.modules = package_modules()
        self.originals = {}            # id(fn) -> original function
        self._patched = []             # (owner, attribute, original)
        by_id = {}
        for target in TARGETS:
            owner, attr, fn = _resolve(self.modules, target)
            wrapper = _wrap(recorder, target, fn)
            self.originals[id(fn)] = fn
            by_id[id(fn)] = wrapper
            if isinstance(owner, type):          # a method: patch the class
                self._patch(owner, attr, fn, wrapper)
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if self.originals.get(id(value), _ABSENT) is value:
                    self._patch(module, attr, value, by_id[id(value)])

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrapped(self) -> list[str]:
        """Module or class attributes that still hold an original target."""
        holders = list(self.modules.values())
        holders += [owner for owner, _, _ in self._patched
                    if isinstance(owner, type)]
        left = []
        for holder in holders:
            for attr, value in vars(holder).items():
                if self.originals.get(id(value), _ABSENT) is value:
                    left.append(f"{holder.__name__}.{attr}")
        return sorted(set(left))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def covered_ns(intervals) -> int:
    """Length of the union of half-open [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(spans[index])
    out = []
    for index, span in enumerate(spans):
        inner = [(max(c.start, span.start), min(c.end, span.end))
                 for c in children[index]]
        out.append(span.end - span.start - covered_ns(inner))
    return out


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def _session_counters(results) -> tuple[dict[str, float], int]:
    """Per-session protocol counters read from the session transcripts,
    and the total number of attempts."""
    attempts = rounds = partial = 0
    for result in results:
        attempts += result.attempts
        short = False
        for event in result.transcript:
            detail = event.get("detail", {})
            if "retransmit_rounds" in detail:
                rounds += detail["retransmit_rounds"]
                short |= detail["chunks"] < detail["sent"]
        partial += short
    n = max(len(results), 1)
    return {"protocol.attempts": attempts / n,
            "protocol.arq_rounds": rounds / n,
            "protocol.partial_views": partial / n}, attempts


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-op calls and self time of every target, per-layer self time,
    protocol counters and waste ratios, from the spans of traced ops."""
    selfs = self_times_ns(spans)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    for span, own in zip(spans, selfs):
        if span.op is not None and span.name != "op":
            calls[span.name] += 1
            self_ns[span.name] += own
    n = max(n_ops, 1)
    out = {}
    for target in TARGETS:
        out[f"{target}.calls"] = calls[target] / n
        out[f"{target}.self_ms"] = self_ns[target] / 1e6 / n
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = sum(
            self_ns[t] for t in TARGETS if t.split(".")[0] == layer) / 1e6 / n
    sessions = [s.result for s in spans
                if s.name == SESSION and s.op is not None
                and s.result is not None]
    counters, attempts = _session_counters(sessions)
    out.update(counters)
    bases = {SESSION: attempts, ENROLL: calls[ENROLL]}
    for target, ancestor, suffix in WASTE_RATIOS:
        inside = sum(1 for i, s in enumerate(spans)
                     if s.name == target and s.op is not None
                     and _has_ancestor(spans, i, ancestor))
        base = bases[ancestor]
        out[f"{target}.{suffix}"] = inside / base if base else 0.0
    return out


def layer_metric_units() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) for every metric `layer_metrics` returns,
    plus the tracing overhead that the run reports beside them."""
    units = {}
    for target in TARGETS:
        units[f"{target}.calls"] = ("count", "lower")
        units[f"{target}.self_ms"] = ("ms", "lower")
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = ("ms", "lower")
    units["protocol.attempts"] = ("attempts/session", "lower")
    units["protocol.arq_rounds"] = ("rounds/session", "lower")
    units["protocol.partial_views"] = ("share", "lower")
    for target, _, suffix in WASTE_RATIOS:
        units[f"{target}.{suffix}"] = ("ratio", "lower")
    units["trace.overhead_ms"] = ("ms", "lower")
    units["trace.overhead_pct"] = ("%", "lower")
    return units
