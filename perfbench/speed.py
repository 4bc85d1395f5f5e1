"""Speed-normalised timing for a host whose speed drifts.

On a shared host the CPU time of the same code moves by up to a factor of
two within seconds (another tenant on the sibling hyperthread, frequency
changes), so raw CPU or wall time of one op says as much about the host as
about the program. A `Stopwatch` therefore samples the host's speed while
the op runs: a SIGPROF timer fires every `INTERVAL_S` of process CPU time,
and its handler times a fixed reference kernel (this file's code, not
syncgait's). One more sample is taken just before the op, so every op has
at least one.

The op's normalised time is its CPU time, less the time the kernel took,
with each interval scaled by `REFERENCE_MS / sample`: the time the op would
take on a host where the kernel runs in `REFERENCE_MS`. A change to
syncgait moves the normalised time; a slower or faster host does not,
as far as the kernel slows down with the program.

The kernel is timed with the thread CPU clock: inside a SIGPROF handler the
process CPU clock was seen to read far short on a Linux virtual machine.

Import this module only after the BLAS thread count is fixed: it imports
numpy.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.02     # process CPU time between two samples
# Roughly the kernel's time inside an op on an unloaded core of a 2-core
# x86-64 host, so that normalised times read close to CPU times there.
REFERENCE_MS = 0.4

_GRID = np.linspace(0.0, 1.0, 256)


def reference_kernel() -> float:
    """Fixed work in the program's mix: scalar Python float arithmetic and
    numpy calls on short arrays."""
    total = 0.0
    for i in range(1000):
        x = i * 0.01
        total += math.sin(x) * math.cos(x) + math.sqrt(x + 1.0)
    y = _GRID
    for _ in range(20):
        y = np.cumsum(np.sin(y)) / y.size
        total += float(np.dot(y, y))
    return total


def normalised_ms(cpu_ms: float, samples_ms, reference_ms: float =
                  REFERENCE_MS) -> float:
    """CPU time at the reference speed: the mean over samples, each taken
    at an equal step of CPU time, of the speed-up the sample implies."""
    factors = [reference_ms / s for s in samples_ms if s > 0]
    if not factors:
        raise ValueError("no positive speed sample")
    return cpu_ms * math.fsum(factors) / len(factors)


class Stopwatch:
    """Times a block: normalised ms, process CPU ms and wall ms.

        with Stopwatch() as watch:
            work()
        norm_ms, cpu_ms, wall_ms = watch.result

    Use it from the main thread only (signal handlers run there), and do
    not nest it.
    """

    def __init__(self):
        self.samples_ms: list[float] = []
        self._in_block_ms = 0.0
        self.result: tuple[float, float, float] | None = None

    def _sample(self) -> float:
        start = time.thread_time_ns()
        reference_kernel()
        ms = (time.thread_time_ns() - start) / 1e6
        self.samples_ms.append(ms)
        return ms

    def _on_signal(self, signum, frame) -> None:
        self._in_block_ms += self._sample()

    def __enter__(self) -> "Stopwatch":
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._cpu = time.process_time_ns()
        self._wall = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        cpu_ms = (time.process_time_ns() - self._cpu) / 1e6
        wall_ms = (time.perf_counter_ns() - self._wall) / 1e6
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        cpu_ms = max(cpu_ms - self._in_block_ms, 0.0)
        wall_ms = max(wall_ms - self._in_block_ms, 0.0)
        self.result = (normalised_ms(cpu_ms, self.samples_ms), cpu_ms,
                       wall_ms)
