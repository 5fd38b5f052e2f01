"""Speed probe: a fixed CPU kernel sampled through the run, and a clock that
leaves the samples out.

On a shared machine the benchmark's core runs fast or slow for fractions of
a second to tens of seconds at a time, as neighbouring load comes and goes,
and that swing is larger than most changes a benchmark should detect. While
``running()``, a SIGALRM timer interrupts the run every ``INTERVAL_S`` and
times the same small kernel: pure-Python arithmetic, dict and JSON work
(like the simulator and the log code) and short numpy calls on the rows of
a small binary image (like the detector's scan). The handler runs between
bytecodes, so it samples the machine's speed inside long calls into
xrprobe too.

``now_ns()`` is a clock that stops while the kernel runs, so the time of a
unit of work read from it holds none of the probe's own time. ``scale()``
turns such a time into the time at the reference speed, at which the kernel
takes ``REF_S``: it multiplies by ``REF_S`` over the mean kernel time of the
samples taken during the unit and within one interval either side of it.
A change to xrprobe moves the unit's time and not the kernel's, so the
scaled time moves in full; a change in machine speed moves both and
cancels.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np


class SpeedProbe:
    # Kernel time in the machine's fast state on the 2-vCPU Xeon the
    # benchmark was written on, so that scaled times read as times there.
    REF_S = 0.0025
    INTERVAL_S = 0.05

    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = (rng.random((160, 160)) > 0.5).astype(np.uint8)
        self._values = rng.random(20_000)
        self._at: list[int] = []  # now_ns() when each sample was taken
        self.samples: list[float] = []  # kernel seconds per sample
        self._paused_ns = 0
        self._busy = False

    def _kernel(self) -> int:
        acc = 0
        table = {}
        for i in range(6_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 255] = acc
        acc += len(json.loads(json.dumps(list(table.values()))))
        for row in self._rows:
            edges = np.flatnonzero(np.diff(row))
            acc += int(edges.size)
            if edges.size > 4:
                acc += int(np.diff(edges).max())
        return acc + int(np.argsort(self._values)[0])

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter_ns()
            self._kernel()
            t1 = time.perf_counter_ns()
            self._at.append(t0 - self._paused_ns)
            self.samples.append((t1 - t0) / 1e9)
            self._paused_ns += t1 - t0
        finally:
            self._busy = False

    def now_ns(self) -> int:
        """perf_counter_ns() less the time spent in the kernel so far."""
        return time.perf_counter_ns() - self._paused_ns

    @contextmanager
    def running(self):
        """Sample every INTERVAL_S until the block ends, and once at each end."""
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Seconds between two now_ns() readings, at the reference speed."""
        pad = int(self.INTERVAL_S * 1e9)
        lo = bisect.bisect_left(self._at, start_ns - pad)
        hi = bisect.bisect_right(self._at, end_ns + pad)
        near = self.samples[lo:hi] or self.samples[max(0, lo - 1):lo + 1]
        return (end_ns - start_ns) / 1e9 * self.REF_S / statistics.fmean(near)

    def factor(self) -> float:
        """Mean factor over the whole run, for per-layer times."""
        return self.REF_S / statistics.fmean(self.samples)

    def summary(self) -> str:
        ms = sorted(s * 1e3 for s in self.samples)
        return (f"speed probe: {len(ms)} samples, median {ms[len(ms) // 2]:.3f} ms, "
                f"fastest {ms[0]:.3f} ms, reference {self.REF_S * 1e3:.3f} ms")
