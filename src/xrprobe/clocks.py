"""Per-device clocks: a fixed drift plus an offset redrawn at every NTP sync.

Every node in a session stamps events with its own clock. The simulator keeps
a single true timeline and derives each node's local timestamps through a
``DeviceClock``, so residual clock error propagates into measured latencies
exactly the way it does between real NTP-synced devices.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

# Milliseconds since the Unix epoch. Kept as a plain int: timestamps are
# totally ordered and integer-valued everywhere downstream.
Timestamp = int
# every timestamp lies in 0..MAX_TIMESTAMP, the range of the beacon's 64 bits
MAX_TIMESTAMP = 2**64 - 1


@dataclass
class DeviceClock:
    """A device clock from its join on, one segment per sync interval.

    Within the segment opened at ``starts[i]`` the local time is
    t + offsets[i] + drift_ppm * 1e-6 * (t - starts[i]): each sync redraws
    the residual offset and restarts the drift error from zero, while the
    drift itself is a hardware property and survives. ``starts[0]`` is the
    join; the clock does not exist before it.
    """

    device: str
    drift_ppm: float
    starts: list[float]
    offsets: list[float]

    @classmethod
    def draw(cls, device: str, *, seed: int, join_ms: float, end_ms: float,
             sigma_ntp_ms: float, sync_interval_s: float,
             max_drift_ppm: float, initial_offset_sigma_ms: float) -> DeviceClock:
        """Draw the whole session's segments up front, so reads and
        inversions are independent of event-processing order."""
        rng = random.Random(f"{seed}|clock|{device}")
        drift = rng.uniform(-max_drift_ppm, max_drift_ppm) if max_drift_ppm > 0 else 0.0
        offsets = [rng.gauss(0.0, initial_offset_sigma_ms) if initial_offset_sigma_ms > 0 else 0.0]
        starts = [join_ms]
        t = join_ms + sync_interval_s * 1000.0
        while t <= end_ms:
            offsets.append(rng.gauss(0.0, sigma_ntp_ms) if sigma_ntp_ms > 0 else 0.0)
            starts.append(t)
            t += sync_interval_s * 1000.0
        return cls(device, drift, starts, offsets)

    def local(self, t: float) -> float:
        """Local time in fractional ms at true time ``t``."""
        if t < self.starts[0]:
            raise ValueError(f"clock {self.device!r}: {t} precedes join {self.starts[0]}")
        i = bisect.bisect_right(self.starts, t) - 1
        return t + self.offsets[i] + self.drift_ppm * 1e-6 * (t - self.starts[i])

    def read(self, t: float) -> Timestamp:
        """Local timestamp at true time ``t``, rounded to whole ms."""
        return round(self.local(t))

    def span(self, end_ms: float) -> tuple[float, float]:
        """Bounds on the local time from the join to ``end_ms``. The local
        time is linear within a segment, so both lie at the ends of a
        segment: its start, and its value at the next sync, which the
        segment approaches but does not reach."""
        rate = self.drift_ppm * 1e-6
        starts, offsets = self.starts, self.offsets
        ends = [*starts[1:], end_ms]
        local = [start + offset for start, offset in zip(starts, offsets)]
        local += [stop + offset + rate * (stop - start)
                  for start, offset, stop in zip(starts, offsets, ends)]
        return min(local), max(local)

    def read_sorted(self, times: list[float]) -> list[Timestamp]:
        """``read`` of each of ``times``, which must be nondecreasing: one
        bisect for the first, then the segments are walked forward."""
        if not times:
            return []
        starts, offsets = self.starts, self.offsets
        if times[0] < starts[0]:
            raise ValueError(f"clock {self.device!r}: {times[0]} precedes join {starts[0]}")
        rate = self.drift_ppm * 1e-6
        i = bisect.bisect_right(starts, times[0]) - 1
        start, offset = starts[i], offsets[i]
        following = starts[i + 1] if i + 1 < len(starts) else math.inf
        out = []
        for t in times:
            while t >= following:
                i += 1
                start, offset = starts[i], offsets[i]
                following = starts[i + 1] if i + 1 < len(starts) else math.inf
            out.append(round(t + offset + rate * (t - start)))
        return out

    def invert(self, local_target: float) -> float:
        """True time at which the clock reads ``local_target``.

        Sync steps make the local map piecewise; a target falling into the
        sub-millisecond gap of a forward step snaps to the gap's boundary.
        """
        j = max(0, bisect.bisect_right(self.starts, local_target) - 2)
        d = self.drift_ppm * 1e-6
        while True:
            t = (local_target - self.offsets[j] + d * self.starts[j]) / (1.0 + d)
            if t < self.starts[j]:
                return self.starts[j]
            if j + 1 == len(self.starts) or t < self.starts[j + 1]:
                return t
            j += 1
