"""Deterministic discrete-event simulation of the edge-rendered media pipeline.

One presenter captures video frames and emits audio pulses; everything passes
through an edge renderer and fans out to every connected device (the presenter
consumes its own composited stream as well). The access network on each hop is
a stochastic delay model with optional burst outages and whole-unit loss.
Detections are produced the way real clients would produce them: video is
re-detected at every display refresh (a frozen frame keeps ramping its measured
latency), audio pulses are timestamped at device playout.

The engine is single-threaded and draws randomness from per-channel streams
seeded with string keys, so a (scenario, seed) pair maps to exactly one log
on any platform. Each channel is one closure, ``hop(t)``, that draws its
loss, jitter and outage entry on ``random()`` alone, the one ``random.Random``
method whose stream Python promises to keep across versions; the jitters write
the stdlib's ``lognormvariate`` and ``gauss`` out on it. The draws that still
call stdlib variates are the clocks' ``gauss`` and ``uniform``, the vsync and
audio phase ``uniform`` and the outage-duration ``uniform``.

Each medium is an uplink pass over its capture or pulse grid, one stable sort
of the edge arrivals and a downlink pass over them. Each device's display is a
pass over its frame arrivals and its vsync grid. With quality adaptation on,
the control steps run inside the video downlink pass: each runs every display
up to its own time, then sets the downlink encode delay for the edges after it. Exact ties keep the order of one event
queue that breaks equal times by scheduling order: a frame arriving at exactly
a tick's time goes first iff its edge came before the previous tick, and an
edge at exactly a control step's time iff its capture came before the previous
step (the first step always goes first). An edge or capture at exactly the
previous tick's or step's time counts as after it: two exact float ties at once.

``run_scenario`` runs with the cyclic garbage collector paused: its records are
NamedTuples, which the collector keeps tracking (it untracks only exact tuples),
so tens of thousands of them set off full-heap passes while a run builds them,
and the engine makes no reference cycles, so the pause defers no garbage.
"""

from __future__ import annotations

import gc
import math
import random
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .audio_beacon import (
    PcmBuffer,
    ToneSchedule,
    detect_wav,
    synthesize,
    write_wav,
    write_wav_manifest,
)
from .clocks import DeviceClock
from .metrics import AUDIO, VIDEO, DetectionRecord, new_record
from .scenario import MAX_SESSION_MS, NetworkProfile, SessionScenario, adapt_quality
from .schema import SchemaError
from .video_beacon import (
    FrameManifest,
    beacon_emission,
    detect_frame_sequence,
    render_frames,
    write_frame_sequence,
)

PHYSICAL_SCALE = 4
PHYSICAL_QUIET = 4
# samples per device audio output callback: a device hands its audio to the
# output a callback at a time, so a pulse starts playing on a callback boundary
OUTPUT_CALLBACK_SAMPLES = 512


# --- network hop -------------------------------------------------------------------

def _channel(profile: NetworkProfile, rng: random.Random,
             medium: str) -> Callable[[float], float | None]:
    """One directional channel: ``hop(t)``, the one-way delay in ms of a unit
    sent at true time ``t``, or None when the unit is lost.

    Each unit draws its loss (when ``loss_prob`` is above 0), then its
    jitter, then, outside a burst that hits ``medium``, whether it opens one
    and for how long. Inside a burst it pays the residual, and the unit that
    opens one pays the whole duration, so a delay is never below the base.
    """
    loss = profile.loss_prob
    lossy = loss > 0.0
    base = profile.base_one_way_ms
    jitter = profile.jitter.sampler(rng)
    rand = rng.random
    outage = profile.outage
    bursty = outage is not None and medium in outage.media
    until = -math.inf  # the end of the current burst

    def hop(t: float) -> float | None:
        nonlocal until
        if lossy and rand() < loss:
            return None
        delay = base + jitter()
        if not bursty:
            return delay
        if t < until:
            return delay + (until - t)
        if rand() < outage.enter_prob:
            duration = outage.sample_duration(rng)
            until = t + duration
            return delay + duration
        return delay
    return hop


# --- run artifacts -----------------------------------------------------------------

@dataclass
class DeviceTrace:
    """Ground-truth playback trace of one device, kept for physical rendering."""

    device: str
    join_ms: float
    quantum_ms: float
    clock: DeviceClock
    ticks: list = field(default_factory=list)    # (true_ms, beacon emission | None)
    pulses: list = field(default_factory=list)   # (true playout ms, absolute slot index)


@dataclass
class DetectionLog:
    """Ordered detection records plus diagnostic tallies for one run.

    ``tones`` is the run's schedule with its epoch resolved.
    """

    records: list[DetectionRecord]
    tally: Counter
    tones: ToneSchedule
    traces: dict[str, DeviceTrace] = field(default_factory=dict)


# _slot_at(join_order, t): how many devices have joined by ``t``; ``join_order``
# is sorted. A C function, so a column of slots is one ``map``.
_slot_at = bisect_right


# records sort by (playout_ts, device, media, emission_ts)
_RECORD_ORDER = itemgetter(3, 1, 0, 2)
_first = itemgetter(0)


# --- the display -------------------------------------------------------------------

class _Display:
    """One device's display: its frame arrivals merged with its vsync grid.

    Tick m falls at ``first_tick + m * quantum_ms`` and runs while it is at or
    before ``end``. A frame that arrives is held until the next tick, which
    shows it unless it is older than the frame on screen (``frames_stale``); a
    later arrival before that tick replaces it (``frames_skipped``). Every tick
    shows the current frame again, so a frozen frame keeps ramping its
    latency.

    An arrival at exactly a tick's time goes first iff its edge was processed
    before the previous tick: the order of one time-ordered queue of both
    kinds of event that breaks ties by scheduling order.
    """

    def __init__(self, trace: DeviceTrace, first_tick: float, end: float,
                 join_order: list[float]):
        self.trace = trace
        self.first_tick = first_tick
        self.end = end
        self.join_order = join_order
        self.arrivals: list[tuple[float, int, float]] = []  # (true ms, emission, edge true ms)
        self.m = 0  # the next tick
        self.pending: int | None = None
        self.current: int | None = None

    def advance(self, until: float, records: list[DetectionRecord],
                tally: Counter) -> tuple[int, int]:
        """Show every frame due before true time ``until``, or every frame
        left when it is infinite; appends the records and returns the sum of
        their latencies and their count."""
        arrivals = self.arrivals
        arrivals.sort(key=_first)  # stable: equal times keep their edge order
        quantum, end = self.trace.quantum_ms, self.end
        current, pending = self.current, self.pending
        ticks = self.trace.ticks
        stale = skipped = 0
        shown: list[float] = []
        emissions: list[int] = []
        i, n = 0, len(arrivals)
        base, m = self.first_tick, self.m
        previous = base + (m - 1) * quantum if m else -math.inf
        while True:
            t = base + m * quantum
            ticking = t <= end and t < until
            if not ticking:
                if until < math.inf:
                    break
                t = math.inf  # no tick left: the arrivals still reach the tallies
            while i < n:
                arrival, emission, edge_t = arrivals[i]
                if arrival > t or (arrival == t and not edge_t < previous):
                    break
                i += 1
                if pending is None:
                    pending = emission
                elif emission >= pending:
                    pending = emission
                    skipped += 1
                else:
                    stale += 1
            if not ticking:
                break
            if pending is not None:
                if current is None or pending >= current:
                    current = pending
                else:
                    stale += 1
                pending = None
            ticks.append((t, current))
            if current is not None:
                shown.append(t)
                emissions.append(current)
            previous = t
            m += 1
        self.current, self.pending, self.m = current, pending, m
        if skipped:  # a zero count would still add its key to the tally
            tally["frames_skipped"] += skipped
        if stale:
            tally["frames_stale"] += stale
        del arrivals[:i]

        playouts = self.trace.clock.read_sorted(shown)
        records += map(new_record, zip(repeat(VIDEO), repeat(self.trace.device), emissions,
                                       playouts, map(_slot_at, repeat(self.join_order), shown),
                                       repeat(None), repeat(None)))
        return sum(playouts) - sum(emissions), len(shown)  # ints: the sum is exact


# --- the engine --------------------------------------------------------------------

def _grid(point, end: float) -> list[float]:
    """``point(0), point(1), ...`` up to the first past ``end``. Point 0 is
    kept even past it: a session always makes its first capture."""
    grid = [point(0)]
    while (t := point(len(grid))) <= end:
        grid.append(t)
    return grid


@contextmanager
def _collector_paused() -> Iterator[None]:
    """The block with the cyclic garbage collector off; a collector that was
    on comes back on after it, one that was off stays off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def run_scenario(scenario: SessionScenario, seed: int | None = None) -> DetectionLog:
    """Simulate the scenario and return its detection log (symbolic mode)."""
    seed = scenario.seed if seed is None else seed
    pipe = scenario.pipeline
    fps = scenario.fps
    frame_ms = 1000.0 / fps
    capture_ms = pipe.capture_ms(fps)
    quantum_ms = pipe.quantum_ms(fps)
    t0 = float(scenario.start_epoch_ms)
    end = t0 + scenario.duration_s * 1000.0
    rate = scenario.sample_rate
    callback_ms = OUTPUT_CALLBACK_SAMPLES * 1000.0 / rate

    devices = scenario.devices
    joins = {d: t0 + scenario.join_time_s(d) * 1000.0 for d in devices}
    join_order = sorted(joins.values())
    cspec = scenario.clocks
    clocks = {
        d: DeviceClock.draw(
            d, seed=seed, join_ms=joins[d], end_ms=end,
            sigma_ntp_ms=cspec.sigma_ntp_ms, sync_interval_s=cspec.sync_interval_s,
            max_drift_ppm=cspec.max_drift_ppm,
            initial_offset_sigma_ms=cspec.initial_offset_sigma_ms,
        )
        for d in devices
    }
    for d, clock in clocks.items():
        first, last = clock.span(end)
        # the local times read() rounds into 0..MAX_SESSION_MS-1
        if not (-0.5 <= first and last < MAX_SESSION_MS - 0.5):
            raise SchemaError("start_epoch_ms", f"the clock of {d!r} reads from {first:.0f} "
                                                f"to {last:.0f} ms, outside 0..2**43-1")
    presenter = scenario.presenter
    pclock = clocks[presenter]
    start_local = pclock.local(t0)
    stream_start_ts = round(start_local)

    tones = scenario.tones
    if tones.epoch_ts == 0:
        tones = replace(tones, epoch_ts=stream_start_ts)
    period_ms = tones.pulse_period_ms
    uplink, downlink = scenario.uplink, scenario.downlink

    def channel(profile: NetworkProfile, *key: str) -> Callable[[float], float | None]:
        """The hop of the channel keyed ``key``, whose last part is its medium."""
        return _channel(profile, random.Random("|".join((str(seed), "chan", *key))), key[-1])

    tally: Counter = Counter()
    records: list[DetectionRecord] = []
    traces = {d: DeviceTrace(d, joins[d], quantum_ms, clocks[d]) for d in devices}
    # Display refresh and audio output callbacks run on device-local grids whose
    # phase is arbitrary relative to the presenter's capture clock; a drawn
    # phase prevents the grids from locking when join times are round numbers.
    displays: list[_Display] = []
    audio_phase: dict[str, float] = {}
    for d in devices:
        phase_rng = random.Random(f"{seed}|phase|{d}")
        vsync_phase = phase_rng.uniform(0.0, quantum_ms)
        audio_phase[d] = phase_rng.uniform(0.0, callback_ms)
        displays.append(_Display(traces[d], joins[d] + vsync_phase, end, join_order))

    # --- audio: pulse grid -> uplink -> sort -> each device's downlink
    hop = channel(uplink, "up", AUDIO)
    pulse_edges: list[tuple[float, int]] = []  # (edge true ms, slot)
    # the first slot emitted at or after the stream start: an earlier epoch
    # leaves its slots before the session unplayed
    first = max(0, -((tones.epoch_ts - stream_start_ts) // period_ms))
    base = tones.epoch_ts + first * period_ms
    # an epoch past the session's end leaves no pulse due in it
    due = _grid(lambda k: pclock.invert(float(base + k * period_ms)), end)
    for n, t in enumerate(due if due[0] <= end else [], first):
        if (delay := hop(t)) is None:
            tally["pulses_lost_uplink"] += 1
        else:
            pulse_edges.append((t + delay, n))
    pulse_edges.sort(key=_first)  # stable: equal times keep grid order

    tone_count, frequencies = tones.tone_count, tones.frequencies
    for d in devices:  # nothing else reads a device's audio channel
        hop = channel(downlink, "down", d, AUDIO)
        join, clock, pulses = joins[d], clocks[d], traces[d].pulses
        anchor = join + audio_phase[d]
        for t, n in pulse_edges:
            if join > t:
                continue
            if (delay := hop(t)) is None:
                tally["pulses_lost_downlink"] += 1
                continue
            raw = t + delay + pipe.audio_buffer_ms + pipe.audio_path_ms
            callbacks = math.ceil((raw - anchor) / callback_ms - 1e-9)
            play_true = anchor + max(0, callbacks) * callback_ms
            if play_true + tones.pulse_duration_ms > end:
                tally["pulses_truncated"] += 1
                continue
            records.append(new_record((
                AUDIO, d, tones.epoch_ts + n * period_ms, clock.read(play_true),
                _slot_at(join_order, play_true), frequencies[n % tone_count], 1.0)))
            pulses.append((play_true, n))

    # --- video: capture grid -> uplink -> sort -> downlink with the control steps
    hop = channel(uplink, "up", VIDEO)
    frame_edges: list[tuple[float, int, float]] = []  # (edge true ms, emission, capture true ms)
    for i, t in enumerate(_grid(lambda i: pclock.invert(start_local + i * frame_ms), end)):
        emission = beacon_emission(stream_start_ts, round(start_local + i * frame_ms),
                                   scenario.beacon_interval_ms)
        send_t = t + capture_ms + pipe.encode_up_ms
        if (delay := hop(send_t)) is None:
            tally["frames_lost_uplink"] += 1
        else:
            frame_edges.append((send_t + delay, emission, t))
    frame_edges.sort(key=_first)  # stable: equal times keep grid order

    quality = scenario.quality
    level = quality.initial_level
    encode_down_eff = pipe.encode_down_ms
    steps: list[float] = []
    if quality.enabled:
        encode_down_eff = max(0.0, pipe.encode_down_ms + quality.delta_for(level))
        interval = quality.control_interval_s * 1000.0
        steps.append(t0 + interval)  # step 1 is kept even past the end
        while (q := steps[-1] + interval) <= end:
            steps.append(q)
    last_level_change = t0

    def control(q: float) -> None:
        """Every display up to ``q``, then a decision on the frames it showed."""
        nonlocal level, encode_down_eff, last_level_change
        window_sum = 0.0
        window_n = 0
        for display in displays:
            latency_sum, shown = display.advance(q, records, tally)
            window_sum += latency_sum
            window_n += shown
        if window_n > 0:
            decision = adapt_quality(window_sum / window_n, level, quality,
                                     (q - last_level_change) / 1000.0)
            if decision.action != "hold":
                level = decision.target_level
                encode_down_eff = max(0.0, pipe.encode_down_ms + quality.delta_for(level))
                last_level_change = q
                tally[f"quality_{decision.action}"] += 1

    downlinks = [(joins[d], channel(downlink, "down", d, VIDEO), display.arrivals)
                 for d, display in zip(devices, displays)]
    decode_ms = pipe.decode_ms
    k = 0  # the next control step
    for t, emission, capture_t in frame_edges:
        # A step at exactly this edge's time goes first unless the capture came
        # strictly before the previous step; the first step always goes first.
        while k < len(steps) and (steps[k] < t or steps[k] == t
                                  and not (k and capture_t < steps[k - 1])):
            control(steps[k])
            k += 1
        send_t = t + pipe.render_ms + encode_down_eff
        if send_t > end:
            continue
        for join, hop, arrivals in downlinks:
            if join > send_t:
                continue
            if (delay := hop(send_t)) is None:
                tally["frames_lost_downlink"] += 1
                continue
            arrivals.append((send_t + delay + decode_ms, emission, t))
    for q in steps[k:]:
        control(q)

    for display in displays:
        display.advance(math.inf, records, tally)
    records.sort(key=_RECORD_ORDER)
    return DetectionLog(records=records, tally=tally, tones=tones, traces=traces)


# --- physical mode -----------------------------------------------------------------

def run_physical(scenario: SessionScenario, workdir: str | Path,
                 seed: int | None = None) -> tuple[DetectionLog, DetectionLog]:
    """Render the run to real PGM frames and WAV streams, then detect them.

    Returns (physical_log, symbolic_log). The physical log is produced by the
    actual detectors reading the written media, so it exercises the whole
    measurement chain end to end. Frames are rendered and written a chunk
    at a time.
    """
    symbolic = run_scenario(scenario, seed)
    workdir = Path(workdir)
    rate = scenario.sample_rate
    end = float(scenario.start_epoch_ms) + scenario.duration_s * 1000.0
    joins = {d: trace.join_ms for d, trace in symbolic.traces.items()}
    session_info = {"joins_ms": joins}
    tones = symbolic.tones

    records: list[DetectionRecord] = []
    tally: Counter = Counter()
    tone_cache: dict[int, np.ndarray] = {}
    pulse_samples = round(tones.pulse_duration_ms * rate / 1000.0)

    for d, trace in symbolic.traces.items():
        vdir = workdir / d / "video"
        frames = render_frames((emission for _, emission in trace.ticks),
                               PHYSICAL_SCALE, PHYSICAL_QUIET)
        start_ts = trace.clock.read(trace.ticks[0][0]) if trace.ticks else trace.clock.read(trace.join_ms)
        manifest = FrameManifest(
            device_id=d, fps=1000.0 / trace.quantum_ms, start_ts=start_ts,
            frame_count=len(trace.ticks), session=session_info,
        )
        write_frame_sequence(vdir, frames, manifest)

        detections, detect_tally = detect_frame_sequence(vdir)
        records += detections
        tally.update(detect_tally)

        n_samples = math.ceil((end - trace.join_ms) * rate / 1000.0)
        mix = np.zeros(n_samples, dtype=np.int32)
        for play_true, slot_index in trace.pulses:
            k = slot_index % tones.tone_count
            if k not in tone_cache:
                tone_cache[k] = synthesize(tones, k, 1, rate).samples[:pulse_samples].astype(np.int32)
            offset = round((play_true - trace.join_ms) * rate / 1000.0)
            mix[offset:offset + pulse_samples] += tone_cache[k]
        pcm = PcmBuffer(sample_rate=rate,
                        samples=np.clip(mix, -32768, 32767).astype(np.int16))
        wav_path = workdir / d / "audio.wav"
        wav_path.parent.mkdir(parents=True, exist_ok=True)
        write_wav(wav_path, pcm)
        write_wav_manifest(wav_path, d, tones,
                           stream_start_ts=trace.clock.read(trace.join_ms),
                           session=session_info)

        detections, detect_tally = detect_wav(wav_path)
        records += detections
        tally.update(detect_tally)

    join_order = sorted(joins.values())
    records = sorted([new_record((media, device, emission, playout, _slot_at(join_order, playout),
                                  frequency, confidence))
                      for media, device, emission, playout, _, frequency, confidence in records],
                     key=_RECORD_ORDER)
    return (DetectionLog(records=records, tally=tally, tones=tones,
                         traces=symbolic.traces), symbolic)


# physical/symbolic playout agreement tolerance per media, ms
COMPARE_TOL_MS = {VIDEO: 34.0, AUDIO: 20.0}


def compare_logs(a: list[DetectionRecord], b: list[DetectionRecord]) -> float:
    """Fraction of records agreeing between two logs.

    Records pair up by (media, device, emission) occurrence order; a pair
    agrees when playouts differ by at most COMPARE_TOL_MS of their media.
    Unpaired records count against the fraction.
    """
    def grouped(recs):
        g: dict[tuple, list[int]] = {}
        for r in recs:
            g.setdefault((r.media, r.device, r.emission_ts), []).append(r.playout_ts)
        for v in g.values():
            v.sort()
        return g

    ga, gb = grouped(a), grouped(b)
    matched = 0
    total = 0
    for key in set(ga) | set(gb):
        la = ga.get(key, [])
        lb = gb.get(key, [])
        total += max(len(la), len(lb))
        tol = COMPARE_TOL_MS[key[0]]
        matched += sum(1 for x, y in zip(la, lb) if abs(x - y) <= tol)
    return matched / total if total else 1.0
