"""The simulator's passes against the event-heap engine they replaced.

``heap_run_scenario`` is the engine with every capture, pulse, edge arrival,
vsync tick, frame arrival and quality-control step an event on one heap.
``run_scenario`` runs each medium as an uplink pass over its grid, one stable
sort of the edge arrivals and a downlink pass; the control steps are merged
into the video downlink pass, and each device's display merges its frame
arrivals with its tick grid. Both must give the same records, tallies and
traces on any scenario: quality adaptation on and off, outages, zero delays
and loss, and exact ties at a tick or at a control step, both ways round.

The oracle's hops draw the stdlib variates, ``rng.lognormvariate`` and
``rng.gauss``, where ``run_scenario`` writes them out on ``rng.random``, so
the same runs also hold those written-out draws to the stdlib's.
"""

import heapq
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, replace

from hypothesis import given, settings, strategies as st

from xrprobe.audio_beacon import slot_frequency
from xrprobe.clocks import DeviceClock
from xrprobe.metrics import AUDIO, VIDEO, DetectionRecord
from xrprobe.netsim import (
    OUTPUT_CALLBACK_SAMPLES,
    DetectionLog,
    DeviceTrace,
    _Display,
    _slot_at,
    run_scenario,
)
from xrprobe.scenario import (
    ClockSpec,
    GaussianJitter,
    LognormalJitter,
    NetworkProfile,
    OutageSpec,
    PipelineModel,
    QualitySpec,
    SessionScenario,
    adapt_quality,
    preset_scenario,
)
from xrprobe.video_beacon import beacon_emission


# --- the oracle: one heap for every event -------------------------------------------

@dataclass
class ChannelState:
    """Burst-outage bookkeeping for one directional channel."""

    outage_until: float = float("-inf")


def sample_hop_delay(profile: NetworkProfile, rng: random.Random, t: float,
                     state: ChannelState, medium: str) -> float:
    """One-way delay draw at true time ``t``, milliseconds, from the stdlib
    variates. Adds the residual outage time when the channel is inside a
    burst, or the whole burst duration when this event opens one."""
    jitter = profile.jitter
    if isinstance(jitter, LognormalJitter):
        delay = profile.base_one_way_ms + rng.lognormvariate(jitter.mu, jitter.sigma)
    elif jitter.sigma_ms == 0:
        delay = profile.base_one_way_ms + 0.0
    else:
        delay = profile.base_one_way_ms + max(0.0, rng.gauss(0.0, jitter.sigma_ms))
    outage = profile.outage
    if outage is not None and medium in outage.media:
        if t < state.outage_until:
            delay += state.outage_until - t
        elif rng.random() < outage.enter_prob:
            duration = rng.uniform(outage.duration_min_ms, outage.duration_max_ms)
            state.outage_until = t + duration
            delay += duration
    return delay


def heap_run_scenario(scenario: SessionScenario, seed: int | None = None) -> DetectionLog:
    """``run_scenario`` with every display tick and frame arrival an event on
    the one heap, as the engine ran before its per-device display pass."""
    seed = scenario.seed if seed is None else seed
    pipe = scenario.pipeline
    fps = scenario.fps
    frame_ms = 1000.0 / fps
    capture_ms = pipe.capture_ms(fps)
    quantum_ms = pipe.quantum_ms(fps)
    t0 = float(scenario.start_epoch_ms)
    end = t0 + scenario.duration_s * 1000.0
    rate = scenario.sample_rate
    hop_ms = OUTPUT_CALLBACK_SAMPLES * 1000.0 / rate  # playout lands on this grid

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
    presenter = scenario.presenter
    pclock = clocks[presenter]
    start_local = pclock.local(t0)
    stream_start_ts = round(start_local)

    tones = scenario.tones
    if tones.epoch_ts == 0:
        tones = replace(tones, epoch_ts=stream_start_ts)
    period_ms = tones.pulse_period_ms

    up_rng = {m: random.Random(f"{seed}|chan|up|{m}") for m in (VIDEO, AUDIO)}
    up_state = {m: ChannelState() for m in (VIDEO, AUDIO)}
    down_rng = {(d, m): random.Random(f"{seed}|chan|down|{d}|{m}")
                for d in devices for m in (VIDEO, AUDIO)}
    down_state = {(d, m): ChannelState() for d in devices for m in (VIDEO, AUDIO)}

    def lost(rng: random.Random, prob: float) -> bool:
        return prob > 0.0 and rng.random() < prob

    quality = scenario.quality
    level = quality.initial_level
    encode_down_eff = pipe.encode_down_ms
    if quality.enabled:
        encode_down_eff = max(0.0, pipe.encode_down_ms + quality.delta_for(level))
    window_sum = 0.0
    window_n = 0
    last_level_change = t0

    # Display refresh and audio output callbacks run on device-local grids whose
    # phase is arbitrary relative to the presenter's capture clock; a drawn
    # phase prevents the grids from locking when join times are round numbers.
    vsync_phase: dict[str, float] = {}
    audio_phase: dict[str, float] = {}
    for d in devices:
        phase_rng = random.Random(f"{seed}|phase|{d}")
        vsync_phase[d] = phase_rng.uniform(0.0, quantum_ms)
        audio_phase[d] = phase_rng.uniform(0.0, hop_ms)

    tally: Counter = Counter()
    records: list[DetectionRecord] = []
    traces = {d: DeviceTrace(d, joins[d], quantum_ms, clocks[d]) for d in devices}
    current: dict[str, int | None] = {d: None for d in devices}
    pending: dict[str, tuple[int, float] | None] = {d: None for d in devices}

    heap: list = []
    seq = itertools.count()

    def push(t: float, kind: str, payload=None) -> None:
        heapq.heappush(heap, (t, next(seq), kind, payload))

    def emit_video(device: str, emission: int, t: float) -> None:
        nonlocal window_sum, window_n
        playout = clocks[device].read(t)
        records.append(DetectionRecord(VIDEO, device, emission, playout,
                                       _slot_at(join_order, t)))
        window_sum += playout - emission
        window_n += 1

    def capture_true(i: int) -> float:
        return pclock.invert(start_local + i * frame_ms)

    def pulse_true(n: int) -> float:
        return pclock.invert(float(tones.epoch_ts + n * period_ms))

    push(capture_true(0), "capture", 0)
    push(pulse_true(0), "pulse", 0)
    for d in devices:
        push(joins[d] + vsync_phase[d], "tick", (d, 0))
    if quality.enabled:
        push(t0 + quality.control_interval_s * 1000.0, "qctl", None)

    while heap:
        t, _, kind, payload = heapq.heappop(heap)

        if kind == "capture":
            i = payload
            capture_ts = round(start_local + i * frame_ms)
            emission = beacon_emission(stream_start_ts, capture_ts,
                                       scenario.beacon_interval_ms)
            send_t = t + capture_ms + pipe.encode_up_ms
            if lost(up_rng[VIDEO], scenario.uplink.loss_prob):
                tally["frames_lost_uplink"] += 1
            else:
                hop = sample_hop_delay(scenario.uplink, up_rng[VIDEO], send_t,
                                       up_state[VIDEO], VIDEO)
                push(send_t + hop, "edge", emission)
            nxt = capture_true(i + 1)
            if nxt <= end:
                push(nxt, "capture", i + 1)

        elif kind == "edge":
            emission = payload
            send_t = t + pipe.render_ms + encode_down_eff
            for d in devices:
                if joins[d] > send_t or send_t > end:
                    continue
                if lost(down_rng[(d, VIDEO)], scenario.downlink.loss_prob):
                    tally["frames_lost_downlink"] += 1
                    continue
                hop = sample_hop_delay(scenario.downlink, down_rng[(d, VIDEO)],
                                       send_t, down_state[(d, VIDEO)], VIDEO)
                push(send_t + hop + pipe.decode_ms, "vready", (d, emission))

        elif kind == "vready":
            d, emission = payload
            held = pending[d]
            if held is None or emission >= held[0]:
                if held is not None:
                    tally["frames_skipped"] += 1
                pending[d] = (emission, t)
            else:
                tally["frames_stale"] += 1

        elif kind == "tick":
            d, m = payload
            if t <= end:
                held = pending[d]
                if held is not None:
                    if current[d] is None or held[0] >= current[d]:
                        current[d] = held[0]
                    else:
                        tally["frames_stale"] += 1
                    pending[d] = None
                shown = current[d]
                traces[d].ticks.append((t, shown))
                if shown is not None:
                    emit_video(d, shown, t)
                nxt = joins[d] + vsync_phase[d] + (m + 1) * quantum_ms
                if nxt <= end:
                    push(nxt, "tick", (d, m + 1))

        elif kind == "pulse":
            n = payload
            emission = tones.epoch_ts + n * period_ms
            if lost(up_rng[AUDIO], scenario.uplink.loss_prob):
                tally["pulses_lost_uplink"] += 1
            else:
                hop = sample_hop_delay(scenario.uplink, up_rng[AUDIO], t,
                                       up_state[AUDIO], AUDIO)
                push(t + hop, "pedge", (n, emission))
            nxt = pulse_true(n + 1)
            if nxt <= end:
                push(nxt, "pulse", n + 1)

        elif kind == "pedge":
            n, emission = payload
            for d in devices:
                if joins[d] > t:
                    continue
                if lost(down_rng[(d, AUDIO)], scenario.downlink.loss_prob):
                    tally["pulses_lost_downlink"] += 1
                    continue
                hop = sample_hop_delay(scenario.downlink, down_rng[(d, AUDIO)],
                                       t, down_state[(d, AUDIO)], AUDIO)
                raw = t + hop + pipe.audio_buffer_ms + pipe.audio_path_ms
                anchor = joins[d] + audio_phase[d]
                steps = math.ceil((raw - anchor) / hop_ms - 1e-9)
                play_true = anchor + max(0, steps) * hop_ms
                if play_true + tones.pulse_duration_ms > end:
                    tally["pulses_truncated"] += 1
                    continue
                records.append(DetectionRecord(
                    AUDIO, d, emission, clocks[d].read(play_true),
                    _slot_at(join_order, play_true), slot_frequency(tones, n), 1.0))
                traces[d].pulses.append((play_true, n))

        elif kind == "qctl":
            if window_n > 0:
                mean = window_sum / window_n
                decision = adapt_quality(mean, level, quality,
                                         (t - last_level_change) / 1000.0)
                if decision.action != "hold":
                    level = decision.target_level
                    encode_down_eff = max(0.0, pipe.encode_down_ms + quality.delta_for(level))
                    last_level_change = t
                    tally[f"quality_{decision.action}"] += 1
            window_sum = 0.0
            window_n = 0
            nxt = t + quality.control_interval_s * 1000.0
            if nxt <= end:
                push(nxt, "qctl", None)

    records.sort(key=lambda r: (r.playout_ts, r.device, r.media, r.emission_ts))
    return DetectionLog(records=records, tally=tally, tones=tones, traces=traces)



# --- random scenarios -----------------------------------------------------------------

_delays = st.sampled_from([0.0, 2.5, 15.0]) | st.floats(0.0, 60.0)


@st.composite
def _links(draw, name):
    jitter = draw(st.sampled_from([GaussianJitter(0.0)])
                  | st.builds(GaussianJitter, st.floats(0.0, 20.0))
                  | st.builds(LognormalJitter, st.floats(0.0, 3.0), st.floats(0.0, 1.0)))
    outage = draw(st.none() | st.builds(
        OutageSpec, enter_prob=st.floats(0.0, 0.2), duration_min_ms=st.floats(0.0, 300.0),
        duration_max_ms=st.just(900.0),
        media=st.sampled_from([("video",), ("audio",), ("video", "audio")])))
    return NetworkProfile(name, base_one_way_ms=draw(_delays), jitter=jitter, outage=outage,
                          loss_prob=draw(st.sampled_from([0.0, 0.05, 0.3])))


@st.composite
def _scenarios(draw):
    duration_s = draw(st.floats(1.0, 12.0))
    n_viewers = draw(st.integers(0, 3))
    joins = sorted(draw(st.lists(st.floats(0.01, duration_s - 0.01), min_size=n_viewers,
                                 max_size=n_viewers, unique=True)))
    zero = draw(st.booleans())  # every stage delay zero, as in the quantization tests
    pipeline = PipelineModel(
        capture_pipeline_ms=0.0 if zero else draw(st.none() | _delays),
        encode_up_ms=0.0 if zero else draw(_delays),
        render_ms=0.0 if zero else draw(_delays),
        encode_down_ms=0.0 if zero else draw(_delays),
        decode_ms=0.0 if zero else draw(_delays),
        display_quantum_ms=draw(st.sampled_from([None, 16.0, 50.0])
                                | st.floats(0.5, 60.0)),
        audio_buffer_ms=0.0 if zero else draw(_delays),
    )
    up = draw(st.floats(50.0, 500.0))
    quality = QualitySpec(
        enabled=draw(st.booleans()), step_up_threshold_ms=up,
        step_down_threshold_ms=up + draw(st.floats(1.0, 200.0)),
        dwell_s=draw(st.sampled_from([0.0, 0.5, 3.0])),
        control_interval_s=draw(st.sampled_from([0.05, 0.3, 1.0])),
        initial_level=draw(st.sampled_from(["low", "medium", "high"])))
    clocks = ClockSpec(sigma_ntp_ms=draw(st.floats(0.0, 2.0)),
                       sync_interval_s=draw(st.sampled_from([0.5, 3.0, 64.0])),
                       max_drift_ppm=draw(st.floats(0.0, 50.0)),
                       initial_offset_sigma_ms=draw(st.floats(0.0, 5.0)))
    return SessionScenario(
        name="random", uplink=draw(_links("up")), downlink=draw(_links("down")),
        duration_s=duration_s, fps=draw(st.sampled_from([24.0, 30.0, 60.0])),
        viewers=tuple(f"u{i + 2}" for i in range(n_viewers)), join_times_s=tuple(joins),
        pipeline=pipeline, clocks=clocks, quality=quality,
        seed=draw(st.integers(0, 2**32)))


def _assert_same_run(log: DetectionLog, oracle: DetectionLog) -> None:
    assert log.records == oracle.records
    assert log.tally == oracle.tally
    assert log.tones == oracle.tones
    assert log.traces.keys() == oracle.traces.keys()
    for d, trace in log.traces.items():
        assert trace == oracle.traces[d], d


@settings(max_examples=150, deadline=None)
@given(_scenarios())
def test_display_pass_matches_heap_engine(scenario):
    _assert_same_run(run_scenario(scenario), heap_run_scenario(scenario))


def test_wifi_preset_matches_heap_engine_with_tie():
    # u1's frame 1700000046831 arrives at true ms 1700000047116.3772, exactly
    # on tick 1413 (one ULP at this epoch is 0.24 us, so such ties happen by
    # chance). Its edge was processed before tick 1412, so the heap popped the
    # arrival first and tick 1413 shows it; a merge that takes only arrivals
    # strictly before a tick shows the previous frame there.
    log = run_scenario(preset_scenario("wifi", seed=42))
    assert log.traces["u1"].ticks[1413] == (1700000047116.3772, 1700000046831)
    _assert_same_run(log, heap_run_scenario(preset_scenario("wifi", seed=42)))


class TestTieAtTick:
    """An arrival at exactly a tick's time, both ways round."""

    @staticmethod
    def _ticks(arrival, edge_t):
        # ticks at 100, 110, 120, 130; the frame arrives at ``arrival``
        clock = DeviceClock("d", drift_ppm=0.0, starts=[0.0], offsets=[0.0])
        display = _Display(DeviceTrace("d", 0.0, 10.0, clock), 100.0, 130.0, [0.0])
        display.arrivals.append((arrival, 7, edge_t))
        records: list[DetectionRecord] = []
        display.advance(math.inf, records, Counter())
        return display.trace.ticks

    def test_edge_before_previous_tick_goes_first(self):
        assert self._ticks(120.0, 105.0) == [(100.0, None), (110.0, None), (120.0, 7),
                                             (130.0, 7)]

    def test_edge_after_previous_tick_waits_a_tick(self):
        assert self._ticks(120.0, 115.0) == [(100.0, None), (110.0, None), (120.0, None),
                                             (130.0, 7)]

    def test_first_tick_always_goes_first(self):
        # tick 0 is scheduled before any frame leaves the edge
        assert self._ticks(100.0, 0.0) == [(100.0, None), (110.0, 7), (120.0, 7), (130.0, 7)]


class TestTieAtControlStep:
    """Frame edges at exactly the control-step times, both ways round.

    At 20 fps with exact clocks and no capture, encode or jitter delay, capture
    i reaches the edge at ``t0 + 50 i + uplink`` and step k falls at
    ``t0 + 50 k``, so every edge lands on a step. A 1 ms display quantum shows
    each frame within 1 ms of its arrival, so the 5 ms a quality step takes off
    the downlink encode moves the playout of a frame whose edge runs after that
    step.
    """

    @staticmethod
    def _same_as_heap(uplink_ms, downlink_ms=20.0, duration_s=3.0, initial_level="high",
                      **pipeline):
        def flat(base):
            return NetworkProfile("flat", base_one_way_ms=base, jitter=GaussianJitter(0.0))
        scenario = SessionScenario(
            name="tie", uplink=flat(uplink_ms), downlink=flat(downlink_ms), duration_s=duration_s,
            fps=20.0, viewers=(), join_times_s=(),
            pipeline=PipelineModel(**{"capture_pipeline_ms": 0.0, "encode_up_ms": 0.0,
                                      "display_quantum_ms": 1.0, **pipeline}),
            clocks=ClockSpec(sigma_ntp_ms=0.0, sync_interval_s=64.0, max_drift_ppm=0.0,
                             initial_offset_sigma_ms=0.0),
            quality=QualitySpec(enabled=True, control_interval_s=0.05, dwell_s=0.0,
                                step_down_threshold_ms=50.0, step_up_threshold_ms=10.0,
                                initial_level=initial_level),
            seed=5)
        log = run_scenario(scenario)
        _assert_same_run(log, heap_run_scenario(scenario))
        return log

    def test_step_first_when_capture_is_at_the_previous_step_or_later(self):
        # capture k's edge lands on step k, which step k - 1 scheduled before capture k
        assert self._same_as_heap(0.0).tally["quality_step_down"] > 0

    def test_edge_first_when_capture_came_before_the_previous_step(self):
        # capture k's edge lands on step k + 2; capture k scheduled it before step k + 1
        # scheduled step k + 2
        assert self._same_as_heap(100.0).tally["quality_step_down"] > 0

    def test_first_step_past_the_end_still_runs(self):
        # the session ends at 1 ms and step 1 falls at 50 ms; frame 0 arrives
        # with no delay at all and its one tick reads 1 ms at most, so step 1
        # steps up. A longer session would ramp the frozen frame past the
        # 10 ms threshold, and step 1 would hold
        log = self._same_as_heap(0.0, downlink_ms=0.0, duration_s=0.001, initial_level="medium",
                                 render_ms=0.0, encode_down_ms=0.0, decode_ms=0.0)
        assert log.tally["quality_step_up"] == 1
