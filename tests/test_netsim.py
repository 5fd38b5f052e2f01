"""Simulator engine tests: hop delays, determinism, quantization bounds,
slot labeling, clock-error propagation, and the physical rendering path.
"""

import dataclasses
import gc
import hashlib
import json
import math
import random
import statistics
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from xrprobe import netsim
from xrprobe.cli import run
from xrprobe.exporter import write_log
from xrprobe.netsim import (
    DetectionLog,
    _channel,
    _slot_at,
    compare_logs,
    run_physical,
    run_scenario,
)
from xrprobe.scenario import (
    ClockSpec,
    GaussianJitter,
    NetworkProfile,
    OutageSpec,
    PipelineModel,
    SessionScenario,
    load_scenario,
    preset_scenario,
)
from xrprobe.schema import SchemaError
from xrprobe.video_beacon import _read_pgm_stream, read_frame_manifest

VIDEO, AUDIO = "video", "audio"


def flat_profile(base=0.0, loss=0.0, outage=None, name="flat"):
    return NetworkProfile(name=name, base_one_way_ms=base,
                          jitter=GaussianJitter(sigma_ms=0.0),
                          outage=outage, loss_prob=loss)


def quick_scenario(**overrides):
    defaults = dict(
        name="quick",
        uplink=flat_profile(base=50.0),
        downlink=flat_profile(base=50.0),
        duration_s=30.0,
        viewers=("u2", "u3"),
        join_times_s=(5.0, 10.0),
        clocks=ClockSpec(sigma_ntp_ms=0.0, sync_interval_s=64.0,
                         max_drift_ppm=0.0, initial_offset_sigma_ms=0.0),
        seed=0,
    )
    defaults.update(overrides)
    return SessionScenario(**defaults)


class TestSampleHopDelay:
    """A channel's ``hop(t)``: the delay of a unit sent at ``t``, or None."""

    def test_degenerate_profile(self):
        hop = _channel(flat_profile(base=5.0), random.Random(0), VIDEO)
        for _ in range(50):
            assert hop(0.0) == 5.0

    def test_floor_property(self):
        from xrprobe.scenario import LognormalJitter
        profile = NetworkProfile(
            name="wifi-ish", base_one_way_ms=98.0,
            jitter=LognormalJitter(mu=2.2, sigma=0.8),
            outage=OutageSpec(enter_prob=0.001, duration_min_ms=200,
                              duration_max_ms=600),
        )
        hop = _channel(profile, random.Random(1), VIDEO)
        low = min(hop(i * 33.33) for i in range(100_000))
        assert low >= 98.0

    def test_outage_spares_unaffected_media(self):
        profile = flat_profile(
            base=10.0,
            outage=OutageSpec(enter_prob=1.0, duration_min_ms=300,
                              duration_max_ms=300, media=("video",)),
        )
        rng = random.Random(0)
        video, audio = _channel(profile, rng, VIDEO), _channel(profile, rng, AUDIO)
        assert video(0.0) == 310.0
        # inside the burst: audio ignores it, video pays the residual
        assert audio(50.0) == 10.0
        assert video(50.0) == 260.0
        # after the burst expires video re-enters (enter_prob 1)
        assert video(400.0) == 310.0

    def test_lost_unit_draws_no_delay(self):
        # loss is drawn first; a lost unit makes no jitter or outage draw
        profile = NetworkProfile("lossy", base_one_way_ms=10.0, jitter=GaussianJitter(2.0),
                                 outage=OutageSpec(enter_prob=0.5, duration_min_ms=100,
                                                   duration_max_ms=200),
                                 loss_prob=0.3)
        rng, stdlib = random.Random(7), random.Random(7)
        hop = _channel(profile, rng, VIDEO)
        delays = [hop(1000.0 * i) for i in range(200)]
        lost = 0
        for delay in delays:
            if stdlib.random() < 0.3:
                assert delay is None
                lost += 1
                continue
            jitter = max(0.0, stdlib.gauss(0.0, 2.0))
            expected = 10.0 + jitter
            if stdlib.random() < 0.5:
                expected += stdlib.uniform(100, 200)
            assert delay == expected
        assert 0 < lost < 200
        assert rng.random() == stdlib.random()

    def test_burst_occupancy_matches_renewal_model(self):
        # Events every dt; each non-outage event opens a burst with prob p,
        # paying the full duration; events inside pay the residual. The
        # fraction of draws exceeding base+100 then follows renewal theory:
        #   E[# draws with residual > 100] / E[# draws per cycle]
        # with both expectations integrable in closed form over U[200, 600].
        dt = 1000.0 / 30.0
        p = 0.01
        lo, hi = 200.0, 600.0

        def expected_ceil(a, b, step):
            # E[ceil(X/step)] for X uniform on [a, b]
            total = 0.0
            j = math.floor(a / step) + 1
            while (j - 1) * step < b:
                seg_lo = max(a, (j - 1) * step)
                seg_hi = min(b, j * step)
                if seg_hi > seg_lo:
                    total += j * (seg_hi - seg_lo)
                j += 1
            return total / (b - a)

        exceed_per_cycle = expected_ceil(lo - 100.0, hi - 100.0, dt)
        draws_per_cycle = (1.0 - p) / p + expected_ceil(lo, hi, dt)
        analytic = exceed_per_cycle / draws_per_cycle

        profile = flat_profile(
            base=98.0,
            outage=OutageSpec(enter_prob=p, duration_min_ms=lo, duration_max_ms=hi),
        )
        hop = _channel(profile, random.Random(2), VIDEO)
        n = 200_000
        over = sum(1 for i in range(n) if hop(i * dt) > 98.0 + 100.0)
        assert over / n == pytest.approx(analytic, rel=0.2)


class TestRunScenario:
    def test_determinism_same_seed(self, tmp_path):
        sc = preset_scenario("wifi", duration_s=60.0, seed=3,
                             viewers=("u2", "u3"), join_times_s=(10.0, 20.0))
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert a.records == b.records
        assert a.tally == b.tally
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_log(pa, a.records)
        write_log(pb, b.records)
        assert pa.read_bytes() == pb.read_bytes()

    @staticmethod
    def _simulate_seed_42(tmp_path, *flags):
        # the acceptance gate's determinism scenario
        doc = {"profile": "ethernet", "name": "determinism", "duration_s": 20.0,
               "viewers": ["u2", "u3", "u4", "u5"],
               "join_times_s": [4.0, 8.0, 12.0, 16.0]}
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["simulate", "--scenario", str(sc_path), "--seed", "42",
                    "--out", str(out), *flags]) == 0
        return out

    def test_seed_42_bytes_pinned(self, tmp_path, capsys):
        # a change to these digests changes every seed-42 log downstream
        out = self._simulate_seed_42(tmp_path)
        capsys.readouterr()
        log = (out / "log.jsonl").read_bytes()
        assert len(log) == 272_996
        assert hashlib.sha256(log).hexdigest() == (
            "baf712feda4cacdd2e2bd5d200215f6d8fc95d3cb65eafee881dd4162e3c5702")
        assert hashlib.sha256((out / "tally.json").read_bytes()).hexdigest() == (
            "12f2774cf52afda89b5d0778b31e709b4a4151f3661bcc282b3305ca102ac5fe")

    def test_seed_42_physical_bytes_pinned(self, tmp_path, capsys):
        # criterion 8's physical run: the detectors' log of the rendered media,
        # beside the symbolic log pinned above
        out = self._simulate_seed_42(tmp_path, "--physical")
        capsys.readouterr()
        log = (out / "log.jsonl").read_bytes()
        assert len(log) == 288_148
        assert hashlib.sha256(log).hexdigest() == (
            "b962bc73767dbcdcc1b4b02ddb4ea4a3082bb3b17cb121e2f730be756c95c65d")
        assert hashlib.sha256((out / "log_symbolic.jsonl").read_bytes()).hexdigest() == (
            "baf712feda4cacdd2e2bd5d200215f6d8fc95d3cb65eafee881dd4162e3c5702")
        assert hashlib.sha256((out / "tally.json").read_bytes()).hexdigest() == (
            "f511e86ec8292ba64a01a67b874100a54fa705401f9c2d93c80af9dc602cb9e0")
        # the rendered media themselves: every file under physical/, in path
        # order, each relative path's bytes then the file's bytes
        media = sorted(p for p in (out / "physical").rglob("*") if p.is_file())
        assert len(media) == 20
        digest = hashlib.sha256()
        for path in media:
            digest.update(path.relative_to(out / "physical").as_posix().encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "df85c004de71002d177ba3ccba7d0020e1ac4f6bb58d413a6382fca556d8be5a")

    def test_seed_7919_physical_bytes_pinned(self, tmp_path, capsys):
        # the same physical run at a held-out seed
        out = self._simulate_seed_42(tmp_path, "--seed", "7919", "--physical")
        capsys.readouterr()
        log = (out / "log.jsonl").read_bytes()
        assert len(log) == 287_925
        assert hashlib.sha256(log).hexdigest() == (
            "541070b6d72f7522ec1e1259dd667ba73b760fccf3b6343aea36f15121e903ab")
        assert hashlib.sha256((out / "tally.json").read_bytes()).hexdigest() == (
            "da3ac5d0755fa56b56eca35f25c576e781882d0c0794485367394ffb72ba8141")

    def test_seed_42_analyze_bytes_pinned(self, tmp_path, capsys):
        # the report and epoch series of that log, made from one latency pass
        out = self._simulate_seed_42(tmp_path)
        assert run(["analyze", "--log", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == (
            "8e21d3fbd1dc06ae8ed063f7f761a252c394a8bc4bc0d8d791c50cef06bc7f40")
        assert hashlib.sha256((out / "epochs.csv").read_bytes()).hexdigest() == (
            "076048732b86bd11160432e17f8d0884291b1df924a5c02cfc4dfcab7ef73d7a")

    def test_seed_42_exposition_bytes_pinned(self, tmp_path, capsys):
        # the one-shot scrape of that log, as `serve --serve-port 0` prints it
        out = self._simulate_seed_42(tmp_path)
        capsys.readouterr()
        assert run(["serve", "--log", str(out), "--serve-port", "0"]) == 0
        text = capsys.readouterr().out.encode()
        assert len(text) == 1_129
        assert text.count(b"\n") == 27
        assert hashlib.sha256(text).hexdigest() == (
            "4d5cfe67e699c792ceab60bfa845b7eb28fc3d4914adf882817d1b4add719535")

    def test_quality_adaptation_bytes_pinned(self, tmp_path, capsys):
        # the closed-loop quality path: thresholds set so the 300 s wifi run steps both ways
        doc = {"profile": "wifi", "seed": 42,
               "quality": {"enabled": True, "step_down_threshold_ms": 400,
                           "step_up_threshold_ms": 370, "dwell_s": 5}}
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["simulate", "--scenario", str(sc_path), "--out", str(out)]) == 0
        capsys.readouterr()
        tally = json.loads((out / "tally.json").read_text())
        assert tally["quality_step_down"] > 0 and tally["quality_step_up"] > 0
        assert hashlib.sha256((out / "log.jsonl").read_bytes()).hexdigest() == (
            "4882871d95302e7a5aba9c044f3248986bbbbd2e9cb0677794f032e77aa0d763")
        assert hashlib.sha256((out / "tally.json").read_bytes()).hexdigest() == (
            "13393e355a5f5897134b80188846c80fabc3d0cc87cd19ccc36f5254123a2cfb")

    @pytest.mark.parametrize("profile, size, log_digest, tally_digest", [
        # the benchmark's own session: lognormal jitter, loss and video outages
        ("wifi", 4_108_172, "eb5b19bb8595ab3101b7dd935f8494b4147b793e829863c303f3ecda7b400c7b",
         "2e39c16adc91d98cebc0a40e64f1b449e3d989c55587eb8cde0b67b6d2b5db92"),
        # lognormal jitter and loss without outages (the ethernet pins above
        # cover gaussian jitter)
        ("fiveg", 4_129_507, "d72ef49e8ea7ff817f0b0218b210ea8da3e4a4c2868523647e9d92ddd0f4fe0a",
         "1a4cd40a1318c9520fc050ab303bdd1432622a3189fb029ee87f23b58b1cd8ad"),
    ])
    def test_preset_300s_bytes_pinned(self, tmp_path, capsys, profile, size, log_digest,
                                      tally_digest):
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json.dumps({"profile": profile, "duration_s": 300, "seed": 42}))
        out = tmp_path / "out"
        assert run(["simulate", "--scenario", str(sc_path), "--out", str(out)]) == 0
        capsys.readouterr()
        log = (out / "log.jsonl").read_bytes()
        assert len(log) == size
        assert hashlib.sha256(log).hexdigest() == log_digest
        assert hashlib.sha256((out / "tally.json").read_bytes()).hexdigest() == tally_digest

    def test_seed_argument_overrides_scenario_seed(self):
        sc = quick_scenario(uplink=preset_scenario("fiveg").uplink,
                            downlink=preset_scenario("fiveg").downlink)
        explicit = run_scenario(sc, seed=5)
        embedded = run_scenario(dataclasses.replace(sc, seed=5))
        assert explicit.records == embedded.records

    def test_different_seeds_differ(self):
        sc = preset_scenario("wifi", duration_s=40.0, seed=0,
                             viewers=("u2",), join_times_s=(5.0,))
        assert run_scenario(sc, seed=1).records != run_scenario(sc, seed=2).records

    def test_records_ordered_by_playout(self):
        log = run_scenario(quick_scenario())
        playouts = [r.playout_ts for r in log.records]
        assert playouts == sorted(playouts)

    def test_zero_stage_quantization_bound(self):
        sc = quick_scenario(
            uplink=flat_profile(0.0), downlink=flat_profile(0.0),
            pipeline=PipelineModel(capture_pipeline_ms=0.0, encode_up_ms=0.0,
                                   render_ms=0.0, encode_down_ms=0.0,
                                   decode_ms=0.0, audio_buffer_ms=0.0,
                                   audio_path_ms=0.0),
        )
        log = run_scenario(sc)
        assert log.records, "zero-delay run must still detect"
        for rec in log.records:
            lat = rec.playout_ts - rec.emission_ts
            if rec.media == VIDEO:
                assert 0 <= lat <= 10 + 1000.0 / 30.0 + 0.5
            else:
                assert 0 <= lat <= 1000.0 * 512 / 48000 + 1.5

    def test_fixed_stage_soundness_band(self):
        # all stochastic knobs off: latency must sit between the summed
        # stage delays and that sum plus every quantization step
        sc = quick_scenario()
        log = run_scenario(sc)
        video_fixed = 50 + 50 + 15 + 10 + 15 + 5 + 1000.0 / 30.0
        audio_fixed = 50 + 50 + 20
        for rec in log.records:
            lat = rec.playout_ts - rec.emission_ts
            if rec.media == VIDEO:
                assert video_fixed - 0.5 <= lat <= video_fixed + 10 + 1000.0 / 30.0 + 1
            else:
                assert audio_fixed - 0.5 <= lat <= audio_fixed + 1000.0 * 512 / 48000 + 1.5

    def test_slot_labels_count_joined_devices(self):
        sc = quick_scenario()
        t0 = sc.start_epoch_ms
        joins = {d: t0 + sc.join_time_s(d) * 1000.0 for d in sc.devices}
        log = run_scenario(sc)
        for rec in log.records:
            # perfect clocks: local playout equals true time
            expected = sum(1 for j in joins.values() if j <= rec.playout_ts)
            assert rec.slot == expected

    def test_default_join_schedule_gates_first_detection(self):
        sc = preset_scenario("ethernet", seed=1)
        log = run_scenario(sc)
        t0 = sc.start_epoch_ms
        first = {}
        for rec in log.records:
            first.setdefault(rec.device, rec.playout_ts)
        for k, viewer in enumerate(("u2", "u3", "u4", "u5"), start=1):
            assert first[viewer] >= t0 + 60_000 * k - 5  # clock noise margin
        assert first["u1"] < t0 + 2_000  # presenter consumes its own stream

    def test_every_device_detects_both_media(self):
        log = run_scenario(quick_scenario())
        seen = {(r.device, r.media) for r in log.records}
        for d in ("u1", "u2", "u3"):
            assert (d, VIDEO) in seen
            assert (d, AUDIO) in seen

    def test_loss_shrinks_log_and_fills_tally(self):
        base = quick_scenario()
        lossless = run_scenario(base)
        lossy_links = dict(uplink=flat_profile(50.0, loss=0.3),
                           downlink=flat_profile(50.0, loss=0.3))
        lossy = run_scenario(quick_scenario(**lossy_links))
        assert len(lossy.records) < len(lossless.records)
        assert lossy.tally["frames_lost_uplink"] > 0
        assert lossy.tally["frames_lost_downlink"] > 0
        assert lossy.tally["pulses_lost_uplink"] > 0

    def test_clock_offset_propagation(self):
        # injecting static offsets shifts each device's measured latency by
        # (viewer offset - presenter offset); drift and syncs disabled
        base = quick_scenario(duration_s=40.0)
        off = dataclasses.replace(
            base,
            clocks=ClockSpec(sigma_ntp_ms=0.0, sync_interval_s=10_000.0,
                             max_drift_ppm=0.0, initial_offset_sigma_ms=40.0),
        )
        ref_log = run_scenario(base)
        off_log = run_scenario(off)
        t_probe = base.start_epoch_ms + 25_000.0
        offsets = {d: tr.clock.read(t_probe) - t_probe
                   for d, tr in off_log.traces.items()}
        o_pres = offsets["u1"]

        def mean_latency(log, device, media):
            vals = [r.playout_ts - r.emission_ts for r in log.records
                    if r.device == device and r.media == media]
            return statistics.fmean(vals)

        for device in ("u1", "u2", "u3"):
            expected_shift = offsets[device] - o_pres
            for media in (VIDEO, AUDIO):
                shift = (mean_latency(off_log, device, media)
                         - mean_latency(ref_log, device, media))
                assert shift == pytest.approx(expected_shift, abs=1.5), (
                    f"{device}/{media}: shift {shift:.2f} "
                    f"vs offset delta {expected_shift:.2f}"
                )

    def test_tone_epoch_before_the_stream_start_plays_only_session_slots(self):
        # the pulse grid starts at the first slot emitted at or after the
        # stream start; from the epoch's slot 0, an epoch at 5 ms meant about
        # 1.7e10 grid points, and one 10 s early 100 pulses from before the
        # session, all played at its first ms
        doc = {"profile": "ethernet", "duration_s": 1.0, "viewers": [], "join_times_s": []}
        base = run_scenario(load_scenario(doc))
        start = base.tones.epoch_ts

        def audio(log):
            return [(r.emission_ts, r.playout_ts) for r in log.records if r.media == AUDIO]

        early = run_scenario(load_scenario({**doc, "tones": {"epoch_ts": start - 10_000}}))
        assert audio(early) == audio(base) and len(audio(base)) == 8
        assert early.tally == base.tally
        five = audio(run_scenario(load_scenario({**doc, "tones": {"epoch_ts": 5}})))
        assert [e - start for e, _ in five] == [5 + 100 * i for i in range(8)]
        assert all(0 < p - e < 1000 for e, p in five)

    @pytest.mark.parametrize("epoch_ts", [1_800_000_000_000, 2**64 - 1])
    def test_tone_epoch_after_the_session_end_plays_no_pulse(self, epoch_ts):
        # no pulse is due before the session ends, so none is played, lost
        # or truncated; the video and its tallies are the default epoch's
        doc = {"profile": "ethernet", "duration_s": 1.0, "viewers": ["u2"],
               "join_times_s": [0.5]}
        base = run_scenario(load_scenario(doc))
        late = run_scenario(load_scenario({**doc, "tones": {"epoch_ts": epoch_ts}}))
        assert base.tally["pulses_truncated"] > 0
        assert late.records == [r for r in base.records if r.media == VIDEO]
        assert late.tally == {k: n for k, n in base.tally.items() if not k.startswith("pulses_")}

    def test_returns_detection_log_with_traces(self):
        log = run_scenario(quick_scenario())
        assert isinstance(log, DetectionLog)
        assert set(log.traces) == {"u1", "u2", "u3"}
        for trace in log.traces.values():
            assert trace.quantum_ms == pytest.approx(1000.0 / 30.0)

    @pytest.mark.parametrize("seed", [42, 7919])
    @pytest.mark.parametrize("profile", ["ethernet", "fiveg", "wifi"])
    def test_longer_run_keeps_the_shorter_runs_records(self, profile, seed):
        """A 60 s run repeats the 30 s run at the same seed up to a margin
        before 30 s.

        Every grid, channel and clock is drawn in time order, so the longer run
        makes the same draws first. A display tick at or before the end shows
        the same frame in both runs: a frame the longer run sends after the end
        arrives after it, and a control step at or before the end decides on
        the same ticks, so neither the frame period nor the control step widens
        the margin. A pulse that starts more than its length before the end
        plays whole in both: the shorter run drops the rest as
        ``pulses_truncated``. A record's ``playout_ts`` is a device clock's
        rounded reading, so the margin is the pulse length plus the clocks'
        largest error and the rounding.
        """
        def simulate(duration_s):
            return run_scenario(preset_scenario(profile, duration_s=duration_s, seed=seed,
                                                viewers=("u2", "u3"), join_times_s=(5.0, 20.0)))

        short, long = simulate(30.0), simulate(60.0)
        clocks = [trace.clock for trace in short.traces.values()]
        error = (max(abs(o) for clock in clocks for o in clock.offsets)
                 + max(abs(clock.drift_ppm) for clock in clocks) * 1e-6 * 30_000.0 + 0.5)
        cut = (preset_scenario(profile).start_epoch_ms + 30_000.0
               - short.tones.pulse_duration_ms - error)
        assert [r for r in long.records if r.playout_ts < cut] == (
            [r for r in short.records if r.playout_ts < cut])
        # past the margin too, the shorter run writes no record the longer one lacks
        rest = iter(long.records)
        assert all(r in rest for r in short.records)


class TestCollectorPause:
    """``run_scenario`` runs with the cyclic garbage collector off."""

    def test_no_collection_while_the_engine_runs(self):
        sc = preset_scenario("wifi", duration_s=300.0, seed=42)
        inside = []

        def hook(phase, info):
            if phase == "start":  # is the engine's body on the stack?
                frame = sys._getframe(1)
                while frame is not None and not (frame.f_code.co_name == "run_scenario"
                                                 and frame.f_code.co_filename == netsim.__file__):
                    frame = frame.f_back
                inside.append(frame is not None)

        assert gc.isenabled()
        gc.callbacks.append(hook)
        try:
            log = run_scenario(sc)
            gc.collect()  # the hook sees a collection outside the engine
        finally:
            gc.callbacks.remove(hook)
        assert len(log.records) == 35_782
        assert inside and not any(inside)

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("doc, raises", [
        ({"profile": "ethernet", "duration_s": 2, "viewers": ["u2"], "join_times_s": [1]},
         False),
        # the clocks read past 2**43-1: run_scenario raises naming start_epoch_ms
        ({"profile": "ethernet", "duration_s": 2, "viewers": ["u2"], "join_times_s": [1],
          "start_epoch_ms": 2**43 - 2002, "seed": 3, "clocks": {"initial_offset_sigma_ms": 50}},
         True),
    ], ids=["returns", "raises"])
    def test_collector_state_restored(self, enabled, doc, raises):
        sc = load_scenario(doc)
        (gc.enable if enabled else gc.disable)()
        try:
            if raises:
                with pytest.raises(SchemaError) as err:
                    run_scenario(sc)
                assert err.value.field == "start_epoch_ms"
            else:
                run_scenario(sc)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("doc", [
        {"profile": "ethernet", "duration_s": 300, "seed": 42},
        {"profile": "fiveg", "duration_s": 300, "seed": 7919},
        {"profile": "wifi", "duration_s": 300, "seed": 42},
        # the quality pin's scenario: control steps in the video downlink pass
        {"profile": "wifi", "seed": 42,
         "quality": {"enabled": True, "step_down_threshold_ms": 400,
                     "step_up_threshold_ms": 370, "dwell_s": 5}},
    ], ids=["ethernet", "fiveg", "wifi", "quality"])
    def test_engine_leaves_no_cyclic_garbage(self, doc):
        # the pause defers no collection: nothing the run made needs one
        sc = load_scenario(doc)
        gc.collect()
        gc.disable()
        try:
            log = run_scenario(sc)
            assert log.records
            del log
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPhysicalMode:
    def test_physical_matches_symbolic(self, tmp_path):
        sc = quick_scenario(
            duration_s=8.0,
            viewers=("u2",),
            join_times_s=(2.0,),
            uplink=flat_profile(20.0),
            downlink=flat_profile(20.0),
            seed=11,
        )
        physical, symbolic = run_physical(sc, tmp_path)
        assert symbolic.records, "symbolic run empty"
        assert physical.records, "physical run empty"
        agreement = compare_logs(physical.records, symbolic.records)
        assert agreement >= 0.99
        # media really landed on disk
        for device in ("u1", "u2"):
            vdir = tmp_path / device / "video"
            assert sorted(p.name for p in vdir.iterdir()) == ["frames.pgm", "manifest.json"]
            count = read_frame_manifest(vdir).frame_count
            assert count > 0
            # exactly frame_count images: fewer or trailing bytes would raise
            assert len(_read_pgm_stream(vdir / "frames.pgm", count)) == count
            assert (tmp_path / device / "audio.wav").exists()
            assert (tmp_path / device / "audio.wav.json").exists()


@st.composite
def _small_documents(draw):
    duration_s = draw(st.floats(0.1, 2.0))
    joins = sorted(draw(st.lists(st.floats(0.01, duration_s - 0.01), max_size=2, unique=True)))
    return {"profile": draw(st.sampled_from(["ethernet", "fiveg", "wifi"])),
            "duration_s": duration_s, "seed": draw(st.integers(0, 2**32)),
            "viewers": [f"u{i + 2}" for i in range(len(joins))], "join_times_s": joins,
            "pipeline": {"display_quantum_ms": draw(st.sampled_from([None, 0.0])
                                                    | st.floats(0.5, 60.0))}}


@settings(max_examples=25, deadline=None)
@given(_small_documents())
def test_every_loaded_scenario_runs_physically(doc):
    """A document the loader accepts renders and detects real media; one it
    rejects (a zero display quantum) never reaches ``run_physical``. Whether
    the two logs agree is not asserted here."""
    try:
        sc = load_scenario(doc)
    except SchemaError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        run_physical(sc, tmp)
        root = Path(tmp)
        assert sorted(p.name for p in root.iterdir()) == sorted(sc.devices)
        for device in sc.devices:
            assert (root / device / "video" / "frames.pgm").is_file()
            assert (root / device / "audio.wav").is_file()


class TestSlotAt:
    # few distinct values, so t often equals a join time and joins repeat
    _times = st.integers(0, 6).map(float)

    @given(st.lists(_times, max_size=8), _times)
    @example([3.0, 2.0, 1.0, 2.0], 2.0)  # a tie with a duplicated join
    @example([], 2.0)
    def test_counts_joins_at_or_before_t(self, join_times, t):
        joins = {f"u{i}": j for i, j in enumerate(join_times)}
        brute = sum(1 for j in joins.values() if j <= t)
        assert _slot_at(sorted(joins.values()), t) == brute


class TestCompareLogs:
    def test_identical_logs(self):
        recs = run_scenario(quick_scenario()).records
        assert compare_logs(recs, recs) == 1.0

    def test_tolerance_boundary(self):
        from xrprobe.metrics import DetectionRecord
        a = [DetectionRecord(media=VIDEO, device="u2", emission_ts=0, playout_ts=100)]
        b = [DetectionRecord(media=VIDEO, device="u2", emission_ts=0, playout_ts=134)]
        c = [DetectionRecord(media=VIDEO, device="u2", emission_ts=0, playout_ts=135)]
        assert compare_logs(a, b) == 1.0
        assert compare_logs(a, c) == 0.0

    def test_unpaired_records_penalized(self):
        recs = run_scenario(quick_scenario()).records
        assert compare_logs(recs, recs[: len(recs) // 2]) < 0.6

    def test_empty_logs_agree(self):
        assert compare_logs([], []) == 1.0
