"""Scenario schema, presets, loader validation, quality stepping, and the
shape of the package: its import graph and its dead names."""

import ast
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from xrprobe.scenario import (
    DEFAULT_START_EPOCH_MS,
    MAX_DEVICE_FRAMES,
    ClockSpec,
    GaussianJitter,
    LognormalJitter,
    NetworkProfile,
    OutageSpec,
    PipelineModel,
    QualitySpec,
    SessionScenario,
    adapt_quality,
    load_scenario,
    preset_scenario,
    scenario_from_file,
)
import xrprobe
from xrprobe.audio_beacon import MAX_SAMPLE_RATE
from xrprobe.schema import SchemaError


def _stdlib_draw(jitter, rng: random.Random) -> float:
    """The jitter's draw from the stdlib variates."""
    if isinstance(jitter, LognormalJitter):
        return rng.lognormvariate(jitter.mu, jitter.sigma)
    if jitter.sigma_ms == 0:
        return 0.0
    return max(0.0, rng.gauss(0.0, jitter.sigma_ms))


_jitters = (st.builds(GaussianJitter, st.just(0.0) | st.floats(0.0, 50.0))
            | st.builds(LognormalJitter, st.floats(-5.0, 5.0), st.just(0.0) | st.floats(0.0, 3.0)))


class TestJitterModels:
    def test_gaussian_floor(self):
        draw = GaussianJitter(sigma_ms=4.0).sampler(random.Random(1))
        draws = [draw() for _ in range(2000)]
        assert min(draws) >= 0.0

    def test_gaussian_degenerate(self):
        # sigma_ms 0 draws nothing: the channel's stream is untouched
        rng = random.Random(5)
        draw = GaussianJitter(sigma_ms=0.0).sampler(rng)
        assert [draw() for _ in range(10)] == [0.0] * 10
        assert rng.random() == random.Random(5).random()

    @settings(max_examples=300, deadline=None)
    @given(jitter=_jitters, seed=st.integers(0, 2**64),
           between=st.lists(st.integers(0, 3), min_size=1, max_size=40))
    def test_sampler_is_the_stdlib_draw_for_draw(self, jitter, seed, between):
        # draw i is followed by between[i] raw random() calls, as a channel's
        # loss and outage draws follow its jitter draws
        rng, stdlib = random.Random(seed), random.Random(seed)
        draw = jitter.sampler(rng)
        for calls in between:
            assert draw().hex() == _stdlib_draw(jitter, stdlib).hex()
            for _ in range(calls):
                assert rng.random() == stdlib.random()
        assert rng.random() == stdlib.random()

    def test_gaussian_spare_kept_across_an_interleaved_call(self):
        rng, stdlib = random.Random(3), random.Random(3)
        draw = GaussianJitter(sigma_ms=5.0).sampler(rng)
        first = draw()  # draws a pair and keeps its spare
        raw = rng.random()  # a loss draw in between
        second = draw()  # the spare: no random() call
        assert (first, raw, second) == (max(0.0, stdlib.gauss(0.0, 5.0)), stdlib.random(),
                                        max(0.0, stdlib.gauss(0.0, 5.0)))
        three = random.Random(3)
        for _ in range(3):
            three.random()
        assert rng.random() == three.random()

    def test_lognormal_zero_sigma_still_draws(self):
        rng, stdlib = random.Random(5), random.Random(5)
        assert LognormalJitter(mu=1.5, sigma=0.0).sampler(rng)() == math.exp(1.5)
        assert stdlib.lognormvariate(1.5, 0.0) == math.exp(1.5)
        assert rng.random() == stdlib.random() != random.Random(5).random()

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianJitter(sigma_ms=-1.0)
        with pytest.raises(ValueError):
            LognormalJitter(mu=0.0, sigma=-0.5)


class TestProfiles:
    def test_loss_prob_range(self):
        with pytest.raises(ValueError):
            NetworkProfile(name="x", base_one_way_ms=10,
                           jitter=GaussianJitter(1.0), loss_prob=1.0)
        with pytest.raises(ValueError):
            NetworkProfile(name="x", base_one_way_ms=-1,
                           jitter=GaussianJitter(1.0))

    def test_outage_validation(self):
        with pytest.raises(ValueError):
            OutageSpec(enter_prob=0.5, duration_min_ms=600, duration_max_ms=200)
        with pytest.raises(ValueError):
            OutageSpec(enter_prob=1.5, duration_min_ms=100, duration_max_ms=200)


class TestScenarioDefaults:
    def test_preset_defaults(self):
        sc = preset_scenario("ethernet")
        assert sc.duration_s == 300
        assert sc.fps == 30
        assert sc.join_times_s == (60.0, 120.0, 180.0, 240.0)
        assert sc.presenter == "u1"
        assert sc.devices == ("u1", "u2", "u3", "u4", "u5")
        assert sc.beacon_interval_ms == 10
        assert sc.start_epoch_ms == DEFAULT_START_EPOCH_MS

    def test_each_preset_builds(self):
        for name in ("ethernet", "wifi", "fiveg"):
            sc = preset_scenario(name)
            assert sc.uplink.base_one_way_ms > 0
            assert sc.downlink.base_one_way_ms > 0

    def test_unknown_preset(self):
        with pytest.raises(SchemaError):
            preset_scenario("dsl")

    def test_join_time_lookup(self):
        sc = preset_scenario("ethernet")
        assert sc.join_time_s("u1") == 0.0
        assert sc.join_time_s("u3") == 120.0
        with pytest.raises(KeyError):
            sc.join_time_s("u9")

    def test_join_times_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            preset_scenario("ethernet", join_times_s=(120.0, 60.0, 180.0, 240.0))

    def test_join_times_must_fit_duration(self):
        with pytest.raises(ValueError):
            preset_scenario("ethernet", join_times_s=(60.0, 400.0), viewers=("u2", "u3"))

    def test_viewer_join_count_must_match(self):
        with pytest.raises(ValueError):
            preset_scenario("ethernet", viewers=("u2",))

    def test_pipeline_capture_default_tracks_fps(self):
        pipe = PipelineModel()
        assert pipe.capture_ms(30.0) == pytest.approx(1000.0 / 30.0)
        assert pipe.quantum_ms(60.0) == pytest.approx(1000.0 / 60.0)
        explicit = PipelineModel(capture_pipeline_ms=5.0, display_quantum_ms=8.0)
        assert explicit.capture_ms(30.0) == 5.0
        assert explicit.quantum_ms(30.0) == 8.0

    @pytest.mark.parametrize("quantum", [0.0, -0.0, -1.0])
    def test_display_quantum_must_be_positive(self, quantum):
        with pytest.raises(SchemaError, match="must be positive") as err:
            PipelineModel(display_quantum_ms=quantum)
        assert err.value.field == "display_quantum_ms"


class TestLoader:
    def test_minimal_profile_document(self):
        sc = load_scenario({"profile": "ethernet"})
        assert sc.duration_s == 300
        assert sc.fps == 30
        assert sc.join_times_s == (60.0, 120.0, 180.0, 240.0)

    def test_explicit_links(self):
        doc = {
            "uplink": {"base_one_way_ms": 10,
                       "jitter": {"kind": "gaussian", "sigma_ms": 2}},
            "downlink": {"base_one_way_ms": 20,
                         "jitter": {"kind": "lognormal", "mu": 1.0, "sigma": 0.5},
                         "loss_prob": 0.01,
                         "outage": {"enter_prob": 0.001,
                                    "duration_min_ms": 100,
                                    "duration_max_ms": 300}},
            "duration_s": 30,
            "viewers": ["u2", "u3"],
            "join_times_s": [5, 10],
        }
        sc = load_scenario(doc)
        assert sc.uplink.base_one_way_ms == 10.0
        assert isinstance(sc.downlink.jitter, LognormalJitter)
        assert sc.downlink.outage.duration_max_ms == 300.0
        assert sc.duration_s == 30.0

    def test_missing_links(self):
        with pytest.raises(SchemaError):
            load_scenario({"duration_s": 30})
        with pytest.raises(SchemaError):
            load_scenario({"uplink": {"base_one_way_ms": 1,
                                      "jitter": {"kind": "gaussian", "sigma_ms": 0}}})

    def test_unknown_profile(self):
        with pytest.raises(SchemaError):
            load_scenario({"profile": "carrier-pigeon"})

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError) as err:
            load_scenario({"profile": "ethernet", "fsp": 60})
        assert "fsp" in str(err.value)

    def test_unknown_nested_key_names_field(self):
        doc = {"uplink": {"base_one_way_ms": 1,
                          "jitter": {"kind": "gaussian", "sigma_ms": 0},
                          "wat": 1},
               "downlink": {"base_one_way_ms": 1,
                            "jitter": {"kind": "gaussian", "sigma_ms": 0}}}
        with pytest.raises(SchemaError) as err:
            load_scenario(doc)
        assert "wat" in str(err.value)

    def test_bad_join_times_through_loader(self):
        with pytest.raises(SchemaError, match="strictly increasing"):
            load_scenario({"profile": "ethernet", "join_times_s": [120, 60, 180, 240]})

    @pytest.mark.parametrize("doc", [
        {"profile": "wifi", "duration_s": 1e15, "fps": 1e9},
        {"profile": "wifi", "duration_s": 1e300, "fps": 1e300},
        {"profile": "wifi", "duration_s": 300.0, "fps": 1e6},
        {"profile": "wifi", "duration_s": 3600.0, "fps": 30.0,
         "viewers": [f"v{i}" for i in range(9)], "join_times_s": list(range(1, 10))},
    ])
    def test_frame_cap_names_field(self, doc):
        with pytest.raises(SchemaError) as err:
            load_scenario(doc)
        assert err.value.field == "duration_s"
        assert str(MAX_DEVICE_FRAMES) in str(err.value)

    @pytest.mark.parametrize("doc, field", [
        ({"profile": "ethernet", "duration_s": 300, "pipeline": {"display_quantum_ms": 0.001}},
         "pipeline.display_quantum_ms"),
        ({"profile": "ethernet", "quality": {"enabled": True, "control_interval_s": 1e-6}},
         "quality.control_interval_s"),
        ({"profile": "ethernet", "clocks": {"sync_interval_s": 1e-6}},
         "clocks.sync_interval_s"),
        # frames, refreshes and syncs inside their caps, but 5e9 pulses
        ({"profile": "wifi", "fps": 0.001, "duration_s": 1e8,
          "clocks": {"sync_interval_s": 1e4}}, "tones.pulse_period_ms"),
    ])
    def test_event_grid_caps_name_field(self, doc, field):
        # each would step through about 3e8 events if run; only loaded here
        with pytest.raises(SchemaError) as err:
            load_scenario(doc)
        assert err.value.field == field
        assert str(MAX_DEVICE_FRAMES) in str(err.value)

    def test_event_grid_caps_are_inclusive(self):
        # 300 s x 5 devices at a 1.5 ms quantum and 1.5 ms syncs: exactly the
        # cap each; a quality loop left disabled steps through nothing
        sc = load_scenario({"profile": "ethernet", "pipeline": {"display_quantum_ms": 1.5},
                            "clocks": {"sync_interval_s": 1.5e-3},
                            "quality": {"control_interval_s": 1e-9}})
        assert sc.duration_s * 1000.0 / sc.pipeline.display_quantum_ms * 5 == MAX_DEVICE_FRAMES
        assert sc.duration_s / sc.clocks.sync_interval_s * 5 == MAX_DEVICE_FRAMES
        with pytest.raises(SchemaError) as err:
            replace(sc, quality=replace(sc.quality, enabled=True))
        assert err.value.field == "quality.control_interval_s"

    def test_frame_cap_rejects_nan_duration(self):
        with pytest.raises(SchemaError) as err:
            preset_scenario("wifi", duration_s=float("nan"))
        assert err.value.field == "duration_s"

    def test_frame_cap_is_inclusive(self):
        # 2 devices x 500 s x 1000 fps: exactly the cap
        sc = load_scenario({"profile": "wifi", "duration_s": 500.0, "fps": 1000.0,
                            "viewers": ["u2"], "join_times_s": [1.0]})
        assert sc.duration_s * sc.fps * len(sc.devices) == MAX_DEVICE_FRAMES

    def test_caps_read_the_documents_pipeline_alone(self):
        # exactly the frame cap; the default one-frame quantum would round to
        # 1e6 + 1 ulp refreshes, the document's 50 ms quantum to far fewer
        doc = {"profile": "wifi", "duration_s": 4166.666666666667, "fps": 24,
               "viewers": [f"v{i}" for i in range(9)], "join_times_s": list(range(1, 10))}
        with pytest.raises(SchemaError) as err:
            load_scenario(doc)
        assert err.value.field == "pipeline.display_quantum_ms"
        sc = load_scenario({**doc, "pipeline": {"display_quantum_ms": 50}})
        assert sc.duration_s * sc.fps * len(sc.devices) == MAX_DEVICE_FRAMES

    def test_from_file(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps({"profile": "wifi", "duration_s": 10, "seed": 7,
                                    "viewers": ["u2"], "join_times_s": [2]}))
        sc = scenario_from_file(path)
        assert sc.seed == 7
        assert sc.duration_s == 10.0
        assert sc.uplink.outage is not None

    def test_default_joins_must_fit_duration(self):
        with pytest.raises(SchemaError):
            load_scenario({"profile": "ethernet", "duration_s": 30})

    def test_clock_overrides(self):
        sc = load_scenario({"profile": "ethernet",
                            "clocks": {"sigma_ntp_ms": 0.0, "max_drift_ppm": 0.0}})
        assert sc.clocks == ClockSpec(sigma_ntp_ms=0.0, sync_interval_s=64.0,
                                      max_drift_ppm=0.0, initial_offset_sigma_ms=0.5)

    def test_quality_spec_roundtrip(self):
        sc = load_scenario({"profile": "ethernet",
                            "quality": {"enabled": True, "dwell_s": 5}})
        assert sc.quality.enabled is True
        assert sc.quality.dwell_s == 5.0

    @pytest.mark.parametrize("field", ["capture_pipeline_ms", "display_quantum_ms"])
    def test_optional_pipeline_fields_accept_null(self, field):
        sc = load_scenario({"profile": "wifi", "pipeline": {field: None}})
        assert getattr(sc.pipeline, field) is None

    @pytest.mark.parametrize("profile", ["ethernet", "fiveg", "wifi"])
    @pytest.mark.parametrize("given", [0, 0.0, 5, 32.0])
    def test_explicit_audio_path_beats_the_preset(self, profile, given):
        sc = load_scenario({"profile": profile, "pipeline": {"audio_path_ms": given}})
        assert sc.pipeline.audio_path_ms == given
        assert sc.pipeline == PipelineModel(audio_path_ms=given)

    @pytest.mark.parametrize("profile, preset", [("ethernet", 32.0), ("fiveg", 98.0),
                                                 ("wifi", 78.0)])
    @pytest.mark.parametrize("pipeline", [None, {}, {"render_ms": 3}])
    def test_absent_audio_path_takes_the_preset(self, profile, preset, pipeline):
        doc = {"profile": profile} if pipeline is None else {"profile": profile,
                                                             "pipeline": pipeline}
        sc = load_scenario(doc)
        assert sc.pipeline == PipelineModel(audio_path_ms=preset, **(pipeline or {}))
        assert sc.pipeline == preset_scenario(profile, pipeline=sc.pipeline).pipeline

    def test_custom_links_pipeline_keeps_its_defaults(self):
        link = {"base_one_way_ms": 10}
        sc = load_scenario({"uplink": link, "downlink": link, "pipeline": {"decode_ms": 2}})
        assert sc.pipeline == PipelineModel(decode_ms=2.0)

    @pytest.mark.parametrize("doc, field", [
        ({"profile": "wifi", "clocks": {"sigma_ntp_ms": None}}, "clocks.sigma_ntp_ms"),
        ({"profile": "wifi", "quality": {"levels": 5}}, "quality.levels"),
        ({"profile": "wifi", "pipeline": {"encode_up_ms": "abc"}}, "pipeline.encode_up_ms"),
        ({"profile": "wifi", "pipeline": {"decode_ms": None}}, "pipeline.decode_ms"),
        ({"profile": "wifi", "pipeline": []}, "pipeline"),
    ])
    def test_bad_sub_object_value_names_field(self, doc, field):
        with pytest.raises(SchemaError) as err:
            load_scenario(doc)
        assert err.value.field == field

    @pytest.mark.parametrize("doc, field", [
        ({"quality": {"enabled": "false"}}, "quality.enabled"),
        ({"quality": {"enabled": 1}}, "quality.enabled"),
        ({"quality": {"levels": "abc"}}, "quality.levels"),
        ({"quality": {"levels": ["low", 2]}}, "quality.levels"),
        ({"quality": {"encode_down_delta_ms": [0, "nan", 1]}}, "quality.encode_down_delta_ms"),
        ({"viewers": 5}, "viewers"),
        ({"viewers": "u2"}, "viewers"),
        ({"viewers": ["u2", 3]}, "viewers"),
        ({"presenter": ["u1"]}, "presenter"),
        ({"quality": {"initial_level": 2}}, "quality.initial_level"),
        ({"duration_s": "inf"}, "duration_s"),
        ({"duration_s": float("inf")}, "duration_s"),
        ({"fps": True}, "fps"),
        ({"fps": 10 ** 400}, "fps"),
        ({"seed": float("inf")}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"join_times_s": "60"}, "join_times_s"),
        ({"join_times_s": [60, float("nan"), 180, 240]}, "join_times_s"),
        ({"clocks": {"sigma_ntp_ms": "nan"}}, "clocks.sigma_ntp_ms"),
        ({"clocks": {"sigma_ntp_ms": float("nan")}}, "clocks.sigma_ntp_ms"),
        ({"pipeline": {"render_ms": float("-inf")}}, "pipeline.render_ms"),
        ({"tones": {"f0_hz": float("inf")}}, "tones.f0_hz"),
        ({"tones": {"tone_count": float("inf")}}, "tones.tone_count"),
        ({"tones": []}, "tones"),
        ({"uplink": {"base_one_way_ms": float("nan")}}, "uplink.base_one_way_ms"),
        ({"uplink": {"base_one_way_ms": 1, "jitter": 5}}, "uplink.jitter"),
        ({"uplink": {"base_one_way_ms": 1,
                     "jitter": {"kind": "gaussian", "sigma_ms": float("nan")}}},
         "uplink.jitter.sigma_ms"),
        ({"uplink": {"base_one_way_ms": 1,
                     "outage": {"enter_prob": 0.1, "duration_min_ms": 1,
                                "duration_max_ms": 2, "media": "video"}}},
         "uplink.outage.media"),
        ({"uplink": {"base_one_way_ms": 1,
                     "outage": {"enter_prob": "x", "duration_min_ms": 1,
                                "duration_max_ms": 2}}}, "uplink.outage.enter_prob"),
        ({"uplink": {"base_one_way_ms": 1, "outage": {}}}, "uplink.outage.enter_prob"),
        ({"uplink": {"base_one_way_ms": 1, "outage": 0}}, "uplink.outage"),
        ({"sample_rate": -48000}, "sample_rate"),
        ({"sample_rate": 0}, "sample_rate"),
        ({"quality": {"dwell_s": -5}}, "quality.dwell_s"),
        ({"quality": {"step_up_threshold_ms": 500}}, "quality.step_up_threshold_ms"),
        ({"quality": {"levels": ["only"], "encode_down_delta_ms": [0],
                      "initial_level": "only"}}, "quality.levels"),
        ({"uplink": {"base_one_way_ms": 1, "jitter": {"kind": "uniform"}}},
         "uplink.jitter.kind"),
        ({"uplink": {"base_one_way_ms": 1,
                     "jitter": {"kind": "gaussian", "sigma_ms": 4, "sigma": 30}}},
         "uplink.jitter.sigma"),
        ({"uplink": {"base_one_way_ms": 1,
                     "jitter": {"kind": "gaussian", "sigma_ms": 4, "mu": 1}}},
         "uplink.jitter.mu"),
        ({"downlink": {"base_one_way_ms": 1,
                       "jitter": {"kind": "lognormal", "mu": 1, "sigma": 0.5, "sigma_ms": 4}}},
         "downlink.jitter.sigma_ms"),
        ({"viewers": ["u2", "u2"], "join_times_s": [5, 10]}, "viewers"),
        ({"viewers": ["u1"], "join_times_s": [5]}, "viewers"),
        ({"clocks": {"sync_interval_s": 0}}, "clocks.sync_interval_s"),
        ({"uplink": {"base_one_way_ms": 1, "loss_prob": 1}}, "uplink.loss_prob"),
        ({"uplink": {"base_one_way_ms": 1,
                     "outage": {"enter_prob": 0.1, "duration_min_ms": 5,
                                "duration_max_ms": 2}}}, "uplink.outage.duration_max_ms"),
        ({"tones": {"f0_hz": 0}}, "tones.f0_hz"),
        ({"tones": {"delta_hz": -120}}, "tones.delta_hz"),
        ({"tones": {"tone_count": 1}}, "tones.tone_count"),
        ({"tones": {"pulse_duration_ms": 120}}, "tones.pulse_duration_ms"),
        ({"tones": {"ramp_ms": 41}}, "tones.ramp_ms"),
        ({"tones": {"ramp_ms": -5}}, "tones.ramp_ms"),
        ({"duration_s": 2, "viewers": ["u2"], "join_times_s": [1], "sample_rate": 4000},
         "sample_rate"),
        ({"sample_rate": 8640}, "sample_rate"),  # twice the default top tone, 4320 Hz
        ({"tones": {"f0_hz": 1000}, "sample_rate": 9000}, "sample_rate"),
        ({"sample_rate": MAX_SAMPLE_RATE + 1}, "sample_rate"),
        ({"duration_s": 2, "viewers": ["u2"], "join_times_s": [1], "start_epoch_ms": -5000},
         "start_epoch_ms"),
        ({"pipeline": {"display_quantum_ms": 0}}, "pipeline.display_quantum_ms"),
        ({"pipeline": {"display_quantum_ms": -1}}, "pipeline.display_quantum_ms"),
    ])
    def test_bad_value_names_field(self, doc, field):
        with pytest.raises(SchemaError) as err:
            load_scenario({"profile": "wifi", **doc})
        assert err.value.field == field

    @pytest.mark.parametrize("rate", [8641, MAX_SAMPLE_RATE])
    def test_sample_rate_at_its_bounds_accepted(self, rate):
        assert load_scenario({"profile": "wifi", "sample_rate": rate}).sample_rate == rate

    def test_typed_values_accepted(self):
        sc = load_scenario({"profile": "wifi", "seed": 7.0, "viewers": ["u2"],
                            "join_times_s": [5], "quality": {"enabled": False,
                                                             "levels": ["lo", "mid", "hi"],
                                                             "initial_level": "hi"}})
        assert sc.seed == 7 and isinstance(sc.seed, int)
        assert sc.viewers == ("u2",)
        assert sc.join_times_s == (5.0,)
        assert sc.quality.enabled is False
        assert sc.quality.levels == ("lo", "mid", "hi")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

_PATHS = [
    ("duration_s",), ("fps",), ("beacon_interval_ms",), ("sample_rate",), ("presenter",),
    ("seed",), ("start_epoch_ms",), ("name",), ("viewers",), ("join_times_s",),
    ("profile",), ("uplink",), ("pipeline",), ("clocks",), ("quality",), ("tones",),
    ("pipeline", "render_ms"), ("pipeline", "display_quantum_ms"),
    ("clocks", "sigma_ntp_ms"), ("clocks", "sync_interval_s"),
    ("quality", "enabled"), ("quality", "levels"), ("quality", "encode_down_delta_ms"),
    ("quality", "dwell_s"), ("quality", "initial_level"),
    ("tones", "f0_hz"), ("tones", "tone_count"),
    ("uplink", "base_one_way_ms"), ("uplink", "jitter"), ("uplink", "outage"),
    ("uplink", "loss_prob"),
]


@given(path=st.sampled_from(_PATHS), value=_JSON)
@settings(max_examples=300, deadline=None)
def test_any_value_gives_scenario_or_schema_error(path, value):
    doc = {"profile": "wifi", "duration_s": 20, "viewers": ["u2"], "join_times_s": [5],
           "uplink": {"base_one_way_ms": 10}, "pipeline": {}, "clocks": {}, "quality": {},
           "tones": {}}
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        sc = load_scenario(doc)
    except SchemaError:
        return
    assert isinstance(sc, SessionScenario)
    assert all(math.isfinite(v) for v in (sc.duration_s, sc.fps, *sc.join_times_s))


class TestAdaptQuality:
    POLICY = QualitySpec(levels=("low", "medium", "high"),
                         step_down_threshold_ms=400.0,
                         step_up_threshold_ms=150.0,
                         dwell_s=10.0)

    def test_step_down(self):
        d = adapt_quality(500.0, "medium", self.POLICY, dwell_elapsed_s=11.0)
        assert d.action == "step_down"
        assert d.target_level == "low"

    def test_hold_at_top(self):
        d = adapt_quality(100.0, "high", self.POLICY, dwell_elapsed_s=11.0)
        assert d.action == "hold"
        assert d.target_level == "high"

    def test_hold_at_bottom(self):
        d = adapt_quality(900.0, "low", self.POLICY, dwell_elapsed_s=60.0)
        assert d.action == "hold"

    def test_dwell_gates_stepping(self):
        d = adapt_quality(500.0, "medium", self.POLICY, dwell_elapsed_s=9.9)
        assert d.action == "hold"

    def test_step_up(self):
        d = adapt_quality(100.0, "medium", self.POLICY, dwell_elapsed_s=10.0)
        assert d.action == "step_up"
        assert d.target_level == "high"

    def test_band_holds(self):
        d = adapt_quality(300.0, "medium", self.POLICY, dwell_elapsed_s=100.0)
        assert d.action == "hold"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            adapt_quality(100.0, "ultra", self.POLICY, dwell_elapsed_s=0.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            QualitySpec(step_down_threshold_ms=100.0, step_up_threshold_ms=200.0)
        for levels in (("only",), ("low", "low")):
            with pytest.raises(SchemaError) as err:
                QualitySpec(levels=levels, encode_down_delta_ms=(0.0,) * len(levels),
                            initial_level=levels[0])
            assert err.value.field == "levels"

    @given(mean=st.floats(0, 1000), level=st.sampled_from(("low", "medium", "high")),
           dwell=st.floats(0, 100))
    @settings(max_examples=200)
    def test_target_always_in_levels(self, mean, level, dwell):
        d = adapt_quality(mean, level, self.POLICY, dwell_elapsed_s=dwell)
        assert d.target_level in self.POLICY.levels
        assert d.action in ("step_up", "step_down", "hold")

    def test_no_oscillation_within_dwell(self):
        # after a step, elapsed resets below dwell, so the opposite step
        # cannot fire until a full dwell period passes
        policy = self.POLICY
        level = "medium"
        elapsed = policy.dwell_s
        d1 = adapt_quality(500.0, level, policy, elapsed)
        assert d1.action == "step_down"
        d2 = adapt_quality(100.0, d1.target_level, policy, dwell_elapsed_s=0.0)
        assert d2.action == "hold"


class TestQualityRule:
    @given(down=st.floats(), up=st.floats(), dwell=st.floats())
    @settings(max_examples=300)
    def test_accepts_iff_finite_and_ordered(self, down, up, dwell):
        try:
            QualitySpec(step_down_threshold_ms=down, step_up_threshold_ms=up, dwell_s=dwell)
            field = None
        except SchemaError as exc:
            field = exc.field
        assert (field is None) == (
            all(map(math.isfinite, (down, up, dwell))) and up < down and dwell >= 0)
        assert field in (None, "step_down_threshold_ms", "step_up_threshold_ms", "dwell_s")


def _loaded_xrprobe_modules(module: str) -> set[str]:
    """The xrprobe modules a fresh interpreter holds after importing ``module``."""
    src = str(Path(xrprobe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (f"import sys, {module}; "
            "print(' '.join(m for m in sys.modules if m.startswith('xrprobe.')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return set(done.stdout.split())


class TestImportGraph:
    def test_schema_imports_no_other_xrprobe_module(self):
        assert _loaded_xrprobe_modules("xrprobe.schema") == {"xrprobe.schema"}

    @pytest.mark.parametrize("module", ["xrprobe.video_beacon", "xrprobe.audio_beacon"])
    def test_beacons_do_not_load_the_scenario_model(self, module):
        assert "xrprobe.scenario" not in _loaded_xrprobe_modules(module)

    @pytest.mark.parametrize("module", ["xrprobe.netsim", "xrprobe.video_beacon",
                                        "xrprobe.audio_beacon"])
    def test_detection_producers_do_not_load_the_exporter(self, module):
        # the record lives in metrics; the log and HTTP module is only a consumer
        assert "xrprobe.exporter" not in _loaded_xrprobe_modules(module)

    def test_exporter_loads_neither_scenario_nor_schema(self):
        # it persists and exposes records; quality and JSON documents are not its concern
        loaded = _loaded_xrprobe_modules("xrprobe.exporter")
        assert not loaded & {"xrprobe.scenario", "xrprobe.schema"}


# http.server calls these by name; no code of the project does
_HOOKS = {"do_GET", "log_message"}
_ROOT = Path(__file__).resolve().parents[1]


def _names_used(paths) -> set[str]:
    """Every Name, Attribute, string constant and imported name in ``paths``."""
    used: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
            elif isinstance(node, ast.alias):
                used.update((node.name, node.asname))
    return used


def test_no_definition_is_reached_only_from_tests():
    defined = {}
    for path in sorted((_ROOT / "src" / "xrprobe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    callers = [*(_ROOT / "src").rglob("*.py"), *(_ROOT / "scripts").rglob("*.py"),
               *(p for p in (_ROOT / "xrbench").rglob("*.py") if not p.name.startswith("test_"))]
    used = _names_used(callers) | _HOOKS
    # dunder methods are called by the interpreter and the dataclass machinery
    dead = {name: where for name, where in defined.items()
            if name not in used and not (name.startswith("__") and name.endswith("__"))}
    assert dead == {}
