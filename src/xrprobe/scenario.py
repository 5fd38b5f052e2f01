"""Scenario model for the pipeline simulator.

A scenario bundles the session shape (who joins when, frame and tone
cadence), the access-network behaviour of the uplink and downlink, the
processing pipeline stage delays, the clock discipline and the optional
quality adaptation loop. Scenarios are plain dataclasses; ``load_scenario``
builds one from a JSON document, and every rejection, by the loader or by a
dataclass's own checks, is a SchemaError naming the field's dotted path.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

from .audio_beacon import MAX_SAMPLE_RATE, ToneSchedule, read_tone_schedule
from .schema import (
    SchemaError,
    finite,
    flag,
    integer,
    json_object,
    names,
    numbers,
    optional,
    read_fields,
    read_json,
    text,
)


# --- stochastic delay components --------------------------------------------------
# Each jitter's sampler writes its stdlib variate out on ``random()``, the one
# ``random.Random`` method whose stream Python keeps across versions, with the
# stdlib's float operations in the stdlib's order.

_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)  # random.NV_MAGICCONST


@dataclass(frozen=True)
class GaussianJitter:
    """Zero-mean gaussian jitter; negative draws clamp to zero."""

    sigma_ms: float

    def __post_init__(self):
        if self.sigma_ms < 0:
            raise SchemaError("sigma_ms", "must be non-negative")

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        """A draw of ``max(0.0, rng.gauss(0.0, sigma_ms))`` written out on
        ``rng.random``: Box-Muller, the spare kept in the closure. It makes
        the same ``random()`` calls as the stdlib and returns the same
        floats, on an ``rng`` that nothing else draws ``gauss`` from. With
        ``sigma_ms`` 0 it draws nothing."""
        sigma = self.sigma_ms
        if sigma == 0:
            return lambda: 0.0
        rand = rng.random
        spare = None

        def draw() -> float:
            nonlocal spare
            z = spare
            if z is None:
                x2pi = rand() * math.tau
                g2rad = math.sqrt(-2.0 * math.log(1.0 - rand()))
                z = math.cos(x2pi) * g2rad
                spare = math.sin(x2pi) * g2rad
            else:
                spare = None
            delay = z * sigma  # 0.0 + z * sigma, clamped at 0.0
            return delay if delay > 0.0 else 0.0
        return draw


@dataclass(frozen=True)
class LognormalJitter:
    """Heavy-tailed jitter, exp(N(mu, sigma)) milliseconds."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise SchemaError("sigma", "must be non-negative")

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        """A draw of ``rng.lognormvariate(mu, sigma)`` written out on
        ``rng.random``: the Kinderman-Monahan loop of ``normalvariate``
        under ``exp``, with the same ``random()`` calls and the same floats.
        With ``sigma`` 0 it still draws."""
        mu, sigma = self.mu, self.sigma
        rand = rng.random

        def draw() -> float:
            while True:
                u1 = rand()
                u2 = 1.0 - rand()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -math.log(u2):
                    return math.exp(mu + z * sigma)
        return draw


Jitter = GaussianJitter | LognormalJitter


@dataclass(frozen=True)
class OutageSpec:
    """Burst outages: each transiting unit may open a hold-off window.

    While the window is open, affected media queue and drain at the end of
    the window. ``media`` limits the effect (audio normally rides a jitter
    buffer that hides short bursts, so the default hits video only).
    """

    enter_prob: float
    duration_min_ms: float
    duration_max_ms: float
    media: tuple[str, ...] = ("video",)

    def __post_init__(self):
        if not 0 <= self.enter_prob <= 1:
            raise SchemaError("enter_prob", "must be in [0, 1]")
        if self.duration_min_ms < 0:
            raise SchemaError("duration_min_ms", "must be non-negative")
        if self.duration_max_ms < self.duration_min_ms:
            raise SchemaError("duration_max_ms", "must not be below duration_min_ms")

    def sample_duration(self, rng: random.Random) -> float:
        return rng.uniform(self.duration_min_ms, self.duration_max_ms)


@dataclass(frozen=True)
class NetworkProfile:
    """One direction of an access link."""

    name: str
    base_one_way_ms: float
    jitter: Jitter
    outage: OutageSpec | None = None
    loss_prob: float = 0.0

    def __post_init__(self):
        if self.base_one_way_ms < 0:
            raise SchemaError("base_one_way_ms", "must be non-negative")
        if not 0 <= self.loss_prob < 1:
            raise SchemaError("loss_prob", "must be in [0, 1)")


# --- pipeline, clocks, quality ----------------------------------------------------

@dataclass(frozen=True)
class PipelineModel:
    """Fixed stage delays along the media path, milliseconds.

    ``capture_pipeline_ms`` and ``display_quantum_ms`` default to one frame
    period when left as None.
    """

    capture_pipeline_ms: float | None = None
    encode_up_ms: float = 15.0
    render_ms: float = 10.0
    encode_down_ms: float = 15.0
    decode_ms: float = 5.0
    display_quantum_ms: float | None = None
    audio_buffer_ms: float = 20.0
    audio_path_ms: float = 0.0

    def __post_init__(self):
        for name in ("capture_pipeline_ms", "encode_up_ms", "render_ms",
                     "encode_down_ms", "decode_ms", "audio_buffer_ms", "audio_path_ms"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise SchemaError(name, "must be non-negative")
        if self.display_quantum_ms is not None and self.display_quantum_ms <= 0:
            raise SchemaError("display_quantum_ms", "must be positive")

    def capture_ms(self, fps: float) -> float:
        if self.capture_pipeline_ms is not None:
            return self.capture_pipeline_ms
        return 1000.0 / fps

    def quantum_ms(self, fps: float) -> float:
        if self.display_quantum_ms is not None:
            return self.display_quantum_ms
        return 1000.0 / fps


@dataclass(frozen=True)
class ClockSpec:
    """Per-device clock discipline parameters."""

    sigma_ntp_ms: float = 0.5
    sync_interval_s: float = 64.0
    max_drift_ppm: float = 2.0
    initial_offset_sigma_ms: float = 0.5

    def __post_init__(self):
        for name in ("sigma_ntp_ms", "max_drift_ppm", "initial_offset_sigma_ms"):
            if getattr(self, name) < 0:
                raise SchemaError(name, "must be non-negative")
        if self.sync_interval_s <= 0:
            raise SchemaError("sync_interval_s", "must be positive")


@dataclass(frozen=True)
class QualitySpec:
    """Closed-loop quality adaptation acting on downlink encode time.

    ``levels`` is ordered from lowest to highest quality. Two-threshold
    hysteresis: stepping down is triggered above ``step_down_threshold_ms``,
    stepping up below ``step_up_threshold_ms``, and either move needs
    ``dwell_s`` of residence at the current level first. The simulator runs
    the loop when ``enabled``.
    """

    enabled: bool = False
    levels: tuple[str, ...] = ("low", "medium", "high")
    encode_down_delta_ms: tuple[float, ...] = (-5.0, 0.0, 5.0)
    step_down_threshold_ms: float = 400.0
    step_up_threshold_ms: float = 250.0
    dwell_s: float = 10.0
    control_interval_s: float = 1.0
    initial_level: str = "high"

    def __post_init__(self):
        if len(self.levels) < 2:
            raise SchemaError("levels", "need at least two quality levels")
        if len(set(self.levels)) != len(self.levels):
            raise SchemaError("levels", "duplicate quality level names")
        if len(self.levels) != len(self.encode_down_delta_ms):
            raise SchemaError("encode_down_delta_ms", "one delta per quality level required")
        if self.initial_level not in self.levels:
            raise SchemaError("initial_level", f"{self.initial_level!r} not in levels")
        for name in ("step_down_threshold_ms", "step_up_threshold_ms", "dwell_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SchemaError(name, f"expected a finite number, got {value}")
        if self.step_up_threshold_ms >= self.step_down_threshold_ms:
            raise SchemaError("step_up_threshold_ms",
                              "step_up threshold must sit below step_down threshold")
        if self.dwell_s < 0:
            raise SchemaError("dwell_s", "dwell must be non-negative")
        if self.control_interval_s <= 0:
            raise SchemaError("control_interval_s", "must be positive")

    def delta_for(self, level: str) -> float:
        return self.encode_down_delta_ms[self.levels.index(level)]


@dataclass(frozen=True)
class QualityDecision:
    action: str  # "step_up" | "step_down" | "hold"
    target_level: str


def adapt_quality(window_mean_m2p_ms: float, current_level: str,
                  quality: QualitySpec, dwell_elapsed_s: float) -> QualityDecision:
    """Pure stepping decision; clamps at the extremes, holds inside the band."""
    if current_level not in quality.levels:
        raise ValueError(f"unknown level {current_level!r}")
    idx = quality.levels.index(current_level)
    ready = dwell_elapsed_s >= quality.dwell_s
    if ready and window_mean_m2p_ms > quality.step_down_threshold_ms and idx > 0:
        return QualityDecision("step_down", quality.levels[idx - 1])
    if ready and window_mean_m2p_ms < quality.step_up_threshold_ms and idx < len(quality.levels) - 1:
        return QualityDecision("step_up", quality.levels[idx + 1])
    return QualityDecision("hold", current_level)


# --- the scenario -----------------------------------------------------------------

DEFAULT_START_EPOCH_MS = 1_700_000_000_000

# every time a run stamps lies in 0..MAX_SESSION_MS-1. The simulator keeps its
# timeline in float ms, and below 2**43 ms (the year 2248) one float step is at
# most 2**-9 ms; near 2**64 it is 2048 ms and the latencies come out wrong.
MAX_SESSION_MS = 2**43

# frames rendered over all devices (duration_s x fps x devices) one scenario
# may ask for: an hour at 30 fps for 9 devices, about 500 MB of records;
# above it a run would exhaust memory or never end. Every other grid a run
# steps through (display ticks, quality control steps, clock segments, audio
# pulses) has the same cap.
MAX_DEVICE_FRAMES = 1_000_000


@dataclass(frozen=True)
class SessionScenario:
    name: str
    uplink: NetworkProfile
    downlink: NetworkProfile
    duration_s: float = 300.0
    fps: float = 30.0
    beacon_interval_ms: int = 10
    sample_rate: int = 48000
    presenter: str = "u1"
    viewers: tuple[str, ...] = ("u2", "u3", "u4", "u5")
    join_times_s: tuple[float, ...] = (60.0, 120.0, 180.0, 240.0)
    pipeline: PipelineModel = field(default_factory=PipelineModel)
    clocks: ClockSpec = field(default_factory=ClockSpec)
    quality: QualitySpec = field(default_factory=QualitySpec)
    tones: ToneSchedule = field(default_factory=ToneSchedule)
    seed: int = 0
    start_epoch_ms: int = DEFAULT_START_EPOCH_MS

    def __post_init__(self):
        if self.duration_s <= 0:
            raise SchemaError("duration_s", "must be positive")
        if self.fps <= 0:
            raise SchemaError("fps", "must be positive")
        if not math.isfinite(1000.0 / self.fps):
            raise SchemaError("fps", f"frame period 1000 / fps overflows, got {self.fps!r}")
        n = 1 + len(self.viewers)
        grids = [("duration_s", "frames (duration_s x fps x devices)",
                  self.duration_s * self.fps * n),
                 ("pipeline.display_quantum_ms", "display ticks over all devices",
                  self.duration_s * 1000.0 / self.pipeline.quantum_ms(self.fps) * n)]
        if self.quality.enabled:
            grids.append(("quality.control_interval_s", "quality control steps",
                          self.duration_s / self.quality.control_interval_s))
        grids.append(("clocks.sync_interval_s", "clock segments over all devices",
                      self.duration_s / self.clocks.sync_interval_s * n))
        grids.append(("tones.pulse_period_ms", "audio pulses over all devices",
                      self.duration_s * 1000.0 / self.tones.pulse_period_ms * n))
        for path, what, count in grids:
            if not count <= MAX_DEVICE_FRAMES:  # NaN fails too
                raise SchemaError(path, f"{count:.4g} {what}, "
                                        f"over the cap of {MAX_DEVICE_FRAMES}")
        if self.beacon_interval_ms <= 0:
            raise SchemaError("beacon_interval_ms", "must be positive")
        last_ms = self.start_epoch_ms + math.ceil(self.duration_s * 1000.0)
        if not 0 <= self.start_epoch_ms <= last_ms < MAX_SESSION_MS:
            raise SchemaError("start_epoch_ms", f"the session runs from {self.start_epoch_ms} "
                              f"to {last_ms} ms, outside 0..2**43-1")
        top = max(self.tones.frequencies)
        if not 2 * top < self.sample_rate <= MAX_SAMPLE_RATE:
            raise SchemaError("sample_rate", f"expected above {2 * top:.0f} (twice the top "
                              f"tone) and at most {MAX_SAMPLE_RATE}, got {self.sample_rate}")
        if len(self.viewers) != len(self.join_times_s):
            raise SchemaError("join_times_s", "one join time per viewer required")
        if len(set((self.presenter,) + self.viewers)) != 1 + len(self.viewers):
            raise SchemaError("viewers", "device ids must be unique")
        last = 0.0
        for t in self.join_times_s:
            if t <= last:
                raise SchemaError("join_times_s", "must be strictly increasing and positive")
            if t >= self.duration_s:
                raise SchemaError("join_times_s", "must fall inside the session duration")
            last = t

    @property
    def devices(self) -> tuple[str, ...]:
        return (self.presenter,) + self.viewers

    def join_time_s(self, device: str) -> float:
        if device == self.presenter:
            return 0.0
        try:
            return self.join_times_s[self.viewers.index(device)]
        except ValueError:
            raise KeyError(device) from None


# --- presets -----------------------------------------------------------------------
# Numbers below were fitted against the simulator so that each preset lands on
# its intended end-to-end latency regime; treat them as a matched set.

def _ethernet() -> dict:
    link = NetworkProfile("ethernet", base_one_way_ms=62.0,
                          jitter=GaussianJitter(sigma_ms=4.0))
    return {"uplink": link, "downlink": link, "audio_path_ms": 32.0}


def _fiveg() -> dict:
    link = NetworkProfile("fiveg", base_one_way_ms=83.0,
                          jitter=LognormalJitter(mu=1.8, sigma=0.6),
                          loss_prob=0.002)
    return {"uplink": link, "downlink": link, "audio_path_ms": 98.0}


def _wifi() -> dict:
    link = NetworkProfile("wifi", base_one_way_ms=98.0,
                          jitter=LognormalJitter(mu=2.2, sigma=0.8),
                          outage=OutageSpec(enter_prob=0.0005,
                                            duration_min_ms=800.0,
                                            duration_max_ms=3200.0),
                          loss_prob=0.01)
    return {"uplink": link, "downlink": link, "audio_path_ms": 78.0}


PROFILE_BUILDERS = {"ethernet": _ethernet, "fiveg": _fiveg, "wifi": _wifi}

# Calibrated (video, audio) mean end-to-end latency per preset, ms: the
# targets the preset numbers above were fitted to.
PROFILE_TARGETS = {
    "ethernet": (227.54, 185.22),
    "fiveg": (282.67, 304.17),
    "wifi": (362.46, 324.59),
}


def preset_scenario(profile: str, *, name: str | None = None,
                    duration_s: float = 300.0, seed: int = 0,
                    **overrides) -> SessionScenario:
    """Build a full scenario from a named access-network preset.

    Without a ``pipeline`` the scenario takes the default pipeline with the
    preset's audio path; a ``pipeline`` given is taken whole.
    """
    if profile not in PROFILE_BUILDERS:
        raise SchemaError("profile", f"unknown profile {profile!r}; "
                          f"expected one of {sorted(PROFILE_BUILDERS)}")
    parts = PROFILE_BUILDERS[profile]()
    overrides.setdefault("pipeline", PipelineModel(audio_path_ms=parts["audio_path_ms"]))
    return SessionScenario(
        name=name or profile,
        uplink=parts["uplink"],
        downlink=parts["downlink"],
        duration_s=duration_s,
        seed=seed,
        **overrides,
    )


# --- JSON loading ------------------------------------------------------------------
# One converter per object; each reads its keys with read_fields, and the type
# it builds checks the values, so every error carries the field's dotted path.

def _jitter(doc) -> Jitter:
    """``kind`` picks the model; the model's own fields are the only other keys."""
    doc = dict(json_object(doc))
    kind = doc.pop("kind", None)
    if kind == "gaussian":
        return GaussianJitter(**read_fields(doc, required=("sigma_ms",), sigma_ms=finite))
    if kind == "lognormal":
        return LognormalJitter(**read_fields(doc, required=("mu", "sigma"),
                                             mu=finite, sigma=finite))
    raise SchemaError("kind", f"expected gaussian or lognormal, got {kind!r}")


def _outage(doc) -> OutageSpec:
    return OutageSpec(**read_fields(
        doc, required=("enter_prob", "duration_min_ms", "duration_max_ms"),
        enter_prob=finite, duration_min_ms=finite, duration_max_ms=finite, media=names))


def _link(default_name: str):
    """The converter of a link object; a link without ``name`` is called
    ``default_name`` and one without ``jitter`` has none."""
    def read(doc) -> NetworkProfile:
        return NetworkProfile(**{"name": default_name, "jitter": GaussianJitter(0.0),
                                 **read_fields(doc, required=("base_one_way_ms",),
                                               name=text, base_one_way_ms=finite,
                                               jitter=_jitter, outage=optional(_outage),
                                               loss_prob=finite)})
    return read


def _pipeline(doc) -> dict:
    """The pipeline keys the document gives, each checked as ``PipelineModel``
    checks it; a key left out is left out, to keep the default or the preset's."""
    fields = read_fields(
        doc, capture_pipeline_ms=optional(finite), encode_up_ms=finite, render_ms=finite,
        encode_down_ms=finite, decode_ms=finite, display_quantum_ms=optional(finite),
        audio_buffer_ms=finite, audio_path_ms=finite)
    PipelineModel(**fields)
    return fields


def _clocks(doc) -> ClockSpec:
    return ClockSpec(**read_fields(
        doc, sigma_ntp_ms=finite, sync_interval_s=finite, max_drift_ppm=finite,
        initial_offset_sigma_ms=finite))


def _quality(doc) -> QualitySpec:
    return QualitySpec(**read_fields(
        doc, enabled=flag, levels=names, encode_down_delta_ms=numbers,
        step_down_threshold_ms=finite, step_up_threshold_ms=finite, dwell_s=finite,
        control_interval_s=finite, initial_level=text))


_SCENARIO = {
    "duration_s": finite, "fps": finite, "beacon_interval_ms": integer,
    "sample_rate": integer, "presenter": text, "seed": integer,
    "start_epoch_ms": integer, "name": text, "viewers": names, "join_times_s": numbers,
    "pipeline": _pipeline, "clocks": _clocks, "quality": _quality,
    "tones": read_tone_schedule, "profile": optional(text),
    "uplink": optional(_link("uplink")), "downlink": optional(_link("downlink")),
}


def load_scenario(doc: dict) -> SessionScenario:
    """Build a scenario from a parsed JSON document.

    Either ``profile`` names a preset (its links and audio path are the
    starting point, and ``uplink``/``downlink`` replace its links) or both
    ``uplink`` and ``downlink`` must be given. Every key given overrides a
    default, ``pipeline.audio_path_ms`` the preset's too, even at 0. A rejected
    document raises SchemaError naming the field's path.
    """
    kwargs = read_fields(doc, **_SCENARIO)
    profile = kwargs.pop("profile", None)
    pipeline = kwargs.pop("pipeline", {})
    links = {key: link for key in ("uplink", "downlink")
             if (link := kwargs.pop(key, None)) is not None}
    if profile is not None:
        # the bare preset is valid; the document's values are checked once, together
        preset = preset_scenario(profile)
        return replace(preset, **kwargs, **links, pipeline=replace(preset.pipeline, **pipeline))
    if len(links) < 2:
        raise SchemaError("profile", "either profile or both uplink and downlink required")
    return SessionScenario(**{"name": "custom", **kwargs, **links,
                              "pipeline": PipelineModel(**pipeline)})


def scenario_from_file(path: str | Path) -> SessionScenario:
    return load_scenario(read_json(path))
