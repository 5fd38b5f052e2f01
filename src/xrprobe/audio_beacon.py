"""Frequency-coded tone beacons for the audio path.

The presenter emits a short sine pulse every ``pulse_period_ms``; the pulse
frequency encodes the emission slot index modulo the alphabet size, so a
detected frequency plus a rough playout time pins the emission instant as
long as end-to-end delay stays inside the ambiguity window
(tone_count * pulse_period_ms, 3.2 s with defaults).

Detection is time-domain: normalized autocorrelation over a sliding window,
first qualifying peak after the first zero crossing, parabolic refinement of
the peak lag. Works on the raw int16 stream, no FFT bins to misalign.
``detect_pulses`` estimates its windows a chunk at a time over a strided
view of the stream: the autocorrelation is one batched real transform pair
per chunk, at the smallest 5-smooth size that still gives the linear
autocorrelation over the lags searched (2,160 points for a 2,048-sample
window), and silence test, energy sums, normalization and peak search run
once per chunk too. It estimates each distinct window only once: the tool's
own media repeat, because playout lands on a callback grid equal to the
detection hop, so every recurrence of a tone sits at the same phase against
the windows and yields the same samples. The rest of the per-window work is
array passes too: the windows' keys are slices of one byte blob of the
stream, the distinct windows' tone indices are one vectorized lookup, and
the onset probes of the distinct windows of one tone are real matrix
products, a chunk of windows each. Beyond keying each window, Python runs
once per chunk and once per run of one tone.
"""

from __future__ import annotations

import json
import math
import wave
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .clocks import MAX_TIMESTAMP, Timestamp
from .metrics import AUDIO, DetectionRecord
from .schema import SchemaError, finite, integer, json_object, read_fields, read_json, text

FULL_SCALE = 32767
DEFAULT_RATE = 48000
# the highest sample rate a scenario or ``gen-audio --rate`` may ask for: a
# physical run holds (end - join) x rate int32 samples per device
MAX_SAMPLE_RATE = 192_000
DETECT_WINDOW = 2048
DETECT_HOP = 512
PEAK_THRESHOLD = 0.8
SILENCE_DBFS = -40.0


class NyquistViolation(ValueError):
    """A schedule frequency reaches or exceeds half the sample rate."""


class Ambiguous(ValueError):
    """Playout precedes the first slot that could carry this tone."""


@dataclass(frozen=True)
class ToneSchedule:
    """Slot s carries frequency f0 + (s mod tone_count) * delta."""

    f0_hz: float = 600.0
    delta_hz: float = 120.0
    tone_count: int = 32
    pulse_period_ms: int = 100
    pulse_duration_ms: int = 80
    ramp_ms: int = 5
    epoch_ts: Timestamp = 0

    def __post_init__(self):
        if not self.f0_hz > 0:
            raise SchemaError("f0_hz", f"must be positive, got {self.f0_hz!r}")
        if not self.delta_hz > 0:
            raise SchemaError("delta_hz", f"must be positive, got {self.delta_hz!r}")
        if self.tone_count < 2:
            raise SchemaError("tone_count", f"need at least two tones, got {self.tone_count!r}")
        if not 0 < self.pulse_duration_ms <= self.pulse_period_ms:
            raise SchemaError("pulse_duration_ms", "must be positive and fit inside the "
                              f"{self.pulse_period_ms} ms period, got {self.pulse_duration_ms!r}")
        if not 0 <= self.ramp_ms * 2 <= self.pulse_duration_ms:
            raise SchemaError("ramp_ms", "must be non-negative, and two ramps must fit "
                              f"inside the {self.pulse_duration_ms} ms pulse, got {self.ramp_ms!r}")
        if not 0 <= self.epoch_ts <= MAX_TIMESTAMP:
            raise SchemaError("epoch_ts", f"must be in 0..2**64-1, got {self.epoch_ts!r}")

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(self.f0_hz + k * self.delta_hz for k in range(self.tone_count))


def read_tone_schedule(doc: dict, required: tuple[str, ...] = ()) -> ToneSchedule:
    """A ToneSchedule from a JSON object; a key left out keeps its default
    unless it is ``required``."""
    return ToneSchedule(**read_fields(
        doc, required,
        f0_hz=finite, delta_hz=finite, tone_count=integer, pulse_period_ms=integer,
        pulse_duration_ms=integer, ramp_ms=integer, epoch_ts=integer,
    ))


@dataclass(frozen=True, eq=False)
class PcmBuffer:
    """Mono 16-bit PCM."""

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self):
        if self.samples.dtype != np.int16:
            raise ValueError("samples must be int16")

    @property
    def duration_ms(self) -> float:
        return len(self.samples) * 1000.0 / self.sample_rate


def slot_frequency(schedule: ToneSchedule, slot: int) -> float:
    if slot < 0:
        raise ValueError("slot must be non-negative")
    return schedule.f0_hz + (slot % schedule.tone_count) * schedule.delta_hz


def _check_nyquist(schedule: ToneSchedule, rate: int, source: str = "") -> None:
    """Raise NyquistViolation when the schedule's top tone does not fit below
    half of ``rate``; ``source`` prefixes the message."""
    top = max(schedule.frequencies)
    if top >= rate / 2.0:
        raise NyquistViolation(f"{source}the {top:g} Hz top tone needs a sample rate "
                               f"above {2 * top:.0f} Hz, got {rate} Hz")


def _envelope(duration: int, ramp: int) -> np.ndarray:
    env = np.ones(duration)
    if ramp > 0:
        up = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
        env[:ramp] = up
        env[duration - ramp :] = up[::-1]
    return env


def synthesize(schedule: ToneSchedule, start_slot: int, n_slots: int,
               rate: int = DEFAULT_RATE) -> PcmBuffer:
    """Render ``n_slots`` consecutive slots, one raised-cosine pulse each.

    Peak amplitude is half full scale so concurrent program audio has
    headroom; silence fills the tail of every period.
    """
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    if start_slot < 0:
        raise ValueError("start_slot must be non-negative")
    _check_nyquist(schedule, rate)
    period = round(schedule.pulse_period_ms * rate / 1000.0)
    duration = round(schedule.pulse_duration_ms * rate / 1000.0)
    ramp = round(schedule.ramp_ms * rate / 1000.0)
    env = _envelope(duration, ramp)
    t = np.arange(duration) / rate
    out = np.zeros(n_slots * period, dtype=np.int16)
    for i in range(n_slots):
        f = slot_frequency(schedule, start_slot + i)
        tone = 0.5 * FULL_SCALE * np.sin(2.0 * np.pi * f * t) * env
        out[i * period : i * period + duration] = np.round(tone).astype(np.int16)
    return PcmBuffer(sample_rate=rate, samples=out)


# windows per _estimate_windows call, and per onset probe product, in
# detect_pulses
_CHUNK = 128


def _smooth_size(n: int) -> int:
    """The smallest integer >= ``n`` with no prime factor above 5: a size
    the FFT handles fast."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _estimate_windows(frames: np.ndarray, rate: int, f_min: float,
                      f_max: float) -> list[tuple[float, float] | None]:
    """Dominant frequency of every row of ``frames`` (windows x samples):
    (frequency_hz, confidence in [0, 1]), or None for silence / no clean pitch.

    A window's normalized autocorrelation is r[tau] =
    sum x[n]x[n+tau] / sqrt(sum_head x^2 * sum_tail x^2) for tau 0..tau_max+1.
    The candidate lag range is [rate/f_max, rate/f_min]; the accepted peak is
    the first local maximum with r >= ``PEAK_THRESHOLD`` after the first zero
    crossing of r, refined by parabolic interpolation over its neighbors.

    Everything runs once over the whole block. The autocorrelation is one
    ``rfft``/``irfft`` pair along the rows at m = ``_smooth_size(n + tau_hi
    + 1)``: zero padding to m >= n + tau keeps the circular product's wrapped
    terms out of lag tau, so lags 0..tau_hi are the linear autocorrelation.
    The power spectrum is re**2 + im**2, elementwise: a batched transform
    gives each row the bits of a one-row call, but ``spec * conj(spec)``
    over a 2-D block does not. Each row's result therefore depends on that
    row alone, so ``detect_pulses`` passes each distinct window once: the
    tool's own media repeat a window whenever a tone recurs at the same
    phase against the hop grid.
    """
    count, n = frames.shape
    out: list[tuple[float, float] | None] = [None] * count
    squares = frames * frames
    rms = np.sqrt(np.mean(squares, axis=1))
    loud = np.flatnonzero(~(rms < FULL_SCALE * 10.0 ** (SILENCE_DBFS / 20.0)))

    tau_min = max(2, int(rate // f_max))
    tau_max = min(int(math.ceil(rate / f_min)), n - 2)
    if tau_min >= tau_max or loud.size == 0:
        return out
    if loud.size < count:
        frames, squares = frames[loud], squares[loud]
    tau_hi = tau_max + 1
    m = _smooth_size(n + tau_hi + 1)
    spec = np.fft.rfft(frames, m, axis=1)
    power = np.square(spec.real) + np.square(spec.imag)
    ac = np.fft.irfft(power, m, axis=1)[:, : tau_hi + 1]
    energy = np.cumsum(squares, axis=1)
    head = energy[:, n - 1 - np.arange(tau_hi + 1)]
    tail = energy[:, -1:] - np.concatenate((np.zeros((loud.size, 1)), energy[:, :tau_hi]), axis=1)
    denom = np.sqrt(head * tail)
    r = np.zeros_like(ac)
    np.divide(ac, denom, out=r, where=denom > 0)

    below = r[:, 1:] <= 0.0
    zc = below.argmax(axis=1) + 1
    lo = np.maximum(zc + 1, tau_min)
    # cand runs over 1..tau_max; r[:, cand] must be a qualifying local maximum
    mid = r[:, 1:-1]
    peak = ((mid >= PEAK_THRESHOLD) & (mid >= r[:, :-2]) & (mid >= r[:, 2:])
            & (np.arange(1, tau_hi) >= lo[:, None]))
    rows = np.flatnonzero(peak.any(axis=1) & below.any(axis=1))
    tau = peak[rows].argmax(axis=1) + 1
    a, b, c = r[rows, tau - 1], r[rows, tau], r[rows, tau + 1]
    # parabolic refinement of each accepted peak over its two neighbors
    curve = a - 2.0 * b + c
    flat = np.abs(curve) < 1e-12
    shift = np.where(flat, 0.0, 0.5 * (a - c) / np.where(flat, 1.0, curve))
    shift = np.clip(shift, -0.5, 0.5)
    freqs = rate / (tau + shift)
    confs = np.clip(b - 0.25 * (a - c) * shift, 0.0, 1.0)
    for i, freq, conf in zip(loud[rows].tolist(), freqs.tolist(), confs.tolist()):
        out[i] = (freq, conf)
    return out


def _tone_indices(schedule: ToneSchedule, frequencies: np.ndarray) -> np.ndarray:
    """Alphabet index of the tone nearest each entry of ``frequencies``, in
    one array pass; -1 where the entry lies farther than delta/2 from every
    schedule tone."""
    k = np.clip(np.rint((frequencies - schedule.f0_hz) / schedule.delta_hz),
                0, schedule.tone_count - 1)
    far = np.abs(frequencies - (schedule.f0_hz + k * schedule.delta_hz)) > schedule.delta_hz / 2.0
    return np.where(far, -1, k).astype(np.intp)


def resolve_emission(schedule: ToneSchedule, tone: int,
                     playout_ts: Timestamp) -> Timestamp:
    """Latest slot at or before playout that carries alphabet index ``tone``.

    Raises Ambiguous when no such slot has started yet.
    """
    if playout_ts < schedule.epoch_ts:
        raise Ambiguous("playout precedes the schedule epoch")
    elapsed = playout_ts - schedule.epoch_ts
    latest = elapsed // schedule.pulse_period_ms
    if latest < tone:
        raise Ambiguous(f"tone {tone} has no slot at or before playout")
    slot = latest - (latest - tone) % schedule.tone_count
    return schedule.epoch_ts + slot * schedule.pulse_period_ms


def detect_pulses(
    pcm: PcmBuffer,
    playout_clock: Callable[[int], Timestamp],
    schedule: ToneSchedule,
    device_id: str = "",
) -> tuple[list[DetectionRecord], Counter]:
    """Scan a PCM stream for schedule pulses: one audio record per pulse,
    carrying the measured frequency and its confidence, and the tally of the
    windows that gave none.

    ``playout_clock`` maps a sample index to the device-local playout
    timestamp of that sample. Consecutive windows that resolve to the same
    tone merge into one pulse whose playout is the start of the first window
    actually beginning inside the pulse; a window may only open a pulse if
    its own tone is already sounding at the window head, otherwise every
    measurement would be biased early by up to a window length (a broadband
    energy check is not enough, the head may hold the previous pulse's loud
    tail). Unresolvable windows are skipped and tallied.

    Everything up to the pulses runs per distinct window, in array passes:
    the windows' keys are slices of one byte blob of the stream, the
    distinct windows' tone indices come from one ``_tone_indices`` call, and
    the head and tail onset probes of up to ``_CHUNK`` distinct windows of
    one tone are one real matrix product each. The runs of one tone are
    read off the boundaries of the per-window tone array, and only the loop
    over a run's opener windows (emit, duplicate or ambiguous) is Python.
    The records and tallies are those of the window-by-window scan.
    """
    x = np.asarray(pcm.samples, dtype=np.float64)
    rate = pcm.sample_rate
    f_lo = max(50.0, schedule.f0_hz - schedule.delta_hz)
    f_hi = min(max(schedule.frequencies) + schedule.delta_hz, rate / 2.0 - 1.0)
    period_ms = schedule.pulse_period_ms

    tally: Counter = Counter()
    starts = range(0, x.size - DETECT_WINDOW + 1, DETECT_HOP)
    if not starts:
        return [], tally
    # Distinct windows, estimated a chunk at a time. _estimate_windows
    # computes each row from that row alone (row-wise transforms, elementwise
    # ops, mean and cumsum along the row), so equal windows get equal
    # estimates and each distinct one is estimated once. ``first`` holds the
    # window number of each distinct window's first occurrence, ascending;
    # ``keys`` maps each window to its distinct window.
    blob = pcm.samples.tobytes()
    size = pcm.samples.itemsize
    owner: dict[bytes, int] = {}
    first, keys = np.unique([owner.setdefault(blob[s * size : (s + DETECT_WINDOW) * size], w)
                             for w, s in enumerate(starts)], return_inverse=True)
    windows = np.lib.stride_tricks.sliding_window_view(x, DETECT_WINDOW)[::DETECT_HOP]
    distinct: list[tuple[float, float] | None] = []
    for c in range(0, first.size, _CHUNK):
        rows = first[c : c + _CHUNK]
        # audio without repeats gives consecutive rows: slice, no gather copy
        chunk = (windows[rows[0] : rows[-1] + 1] if rows[-1] - rows[0] == rows.size - 1
                 else windows[rows])
        distinct += _estimate_windows(chunk, rate, f_lo, f_hi)

    # tone index of each distinct window, -1 for no estimate or an unknown tone
    found = [d for d, est in enumerate(distinct) if est is not None]
    tone = np.full(first.size, -1, dtype=np.intp)
    tone[found] = _tone_indices(schedule, np.array([distinct[d][0] for d in found]))
    unknown = np.zeros(first.size, dtype=bool)
    unknown[found] = tone[found] < 0
    if (misses := int(np.count_nonzero(unknown[keys]))):
        tally["unknown_tone"] += misses

    # Narrowband onset probe. A Hann-weighted single-bin transform at the
    # run's nominal tone keeps the neighboring tone (one delta away) out of
    # the measurement; the head/tail ratio then says whether the tone was
    # already sounding when the window began. The 0.93 threshold sits just
    # under the attenuation a window aligned with the pulse onset suffers
    # from the raised-cosine ramp, so onset-aligned windows qualify and
    # windows more than a couple of milliseconds early do not. Each tone's
    # tapered phasor is two real rows, cosine and sine (a complex one would
    # cast the whole segment matrix to complex), and the distinct windows of
    # one tone are probed together: one product takes the heads and one the
    # tails of up to _CHUNK of them.
    probe_len = DETECT_WINDOW // 2
    onset_ratio = 0.93
    toned = np.flatnonzero(tone >= 0)
    by_tone = toned[np.argsort(tone[toned], kind="stable")]
    sounding, lows = np.unique(tone[by_tone], return_index=True)
    bounds = lows.tolist() + [by_tone.size]
    theta = (2.0 * np.pi * (schedule.f0_hz + sounding[:, None] * schedule.delta_hz)
             * np.arange(probe_len) / rate)
    taper = np.hanning(probe_len)
    phasors = np.stack((np.cos(theta) * taper, np.sin(theta) * taper), axis=1)
    probes = np.lib.stride_tricks.sliding_window_view(x, probe_len)
    head, tail = np.empty(first.size), np.empty(first.size)
    for phasor, lo, hi in zip(phasors, bounds, bounds[1:]):
        for c in range(lo, hi, _CHUNK):
            rows = by_tone[c : min(c + _CHUNK, hi)]
            at = first[rows] * DETECT_HOP
            head[rows] = np.hypot(*(phasor @ probes[at].T))
            tail[rows] = np.hypot(*(phasor @ probes[at + DETECT_WINDOW - probe_len].T))
    ref = np.maximum(head[toned], tail[toned])
    opens = np.zeros(first.size, dtype=bool)
    opens[toned] = (ref > 0.0) & (head[toned] >= onset_ratio * ref)

    # runs of one tone, and the windows in them that may open a pulse
    per_window = tone[keys]
    cuts = np.flatnonzero(np.diff(per_window)) + 1
    run_lo = np.concatenate(([0], cuts))
    run_hi = np.concatenate((cuts, [per_window.size]))
    keep = per_window[run_lo] >= 0
    run_lo, run_hi = run_lo[keep], run_hi[keep]
    openers = np.flatnonzero(opens[keys])
    run_openers = zip(per_window[run_lo].tolist(), np.searchsorted(openers, run_lo).tolist(),
                     np.searchsorted(openers, run_hi).tolist())
    openers, keys = openers.tolist(), keys.tolist()

    detections: list[DetectionRecord] = []
    last_seen: dict[int, Timestamp] = {}
    for k, a, b in run_openers:
        # A window that fails to resolve is skipped, not the whole pulse:
        # the opener probe can fire a hair before the true onset, putting
        # the playout just ahead of a zero-latency slot, and the next
        # qualifying window then resolves the same pulse cleanly.
        emitted = False
        for w in openers[a:b]:
            freq, conf = distinct[keys[w]]
            playout = playout_clock(starts[w])
            if k in last_seen and playout - last_seen[k] < period_ms / 2.0:
                tally["duplicate_pulse"] += 1
                emitted = True
                break
            try:
                emission = resolve_emission(schedule, k, playout)
            except Ambiguous:
                tally["ambiguous"] += 1
                continue
            last_seen[k] = playout
            detections.append(DetectionRecord(AUDIO, device_id, emission, playout,
                                              frequency=freq, confidence=conf))
            emitted = True
            break
        if not emitted:
            tally["onset_rejected"] += 1
    return detections, tally


# --- WAV I/O ------------------------------------------------------------------

def write_wav(path: str | Path, pcm: PcmBuffer) -> None:
    # opened here, not by wave.open: a writer whose own open fails raises
    # again from its __del__
    with open(path, "wb") as f, wave.open(f, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(pcm.sample_rate)
        w.writeframes(pcm.samples.astype("<i2").tobytes())


def read_wav(path: str | Path) -> PcmBuffer:
    """A mono 16-bit linear PCM WAV file. Any other audio, a truncated or
    malformed file, or a data chunk shorter than it declares raises
    ValueError naming the file."""
    try:
        with wave.open(str(path), "rb") as w:
            if w.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono audio")
            if w.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit samples")
            if w.getcomptype() != "NONE":
                raise ValueError(f"{path}: expected linear PCM")
            frames = w.getnframes()
            raw = w.readframes(frames)
            rate = w.getframerate()
    except EOFError:
        raise ValueError(f"{path}: truncated WAV file") from None
    except wave.Error as exc:
        raise ValueError(f"{path}: malformed WAV file ({exc})") from None
    if len(raw) != 2 * frames:
        raise ValueError(f"{path}: data chunk declares {frames} frames but holds "
                         f"{len(raw) // 2}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.int16)
    return PcmBuffer(sample_rate=rate, samples=samples)


def _sidecar(path: str | Path) -> Path:
    p = Path(path)
    return p.with_suffix(p.suffix + ".json")


def write_wav_manifest(path: str | Path, device_id: str, schedule: ToneSchedule,
                       stream_start_ts: Timestamp, session: dict | None = None) -> None:
    """JSON sidecar describing a WAV capture: identity, timing, schedule."""
    doc = {
        "device_id": device_id,
        "stream_start_ts": stream_start_ts,
        "schedule": asdict(schedule),
        "session": session or {},
    }
    _sidecar(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def read_wav_manifest(path: str | Path) -> tuple[str, ToneSchedule, Timestamp, dict]:
    """The sidecar through the schema converters; a missing or bad field
    raises SchemaError naming it."""
    values = read_fields(
        read_json(_sidecar(path)),
        required=("device_id", "schedule", "stream_start_ts"),
        device_id=text, stream_start_ts=integer, session=json_object,
        schedule=lambda doc: read_tone_schedule(
            doc, required=tuple(f.name for f in fields(ToneSchedule))))
    return (values["device_id"], values["schedule"], values["stream_start_ts"],
            values.get("session", {}))


def detect_wav(path: str | Path) -> tuple[list[DetectionRecord], Counter]:
    """Detect the pulses of a WAV written with its ``write_wav_manifest``
    sidecar: ``detect_pulses``' records and tally.

    Sample s plays out at the sidecar's stream start plus s / rate seconds,
    rounded to the millisecond; a first or last sample whose playout falls
    outside 0..2**64-1 raises SchemaError naming ``stream_start_ts``.
    A rate too low to carry the schedule's top tone raises NyquistViolation:
    such audio would alias the tone onto another one.
    """
    device_id, schedule, start_ts, _ = read_wav_manifest(path)
    pcm = read_wav(path)
    rate = pcm.sample_rate
    _check_nyquist(schedule, rate, f"{path}: ")

    def playout(s: int) -> Timestamp:
        return start_ts + round(s * 1000.0 / rate)

    last = playout(max(pcm.samples.size - 1, 0))
    if not 0 <= start_ts <= last <= MAX_TIMESTAMP:
        raise SchemaError("stream_start_ts", f"the samples play out from {start_ts} to "
                                             f"{last} ms, outside 0..2**64-1")
    return detect_pulses(pcm, playout, schedule, device_id)
