"""Frequency-coded tone beacons for the audio path.

The presenter emits a short sine pulse every ``pulse_period_ms``; the pulse
frequency encodes the emission slot index modulo the alphabet size, so a
detected frequency plus a rough playout time pins the emission instant as
long as end-to-end delay stays inside the ambiguity window
(tone_count * pulse_period_ms, 3.2 s with defaults).

Detection knows the alphabet: ``detect_pulses`` names each window of the
stream by a tone bank, Hann-tapered single-bin magnitudes at the schedule's
tones and halfway between and just outside them, in one single-precision
real matrix product per chunk of windows; the few windows whose name that
product's error bound cannot decide are named again in double precision, so
every name is the double-precision one. A record's frequency and confidence
are measured on its pulse's opening window alone: normalized
autocorrelation, first qualifying peak after the first zero crossing,
parabolic refinement of the peak lag, as one batched real transform pair at
the smallest 5-smooth size that gives the linear autocorrelation over the
lags searched (2,160 points for a 2,048-sample window).
"""

from __future__ import annotations

import functools
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
# a window whose RMS falls below this is silence
SILENCE_FLOOR = FULL_SCALE * 10.0 ** (SILENCE_DBFS / 20.0)


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
    frequencies = schedule.frequencies
    for i in range(n_slots):
        f = frequencies[(start_slot + i) % schedule.tone_count]
        tone = 0.5 * FULL_SCALE * np.sin(2.0 * np.pi * f * t) * env
        out[i * period : i * period + duration] = np.round(tone).astype(np.int16)
    return PcmBuffer(sample_rate=rate, samples=out)


# windows per tone-bank product and per _estimate_windows call in detect_pulses
_CHUNK = 256


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
    row alone, whatever block it is passed in.
    """
    count, n = frames.shape
    out: list[tuple[float, float] | None] = [None] * count
    squares = frames * frames
    rms = np.sqrt(np.mean(squares, axis=1))
    loud = np.flatnonzero(~(rms < SILENCE_FLOOR))

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


# A loud window is named by its top tone-bank row when that row holds at
# least this fraction of s, the share of the bank's power a pure tone puts
# in its own row. At 48 kHz the rows lie 2.56 bins apart, past the +-2-bin
# Hann mainlobe (s = 0.999) and within twice it, so a tone off the rows
# splits its power between the two nearest, s/2 each at the midpoint: a top
# row at s/2 or more has one component nearer to it than to any other row.
# Below that the power is spread (two like tones, noise, a pulse fragment
# too short to resolve). Where the mainlobes overlap, s falls (0.85 at
# 96 kHz, 0.43 at 192 kHz) and s/2 still names a pure tone by its nearest
# row; at lower rates a tone 2 bins off every row meets only sidelobes.
_TOP_SHARE = 0.5
# A window may open a pulse when its head probe reads at least this fraction
# of the larger of its head and tail probes. Under the 5 ms raised-cosine
# ramp an onset-aligned window's head reads 0.98 of its tail, one starting
# 2 ms early 0.94 and 3 ms early 0.89: 0.93 admits at most about 2 ms early.
_ONSET_RATIO = 0.93


@functools.lru_cache(maxsize=8)
def _tone_bank(rate: int, f0_hz: float, delta_hz: float,
               tone_count: int) -> tuple[np.ndarray, np.ndarray, float, tuple[float, float]]:
    """The (DETECT_HOP, columns) matrix that turns the stream's blocks into
    every window's bank and onset probes, in double and in single precision;
    s, the least share of the bank's power a pure schedule tone puts in its
    own row; and the single-precision error bound per unit of sample norm
    of a bank value and of a probe value.

    Bank row j is f0 + (j - 1) * delta / 2, so odd row 2k + 1 is tone k; the
    onset probes are the tones over a half window. Each is a Hann-tapered
    single-bin transform, a cosine and a sine column per DETECT_HOP-sample
    section: a window's value is the sum of its sections' products with the
    blocks it spans.

    The bound. int16 samples are exact in single precision and each
    coefficient is rounded once, so every entry of the single-precision
    product is a DETECT_HOP-term dot product whose error is at most about
    (DETECT_HOP + 1) * u * sum |x c| (u = 2**-24: DETECT_HOP roundings in
    the sum, one in the coefficient). A window value therefore lies within
    E = (DETECT_HOP + slack) * u * |x_w| * |hann_N| of the exact value, re
    and im alike (Cauchy-Schwarz; |x_w| is the 2-norm of the window's
    samples, the root of its energy, and hann_N the taper of its N
    samples). The slack of 8 covers the second-order terms and the
    double-precision path's own rounding, which is 2**29 times finer. From
    that:
      - a row's power P errs by at most 2E sqrt(2P~) + 4E**2, P~ the
        single-precision power;
      - the bank's total power over its R rows by at most
        2E sqrt(2R sum P~) + 4R E**2;
      - a probe's magnitude by at most sqrt(2) E_half, E_half the bound of
        a half window's value.
    """
    def phasors(freqs: np.ndarray, taper: np.ndarray) -> np.ndarray:
        theta = 2.0 * np.pi * freqs[:, None] * np.arange(taper.size) / rate
        return np.concatenate((np.cos(theta) * taper, np.sin(theta) * taper))

    freqs = f0_hz + (np.arange(2 * tone_count + 1) - 1) * delta_hz / 2.0
    tones = freqs[1::2]
    taper, half = np.hanning(DETECT_WINDOW), np.hanning(DETECT_WINDOW // 2)
    bank = phasors(freqs, taper)
    probes = phasors(tones, half)
    pure = bank @ np.sin(2.0 * np.pi * tones * np.arange(DETECT_WINDOW)[:, None] / rate)
    power = np.square(pure[: freqs.size]) + np.square(pure[freqs.size :])
    matrix = np.hstack([m[:, q : q + DETECT_HOP].T for m in (bank, probes)
                        for q in range(0, m.shape[1], DETECT_HOP)])
    unit = (DETECT_HOP + 8) * 2.0 ** -24
    return (matrix, matrix.astype(np.float32),
            float((power[1::2].diagonal() / power.sum(axis=0)).min()),
            (unit * float(np.linalg.norm(taper)), unit * float(np.linalg.norm(half))))


def _bank_names(product: np.ndarray, squares: np.ndarray, first: np.ndarray, tones: int,
                s: float, errors: tuple[float, float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the tone bank names the windows whose first blocks are the rows
    ``first`` of ``product``, the blocks' product with ``_tone_bank``'s
    matrix, and of ``squares``, their energies: each window's tone and
    opener flag as in ``_name_windows``, and whether a product whose bank
    and probe values err by at most ``errors`` per unit of sample norm
    might name the window or flag it otherwise."""
    rows = 2 * tones + 1
    span = DETECT_WINDOW // DETECT_HOP  # the blocks of one window
    full = product[:, : span * 2 * rows].reshape(-1, span, 2, rows)
    half = product[:, span * 2 * rows :].reshape(-1, span // 2, 2, tones)
    power = np.square(sum(full[first + q, q] for q in range(span))).sum(axis=1)
    energy = sum(squares[first + q] for q in range(span))
    loud = energy >= DETECT_WINDOW * SILENCE_FLOOR ** 2
    top = power.argmax(axis=1)
    best, total = power[np.arange(first.size), top], power.sum(axis=1)
    named = loud & (best >= _TOP_SHARE * s * total)
    tone = np.where(named, np.where(top % 2 == 1, top // 2, -2), -1)
    at = np.flatnonzero(tone >= 0)
    k, head_block = tone[at], first[at]
    # each named window's probes at its tone: its head, then its tail half
    head, tail = (np.hypot(*sum(half[head_block + h + q, q, :, k] for q in range(span // 2)).T)
                  for h in (0, span // 2))
    opens = np.zeros(first.size, dtype=bool)
    opens[at] = (head > 0.0) & (head >= _ONSET_RATIO * np.maximum(head, tail))

    # the decisions _tone_bank's bound leaves open: the top row's share,
    # and whether it tops the runner-up
    e = errors[0] * np.sqrt(energy)

    def err(p: np.ndarray, terms: int = 1) -> np.ndarray:
        return 2.0 * e * np.sqrt(2.0 * terms * p) + 4.0 * terms * e * e

    second = np.partition(power, rows - 2, axis=1)[:, rows - 2]
    low, high, share = best - err(best), best + err(best), _TOP_SHARE * s
    unsure = loud & ~(high < share * (total - err(total, rows))) & ~(
        (low > share * (total + err(total, rows))) & (low > second + err(second)))
    # and, for a named window, its head probe against its tail probe
    eh, et = (math.sqrt(2.0) * errors[1]
              * np.sqrt(sum(squares[head_block + h + q] for q in range(span // 2)))
              for h in (0, span // 2))
    unsure[at] |= ~((head - eh > _ONSET_RATIO * (tail + et))
                    | (head + eh < _ONSET_RATIO * (tail - et)))
    return tone, opens, unsure


def _double_names(samples: np.ndarray, windows: np.ndarray, tones: int, bank: np.ndarray,
                  s: float) -> tuple[np.ndarray, np.ndarray]:
    """The tone and opener flag of each window ``windows`` of ``samples``
    by the double-precision product with its own blocks."""
    span = DETECT_WINDOW // DETECT_HOP
    blocks = samples[windows[:, None] * DETECT_HOP + np.arange(DETECT_WINDOW)]
    blocks = blocks.reshape(-1, DETECT_HOP).astype(np.float64)
    tone, opens, _ = _bank_names(blocks @ bank, np.einsum("ij,ij->i", blocks, blocks),
                                 np.arange(windows.size) * span, tones, s, (0.0, 0.0))
    return tone, opens


def _name_windows(samples: np.ndarray, rate: int,
                  schedule: ToneSchedule) -> tuple[np.ndarray, np.ndarray]:
    """What the tone bank names each window of ``samples`` (DETECT_WINDOW
    samples, one every DETECT_HOP): its tone k, -2 for an unknown tone or -1
    for none; and whether the window may open a pulse of its tone.

    The bank and the onset probes of ``_CHUNK`` windows are one real matrix
    product with the DETECT_HOP-sample blocks they span, in single
    precision. A window whose name or flag lies within ``_tone_bank``'s
    error bound of a threshold is named again by the double-precision
    product with its own blocks, so every name and flag is the
    double-precision one."""
    count = max(0, (samples.size - DETECT_WINDOW) // DETECT_HOP + 1)
    tones = schedule.tone_count
    span = DETECT_WINDOW // DETECT_HOP  # the blocks of one window
    bank, bank32, s, errors = _tone_bank(rate, schedule.f0_hz, schedule.delta_hz, tones)
    tone = np.empty(count, dtype=np.intp)
    opens = np.empty(count, dtype=bool)
    unsure = np.empty(count, dtype=bool)
    for lo in range(0, count, _CHUNK):
        n = min(_CHUNK, count - lo)
        chunk = samples[lo * DETECT_HOP : (lo + n + span - 1) * DETECT_HOP]
        chunk = chunk.reshape(-1, DETECT_HOP).astype(np.float64)
        product = (chunk.astype(np.float32) @ bank32).astype(np.float64)
        squares = np.einsum("ij,ij->i", chunk, chunk)
        tone[lo : lo + n], opens[lo : lo + n], unsure[lo : lo + n] = _bank_names(
            product, squares, np.arange(n), tones, s, errors)
    if (redo := np.flatnonzero(unsure)).size:
        tone[redo], opens[redo] = _double_names(samples, redo, tones, bank, s)
    return tone, opens


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
    timestamp of that sample. The tone bank names each window
    (``_name_windows``): a tone, an ``unknown_tone`` or nothing. Consecutive
    windows of one tone merge into one pulse whose playout is the start of
    the first window actually beginning inside the pulse; a window may only
    open a pulse if its own tone is already sounding at the window head,
    otherwise every measurement would be biased early by up to a window
    length (a broadband energy check is not enough, the head may hold the
    previous pulse's loud tail). Unresolvable windows are skipped and
    tallied. Only the loop over a run's opener windows is Python. The
    frequency and confidence are ``_estimate_windows``' of each pulse's
    opener; a pulse whose opener gives no clean pitch is recorded without.
    """
    rate = pcm.sample_rate
    tally: Counter = Counter()
    tone, opens = _name_windows(pcm.samples, rate, schedule)
    if (unknown := int(np.count_nonzero(tone == -2))):
        tally["unknown_tone"] += unknown

    # runs of one tone, and the windows in them that may open a pulse
    run_lo = np.flatnonzero(np.diff(tone, prepend=-3))  # -3 names no window: 0 opens a run
    run_hi = np.append(run_lo[1:], tone.size)
    keep = tone[run_lo] >= 0
    run_lo, run_hi = run_lo[keep], run_hi[keep]
    openers = np.flatnonzero(opens)
    run_openers = zip(tone[run_lo].tolist(), np.searchsorted(openers, run_lo).tolist(),
                      np.searchsorted(openers, run_hi).tolist())
    openers = openers.tolist()

    pulses: list[tuple[int, Timestamp, Timestamp]] = []  # (opener start, emission, playout)
    last_seen: dict[int, Timestamp] = {}
    for k, a, b in run_openers:
        # A window that fails to resolve is skipped, not the whole pulse:
        # the opener probe can fire a hair before the true onset, putting
        # the playout just ahead of a zero-latency slot, and the next
        # qualifying window then resolves the same pulse cleanly.
        for start in (w * DETECT_HOP for w in openers[a:b]):
            playout = playout_clock(start)
            if k in last_seen and playout - last_seen[k] < schedule.pulse_period_ms / 2.0:
                tally["duplicate_pulse"] += 1
                break
            try:
                emission = resolve_emission(schedule, k, playout)
            except Ambiguous:
                tally["ambiguous"] += 1
                continue
            last_seen[k] = playout
            pulses.append((start, emission, playout))
            break
        else:
            tally["onset_rejected"] += 1

    if not pulses:  # as from any stream shorter than one window, which has no window view
        return [], tally
    # the measured frequency and confidence of each pulse's opener window
    f_lo = max(50.0, schedule.f0_hz - schedule.delta_hz)
    f_hi = min(max(schedule.frequencies) + schedule.delta_hz, rate / 2.0 - 1.0)
    estimates: list[tuple[float, float] | None] = []
    windows = np.lib.stride_tricks.sliding_window_view(pcm.samples, DETECT_WINDOW)
    for c in range(0, len(pulses), _CHUNK):
        opened = windows[[start for start, _, _ in pulses[c : c + _CHUNK]]]
        estimates += _estimate_windows(opened.astype(np.float64), rate, f_lo, f_hi)
    return [DetectionRecord(AUDIO, device_id, emission, playout, None, *(est or ()))
            for (_, emission, playout), est in zip(pulses, estimates)], tally


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
