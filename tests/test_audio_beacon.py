"""Tone schedule, synthesis and pulse detection tests.

Frequency checks go through an FFT-peak oracle rather than the library's own
autocorrelation estimator, so synthesis and detection validate each other.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xrprobe.audio_beacon import (
    Ambiguous,
    AudioDetection,
    NyquistViolation,
    PcmBuffer,
    ToneSchedule,
    UnknownTone,
    detect_pulses,
    detect_wav,
    estimate_frequency,
    read_wav,
    read_wav_manifest,
    resolve_emission,
    slot_frequency,
    synthesize,
    write_wav,
    write_wav_manifest,
)

RATE = 48000


def fft_peak_hz(window: np.ndarray, rate: int) -> float:
    """Independent frequency oracle: location of the magnitude-spectrum peak."""
    spectrum = np.abs(np.fft.rfft(np.asarray(window, dtype=np.float64)))
    spectrum[0] = 0.0  # ignore DC
    return float(np.argmax(spectrum)) * rate / len(window)


def make_sine(freq: float, n: int, rate: int = RATE, amp: float = 0.4,
              rng: np.random.Generator | None = None, snr_db: float | None = None):
    t = np.arange(n) / rate
    x = amp * np.sin(2 * math.pi * freq * t)
    if snr_db is not None:
        sigma = (amp / math.sqrt(2.0)) / (10.0 ** (snr_db / 20.0))
        x = x + rng.normal(0.0, sigma, size=n)
    return np.clip(x * 32767, -32768, 32767).astype(np.int16)


class TestSchedule:
    def test_slot_frequencies(self):
        sched = ToneSchedule()
        assert slot_frequency(sched, 0) == 600.0
        assert slot_frequency(sched, 31) == 4320.0
        assert slot_frequency(sched, 32) == 600.0  # modulo wrap

    def test_negative_slot_rejected(self):
        with pytest.raises(ValueError):
            slot_frequency(ToneSchedule(), -1)

    def test_ambiguity_window(self):
        assert ToneSchedule().ambiguity_window_ms == 3200

    def test_validation(self):
        with pytest.raises(ValueError):
            ToneSchedule(pulse_duration_ms=120)  # longer than period
        with pytest.raises(ValueError):
            ToneSchedule(ramp_ms=50)  # ramps exceed pulse
        with pytest.raises(ValueError):
            ToneSchedule(tone_count=1)


class TestSynthesize:
    def test_sample_count(self):
        pcm = synthesize(ToneSchedule(), 0, 10, rate=RATE)
        assert len(pcm.samples) == 48000
        assert pcm.sample_rate == RATE

    def test_peak_amplitude(self):
        pcm = synthesize(ToneSchedule(), 0, 10, rate=RATE)
        assert int(np.abs(pcm.samples).max()) <= 16384

    def test_slot_spectra_match_schedule(self):
        sched = ToneSchedule()
        pcm = synthesize(sched, 0, 40, rate=RATE)
        period = sched.pulse_period_ms * RATE // 1000
        duration = sched.pulse_duration_ms * RATE // 1000
        bin_hz = RATE / duration
        for s in range(40):
            window = pcm.samples[s * period : s * period + duration]
            assert abs(fft_peak_hz(window, RATE) - slot_frequency(sched, s)) <= bin_hz

    def test_silence_between_pulses(self):
        sched = ToneSchedule()
        pcm = synthesize(sched, 0, 3, rate=RATE)
        period = sched.pulse_period_ms * RATE // 1000
        duration = sched.pulse_duration_ms * RATE // 1000
        for s in range(3):
            gap = pcm.samples[s * period + duration : (s + 1) * period]
            assert not gap.any()

    def test_nyquist_violation(self):
        with pytest.raises(NyquistViolation):
            synthesize(ToneSchedule(), 0, 1, rate=8000)  # 4320 Hz >= 4000

    def test_start_slot_offsets_schedule(self):
        sched = ToneSchedule()
        pcm = synthesize(sched, 5, 1, rate=RATE)
        duration = sched.pulse_duration_ms * RATE // 1000
        f = fft_peak_hz(pcm.samples[:duration], RATE)
        assert abs(f - slot_frequency(sched, 5)) <= RATE / duration

    def test_requires_positive_slot_count(self):
        with pytest.raises(ValueError):
            synthesize(ToneSchedule(), 0, 0)


class TestPcmBuffer:
    def test_rejects_stereo(self):
        with pytest.raises(ValueError):
            PcmBuffer(sample_rate=RATE, samples=np.zeros(10, dtype=np.int16), channels=2)

    def test_rejects_float_samples(self):
        with pytest.raises(ValueError):
            PcmBuffer(sample_rate=RATE, samples=np.zeros(10, dtype=np.float64))

    def test_duration(self):
        pcm = PcmBuffer(sample_rate=RATE, samples=np.zeros(4800, dtype=np.int16))
        assert pcm.duration_ms == 100.0


class TestEstimateFrequency:
    def test_pure_sine_1khz(self):
        window = make_sine(1000.0, 2048)
        freq, conf = estimate_frequency(window, RATE)
        assert abs(freq - 1000.0) <= 5.0
        assert 0.8 <= conf <= 1.0 + 1e-9

    def test_all_zero_window_is_silent(self):
        assert estimate_frequency(np.zeros(2048, dtype=np.int16), RATE) is None

    def test_noisy_sine_440hz(self):
        rng = np.random.default_rng(11)
        window = make_sine(440.0, 2048, rng=rng, snr_db=20.0)
        est = estimate_frequency(window, RATE)
        assert est is not None
        assert abs(est[0] - 440.0) <= 5.0

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            estimate_frequency(np.zeros(512, dtype=np.int16), RATE)

    def test_accuracy_sweep(self):
        # 0.5% relative error over the whole supported band
        for freq in np.linspace(200.0, 4800.0, 25):
            window = make_sine(float(freq), 2048)
            est = estimate_frequency(window, RATE)
            assert est is not None, f"{freq:.0f} Hz not detected"
            assert abs(est[0] - freq) / freq <= 0.005, f"{freq:.0f} Hz -> {est[0]:.1f}"

    def test_noisy_accuracy_sweep(self):
        rng = np.random.default_rng(23)
        for freq in np.linspace(200.0, 4800.0, 25):
            window = make_sine(float(freq), 2048, rng=rng, snr_db=20.0)
            est = estimate_frequency(window, RATE)
            assert est is not None, f"{freq:.0f} Hz not detected at 20 dB SNR"
            assert abs(est[0] - freq) / freq <= 0.01, f"{freq:.0f} Hz -> {est[0]:.1f}"

    @given(freq=st.floats(min_value=220.0, max_value=4700.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_fft_oracle(self, freq):
        window = make_sine(freq, 4096)
        est = estimate_frequency(window, RATE)
        assert est is not None
        oracle = fft_peak_hz(window, RATE)
        # both routes must agree to within one FFT bin plus the 0.5% budget
        assert abs(est[0] - oracle) <= RATE / 4096 + 0.005 * freq


class TestResolveEmission:
    def test_latest_matching_slot(self):
        sched = ToneSchedule(epoch_ts=10_000)
        f3 = slot_frequency(sched, 3)
        assert f3 == 960.0
        emission = resolve_emission(sched, f3, playout_ts=10_000 + 350)
        assert emission == 10_000 + 300

    def test_wraps_past_ambiguity_window(self):
        sched = ToneSchedule(epoch_ts=0)
        f3 = slot_frequency(sched, 3)
        # slot 35 carries the same tone one ambiguity window later
        assert resolve_emission(sched, f3, playout_ts=3550) == 3500

    def test_tolerance_boundary(self):
        sched = ToneSchedule(tone_count=4)  # tones 600..960, window 400 ms
        # 57 Hz off f_3, inside delta/2: latest slot with tone 3 is 700 ms
        assert resolve_emission(sched, 1017.0, playout_ts=1000) == 700
        with pytest.raises(UnknownTone):
            resolve_emission(sched, 1025.0, playout_ts=1000)  # 65 Hz off f_3

    def test_zero_latency_edge(self):
        sched = ToneSchedule(epoch_ts=5_000)
        assert resolve_emission(sched, sched.f0_hz, playout_ts=5_000) == 5_000

    def test_playout_before_epoch(self):
        sched = ToneSchedule(epoch_ts=5_000)
        with pytest.raises(Ambiguous):
            resolve_emission(sched, sched.f0_hz, playout_ts=4_999)

    def test_tone_not_yet_emitted(self):
        sched = ToneSchedule(epoch_ts=0)
        with pytest.raises(Ambiguous):
            resolve_emission(sched, slot_frequency(sched, 3), playout_ts=100)

    @given(
        slot=st.integers(min_value=0, max_value=500),
        delay=st.integers(min_value=0, max_value=3199),
    )
    @settings(max_examples=200)
    def test_exact_within_ambiguity_window(self, slot, delay):
        # whenever true latency < K*period the true emission is recovered
        sched = ToneSchedule(epoch_ts=1_700_000_000_000)
        emission = sched.epoch_ts + slot * sched.pulse_period_ms
        resolved = resolve_emission(sched, slot_frequency(sched, slot), emission + delay)
        assert resolved == emission


def sample_clock(rate=RATE, base=0):
    return lambda s: base + round(s * 1000.0 / rate)


class TestDetectPulses:
    def test_loopback(self):
        sched = ToneSchedule(epoch_ts=0)
        pcm = synthesize(sched, 0, 10, rate=RATE)
        dets = detect_pulses(pcm, sample_clock(), sched, device_id="u3")
        assert len(dets) == 10
        hop_ms = 512 * 1000.0 / RATE
        for d in dets:
            latency = d.playout_ts - d.emission_ts
            assert 0 <= latency <= hop_ms + sched.ramp_ms + 1
            assert d.device_id == "u3"
            assert d.confidence >= 0.8

    def test_silence_yields_nothing(self):
        pcm = PcmBuffer(sample_rate=RATE, samples=np.zeros(RATE, dtype=np.int16))
        assert detect_pulses(pcm, sample_clock(), ToneSchedule()) == []

    @pytest.mark.parametrize("shift_ms", [50, 250, 900])
    def test_known_shift(self, shift_ms):
        sched = ToneSchedule(epoch_ts=0)
        pcm = synthesize(sched, 0, 20, rate=RATE)
        pad = np.zeros(shift_ms * RATE // 1000, dtype=np.int16)
        shifted = PcmBuffer(sample_rate=RATE, samples=np.concatenate([pad, pcm.samples]))
        dets = detect_pulses(shifted, sample_clock(), sched)
        assert len(dets) >= 19
        for d in dets:
            assert abs((d.playout_ts - d.emission_ts) - shift_ms) <= 25

    def test_no_duplicate_detections(self):
        sched = ToneSchedule(epoch_ts=0)
        pcm = synthesize(sched, 0, 30, rate=RATE)
        dets = detect_pulses(pcm, sample_clock(), sched)
        by_tone = collections.defaultdict(list)
        for d in dets:
            k = round((d.frequency_hz - sched.f0_hz) / sched.delta_hz)
            by_tone[k].append(d.playout_ts)
        for onsets in by_tone.values():
            onsets.sort()
            for a, b in zip(onsets, onsets[1:]):
                assert b - a >= sched.pulse_period_ms / 2.0

    def test_off_schedule_tone_tallied(self):
        sched = ToneSchedule(tone_count=4, epoch_ts=0)
        n = RATE // 2
        pcm = PcmBuffer(sample_rate=RATE, samples=make_sine(1025.0, n))
        tally = collections.Counter()
        dets = detect_pulses(pcm, sample_clock(), sched, tally=tally)
        assert dets == []
        assert tally["unknown_tone"] >= 1

    def test_detections_sorted_by_playout(self):
        sched = ToneSchedule(epoch_ts=0)
        pcm = synthesize(sched, 0, 15, rate=RATE)
        dets = detect_pulses(pcm, sample_clock(), sched)
        playouts = [d.playout_ts for d in dets]
        assert playouts == sorted(playouts)


class TestWavIo:
    def test_wav_roundtrip(self, tmp_path):
        pcm = synthesize(ToneSchedule(), 0, 5, rate=RATE)
        path = tmp_path / "probe.wav"
        write_wav(path, pcm)
        back = read_wav(path)
        assert back.sample_rate == RATE
        assert (back.samples == pcm.samples).all()

    def test_manifest_roundtrip(self, tmp_path):
        sched = ToneSchedule(epoch_ts=1_700_000_000_000, tone_count=16)
        path = tmp_path / "probe.wav"
        write_wav(path, synthesize(sched, 0, 2, rate=RATE))
        write_wav_manifest(path, "u4", sched, stream_start_ts=42, session={"x": 1})
        device, back, start_ts, session = read_wav_manifest(path)
        assert device == "u4"
        assert back == sched
        assert start_ts == 42
        assert session == {"x": 1}

    def test_detect_from_file(self, tmp_path):
        sched = ToneSchedule(epoch_ts=0)
        pcm = synthesize(sched, 0, 8, rate=RATE)
        path = tmp_path / "loop.wav"
        write_wav(path, pcm)
        dets = detect_pulses(read_wav(path), sample_clock(), sched)
        assert len(dets) == 8

    def test_detect_wav_maps_samples_through_sidecar(self, tmp_path):
        sched = ToneSchedule(epoch_ts=5000)
        path = tmp_path / "loop.wav"
        write_wav(path, synthesize(sched, 0, 8, rate=RATE))
        write_wav_manifest(path, "u5", sched, stream_start_ts=5000)
        tally = collections.Counter()
        dets = detect_wav(path, tally)
        expected = detect_pulses(read_wav(path), sample_clock(base=5000), sched, "u5")
        assert dets == expected
        assert len(dets) == 8
        assert all(d.device_id == "u5" for d in dets)
        assert [d.emission_ts for d in dets] == [5000 + 100 * i for i in range(8)]
