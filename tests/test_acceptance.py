"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every expected value below is recomputed from the metric definitions or from
the pipeline's quantization bounds inside this file; nothing is copied from
library internals. Brute-force oracles deliberately share only the arithmetic
that IS the definition (summation order, type-7 interpolation) so exact
equality is meaningful.
"""

import csv
import io
import json
import math
import random
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xrprobe.audio_beacon import (
    PcmBuffer,
    ToneSchedule,
    _estimate_windows,
    detect_pulses,
    synthesize,
)
from xrprobe.cli import run
from xrprobe.metrics import (
    AUDIO,
    VIDEO,
    DetectionRecord,
    boxplot_stats,
    build_report,
    classify_lip_sync,
    epoch_skew,
    inter_device_asynchrony,
    scan_log,
    write_epoch_series_csv,
)
from xrprobe.netsim import compare_logs, run_physical, run_scenario
from xrprobe.scenario import (
    ClockSpec,
    GaussianJitter,
    NetworkProfile,
    PROFILE_TARGETS,
    PipelineModel,
    SessionScenario,
    preset_scenario,
)
from xrprobe.video_beacon import detect_decode, encode_beacon, rasterize

RATE = 48_000


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_video_roundtrip(capsys):
    rng = random.Random(1001)
    scales = (3, 8, 16)
    failures = 0
    t0 = time.monotonic()
    for i in range(10_000):
        ts = rng.randrange(1 << 64)
        frame = rasterize(encode_beacon(ts), scale=scales[i % 3])
        det = detect_decode(frame, playout_ts=0)
        if det.emission_ts != ts:
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 30.0
    report(capsys, 1, ok,
           f"10000 roundtrips over scales {scales}, {failures} failures, "
           f"{elapsed:.1f} s (< 30 s)")
    assert ok


def test_criterion_2_audio_loopback(capsys):
    tones = ToneSchedule()
    n_pulses = 100  # 10 s at one pulse per 100 ms
    clean = synthesize(tones, 0, n_pulses, RATE).samples
    details = []
    all_ok = True
    for d_ms in (50, 250, 900):
        pad = np.zeros(round(d_ms * RATE / 1000.0), dtype=np.int16)
        pcm = PcmBuffer(RATE, np.concatenate([pad, clean]))
        dets, _ = detect_pulses(pcm, lambda i: i * 1000.0 / RATE, tones)
        within = sum(1 for det in dets
                     if abs((det.playout_ts - det.emission_ts) - d_ms) <= 25.0)
        frac = within / n_pulses
        all_ok = all_ok and frac >= 0.95
        details.append(f"d={d_ms}ms {within}/{n_pulses}")
    report(capsys, 2, all_ok, "; ".join(details) + " within +-25 ms (>=95%)")
    assert all_ok


def test_criterion_3_autocorrelation_accuracy(capsys):
    rng = np.random.default_rng(1003)
    n = 2048
    t = np.arange(n) / RATE
    worst_clean = worst_noisy = 0.0
    for freq in np.linspace(200.0, 4800.0, 25):
        clean = (0.4 * np.sin(2 * np.pi * freq * t) * 32767).astype(np.int16)
        est = _estimate_windows(clean[None, :].astype(np.float64), RATE, 200.0, 4800.0)[0]
        assert est is not None, f"{freq:.0f} Hz not detected"
        worst_clean = max(worst_clean, abs(est[0] - freq) / freq)

        sigma = (0.4 / math.sqrt(2.0)) / 10.0  # 20 dB below sine RMS
        noisy = np.clip(0.4 * np.sin(2 * np.pi * freq * t)
                        + rng.normal(0.0, sigma, n), -1, 1)
        noisy = (noisy * 32767).astype(np.int16)
        est = _estimate_windows(noisy[None, :].astype(np.float64), RATE, 200.0, 4800.0)[0]
        assert est is not None, f"{freq:.0f} Hz not detected at 20 dB SNR"
        worst_noisy = max(worst_noisy, abs(est[0] - freq) / freq)
    ok = worst_clean <= 0.005 and worst_noisy <= 0.01
    report(capsys, 3, ok,
           f"25 sines 200-4800 Hz: worst clean {worst_clean:.2%} (<=0.5%), "
           f"worst 20 dB SNR {worst_noisy:.2%} (<=1%)")
    assert ok


# brute-force re-derivations for criterion 4; structured independently of the
# library (linear scans, no incremental grouping), arithmetic per definition

def _brute_samples(records):
    out = []
    for r in records:
        lat = float(r.playout_ts - r.emission_ts)
        if lat >= 0:
            out.append((r.device, r.media, r.playout_ts, lat, r.slot))
    return out


def _brute_groups(samples):
    """Each medium's latencies, each (slot, media)'s, and each (media,
    device)'s last latency, in log order."""
    by_media = {"video": [], "audio": []}
    slots = {}
    last = {}
    for dev, media, _, lat, slot in samples:
        by_media[media].append(lat)
        if slot is not None:
            slots.setdefault((slot, media), []).append(lat)
        last[(media, dev)] = lat
    return by_media, slots, last


def _brute_slot_stats(samples):
    keys = sorted({(s[4], s[1]) for s in samples if s[4] is not None})
    out = []
    for slot, media in keys:
        vals = [s[3] for s in samples if s[4] == slot and s[1] == media]
        mean = sum(vals) / len(vals)
        std = math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))
        out.append((slot, media, mean, std, len(vals)))
    return out


def _brute_epoch_min(samples, width, media):
    table = {}
    for dev, med, playout, lat, _ in samples:
        if med != media:
            continue
        key = ((playout // width) * width, dev)
        if key not in table or lat < table[key]:
            table[key] = lat
    return table


def _brute_asynchrony(epoch_latency):
    series = []
    for epoch in sorted({e for e, _ in epoch_latency}):
        lats = [epoch_latency[(epoch, d)]
                for d in sorted(d for e, d in epoch_latency if e == epoch)]
        floor = min(lats)
        series.append((epoch, sum(l - floor for l in lats) / len(lats)))
    if not series:
        return (), 0.0, 0.0
    values = [v for _, v in series]
    return tuple(series), max(values), sum(values) / len(values)


def _brute_quantile(ordered, q):
    # type-7: linear interpolation between order statistics, two-sided so the
    # expression is part of the definition, not an implementation choice
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    t = pos - lo
    if t == 0.0:
        return ordered[lo]
    a, b = ordered[lo], ordered[lo + 1]
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t)


def _brute_box(values):
    ordered = sorted(float(v) for v in values)
    q1 = _brute_quantile(ordered, 0.25)
    med = _brute_quantile(ordered, 0.50)
    q3 = _brute_quantile(ordered, 0.75)
    lo = q1 - 1.5 * (q3 - q1)
    hi = q3 + 1.5 * (q3 - q1)
    inside = [v for v in ordered if lo <= v <= hi]
    outliers = tuple(v for v in ordered if v < lo or v > hi)
    return (med, q1, q3, inside[0], inside[-1], outliers)


def _brute_skew(samples, width):
    bv = _brute_epoch_min(samples, width, "video")
    ba = _brute_epoch_min(samples, width, "audio")
    return [(d, e, bv[(e, d)] - ba[(e, d)]) for e, d in sorted(bv.keys() & ba.keys())]


def _brute_box_dict(values):
    med, q1, q3, low, high, outliers = _brute_box(values)
    return {"median_ms": med, "q1_ms": q1, "q3_ms": q3, "whisker_low_ms": low,
            "whisker_high_ms": high, "outliers_ms": list(outliers)}


def _brute_lip_sync(abs_skew):
    # perceptual buckets: below 80 ms unnoticeable, up to 160 ms tolerable
    if abs_skew < 80.0:
        return "unnoticeable"
    return "tolerable" if abs_skew <= 160.0 else "unacceptable"


def _brute_report(records, tally, width):
    """The whole ``report.json`` document, each entry from its definition."""
    samples = _brute_samples(records)
    diagnostics = dict(tally)
    if len(samples) < len(records):
        diagnostics["clock_skew_suspected"] = (diagnostics.get("clock_skew_suspected", 0)
                                               + len(records) - len(samples))
    out = {"epoch_width_ms": width, "sample_count": {}, "mean_latency_ms": {},
           "inter_device_asynchrony": {}, "intra_media_skew": {},
           "diagnostics": dict(sorted(diagnostics.items())),
           "slot_stats": [{"slot": slot, "media": media, "mean_ms": mean, "std_ms": std,
                           "count": n}
                          for slot, media, mean, std, n in _brute_slot_stats(samples)]}
    for media in ("video", "audio"):
        lats = [s[3] for s in samples if s[1] == media]
        out["sample_count"][media] = len(lats)
        if lats:
            out["mean_latency_ms"][media] = sum(lats) / len(lats)
            series, amax, amean = _brute_asynchrony(_brute_epoch_min(samples, width, media))
            out["inter_device_asynchrony"][media] = {"max_ms": amax, "mean_ms": amean,
                                                     "epochs": len(series)}
    skews = _brute_skew(samples, width)
    if skews:
        classes = [_brute_lip_sync(abs(v)) for _, _, v in skews]
        out["intra_media_skew"] = {
            "overall": _brute_box_dict([v for _, _, v in skews]),
            "per_device": {
                dev: _brute_box_dict([v for d, _, v in skews if d == dev])
                | {"count": sum(d == dev for d, _, _ in skews)}
                for dev in sorted({d for d, _, _ in skews})},
            "classification": {c: classes.count(c)
                               for c in ("unnoticeable", "tolerable", "unacceptable")},
        }
    return out


def _brute_epoch_csv(records, width):
    """The ``epochs.csv`` text: every (epoch, device, media) minimum, sorted."""
    samples = _brute_samples(records)
    rows = sorted((epoch, dev, media, lat)
                  for media in ("video", "audio")
                  for (epoch, dev), lat in _brute_epoch_min(samples, width, media).items())
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["epoch_start_ms", "device", "media", "latency_ms"])
    writer.writerows(rows)
    return text.getvalue()


def _analyze(records, tally, width):
    """report.json's document and epochs.csv's text, as ``analyze`` builds them."""
    scan = scan_log(records, tally, width)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "epochs.csv"
        write_epoch_series_csv(path, scan)
        with open(path, newline="") as fh:
            return build_report(scan), fh.read()


def test_criterion_4_metric_oracle_equivalence(capsys):
    rng = random.Random(1004)
    mismatches = []
    for log_i in range(100):
        width = rng.choice((250, 500, 1000))
        records = []
        for _ in range(rng.randint(50, 1000)):
            emission = rng.randrange(0, 60_000)
            records.append(DetectionRecord(
                media=rng.choice(("video", "audio")),
                device=f"u{rng.randint(1, 5)}",
                emission_ts=emission,
                playout_ts=emission + rng.randint(-40, 1200),
                slot=rng.choice((None, rng.randint(1, 5))),
            ))
        scan = scan_log(records, Counter(), width)
        brute = _brute_samples(records)
        by_media, slots, last = _brute_groups(brute)
        epochs = {media: _brute_epoch_min(brute, width, media) for media in ("video", "audio")}
        # the rejected latencies are counted, and a zero count adds no key
        rejected = len(records) - len(brute)
        for name, lib, oracle in (
                ("by_media", scan.by_media, by_media), ("slots", scan.slots, slots),
                ("epochs", scan.epochs, epochs), ("last", scan.last, last),
                ("tally", dict(scan.tally),
                 {"clock_skew_suspected": rejected} if rejected else {})):
            if lib != oracle:
                mismatches.append((log_i, name))
        lib_report = build_report(scan)

        lib_slots = [(s["slot"], s["media"], s["mean_ms"], s["std_ms"], s["count"])
                     for s in lib_report["slot_stats"]]
        if lib_slots != _brute_slot_stats(brute):
            mismatches.append((log_i, "slot_stats"))

        for media in ("video", "audio"):
            rep = inter_device_asynchrony(scan.epochs[media], media=media, epoch_width_ms=width)
            if (rep.series, rep.max_ms, rep.mean_ms) != _brute_asynchrony(epochs[media]):
                mismatches.append((log_i, f"asynchrony_{media}"))

        lib_skew = [(s.device, s.epoch_start_ms, s.skew_ms)
                    for s in epoch_skew(scan.epochs[VIDEO], scan.epochs[AUDIO])]
        if lib_skew != _brute_skew(brute, width):
            mismatches.append((log_i, "skew"))

        lats = [lat for _, _, _, lat, _ in brute]
        box = boxplot_stats(lats)
        if (box.median, box.q1, box.q3, box.whisker_low, box.whisker_high,
                box.outliers) != _brute_box(lats):
            mismatches.append((log_i, "boxplot"))

        if lib_report != _brute_report(records, {}, width):
            mismatches.append((log_i, "report"))

    ok = not mismatches
    report(capsys, 4, ok,
           "100 random logs: scan, slot_stats, asynchrony, skew, boxplot, report match "
           f"brute force exactly ({len(mismatches)} mismatches)")
    assert ok, mismatches[:5]


@st.composite
def _random_logs(draw):
    """A log with negative latencies, unslotted records, sometimes one medium
    only, and few devices over a short span, so (epoch, device) keys repeat.
    A narrow latency range makes ties and one-off neighbours common."""
    media = draw(st.sampled_from([("video",), ("audio",), ("video", "audio")]))
    span = draw(st.sampled_from((100, 20_000)))
    low, high = draw(st.sampled_from(((-3, 3), (-60, 1500))))
    rows = draw(st.lists(st.tuples(st.sampled_from(media), st.sampled_from(("u1", "u2", "u3")),
                                   st.integers(0, span), st.integers(low, high),
                                   st.one_of(st.none(), st.integers(1, 4))),
                         max_size=120))
    return [DetectionRecord(m, dev, playout - latency, playout, slot)
            for m, dev, playout, latency, slot in rows]


@given(records=_random_logs(), width=st.integers(1, 5000),
       tally=st.dictionaries(st.sampled_from(("clock_skew_suspected", "frames_lost_uplink")),
                             st.integers(0, 9)))
@settings(max_examples=200, deadline=None)
def test_report_and_epoch_rows_match_brute_force(records, width, tally):
    negatives = sum(r.playout_ts < r.emission_ts for r in records)
    lib_report, lib_csv = _analyze(records, Counter(tally), width)
    assert lib_report == _brute_report(records, tally, width)
    assert lib_csv == _brute_epoch_csv(records, width)
    # each negative latency is counted once
    assert (lib_report["diagnostics"].get("clock_skew_suspected", 0)
            == tally.get("clock_skew_suspected", 0) + negatives)


def test_criterion_5_simulation_soundness(capsys):
    const = NetworkProfile("const100", base_one_way_ms=100.0,
                           jitter=GaussianJitter(sigma_ms=0.0))
    sc = SessionScenario(
        name="soundness", duration_s=60.0, presenter="u1",
        viewers=("u2", "u3"), join_times_s=(5.0, 10.0),
        uplink=const, downlink=const, seed=1005,
        pipeline=PipelineModel(capture_pipeline_ms=0.0, encode_up_ms=0.0,
                               render_ms=0.0, encode_down_ms=0.0, decode_ms=0.0,
                               audio_buffer_ms=0.0, audio_path_ms=0.0),
        clocks=ClockSpec(sigma_ntp_ms=0.0, sync_interval_s=64.0,
                         max_drift_ppm=0.0, initial_offset_sigma_ms=0.0),
    )
    log = run_scenario(sc)
    video = [float(r.playout_ts - r.emission_ts) for r in log.records
             if r.media == "video"]
    audio = [float(r.playout_ts - r.emission_ts) for r in log.records
             if r.media == "audio"]
    v_ok = video and all(200.0 <= v <= 243.4 for v in video)
    a_ok = audio and all(200.0 <= a <= 235.0 for a in audio)
    ok = bool(v_ok and a_ok)
    report(capsys, 5, ok,
           f"constant 200 ms one-way: video [{min(video):.1f}, {max(video):.1f}] "
           f"in [200, 243.4]; audio [{min(audio):.1f}, {max(audio):.1f}] in [200, 235] "
           f"({len(video)}+{len(audio)} samples)")
    assert ok


def test_criterion_6_profile_reproduction(capsys):
    targets = PROFILE_TARGETS
    means = {}
    amax = {}
    skew_median = {}
    skew_out_max = {}
    runtimes = {}
    for profile in targets:
        sc = preset_scenario(profile, seed=4)
        t0 = time.monotonic()
        log = run_scenario(sc)
        runtimes[profile] = time.monotonic() - t0
        scan = scan_log(log.records, log.tally)
        video, audio = scan.by_media[VIDEO], scan.by_media[AUDIO]
        means[profile] = (sum(video) / len(video), sum(audio) / len(audio))
        rep = inter_device_asynchrony(scan.epochs[VIDEO])
        amax[profile] = rep.max_ms
        abs_skews = [abs(s.skew_ms) for s in epoch_skew(scan.epochs[VIDEO], scan.epochs[AUDIO])]
        box = boxplot_stats(abs_skews)
        skew_median[profile] = box.median
        skew_out_max[profile] = max(box.outliers, default=0.0)

    order_ok = (means["ethernet"][0] < means["fiveg"][0] < means["wifi"][0]
                and means["ethernet"][1] < means["fiveg"][1] < means["wifi"][1])
    async_ok = (amax["ethernet"] < 80.0 and amax["fiveg"] < 80.0
                and amax["wifi"] > 300.0)
    skew_ok = (skew_out_max["wifi"] > 160.0
               and classify_lip_sync(skew_out_max["wifi"]) == "unacceptable"
               and skew_median["ethernet"] < 100.0
               and skew_median["fiveg"] < 50.0)
    tol_ok = all(abs(means[p][i] - targets[p][i]) <= 0.15 * targets[p][i]
                 for p in targets for i in (0, 1))
    time_ok = all(rt < 60.0 for rt in runtimes.values())
    ok = order_ok and async_ok and skew_ok and tol_ok and time_ok

    summary = "; ".join(
        f"{p} V {means[p][0]:.1f}/A {means[p][1]:.1f} (targets {targets[p][0]}/"
        f"{targets[p][1]}), Amax {amax[p]:.1f}" for p in targets)
    report(capsys, 6, ok,
           summary + f"; skew medians eth {skew_median['ethernet']:.1f} "
           f"fiveg {skew_median['fiveg']:.1f}, wifi outlier max "
           f"{skew_out_max['wifi']:.0f} ms; runtimes "
           + "/".join(f"{runtimes[p]:.1f}s" for p in targets))
    assert order_ok, means
    assert async_ok, amax
    assert skew_ok, (skew_median, skew_out_max)
    assert tol_ok, means
    assert time_ok, runtimes


@pytest.mark.parametrize("skew_ms, expected", [
    (79.0, "unnoticeable"),
    (80.0, "tolerable"),
    (120.0, "tolerable"),
    (160.0, "tolerable"),
    (161.0, "unacceptable"),
])
def test_criterion_7_lip_sync_classification(skew_ms, expected, capsys):
    got = classify_lip_sync(skew_ms)
    ok = got == expected
    report(capsys, 7, ok, f"{skew_ms:.0f} ms -> {got} (expected {expected})")
    assert ok


def test_criterion_8_determinism(capsys, tmp_path):
    doc = {"profile": "ethernet", "name": "determinism", "duration_s": 20.0,
           "viewers": ["u2", "u3", "u4", "u5"],
           "join_times_s": [4.0, 8.0, 12.0, 16.0]}
    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps(doc))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["simulate", "--scenario", str(sc_path),
                    "--seed", "42", "--out", str(out)]) == 0
        outs.append(out)
    capsys.readouterr()
    identical = ((outs[0] / "log.jsonl").read_bytes() == (outs[1] / "log.jsonl").read_bytes()
                 and (outs[0] / "tally.json").read_bytes() == (outs[1] / "tally.json").read_bytes())

    sc = preset_scenario("ethernet", name="determinism", duration_s=20.0,
                         viewers=("u2", "u3", "u4", "u5"),
                         join_times_s=(4.0, 8.0, 12.0, 16.0))
    physical, symbolic = run_physical(sc, tmp_path / "phys", seed=42)
    agreement = compare_logs(physical.records, symbolic.records)
    ok = identical and agreement >= 0.99
    report(capsys, 8, ok,
           f"seed 42 logs byte-identical: {identical}; physical/symbolic "
           f"agreement {agreement:.4f} (>= 0.99, {len(physical.records)} records)")
    assert ok
