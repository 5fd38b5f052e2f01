"""Aggregation metrics against brute-force oracles.

Quantiles are cross-checked against numpy's interpolating percentile, the
grouped statistics against naive per-definition recomputations, so the
library never grades its own homework.
"""

import collections
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xrprobe.exporter import read_log, write_log
from xrprobe.metrics import (
    AUDIO,
    VIDEO,
    BoxStats,
    DetectionRecord,
    boxplot_stats,
    build_report,
    classify_lip_sync,
    epoch_skew,
    inter_device_asynchrony,
    scan_log,
    write_epoch_series_csv,
)


def vid(device, emission, playout, slot=1):
    return DetectionRecord(media=VIDEO, device=device, emission_ts=emission,
                           playout_ts=playout, slot=slot)


def sample(device, playout, latency, media=VIDEO, slot=1):
    return DetectionRecord(media=media, device=device, emission_ts=playout - latency,
                           playout_ts=playout, slot=slot)


def scan_of(records, width=1000, tally=()):
    """The scan of one log's records, as ``analyze`` builds it."""
    return scan_log(records, collections.Counter(tally), width)


def slot_stats(records):
    """The report's per-(slot, media) rows of one log's records."""
    return build_report(scan_of(records))["slot_stats"]


def epoch_minima(records, width=1000, media=VIDEO):
    """One medium's (epoch, device) -> minimum latency map of the scan."""
    return scan_of(records, width).epochs[media]


class TestDetectionRecord:
    def test_defaults_and_field_order(self):
        rec = DetectionRecord("video", "u1", 1, 2)
        assert (rec.slot, rec.frequency, rec.confidence) == (None, None, None)
        assert DetectionRecord._fields == ("media", "device", "emission_ts", "playout_ts",
                                           "slot", "frequency", "confidence")
        assert scan_of([rec]).by_media == {VIDEO: [1.0], AUDIO: []}

    def test_immutable(self):
        rec = DetectionRecord("video", "u1", 1, 2)
        with pytest.raises(AttributeError):
            rec.slot = 3

    def test_replace_changes_only_that_field(self):
        rec = DetectionRecord("audio", "u1", 1, 2, 0, 600.0, 0.9)
        moved = rec._replace(slot=3)
        assert moved is not rec and rec.slot == 0
        assert moved == DetectionRecord("audio", "u1", 1, 2, 3, 600.0, 0.9)

    def test_equal_records_hash_equal(self):
        a = DetectionRecord("video", "u1", 1, 2, slot=4)
        b = DetectionRecord(media="video", device="u1", emission_ts=1, playout_ts=2, slot=4)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_log_roundtrip_gives_records(self, tmp_path):
        recs = [DetectionRecord("video", "u1", 1, 2, 1),
                DetectionRecord("audio", "u2", 3, 40, None, 612.5, 0.75)]
        write_log(tmp_path / "log.jsonl", recs)
        back = list(read_log(tmp_path / "log.jsonl"))
        assert back == recs
        assert all(type(r) is DetectionRecord for r in back)


class TestLatenciesFromLog:
    """``scan_log``'s one pass: each record's latency, negative ones dropped
    and counted."""

    def test_direct_difference(self):
        scan = scan_of([vid("u2", 1000, 1250)])
        assert scan.by_media[VIDEO] == [250.0]
        assert type(scan.by_media[VIDEO][0]) is float
        assert scan.last == {(VIDEO, "u2"): 250.0}

    def test_clock_skew_rejected_and_counted(self):
        scan = scan_of([vid("u2", 1250, 1000)])
        assert scan.by_media == {VIDEO: [], AUDIO: []}
        assert (scan.slots, scan.last) == ({}, {})
        assert scan.tally == {"clock_skew_suspected": 1}

    def test_zero_latency_kept(self):
        scan = scan_of([vid("u2", 7, 7)])
        assert scan.by_media[VIDEO] == [0.0]
        assert "clock_skew_suspected" not in scan.tally

    def test_order_preserved(self):
        recs = [vid("u2", 0, 10), vid("u3", 5, 30), vid("u2", 10, 15)]
        assert scan_of(recs).by_media[VIDEO] == [10.0, 25.0, 5.0]

    def test_returns_the_kept_records(self):
        recs = [vid("u2", 0, 10), vid("u3", 30, 5), vid("u2", 10, 15)]
        scan = scan_of(recs)
        assert scan.by_media[VIDEO] == [10.0, 5.0]
        assert scan.slots == {(1, VIDEO): [10.0, 5.0]}
        assert scan.last == {(VIDEO, "u2"): 5.0}

    def test_input_tally_unchanged(self):
        tally = collections.Counter({"crc_mismatch": 2, "clock_skew_suspected": 1, "idle": 0})
        scan = scan_log([vid("u2", 1250, 1000), vid("u3", 0, 10)], tally)
        assert tally == {"crc_mismatch": 2, "clock_skew_suspected": 1, "idle": 0}
        assert dict(scan.tally) == {"crc_mismatch": 2, "clock_skew_suspected": 2, "idle": 0}


class TestSlotStats:
    """The report's ``slot_stats``: the scan's (slot, media) groups."""

    def test_constant_group(self):
        stats = slot_stats([sample("a", 0, 200), sample("b", 1, 200)])
        assert len(stats) == 1
        assert stats[0]["mean_ms"] == 200.0
        assert stats[0]["std_ms"] == 0.0
        assert stats[0]["count"] == 2

    def test_two_point_spread(self):
        stats = slot_stats([sample("a", 0, 100), sample("b", 1, 300)])
        assert stats[0]["mean_ms"] == 200.0
        assert stats[0]["std_ms"] == 100.0  # population std

    def test_matches_two_pass_oracle(self):
        rng = random.Random(5)
        samples = [
            sample(f"u{rng.randint(2, 5)}", i, rng.randint(50, 500),
                   media=rng.choice((VIDEO, AUDIO)), slot=rng.randint(1, 5))
            for i in range(400)
        ]
        groups = collections.defaultdict(list)
        for s in samples:
            groups[(s.slot, s.media)].append(float(s.playout_ts - s.emission_ts))
        oracle = {}
        for key, vals in groups.items():
            m = sum(vals) / len(vals)
            var = sum((v - m) ** 2 for v in vals) / len(vals)
            oracle[key] = (m, math.sqrt(var), len(vals))
        stats = slot_stats(samples)
        assert len(stats) == len(oracle)
        for st_ in stats:
            m, sd, n = oracle[(st_["slot"], st_["media"])]
            assert st_["mean_ms"] == pytest.approx(m, abs=1e-12)
            assert st_["std_ms"] == pytest.approx(sd, abs=1e-12)
            assert st_["count"] == n

    def test_unslotted_samples_ignored(self):
        stats = slot_stats([sample("a", 0, 100, slot=None), sample("a", 1, 50)])
        assert len(stats) == 1
        assert stats[0]["count"] == 1


class TestEpochDeviceLatency:
    """The scan's per-medium (epoch, device) minima."""

    def test_minimum_within_epoch(self):
        s = [sample("a", 1100, 250), sample("a", 1900, 260)]
        out = epoch_minima(s, 1000, media=VIDEO)
        assert out == {(1000, "a"): 250.0}

    def test_empty_epoch_absent(self):
        s = [sample("a", 2500, 100)]
        out = epoch_minima(s, 1000, media=VIDEO)
        assert (1000, "a") not in out
        assert out == {(2000, "a"): 100.0}

    def test_brute_force_random(self):
        rng = random.Random(9)
        samples = [
            sample(f"u{rng.randint(2, 4)}", rng.randrange(0, 20_000),
                   rng.randint(10, 400))
            for _ in range(300)
        ]
        oracle = {}
        for s in samples:
            key = ((s.playout_ts // 1000) * 1000, s.device)
            oracle[key] = min(oracle.get(key, math.inf), float(s.playout_ts - s.emission_ts))
        assert epoch_minima(samples, 1000, media=VIDEO) == oracle

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            scan_log([], {}, 0)


class TestInterDeviceAsynchrony:
    def test_single_device_is_zero(self):
        epochs = {(0, "a"): 100.0, (1000, "a"): 300.0}
        rep = inter_device_asynchrony(epochs)
        assert rep.max_ms == 0.0
        assert rep.mean_ms == 0.0

    def test_worked_epoch(self):
        epochs = {(0, "a"): 100.0, (0, "b"): 150.0, (0, "c"): 130.0}
        rep = inter_device_asynchrony(epochs)
        assert rep.max_ms == pytest.approx(80.0 / 3.0)

    def test_max_and_mean_over_epochs(self):
        epochs = {
            (0, "a"): 100.0, (0, "b"): 150.0, (0, "c"): 130.0,  # A = 26.67
            (1000, "a"): 100.0, (1000, "b"): 120.0,             # A = 10
        }
        rep = inter_device_asynchrony(epochs)
        assert rep.max_ms == pytest.approx(80.0 / 3.0)
        assert rep.mean_ms == pytest.approx((80.0 / 3.0 + 10.0) / 2.0)

    def test_empty_input(self):
        rep = inter_device_asynchrony({})
        assert rep.series == ()
        assert rep.max_ms == 0.0

    def test_brute_force_random(self):
        rng = random.Random(3)
        epochs = {}
        for e in range(0, 30_000, 1000):
            for d in ("a", "b", "c", "d"):
                if rng.random() < 0.8:
                    epochs[(e, d)] = rng.uniform(50, 400)
        per_epoch = collections.defaultdict(dict)
        for (e, d), lat in epochs.items():
            per_epoch[e][d] = lat
        a_values = []
        for e in sorted(per_epoch):
            lats = list(per_epoch[e].values())
            floor = min(lats)
            a_values.append(sum(v - floor for v in lats) / len(lats))
        rep = inter_device_asynchrony(epochs)
        assert [v for _, v in rep.series] == pytest.approx(a_values, abs=1e-12)
        assert rep.max_ms == pytest.approx(max(a_values), abs=1e-12)
        assert rep.mean_ms == pytest.approx(sum(a_values) / len(a_values), abs=1e-12)

    @given(
        lats=st.dictionaries(
            st.tuples(st.integers(0, 5), st.sampled_from("abcd")),
            st.floats(min_value=0, max_value=1e4),
            min_size=1,
        ),
        shift=st.floats(min_value=-1e4, max_value=1e4),
    )
    @settings(max_examples=100)
    def test_translation_invariance(self, lats, shift):
        epochs = {(e * 1000, d): v for (e, d), v in lats.items()}
        shifted = {k: v + shift for k, v in epochs.items()}
        a = inter_device_asynchrony(epochs)
        b = inter_device_asynchrony(shifted)
        assert b.max_ms == pytest.approx(a.max_ms, abs=1e-6)
        assert b.mean_ms == pytest.approx(a.mean_ms, abs=1e-6)

    @given(
        lats=st.dictionaries(
            st.tuples(st.integers(0, 5), st.sampled_from("abcd")),
            st.floats(min_value=0, max_value=1e4),
            min_size=1,
        ),
        k=st.floats(min_value=0.01, max_value=100),
    )
    @settings(max_examples=100)
    def test_scale_covariance(self, lats, k):
        epochs = {(e * 1000, d): v for (e, d), v in lats.items()}
        scaled = {key: v * k for key, v in epochs.items()}
        a = inter_device_asynchrony(epochs)
        b = inter_device_asynchrony(scaled)
        assert b.max_ms == pytest.approx(a.max_ms * k, rel=1e-9, abs=1e-9)
        assert b.mean_ms == pytest.approx(a.mean_ms * k, rel=1e-9, abs=1e-9)

    def test_report_invariant_max_ge_mean(self):
        epochs = {(0, "a"): 1.0, (0, "b"): 9.0, (1000, "a"): 2.0, (1000, "b"): 2.5}
        rep = inter_device_asynchrony(epochs)
        assert rep.max_ms >= rep.mean_ms >= 0.0


def skew_of(records, width=1000):
    """The video-minus-audio skew of one log's records at ``width``."""
    epochs = scan_of(records, width).epochs
    return epoch_skew(epochs[VIDEO], epochs[AUDIO])


class TestIntraMediaSkew:
    """The intra-media skew metric: ``epoch_skew`` of a log's two epoch maps."""

    def test_signed_difference(self):
        out = skew_of([sample("a", 500, 250), sample("a", 700, 200, media=AUDIO)])
        assert len(out) == 1
        assert out[0].skew_ms == 50.0

    def test_missing_medium_emits_nothing(self):
        # different epochs
        assert skew_of([sample("a", 500, 250), sample("a", 1700, 200, media=AUDIO)]) == []

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from("ab"),
                      st.integers(10, 500), st.integers(10, 500)),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=100)
    def test_antisymmetry(self, pairs):
        video, audio = [], []
        for e, d, lv, la in pairs:
            t = e * 1000 + 10
            video.append(sample(d, t, lv))
            audio.append(sample(d, t, la, media=AUDIO))
        fwd = skew_of(video + audio)
        swapped = [s._replace(media=AUDIO if s.media == VIDEO else VIDEO)
                   for s in video + audio]
        rev = skew_of(swapped)
        assert len(fwd) == len(rev)
        for f, r in zip(fwd, rev):
            assert (f.device, f.epoch_start_ms) == (r.device, r.epoch_start_ms)
            assert f.skew_ms == -r.skew_ms  # integral latencies: exact


class TestClassify:
    @pytest.mark.parametrize("skew,expected", [
        (0.0, "unnoticeable"),
        (79.0, "unnoticeable"),
        (79.999, "unnoticeable"),
        (80.0, "tolerable"),
        (120.0, "tolerable"),
        (160.0, "tolerable"),
        (160.001, "unacceptable"),
        (161.0, "unacceptable"),
        (1e6, "unacceptable"),
    ])
    def test_boundaries(self, skew, expected):
        assert classify_lip_sync(skew) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            classify_lip_sync(-1.0)


class TestBoxplotStats:
    def test_constant_series(self):
        box = boxplot_stats([5, 5, 5, 5])
        assert box.median == 5.0
        assert box.q1 == box.q3 == 5.0
        assert box.outliers == ()

    def test_one_to_nine(self):
        box = boxplot_stats(range(1, 10))
        assert box.median == 5.0
        assert box.q1 == 3.0
        assert box.q3 == 7.0

    def test_outlier_flagged(self):
        box = boxplot_stats([1, 2, 3, 100])
        assert box.outliers == (100.0,)
        assert box.whisker_high <= 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            boxplot_stats([])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=150)
    def test_quartiles_match_numpy(self, values):
        box = boxplot_stats(values)
        arr = np.array(values, dtype=np.float64)
        assert box.q1 == pytest.approx(float(np.percentile(arr, 25)), rel=1e-9, abs=1e-7)
        assert box.median == pytest.approx(float(np.percentile(arr, 50)), rel=1e-9, abs=1e-7)
        assert box.q3 == pytest.approx(float(np.percentile(arr, 75)), rel=1e-9, abs=1e-7)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=150)
    def test_fence_rule(self, values):
        box = boxplot_stats(values)
        iqr = box.q3 - box.q1
        lo, hi = box.q1 - 1.5 * iqr, box.q3 + 1.5 * iqr
        inside = [v for v in values if lo <= v <= hi]
        assert box.whisker_low == min(inside)
        assert box.whisker_high == max(inside)
        assert set(box.outliers) == {v for v in values if v < lo or v > hi}
        assert box.q1 <= box.median <= box.q3


class TestBuildReport:
    def _log(self, seed=0, n=200):
        rng = random.Random(seed)
        recs = []
        for _ in range(n):
            media = rng.choice((VIDEO, AUDIO))
            emission = rng.randrange(0, 30_000)
            recs.append(DetectionRecord(
                media=media, device=f"u{rng.randint(2, 5)}",
                emission_ts=emission, playout_ts=emission + rng.randrange(0, 500),
                slot=rng.randint(1, 5),
            ))
        return recs

    def _report(self, recs):
        return build_report(scan_of(recs))

    def test_report_shape(self):
        report = self._report(self._log())
        assert set(report["mean_latency_ms"]) == {VIDEO, AUDIO}
        assert report["sample_count"]["video"] > 0
        assert VIDEO in report["inter_device_asynchrony"]
        assert "overall" in report["intra_media_skew"]
        cls = report["intra_media_skew"]["classification"]
        assert set(cls) == {"unnoticeable", "tolerable", "unacceptable"}

    def test_clock_skew_in_diagnostics(self):
        recs = self._log() + [vid("u2", 5000, 4000)]
        report = self._report(recs)
        assert report["diagnostics"]["clock_skew_suspected"] == 1

    def test_width_travels_with_maps(self):
        # the report is labelled with the width its epoch maps were built at
        report = build_report(scan_of(self._log(), 500))
        assert report["epoch_width_ms"] == 500

    def test_epoch_csv(self, tmp_path):
        path = tmp_path / "epochs.csv"
        write_epoch_series_csv(path, scan_of(self._log()))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch_start_ms,device,media,latency_ms"
        assert len(lines) > 1
