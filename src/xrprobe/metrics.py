"""The detection record and latency aggregation: per-slot statistics,
inter-device asynchrony, intra-media skew, lip-sync classification, and
box-plot summaries.

``DetectionRecord`` is the one record of a beacon observation, an immutable
named tuple: the detectors return it, the simulator and the log reader build
it, and the aggregation below takes it.

A log is aggregated in one pass, ``scan_log``: it computes each record's
latency once, drops a negative one and counts it under
``clock_skew_suspected`` (the one negative-latency rule), and groups the kept
latencies every aggregate needs into a ``LatencyScan``, which carries the
log's tally charged with the rejected latencies. ``build_report``,
``write_epoch_series_csv`` and the exporter's ``render_exposition`` read only
the scan.

Everything here is plain Python arithmetic over small sample lists. That is
deliberate: results must be bit-for-bit reproducible by a naive reimplementation
of the definitions, so no vectorized shortcuts with different summation order.
Each mean and standard deviation sums the same values in log order.

Definitions:
  latency          playout_ts - emission_ts per detection record
  epoch latency    per (epoch, device): minimum latency in the epoch
                   (the minimum suppresses beacon-quantization noise)
  asynchrony A(e)  mean over devices of (L_i - min_j L_j) within epoch e
  skew             video epoch latency minus audio epoch latency, signed
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .clocks import Timestamp

VIDEO = "video"
AUDIO = "audio"
DEFAULT_EPOCH_MS = 1000

# Perceptual thresholds for audio/video skew (absolute value, ms).
SKEW_UNNOTICEABLE_MS = 80.0
SKEW_UNACCEPTABLE_MS = 160.0


class DetectionRecord(NamedTuple):
    """One decoded beacon observation, either medium: emitted at
    ``emission_ts`` and played out at ``playout_ts`` on ``device``.

    A named tuple because logs hold tens of thousands of records, and a
    tuple is several times cheaper to build than a frozen dataclass.
    """

    media: str
    device: str
    emission_ts: Timestamp
    playout_ts: Timestamp
    slot: int | None = None
    frequency: float | None = None
    confidence: float | None = None


# DetectionRecord from one iterable of all seven fields, in log order, built
# in C: no Python frame per record and no defaults filled in, so a short
# iterable makes a short tuple.
new_record = partial(tuple.__new__, DetectionRecord)


@dataclass(frozen=True)
class AsynchronyReport:
    media: str
    epoch_width_ms: int
    series: tuple[tuple[int, float], ...]  # (epoch_start_ms, A(e))
    max_ms: float
    mean_ms: float


@dataclass(frozen=True)
class LatencyScan:
    """The kept latencies of one log, grouped by one ``scan_log`` pass.

    Every list keeps log order. ``epochs`` maps each medium to its
    (epoch_start_ms, device) -> minimum latency, at ``width_ms``. ``last``
    maps each (media, device) to the latency of its last kept record.
    ``tally`` is the log's tally plus the rejected latencies.
    """
    width_ms: int
    by_media: dict[str, list[float]]
    slots: dict[tuple[int, str], list[float]]
    epochs: dict[str, dict[tuple[int, str], float]]
    last: dict[tuple[str, str], float]
    tally: Counter


@dataclass(frozen=True)
class SkewSample:
    device: str
    epoch_start_ms: int
    skew_ms: float


@dataclass(frozen=True)
class BoxStats:
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]


def scan_log(records: Iterable[DetectionRecord], tally: Mapping[str, int],
             epoch_width_ms: int = DEFAULT_EPOCH_MS) -> LatencyScan:
    """Group a log's latencies in one pass: by medium, by (slot, media) for
    the slotted records, as each medium's running minimum per (epoch,
    device), and as each (media, device)'s last latency.

    This is the one negative-latency rule. A beacon cannot play out before it
    was emitted, so a negative latency means the clocks disagree more than the
    measurement: the record is dropped and counted under
    ``clock_skew_suspected`` in the scan's copy of ``tally``, which is left
    as it is.
    """
    if epoch_width_ms < 1:
        raise ValueError("epoch width must be positive")
    by_media: dict[str, list[float]] = {VIDEO: [], AUDIO: []}
    slots: dict[str, defaultdict[int, list[float]]] = {VIDEO: defaultdict(list),
                                                       AUDIO: defaultdict(list)}
    epochs: dict[str, dict[tuple[int, str], float]] = {VIDEO: {}, AUDIO: {}}
    lasts: dict[str, dict[str, float]] = {VIDEO: {}, AUDIO: {}}  # media -> device -> latency
    # one lookup per record finds its medium's groups, their methods bound
    groups = {media: (by_media[media].append, slots[media], epochs[media], epochs[media].get,
                      lasts[media]) for media in by_media}
    inf = math.inf
    rejected = 0
    for media, device, emission_ts, playout_ts, slot, _, _ in records:
        latency = float(playout_ts - emission_ts)
        if latency < 0.0:
            rejected += 1
            continue
        keep, by_slot, minima, minimum, last = groups[media]
        keep(latency)
        if slot is not None:
            by_slot[slot].append(latency)
        key = (playout_ts - playout_ts % epoch_width_ms, device)  # the epoch's start
        if latency < minimum(key, inf):
            minima[key] = latency
        last[device] = latency
    charged = Counter(tally)
    if rejected:
        charged["clock_skew_suspected"] += rejected
    return LatencyScan(epoch_width_ms, by_media,
                       {(slot, media): latencies for media, by_slot in slots.items()
                        for slot, latencies in by_slot.items()}, epochs,
                       {(media, device): latency for media, by_device in lasts.items()
                        for device, latency in by_device.items()}, charged)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _population_std(values: list[float]) -> float:
    m = _mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def inter_device_asynchrony(
    epoch_latency: Mapping[tuple[int, str], float],
    media: str = VIDEO,
    epoch_width_ms: int = DEFAULT_EPOCH_MS,
) -> AsynchronyReport:
    """Per-epoch mean excess latency over the fastest device, then max/mean.

    Within each epoch the fastest device is the reference; every device's
    excess over it is averaged (the reference contributes zero). Epochs with
    a single device still yield A(e) = 0 so the series covers the whole run.
    """
    by_epoch: dict[int, list[tuple[str, float]]] = {}
    for (epoch, device), lat in epoch_latency.items():
        by_epoch.setdefault(epoch, []).append((device, lat))
    series: list[tuple[int, float]] = []
    for epoch in sorted(by_epoch):
        entries = sorted(by_epoch[epoch])  # deterministic device order
        floor = min(lat for _, lat in entries)
        excess = [lat - floor for _, lat in entries]
        series.append((epoch, sum(excess) / len(excess)))
    if not series:
        return AsynchronyReport(media, epoch_width_ms, (), 0.0, 0.0)
    values = [v for _, v in series]
    return AsynchronyReport(
        media=media,
        epoch_width_ms=epoch_width_ms,
        series=tuple(series),
        max_ms=max(values),
        mean_ms=sum(values) / len(values),
    )


def epoch_skew(video: Mapping[tuple[int, str], float],
               audio: Mapping[tuple[int, str], float]) -> list[SkewSample]:
    """Signed video-minus-audio latency for each (epoch, device) in both maps."""
    out = []
    for key in sorted(video.keys() & audio.keys()):
        epoch, device = key
        out.append(SkewSample(device=device, epoch_start_ms=epoch,
                              skew_ms=video[key] - audio[key]))
    return out


def classify_lip_sync(abs_skew_ms: float) -> str:
    """Perceptual bucket for an absolute audio/video skew."""
    if abs_skew_ms < 0:
        raise ValueError("absolute skew expected")
    if abs_skew_ms < SKEW_UNNOTICEABLE_MS:
        return "unnoticeable"
    if abs_skew_ms <= SKEW_UNACCEPTABLE_MS:
        return "tolerable"
    return "unacceptable"


def _quantile_type7(ordered: list[float], q: float) -> float:
    """Linear interpolation between order statistics (the numpy default)."""
    pos = (len(ordered) - 1) * q
    lo = int(math.floor(pos))
    t = pos - lo
    if t == 0.0:
        return ordered[lo]
    a, b = ordered[lo], ordered[lo + 1]
    # two-sided lerp, symmetric under reversal
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1.0 - t)


def boxplot_stats(series: Iterable[float]) -> BoxStats:
    """Median, type-7 quartiles, 1.5*IQR whiskers, and the outliers beyond."""
    ordered = sorted(float(v) for v in series)
    if not ordered:
        raise ValueError("series must be non-empty")
    q1 = _quantile_type7(ordered, 0.25)
    med = _quantile_type7(ordered, 0.50)
    q3 = _quantile_type7(ordered, 0.75)
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = [v for v in ordered if lo_fence <= v <= hi_fence]
    # quartiles always sit inside the fences, so `inside` is never empty
    outliers = tuple(v for v in ordered if v < lo_fence or v > hi_fence)
    return BoxStats(
        median=med,
        q1=q1,
        q3=q3,
        whisker_low=inside[0],
        whisker_high=inside[-1],
        outliers=outliers,
    )


def build_report(scan: LatencyScan) -> dict:
    """Full aggregate report over a detection log, as a JSON-ready dict,
    labelled with the scan's epoch width; its diagnostics are the scan's
    tally."""
    report: dict = {
        "epoch_width_ms": scan.width_ms,
        "sample_count": {media: len(lats) for media, lats in scan.by_media.items()},
        "mean_latency_ms": {media: _mean(lats)
                            for media, lats in scan.by_media.items() if lats},
        "slot_stats": [],
        "inter_device_asynchrony": {},
        "intra_media_skew": {},
        "diagnostics": dict(sorted(scan.tally.items())),
    }
    for slot, media in sorted(scan.slots):
        vals = scan.slots[(slot, media)]
        report["slot_stats"].append(
            {"slot": slot, "media": media, "mean_ms": _mean(vals),
             "std_ms": _population_std(vals), "count": len(vals)}
        )
    for media, lats in scan.by_media.items():
        if not lats:
            continue
        rep = inter_device_asynchrony(scan.epochs[media], media=media,
                                      epoch_width_ms=scan.width_ms)
        report["inter_device_asynchrony"][media] = {
            "max_ms": rep.max_ms,
            "mean_ms": rep.mean_ms,
            "epochs": len(rep.series),
        }

    skews = epoch_skew(scan.epochs[VIDEO], scan.epochs[AUDIO])
    if skews:
        by_class = Counter(classify_lip_sync(abs(s.skew_ms)) for s in skews)
        per_device: dict[str, dict] = {}
        devices = sorted({s.device for s in skews})
        for dev in devices:
            vals = [s.skew_ms for s in skews if s.device == dev]
            per_device[dev] = _box_dict(boxplot_stats(vals)) | {"count": len(vals)}
        report["intra_media_skew"] = {
            "overall": _box_dict(boxplot_stats([s.skew_ms for s in skews])),
            "per_device": per_device,
            "classification": {
                "unnoticeable": by_class.get("unnoticeable", 0),
                "tolerable": by_class.get("tolerable", 0),
                "unacceptable": by_class.get("unacceptable", 0),
            },
        }
    return report


def _box_dict(box: BoxStats) -> dict:
    return {
        "median_ms": box.median,
        "q1_ms": box.q1,
        "q3_ms": box.q3,
        "whisker_low_ms": box.whisker_low,
        "whisker_high_ms": box.whisker_high,
        "outliers_ms": list(box.outliers),
    }


def write_epoch_series_csv(path: str | Path, scan: LatencyScan) -> None:
    """Per-epoch minimum latency time series, one row per (epoch, device, media).

    ``scan`` is the one given to ``build_report``.
    """
    rows = [(epoch, device, media, lat)
            for media, by_epoch in scan.epochs.items()
            for (epoch, device), lat in by_epoch.items()]
    rows.sort()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch_start_ms", "device", "media", "latency_ms"])
        writer.writerows(rows)
