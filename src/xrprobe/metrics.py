"""The detection record and latency aggregation: per-slot statistics,
inter-device asynchrony, intra-media skew, lip-sync classification, and
box-plot summaries.

``DetectionRecord`` is the one record of a beacon observation, an immutable
named tuple: the detectors return it, the simulator and the log reader build
it, and every aggregate below takes it, with its ``latency_ms`` as the latency.

Everything here is plain Python arithmetic over small sample lists. That is
deliberate: results must be bit-for-bit reproducible by a naive reimplementation
of the definitions, so no vectorized shortcuts with different summation order.

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
from collections import Counter
from dataclasses import dataclass
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

    @property
    def latency_ms(self) -> float:
        return float(self.playout_ts - self.emission_ts)


@dataclass(frozen=True)
class SlotStat:
    slot: int
    media: str
    mean_ms: float
    std_ms: float
    count: int


@dataclass(frozen=True)
class AsynchronyReport:
    media: str
    epoch_width_ms: int
    series: tuple[tuple[int, float], ...]  # (epoch_start_ms, A(e))
    max_ms: float
    mean_ms: float


@dataclass(frozen=True)
class EpochMaps:
    """Each medium's ``epoch_device_latency`` map, with the width it was built at."""
    width_ms: int
    by_media: dict[str, dict[tuple[int, str], float]]


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


def valid_latency(rec: DetectionRecord, tally: Counter | None = None) -> float | None:
    """The record's ``latency_ms``; None when negative.

    A beacon cannot play out before it was emitted, so a negative value means
    the clocks disagree more than the measurement: it is rejected and counted
    under ``clock_skew_suspected``.
    """
    latency = rec.latency_ms
    if latency < 0:
        if tally is not None:
            tally["clock_skew_suspected"] += 1
        return None
    return latency


def latencies_from_log(records: Iterable[DetectionRecord],
                       tally: Counter | None = None) -> list[DetectionRecord]:
    """The records with a ``valid_latency``, in input order."""
    return [rec for rec in records if valid_latency(rec, tally) is not None]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _population_std(values: list[float]) -> float:
    m = _mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def slot_stats(records: Iterable[DetectionRecord]) -> list[SlotStat]:
    """Population mean/std of latency grouped by (slot, media), sorted."""
    groups: dict[tuple[int, str], list[float]] = {}
    for s in records:
        if s.slot is None:
            continue
        groups.setdefault((s.slot, s.media), []).append(s.latency_ms)
    out = []
    for (slot, media) in sorted(groups):
        vals = groups[(slot, media)]
        out.append(
            SlotStat(
                slot=slot,
                media=media,
                mean_ms=_mean(vals),
                std_ms=_population_std(vals),
                count=len(vals),
            )
        )
    return out


def epoch_device_latency(
    records: Iterable[DetectionRecord],
    epoch_width_ms: int = DEFAULT_EPOCH_MS,
    media: str = VIDEO,
) -> dict[tuple[int, str], float]:
    """Map (epoch_start_ms, device) -> minimum latency for one medium."""
    if epoch_width_ms < 1:
        raise ValueError("epoch width must be positive")
    groups: dict[tuple[int, str], list[float]] = {}
    for s in records:
        if s.media != media:
            continue
        epoch = (s.playout_ts // epoch_width_ms) * epoch_width_ms
        groups.setdefault((epoch, s.device), []).append(s.latency_ms)
    return {key: min(vals) for key, vals in groups.items()}


def epoch_maps(records: list[DetectionRecord],
               epoch_width_ms: int = DEFAULT_EPOCH_MS) -> EpochMaps:
    """Both media's epoch latency maps of ``records``, built once for reuse."""
    return EpochMaps(epoch_width_ms,
                     {media: epoch_device_latency(records, epoch_width_ms, media=media)
                      for media in (VIDEO, AUDIO)})


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


def build_report(
    records: list[DetectionRecord],
    tally: Mapping[str, int],
    epochs: EpochMaps,
) -> dict:
    """Full aggregate report over a detection log, as a JSON-ready dict.

    ``records`` are the records kept by one ``latencies_from_log(log,
    tally)`` pass, so the report's diagnostics count the rejected latencies.
    ``epochs`` is ``epoch_maps(records, width)``; the report is labelled
    with its width.
    """
    video = [s for s in records if s.media == VIDEO]
    audio = [s for s in records if s.media == AUDIO]

    report: dict = {
        "epoch_width_ms": epochs.width_ms,
        "sample_count": {"video": len(video), "audio": len(audio)},
        "mean_latency_ms": {},
        "slot_stats": [],
        "inter_device_asynchrony": {},
        "intra_media_skew": {},
        "diagnostics": dict(sorted(tally.items())),
    }
    for media, group in ((VIDEO, video), (AUDIO, audio)):
        if group:
            report["mean_latency_ms"][media] = _mean([s.latency_ms for s in group])
    for st in slot_stats(records):
        report["slot_stats"].append(
            {"slot": st.slot, "media": st.media, "mean_ms": st.mean_ms,
             "std_ms": st.std_ms, "count": st.count}
        )
    for media, group in ((VIDEO, video), (AUDIO, audio)):
        if not group:
            continue
        rep = inter_device_asynchrony(epochs.by_media[media], media=media,
                                      epoch_width_ms=epochs.width_ms)
        report["inter_device_asynchrony"][media] = {
            "max_ms": rep.max_ms,
            "mean_ms": rep.mean_ms,
            "epochs": len(rep.series),
        }

    skews = epoch_skew(epochs.by_media[VIDEO], epochs.by_media[AUDIO])
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


def write_epoch_series_csv(path: str | Path, epochs: EpochMaps) -> None:
    """Per-epoch minimum latency time series, one row per (epoch, device, media).

    ``epochs`` is the ``epoch_maps`` given to ``build_report``.
    """
    rows = [(epoch, device, media, lat)
            for media, by_epoch in epochs.by_media.items()
            for (epoch, device), lat in by_epoch.items()]
    rows.sort()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch_start_ms", "device", "media", "latency_ms"])
        writer.writerows(rows)
