#!/usr/bin/env python3
"""Run the three access-network presets and print a comparison table.

The targets are the calibrated per-profile mean latencies the presets were
tuned to; a run at the default seed should land within a few percent.
"""

import argparse
import time

from xrprobe.metrics import (
    boxplot_stats,
    epoch_device_latency,
    inter_device_asynchrony,
    intra_media_skew,
    latencies_from_log,
)
from xrprobe.netsim import run_scenario
from xrprobe.scenario import PROFILE_TARGETS, preset_scenario


def profile_row(profile: str, seed: int, duration_s: float) -> dict:
    scenario = preset_scenario(profile, seed=seed, duration_s=duration_s)
    t0 = time.monotonic()
    log = run_scenario(scenario)
    elapsed = time.monotonic() - t0
    samples = latencies_from_log(log.records)
    video = [s for s in samples if s.media == "video"]
    audio = [s for s in samples if s.media == "audio"]
    asyn = inter_device_asynchrony(epoch_device_latency(video))
    skews = [abs(s.skew_ms) for s in intra_media_skew(video, audio)]
    box = boxplot_stats(skews)
    return {
        "profile": profile,
        "video_mean": sum(s.latency_ms for s in video) / len(video),
        "audio_mean": sum(s.latency_ms for s in audio) / len(audio),
        "async_max": asyn.max_ms,
        "skew_median": box.median,
        "skew_outlier_max": max(box.outliers, default=0.0),
        "elapsed": elapsed,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=4)
    ap.add_argument("--duration-s", type=float, default=300.0)
    args = ap.parse_args()

    print(f"seed {args.seed}, {args.duration_s:.0f} s per profile\n")
    header = (f"{'profile':<10} {'video mean':>12} {'target':>8} {'audio mean':>12} "
              f"{'target':>8} {'async max':>10} {'skew med':>9} {'out max':>8} {'run':>6}")
    print(header)
    print("-" * len(header))
    for profile in PROFILE_TARGETS:
        row = profile_row(profile, args.seed, args.duration_s)
        tv, ta = PROFILE_TARGETS[profile]
        print(f"{profile:<10} {row['video_mean']:>9.1f} ms {tv:>8.1f} "
              f"{row['audio_mean']:>9.1f} ms {ta:>8.1f} {row['async_max']:>7.1f} ms "
              f"{row['skew_median']:>6.1f} ms {row['skew_outlier_max']:>5.0f} ms "
              f"{row['elapsed']:>5.1f}s")


if __name__ == "__main__":
    main()
