#!/usr/bin/env python3
"""Sweep seeds per profile and report how the calibrated means hold up.

Used when tuning the preset link parameters: shows per-seed mean latency
deviation from the targets plus the asynchrony extremes, so a pinned
reproduction seed can be chosen (and the tails understood) honestly.
"""

import argparse

from xrprobe.metrics import (
    epoch_device_latency,
    inter_device_asynchrony,
    latencies_from_log,
)
from xrprobe.netsim import run_scenario
from xrprobe.scenario import PROFILE_TARGETS, preset_scenario


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=8, help="number of seeds to sweep")
    ap.add_argument("--duration-s", type=float, default=300.0)
    args = ap.parse_args()

    for profile, (tv, ta) in PROFILE_TARGETS.items():
        print(f"\n{profile} (targets video {tv}, audio {ta})")
        for seed in range(args.seeds):
            log = run_scenario(preset_scenario(profile, seed=seed,
                                               duration_s=args.duration_s))
            samples = latencies_from_log(log.records)
            video = [s.latency_ms for s in samples if s.media == "video"]
            audio = [s.latency_ms for s in samples if s.media == "audio"]
            vm = sum(video) / len(video)
            am = sum(audio) / len(audio)
            vsamples = [s for s in samples if s.media == "video"]
            amax = inter_device_asynchrony(epoch_device_latency(vsamples)).max_ms
            print(f"  seed {seed}: video {vm:7.1f} ({(vm - tv) / tv:+6.1%})  "
                  f"audio {am:7.1f} ({(am - ta) / ta:+6.1%})  "
                  f"async max {amax:7.1f} ms")


if __name__ == "__main__":
    main()
