#!/usr/bin/env python3
"""Run each access-network preset at each seed and compare it with its targets.

PROFILE_TARGETS holds the mean video and audio latencies the preset link
parameters were fitted to. One row per (profile, seed) shows both means and
their deviation from those targets, the inter-device asynchrony maximum, and
the median of the absolute lip-sync skew with its largest outlier above the
upper fence (0.0 when there is none), so a reproduction seed can be chosen
and the tails understood.
"""

import argparse

from xrprobe.metrics import (
    AUDIO,
    VIDEO,
    boxplot_stats,
    build_report,
    epoch_skew,
    scan_log,
)
from xrprobe.netsim import run_scenario
from xrprobe.scenario import PROFILE_TARGETS, preset_scenario

# the session length PROFILE_TARGETS was fitted to; the presets' viewers join
# up to 240 s in, so a shorter session is not a valid preset run
DURATION_S = 300.0


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[4],
                    help="seeds to run every profile at (default: 4)")
    args = ap.parse_args(argv)

    print(f"{DURATION_S:.0f} s per run\n")
    header = (f"{'profile':<10} {'seed':>5} {'video ms':>9} {'target':>8} {'dev':>7} "
              f"{'audio ms':>9} {'target':>8} {'dev':>7} {'async max':>10} "
              f"{'skew med':>9} {'high out':>8}")
    print(header)
    print("-" * len(header))
    for profile, (tv, ta) in PROFILE_TARGETS.items():
        for seed in args.seeds:
            log = run_scenario(preset_scenario(profile, seed=seed, duration_s=DURATION_S))
            # the scan and report `xrprobe analyze` builds from the same log
            scan = scan_log(log.records, log.tally)
            report = build_report(scan)
            vm, am = report["mean_latency_ms"][VIDEO], report["mean_latency_ms"][AUDIO]
            async_max = report["inter_device_asynchrony"][VIDEO]["max_ms"]
            skew = boxplot_stats(abs(s.skew_ms)
                                 for s in epoch_skew(scan.epochs[VIDEO], scan.epochs[AUDIO]))
            # outliers above the upper fence are exactly those above the top whisker
            high = max((v for v in skew.outliers if v > skew.whisker_high), default=0.0)
            print(f"{profile:<10} {seed:>5} {vm:>9.1f} {tv:>8.2f} {(vm - tv) / tv:>+7.1%} "
                  f"{am:>9.1f} {ta:>8.2f} {(am - ta) / ta:>+7.1%} {async_max:>10.1f} "
                  f"{skew.median:>9.1f} {high:>8.1f}")


if __name__ == "__main__":
    main()
