"""xrprobe benchmark: one process, one thread, three workloads.

    python3 xrbench/run.py --workload beacon_stream --seed 42 --seconds 30 --trace 0

Every run measures all three paths, interleaved, so every run reports every
metric; the path the workload names gets half of ``--seconds`` and the other
two a quarter each. A speed probe samples the machine's speed through the
run, and every time is reported at a reference speed (probe.py).
``--trace 0`` prints the end-to-end metrics. ``--trace 1``
alternates, op by op, between an untraced and a traced copy of the stages
built from the same seed (the traced copy runs with timing shims around
xrprobe's public functions) and prints the per-layer metrics plus the
tracing overhead, the traced copy's time against the untraced copy's. The
last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. README.md in this directory maps metrics to layers and workloads.
"""

import os

# One thread per process: pin numpy's BLAS/FFT pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import stages  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".xrbench"  # scratch media and span dumps; git-ignored

DEFAULT_SEED = 42
HELD_OUT_SEED = 7919  # later claims must hold on this seed too
SETUP_REPEATS = 5
# Per-layer units that are times (scaled like the end-to-end times) or rates.
TIME_UNITS = ("s", "ms", "us", "ms/s")
RATE_UNITS = ("1/s",)
XRPROBE_MODULES = ("video_beacon", "audio_beacon", "scenario", "metrics",
                   "exporter", "netsim", "cli")


class SetupError(RuntimeError):
    pass


def machine_facts() -> dict:
    """Facts recorded with every run; the load average is read at start."""
    load = os.getloadavg()
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": [round(x, 2) for x in load],
    }


def import_xrprobe() -> types.SimpleNamespace:
    """Fresh import of the checkout's xrprobe package (never an installed copy)."""
    for key in [k for k in sys.modules if k == "xrprobe" or k.startswith("xrprobe.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"xrprobe.{name}") for name in XRPROBE_MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise SetupError(f"xrprobe imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def build_stages(seed: int, tmp: Path, probe: SpeedProbe) -> dict:
    """Fresh import, inputs for every path, warm-up: one setup."""
    xr = import_xrprobe()
    built = {cls.name: cls(xr, seed, tmp / cls.name, probe) for cls in stages.STAGES}
    for stage in built.values():
        stage.warm_up()
    return built


def measure(sides: list, workload: str, seconds: float) -> None:
    """Run every path, interleaved, until ``seconds`` have passed.

    The workload's own path gets half of the time and the other two paths a
    quarter each: each next op goes to the path furthest behind its share,
    so every path samples the whole run rather than one stretch of it. Each
    path still completes at least its ``min_ops``. ``sides`` holds
    (stages, tracer or None) pairs that take turns op by op, so a traced and
    an untraced copy see the same machine conditions.
    """
    names = list(sides[0][0])
    weight = {name: 2.0 if name == workload else 1.0 for name in names}
    spent = dict.fromkeys(names, 0.0)
    done = dict.fromkeys(names, 0)
    deadline = time.perf_counter() + seconds
    while True:
        short = [n for n in names if done[n] < sides[0][0][n].min_ops]
        if not short and time.perf_counter() >= deadline:
            return
        name = min(short or names, key=lambda n: spent[n] / weight[n])
        t0 = time.perf_counter()
        for built, tracer in sides:
            with tracer.installed() if tracer else nullcontext():
                built[name].op(tracer)
        spent[name] += time.perf_counter() - t0
        done[name] += 1


def totals(*runs: dict) -> tuple[int, int]:
    attempted = sum(s.attempted for built in runs for s in built.values())
    failed = sum(s.failed for built in runs for s in built.values())
    return attempted, failed


def at_reference_speed(metrics: dict, probe: SpeedProbe) -> dict:
    """Per-layer times and rates scaled by the run's mean probe factor."""
    factor = probe.factor()
    scaled = {}
    for name, (value, unit) in metrics.items():
        if unit in TIME_UNITS:
            value *= factor
        elif unit in RATE_UNITS:
            value /= factor
        scaled[name] = (value, unit)
    return scaled


def as_metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[cls.name for cls in stages.STAGES])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xrprobe" / "__init__.py").is_file():
        raise SetupError(f"no xrprobe package under {SRC}")
    facts = machine_facts()
    facts.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace)
    print("machine " + json.dumps(facts, sort_keys=True), flush=True)

    tmp = WORK / f"tmp-{os.getpid()}"
    probe = SpeedProbe()
    tracer = Tracer(clock=probe.now_ns) if args.trace else None
    try:
        with probe.running():
            setup_s = []
            for rep in range(SETUP_REPEATS):
                t0 = probe.now_ns()
                built = build_stages(args.seed, tmp / f"setup{rep}", probe)
                setup_s.append(probe.scale(t0, probe.now_ns()))
            runs = [built]
            if tracer:
                runs.append(build_stages(args.seed, tmp / "traced", probe))
            measure(list(zip(runs, (None, tracer))), args.workload, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = []
    if not tracer:
        metrics = {"setup_s": (statistics.median(setup_s), "s")}
        for stage in built.values():
            metrics.update(stage.e2e())
    else:
        traced = runs[1]
        metrics = at_reference_speed(layer_metrics(traced, tracer), probe)
        for name, stage in traced.items():
            base = built[name].headline()
            overhead = 100.0 * (stage.headline() / base - 1.0) if base else 0.0
            metrics[f"trace.{name}_overhead_pct"] = (overhead, "%")
        if tracer.missing:
            lines.append("not traced (absent): " + ", ".join(tracer.missing))
        dump = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(dump, facts)
        lines.append(f"{len(tracer.spans)} spans written to {dump.relative_to(ROOT)}")

    attempted, failed = totals(*runs)
    lines += [line for stage in built.values() for line in stage.info()]
    lines.append("setup_s repeats: " + ", ".join(f"{s:.3f}" for s in setup_s))
    lines.append(probe.summary())
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": as_metrics(metrics)}))
    return 0


def layer_metrics(traced: dict, tracer) -> dict:
    beacon, decoded_b, intact_b = traced["beacon_stream"].layers(tracer)
    physical, decoded_p, intact_p = traced["physical_closure"].layers(tracer)
    intact = intact_b + intact_p
    metrics = {**beacon, **traced["session_analyze"].layers(tracer), **physical}
    metrics["video_beacon.decode_ok_ratio"] = (
        (decoded_b + decoded_p) / intact if intact else 0.0, "ratio")
    return metrics


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"xrbench: {exc}", file=sys.stderr)
        sys.exit(2)
