"""The three measured paths of the xrprobe benchmark.

Each stage builds its inputs from the workload seed, times one unit of work
per ``op`` call, checks that unit's outputs, and turns its timings into
end-to-end metrics (untraced runs) or per-layer metrics (traced runs).
Stages time their units with the speed probe's clock, which leaves out the
probe's own samples, and report each unit's time at the reference speed
(see probe.py).
Stages call xrprobe through module attributes at call time, never through
names bound here, so the tracer's shims see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import re
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import numpy as np

from tracing import ATTRS, END, NAME, OK, PARENT, REQUEST, START


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: int) -> float:
    """Inclusive-method percentile ``q`` (1..99) of at least two values."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _report_error(stage: str, exc: BaseException) -> None:
    print(f"{stage}: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def _spans_by_request(tracer, kind: str):
    """(root span, [(span, self_ns), ...]) for every request of ``kind``."""
    own = tracer.self_ns()
    roots: dict = {}
    children: dict = {}
    for i, span in enumerate(tracer.spans):
        req = span[REQUEST]
        if req is None or req[0] != kind:
            continue
        if span[PARENT] is None:
            roots[req] = (span, own[i])
        else:
            children.setdefault(req, []).append((span, own[i]))
    return [(roots[req], children.get(req, [])) for req in roots]


def _seconds(span) -> float:
    return (span[END] - span[START]) / 1e9


# --- beacon_stream ----------------------------------------------------------------

class BeaconStream:
    """encode_beacon -> rasterize -> detect_decode on in-memory frames.

    Frames come in blocks of 300. The scale cycles 3/8/16 frame by frame, so
    consecutive frames never share the code's geometry. Within each block and
    scale, two frames get one finder painted light (expected FinderNotFound)
    and one gets one payload module flipped (expected CrcMismatch): exactly
    2 % and 1 % of frames at every scale, so the p99 frame time always falls
    inside the same rejection population. One block is one op.
    """

    name = "beacon_stream"
    SCALES = (3, 8, 16)
    BLOCK = 300
    QUIET = 4
    min_ops = 4  # 1,200 frames: at least 12 frames beyond p99

    def __init__(self, xr, seed: int, tmp: Path, probe):
        self.vb = xr.video_beacon
        self.probe = probe
        self.rng = random.Random(f"beacon_stream|{seed}")
        self.warm_rng = random.Random(f"beacon_stream|warm|{seed}")
        vb = self.vb
        # modules that differ between the all-zero and all-one timestamps are
        # payload bits under any layout the encoder may use
        self.payload = np.argwhere(vb.encode_beacon(0).modules
                                   != vb.encode_beacon((1 << vb.TS_BITS) - 1).modules)
        g, f = vb.GRID_SIZE, vb.FINDER_SIZE
        self.finders = ((0, 0), (0, g - f), (g - f, 0))
        self.frames: list[tuple[int, str, int, int]] = []  # (scale, kind, start, end)
        self.attempted = 0
        self.failed = 0
        self.next_block = self._block()

    def _block(self):
        rng = self.rng
        n = len(self.SCALES)
        kinds = ["intact"] * self.BLOCK
        for r in range(n):
            occluded_a, occluded_b, damaged = rng.sample(range(r, self.BLOCK, n), 3)
            kinds[occluded_a] = kinds[occluded_b] = "occluded"
            kinds[damaged] = "damaged"
        frames = []
        for i, kind in enumerate(kinds):
            ts = rng.getrandbits(64)
            detail = None
            if kind == "occluded":
                detail = self.finders[rng.randrange(3)]
            elif kind == "damaged":
                detail = tuple(self.payload[rng.randrange(len(self.payload))])
            frames.append((ts, self.SCALES[i % n], kind, detail))
        return frames

    def _frame(self, ts: int, scale: int, kind: str, detail) -> str:
        vb = self.vb
        grid = vb.encode_beacon(ts)
        # damage copies, so an encoder or rasterizer that reuses its output
        # buffers is never corrupted by the benchmark
        if kind == "damaged":
            modules = grid.modules.copy()
            modules[detail] = not modules[detail]
            grid = vb.ModuleGrid(modules=modules, payload_ts=grid.payload_ts)
        frame = vb.rasterize(grid, scale, self.QUIET)
        if kind == "occluded":
            r0, c0 = detail
            y, x = (self.QUIET + r0) * scale, (self.QUIET + c0) * scale
            side = vb.FINDER_SIZE * scale
            pixels = frame.pixels.copy()
            pixels[y:y + side, x:x + side] = 255
            frame = vb.PixelBuffer(pixels=pixels)
        try:
            det = vb.detect_decode(frame, 0)
        except vb.FinderNotFound:
            return "occluded"
        except vb.CrcMismatch:
            return "damaged"
        return "intact" if det.emission_ts == ts else "wrong timestamp"

    def warm_up(self) -> None:
        for scale in self.SCALES:
            self._frame(self.warm_rng.getrandbits(64), scale, "intact", None)
            self._frame(self.warm_rng.getrandbits(64), scale, "occluded", self.finders[0])
            self._frame(self.warm_rng.getrandbits(64), scale, "damaged",
                        tuple(self.payload[0]))

    def op(self, tracer) -> None:
        for ts, scale, kind, detail in self.next_block:
            n = len(self.frames)
            ctx = (tracer.request("frame", ("frame", n), scale=scale, kind=kind)
                   if tracer else nullcontext())
            t0 = self.probe.now_ns()
            try:
                with ctx:
                    outcome = self._frame(ts, scale, kind, detail)
            except Exception as exc:  # counted as a failed frame; the run goes on
                _report_error(self.name, exc)
                outcome = "error"
            self.frames.append((scale, kind, t0, self.probe.now_ns()))
            self.attempted += 1
            if outcome != kind:
                self.failed += 1
        self.next_block = self._block()

    def frame_ms(self, kind: str | None = None) -> list[float]:
        return [self.probe.scale(t0, t1) * 1e3
                for _, k, t0, t1 in self.frames if kind is None or k == kind]

    def e2e(self) -> dict:
        ms = self.frame_ms()
        return {
            "beacon_fps": (len(ms) / (sum(ms) / 1e3), "1/s"),
            "beacon_frame_ms_p50": (percentile(ms, 50), "ms"),
            "beacon_frame_ms_p99": (percentile(ms, 99), "ms"),
        }

    def headline(self) -> float:
        return percentile(self.frame_ms(), 50)

    def info(self) -> list[str]:
        ms = self.frame_ms()
        intact = self.frame_ms("intact")
        mean = statistics.fmean(intact) if intact else 0.0
        projected = 10_000 * mean / 1e3
        return [
            f"beacon_stream: {len(ms)} frames ({len(intact)} intact), "
            f"{len(ms) // 100} beyond p99",
            f"criterion-1 projection: 10000 intact frames x {mean:.3f} ms = "
            f"{projected:.1f} s against the 30 s bound (informational)",
        ]

    def layers(self, tracer) -> tuple[dict, int, int]:
        """Per-layer metrics plus (decoded, intact) counts for decode_ok_ratio."""
        detect: dict[tuple, list[float]] = {}
        encode, raster = [], []
        decoded = intact = 0
        for (root, _), kids in _spans_by_request(tracer, "frame"):
            scale, kind = root[ATTRS]["scale"], root[ATTRS]["kind"]
            for span, _ in kids:
                if span[NAME] == "video_beacon.detect_decode":
                    detect.setdefault((kind, scale), []).append(_seconds(span) * 1e3)
                    if kind == "intact":
                        intact += 1
                        decoded += span[OK]
                elif span[NAME] == "video_beacon.encode_beacon":
                    encode.append(_seconds(span) * 1e6)
                elif span[NAME] == "video_beacon.rasterize":
                    raster.append(_seconds(span) * 1e6)

        def by_kind(kind):
            return [v for (k, _), vals in detect.items() if k == kind for v in vals]

        out = {f"video_beacon.detect_decode_ms_p50.s{s}":
               (median(detect.get(("intact", s), [])), "ms") for s in self.SCALES}
        out["video_beacon.detect_reject_ms_p50"] = (median(by_kind("occluded")), "ms")
        out["video_beacon.detect_crc_ms_p50"] = (median(by_kind("damaged")), "ms")
        out["video_beacon.encode_beacon_us_p50"] = (median(encode), "us")
        out["video_beacon.rasterize_us_p50"] = (median(raster), "us")
        return out, decoded, intact


# --- session_analyze --------------------------------------------------------------

_SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"(?:,(?!\}))?)*\})?'
    r' (\S+)$')


def check_exposition(text: str) -> str | None:
    """None when every line is a `name{labels} value` sample or a # comment."""
    samples = 0
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        m = _SAMPLE_LINE.match(line)
        if m is None:
            return f"unparsable exposition line {line!r}"
        try:
            float(m.group(2))
        except ValueError:
            return f"non-numeric sample value in {line!r}"
        samples += 1
    return None if samples else "empty exposition"


def check_report(log_path: Path, report: dict) -> str | None:
    """Brute-force per-media sample counts and mean latency from the raw log."""
    count = {"video": 0, "audio": 0}
    total = {"video": 0.0, "audio": 0.0}
    with open(log_path) as fh:
        for line in fh:
            doc = json.loads(line)
            latency = doc["playout_ts"] - doc["emission_ts"]
            if latency >= 0:
                count[doc["media"]] += 1
                total[doc["media"]] += float(latency)
    if report["sample_count"] != count:
        return f"sample_count {report['sample_count']} != brute force {count}"
    for media, n in count.items():
        want = total[media] / n if n else None
        got = report["mean_latency_ms"].get(media)
        if (want is None) != (got is None) or (
                want is not None and not math.isclose(got, want, rel_tol=1e-9)):
            return f"mean_latency_ms[{media}] {got} != brute force {want}"
    return None


class SessionAnalyze:
    """CLI simulate -> analyze -> one-shot serve scrape on the 300 s wifi preset.

    Every pass runs the same scenario, so after the first pass (checked by
    brute force) each pass must reproduce the first one's files byte for byte.
    """

    name = "session_analyze"
    min_ops = 1
    COMMANDS = ("simulate", "analyze", "scrape")

    def __init__(self, xr, seed: int, tmp: Path, probe):
        self.cli = xr.cli
        self.probe = probe
        self.dir = tmp
        self.dir.mkdir(parents=True)
        self.scenario = self.dir / "wifi_300s.json"
        self.scenario.write_text(json.dumps(
            {"profile": "wifi", "name": "bench_wifi", "duration_s": 300.0, "seed": seed}))
        self.warm_scenario = self.dir / "wifi_warm.json"
        self.warm_scenario.write_text(json.dumps(
            {"profile": "wifi", "name": "bench_warm", "duration_s": 10.0,
             "viewers": ["u2"], "join_times_s": [5.0], "seed": seed}))
        self.times: dict[str, list[tuple[int, int]]] = {c: [] for c in self.COMMANDS}
        self.digests: dict[str, str] | None = None
        self.log_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def _cli(self, tracer, command: str, argv: list[str]) -> tuple[int, str, tuple]:
        buf = io.StringIO()
        ctx = (tracer.request(f"cli.{argv[0]}", ("cli", self.attempted, command))
               if tracer else nullcontext())
        t0 = self.probe.now_ns()
        with redirect_stdout(buf), ctx:
            rc = self.cli.run(argv)
        return rc, buf.getvalue(), (t0, self.probe.now_ns())

    def _pass(self, tracer, scenario: Path, out: Path) -> dict:
        steps = (
            ("simulate", ["simulate", "--scenario", str(scenario), "--out", str(out)]),
            ("analyze", ["analyze", "--log", str(out)]),
            ("scrape", ["serve", "--log", str(out), "--serve-port", "0"]),
        )
        results = {}
        for command, argv in steps:
            try:
                results[command] = self._cli(tracer, command, argv)
            except Exception as exc:  # counted as a failed command; the run goes on
                _report_error(self.name, exc)
                results[command] = (None, "", None)
            self.attempted += 1
        return results

    def warm_up(self) -> None:
        out = self.dir / "warm"
        self._pass(None, self.warm_scenario, out)
        shutil.rmtree(out, ignore_errors=True)
        self.attempted = 0

    def _check(self, out: Path, results: dict) -> dict[str, str | None]:
        """Error (or None) per command for this pass's outputs."""
        errors = {c: None if results[c][0] == 0 else f"exit code {results[c][0]}"
                  for c in self.COMMANDS}
        log, report = out / "log.jsonl", out / "report.json"
        files = {"simulate": log, "analyze": report}
        digests = {}
        for command, path in files.items():
            if errors[command] is None:
                if path.exists():
                    digests[command] = hashlib.sha256(path.read_bytes()).hexdigest()
                else:
                    errors[command] = f"{path.name} missing"
        digests["scrape"] = hashlib.sha256(results["scrape"][1].encode()).hexdigest()
        if self.digests is None and not any(errors.values()):
            self.log_bytes = log.stat().st_size
            errors["analyze"] = check_report(log, json.loads(report.read_text()))
            errors["scrape"] = check_exposition(results["scrape"][1])
            if not any(errors.values()):
                self.digests = digests
        elif self.digests is not None:
            for command in self.COMMANDS:
                if errors[command] is None and digests.get(command) != self.digests[command]:
                    errors[command] = "output differs from the first pass"
        return errors

    def op(self, tracer) -> None:
        out = self.dir / f"pass{self.passes}"
        self.passes += 1
        results = self._pass(tracer, self.scenario, out)
        for command, error in self._check(out, results).items():
            if error is None:
                self.times[command].append(results[command][2])
            else:
                self.failed += 1
                print(f"{self.name}: {command}: {error}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)

    def e2e(self) -> dict:
        return {f"{c}_s": (self.seconds(c), "s") for c in self.COMMANDS}

    def seconds(self, command: str) -> float:
        return median(self.probe.scale(*span) for span in self.times[command])

    def headline(self) -> float:
        return sum(self.seconds(c) for c in self.COMMANDS)

    def info(self) -> list[str]:
        return [f"session_analyze: {self.passes} passes, log {self.log_bytes} bytes"]

    def layers(self, tracer) -> dict:
        per: dict[str, list[float]] = {}
        records: list[int] = []
        cli_self: dict[str, list[float]] = {}
        for (root, root_self), kids in _spans_by_request(tracer, "cli"):
            cli_self.setdefault(root[NAME], []).append(root_self / 1e9)
            for span, _ in kids:
                per.setdefault(span[NAME], []).append(_seconds(span))
                if span[NAME] == "netsim.run_scenario":
                    records.append(span[ATTRS]["records"])

        def med(name):
            return median(per.get(name, []))

        run_s = med("netsim.run_scenario")
        n_records = median(records)
        return {
            "netsim.run_scenario_s": (run_s, "s"),
            "netsim.records": (n_records, "count"),
            "netsim.records_per_s": (n_records / run_s if run_s else 0.0, "1/s"),
            "exporter.write_log_s": (med("exporter.write_log"), "s"),
            "exporter.log_bytes": (float(self.log_bytes), "bytes"),
            "exporter.read_log_s": (med("exporter.read_log"), "s"),
            "metrics.build_report_s": (med("metrics.build_report"), "s"),
            "metrics.write_epoch_series_csv_s": (med("metrics.write_epoch_series_csv"), "s"),
            "exporter.snapshot_from_records_s": (med("exporter.snapshot_from_records"), "s"),
            "exporter.render_exposition_ms": (med("exporter.render_exposition") * 1e3, "ms"),
            "cli.simulate_self_s": (median(cli_self.get("cli.simulate", [])), "s"),
            "cli.analyze_self_s": (median(cli_self.get("cli.analyze", [])), "s"),
            "cli.serve_self_s": (median(cli_self.get("cli.serve", [])), "s"),
        }


# --- physical_closure -------------------------------------------------------------

class PhysicalClosure:
    """netsim.run_physical on the criterion-8 scenario, then compare_logs.

    Ethernet, 20 s, five devices joining at 0/4/8/12/16 s: about 1,800 PGM
    frames at scale 4 and five WAV streams are written, read back and
    detected. Each run writes to a fresh directory, removed outside the timed
    region. Every run repeats the same scenario, so each must reproduce the
    first run's physical log exactly.
    """

    name = "physical_closure"
    min_ops = 1
    MIN_AGREEMENT = 0.99

    def __init__(self, xr, seed: int, tmp: Path, probe):
        self.netsim = xr.netsim
        self.probe = probe
        self.media = xr.metrics.AUDIO
        self.dir = tmp
        self.dir.mkdir(parents=True)
        path = self.dir / "closure.json"
        path.write_text(json.dumps(
            {"profile": "ethernet", "name": "closure", "duration_s": 20.0,
             "viewers": ["u2", "u3", "u4", "u5"],
             "join_times_s": [4.0, 8.0, 12.0, 16.0], "seed": seed}))
        self.scenario = xr.scenario.scenario_from_file(path)
        self.warm_scenario = xr.scenario.load_scenario(
            {"profile": "ethernet", "name": "closure_warm", "duration_s": 2.0,
             "viewers": ["u2"], "join_times_s": [1.0], "seed": seed})
        self.times: list[tuple[int, int]] = []  # (start, end) of each run
        self.agreements: list[float] = []
        self.yields: list[float] = []
        self.first_records = None
        self.attempted = 0
        self.failed = 0

    def warm_up(self) -> None:
        work = self.dir / "warm"
        physical, symbolic = self.netsim.run_physical(self.warm_scenario, work)
        self.netsim.compare_logs(physical.records, symbolic.records)
        shutil.rmtree(work)

    def op(self, tracer) -> None:
        work = self.dir / f"run{self.attempted}"
        ctx = (tracer.request("physical", ("physical", self.attempted))
               if tracer else nullcontext())
        self.attempted += 1
        try:
            t0 = self.probe.now_ns()
            with ctx:
                physical, symbolic = self.netsim.run_physical(self.scenario, work)
                agreement = self.netsim.compare_logs(physical.records, symbolic.records)
            span = (t0, self.probe.now_ns())
        except Exception as exc:  # counted as a failed run; the run goes on
            _report_error(self.name, exc)
            self.failed += 1
            return
        finally:
            shutil.rmtree(work, ignore_errors=True)
        error = None
        if not physical.records:
            error = "empty physical log"
        elif agreement < self.MIN_AGREEMENT:
            error = f"agreement {agreement:.4f} < {self.MIN_AGREEMENT}"
        elif self.first_records is None:
            self.first_records = physical.records
        elif physical.records != self.first_records:
            error = "physical log differs from the first run"
        if error:
            self.failed += 1
            print(f"{self.name}: {error}", file=sys.stderr)
            return
        audio = [sum(1 for r in log.records if r.media == self.media)
                 for log in (physical, symbolic)]
        self.times.append(span)
        self.agreements.append(agreement)
        self.yields.append(audio[0] / audio[1] if audio[1] else 0.0)

    def e2e(self) -> dict:
        return {
            "physical_s": (self.headline(), "s"),
            "physical_agreement": (median(self.agreements), "ratio"),
        }

    def headline(self) -> float:
        return median(self.probe.scale(*span) for span in self.times)

    def info(self) -> list[str]:
        return [
            f"physical_closure: {len(self.times)} runs",
            f"physical_s {self.headline():.2f} s against the 3 s target of "
            f"ROADMAP item 2 (informational)",
        ]

    def layers(self, tracer) -> tuple[dict, int, int]:
        """Per-layer metrics plus (decoded, intact) counts for decode_ok_ratio."""
        per_run: list[dict[str, float]] = []
        audio_s: list[float] = []
        decoded = intact = 0
        for (root, _), kids in _spans_by_request(tracer, "physical"):
            totals: dict[str, float] = {"frames": 0.0}
            seconds_of_audio = 0.0
            for span, own in kids:
                name = span[NAME]
                totals[name] = totals.get(name, 0.0) + _seconds(span)
                if name == "netsim.run_physical":
                    totals["run_physical_self"] = own / 1e9
                elif name == "video_beacon.detect_decode":
                    totals["frames"] += 1
                    decoded += span[OK]
                elif name == "video_beacon.rasterize":
                    intact += 1
                elif name == "audio_beacon.detect_pulses":
                    seconds_of_audio += span[ATTRS].get("audio_s", 0.0)
            per_run.append(totals)
            audio_s.append(seconds_of_audio)

        def med(key):
            return median(run.get(key, 0.0) for run in per_run)

        pulses_s = med("audio_beacon.detect_pulses")
        audio = median(audio_s)
        return {
            "video_beacon.detect_decode_s": (med("video_beacon.detect_decode"), "s"),
            "video_beacon.frames": (med("frames"), "count"),
            "video_beacon.rasterize_s": (med("video_beacon.rasterize"), "s"),
            "video_beacon.write_frame_sequence_s": (med("video_beacon.write_frame_sequence"), "s"),
            "video_beacon.read_pgm_s": (med("video_beacon.read_pgm"), "s"),
            "audio_beacon.detect_pulses_s": (pulses_s, "s"),
            "audio_beacon.detect_pulses_ms_per_audio_s":
                (pulses_s * 1e3 / audio if audio else 0.0, "ms/s"),
            "audio_beacon.pulse_yield": (median(self.yields), "ratio"),
            "audio_beacon.synthesize_s": (med("audio_beacon.synthesize"), "s"),
            "audio_beacon.write_wav_s": (med("audio_beacon.write_wav"), "s"),
            "audio_beacon.read_wav_s": (med("audio_beacon.read_wav"), "s"),
            "netsim.run_physical_self_s": (med("run_physical_self"), "s"),
            "netsim.compare_logs_s": (med("netsim.compare_logs"), "s"),
        }, decoded, intact


STAGES = (BeaconStream, SessionAnalyze, PhysicalClosure)
