"""Command-line surface: generation, detection, simulation, analysis, serving.

Every subcommand is a thin adapter over the library so results are equally
obtainable through imports; the CLI adds no hidden state. Randomized paths
take --seed and reproduce byte-identically.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from .audio_beacon import (
    MAX_SAMPLE_RATE,
    ToneSchedule,
    detect_wav,
    synthesize,
    write_wav,
    write_wav_manifest,
)
from .clocks import MAX_TIMESTAMP
from .exporter import (
    format_log_line,
    make_server,
    read_log,
    render_exposition,
    write_log,
)
from .metrics import (
    DEFAULT_EPOCH_MS,
    DetectionRecord,
    LatencyScan,
    build_report,
    scan_log,
    write_epoch_series_csv,
)
from .netsim import run_physical, run_scenario
from .scenario import MAX_DEVICE_FRAMES, scenario_from_file
from .schema import SchemaError, integer, json_object, read_json
from .video_beacon import (
    DEFAULT_QUIET,
    GRID_SIZE,
    MAX_FRAME_SIDE,
    FrameManifest,
    beacon_emission,
    detect_frame_sequence,
    render_frames,
    write_frame_sequence,
)

log = logging.getLogger("xrprobe")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    name = os.environ.get("XRPROBE_LOG_LEVEL", "warn").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(name, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _flag_type(convert, ok, expected: str):
    """An argparse ``type=`` whose rejection exits 2 naming the flag."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_positive_int = _flag_type(int, lambda v: v > 0, "an integer > 0")
_timestamp = _flag_type(int, lambda v: 0 <= v <= MAX_TIMESTAMP, "an integer in 0..2**64-1")
# the default schedule's top tone must stay below half the sample rate,
# and the rate at most the cap a scenario has too
_TOP_TONE_X2 = 2 * max(ToneSchedule().frequencies)
_sample_rate = _flag_type(int, lambda v: _TOP_TONE_X2 < v <= MAX_SAMPLE_RATE,
                          f"an integer > {_TOP_TONE_X2:.0f} and <= {MAX_SAMPLE_RATE}")
# the frame, 21 modules plus the quiet zone a side, stays within MAX_FRAME_SIDE
_MAX_SCALE = MAX_FRAME_SIDE // (GRID_SIZE + 2 * DEFAULT_QUIET)
_scale = _flag_type(int, lambda v: 0 < v <= _MAX_SCALE,
                    f"an integer in 1..{_MAX_SCALE} (frame side <= {MAX_FRAME_SIDE} px)")
_positive_seconds = _flag_type(float, lambda v: v > 0 and math.isfinite(v),
                               "a finite number > 0")
_port = _flag_type(int, lambda v: 0 <= v <= 65535, "a TCP port in 0..65535")


class _FlagError(Exception):
    """A flag value that is out of range given the other flags; exits 2."""


def _check_start_ts(start_ts: int, last_ts: int, what: str) -> None:
    """Reject a ``--start-ts`` whose stream's last timestamp passes 2**64-1."""
    if last_ts > MAX_TIMESTAMP:
        top = MAX_TIMESTAMP - (last_ts - start_ts)
        raise _FlagError(f"argument --start-ts: expected at most {top} so that the "
                         f"{what} fits in 64 bits, got '{start_ts}'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xrprobe",
        description="QoS measurement toolkit for edge-rendered multiuser XR",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-video", help="write a beacon-stamped PGM frame sequence")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--fps", type=_positive_int, default=30)
    p.add_argument("--duration-s", type=_positive_seconds, default=2.0)
    p.add_argument("--start-ts", type=_timestamp, default=0, help="first frame timestamp, ms")
    p.add_argument("--device-id", default="probe")
    p.add_argument("--scale", type=_scale, default=8, help="pixels per module")
    p.add_argument("--interval-ms", type=_positive_int, default=10, help="beacon refresh grid")

    p = sub.add_parser("detect-video", help="decode beacons from a frame sequence")
    p.add_argument("frames", help="directory written by gen-video or simulate --physical")
    p.add_argument("--out", help="detection log path (default: stdout)")

    p = sub.add_parser("gen-audio", help="write a beacon tone WAV with sidecar manifest")
    p.add_argument("--out", required=True, help="output .wav path")
    p.add_argument("--duration-s", type=_positive_seconds, default=10.0)
    p.add_argument("--start-ts", type=_timestamp, default=0, help="stream start timestamp, ms")
    p.add_argument("--device-id", default="probe")
    p.add_argument("--rate", type=_sample_rate, default=48000)

    p = sub.add_parser("detect-audio", help="detect beacon pulses in a WAV stream")
    p.add_argument("wav", help=".wav path with sidecar manifest")
    p.add_argument("--out", help="detection log path (default: stdout)")

    p = sub.add_parser("simulate", help="run a scenario and write its detection log")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--physical", action="store_true",
                   help="render real PGM/WAV media and run the detectors on them")

    p = sub.add_parser("analyze", help="aggregate a detection log into a report")
    p.add_argument("--log", required=True, help="detection log path or simulate output dir")
    p.add_argument("--epoch-ms", type=_positive_int, default=DEFAULT_EPOCH_MS)
    p.add_argument("--out", help="report directory (default: alongside the log)")

    p = sub.add_parser("serve", help="expose a log's metrics over HTTP")
    p.add_argument("--log", required=True, help="detection log path or simulate output dir")
    p.add_argument("--serve-port", type=_port, default=9464,
                   help="TCP port; 0 prints the exposition once and exits")
    return parser


# --- subcommand bodies --------------------------------------------------------------

def _cmd_gen_video(args) -> int:
    frames = args.duration_s * args.fps
    if math.isinf(frames) or round(frames) > MAX_DEVICE_FRAMES:
        raise _FlagError(f"argument --duration-s/--fps: expected at most {MAX_DEVICE_FRAMES} "
                         f"frames (duration x fps), got {frames:.7g}")
    frame_count = max(1, round(frames))
    # before the manifest is built: its own check would blame a manifest field, not the flag
    _check_start_ts(args.start_ts,
                    args.start_ts + FrameManifest.playout_offset(frame_count - 1, args.fps),
                    "last frame")
    manifest = FrameManifest(device_id=args.device_id, fps=float(args.fps),
                             start_ts=args.start_ts, frame_count=frame_count)
    emissions = (beacon_emission(args.start_ts, manifest.frame_playout(i), args.interval_ms)
                 for i in range(frame_count))
    write_frame_sequence(args.out, render_frames(emissions, args.scale), manifest)
    print(f"wrote {frame_count} frames to {args.out}")
    return 0


def _emit_log(records: list[DetectionRecord], out: str | None) -> None:
    if out:
        write_log(out, records)
    else:
        sys.stdout.write("".join(map(format_log_line, records)))


def _cmd_detect_video(args) -> int:
    records, tally = detect_frame_sequence(args.frames)
    _emit_log(records, args.out)
    print(f"{len(records)} detections, {sum(tally.values())} undecodable frames",
          file=sys.stderr)
    return 0


def _cmd_gen_audio(args) -> int:
    schedule = ToneSchedule(epoch_ts=args.start_ts)
    pulses = args.duration_s * 1000.0 / schedule.pulse_period_ms
    if math.isinf(pulses) or round(pulses) > MAX_DEVICE_FRAMES:
        raise _FlagError(f"argument --duration-s: expected at most {MAX_DEVICE_FRAMES} pulses "
                         f"({schedule.pulse_period_ms} ms each), got {pulses:.7g}")
    n_slots = max(1, round(pulses))
    # the WAV holds whole slots, and detect-audio stamps sample s at s / rate
    slot_samples = round(schedule.pulse_period_ms * args.rate / 1000.0)
    _check_start_ts(args.start_ts,
                    args.start_ts + round((n_slots * slot_samples - 1) * 1000.0 / args.rate),
                    "last sample")
    pcm = synthesize(schedule, start_slot=0, n_slots=n_slots, rate=args.rate)
    write_wav(args.out, pcm)
    write_wav_manifest(args.out, args.device_id, schedule, stream_start_ts=args.start_ts)
    print(f"wrote {n_slots} pulses ({pcm.duration_ms / 1000.0:.1f} s) to {args.out}")
    return 0


def _cmd_detect_audio(args) -> int:
    records, tally = detect_wav(args.wav)
    _emit_log(records, args.out)
    counts = "".join(f", {count} {key}" for key, count in sorted(tally.items()))
    print(f"{len(records)} pulses detected{counts}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    scenario = scenario_from_file(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.physical:
        physical, symbolic = run_physical(scenario, out / "physical", seed=args.seed)
        write_log(out / "log.jsonl", physical.records)
        write_log(out / "log_symbolic.jsonl", symbolic.records)
        tally = physical.tally + symbolic.tally
        n = len(physical.records)
    else:
        result = run_scenario(scenario, seed=args.seed)
        write_log(out / "log.jsonl", result.records)
        tally = result.tally
        n = len(result.records)
    (out / "tally.json").write_text(json.dumps(dict(sorted(tally.items())), indent=2) + "\n")
    print(f"{n} records -> {out / 'log.jsonl'}")
    return 0


def _resolve_log(path_arg: str) -> Path:
    path = Path(path_arg)
    if path.is_dir():
        path = path / "log.jsonl"
    if not path.exists():
        raise FileNotFoundError(f"no detection log at {path}")
    return path


# a tally key is the middle of an exposition counter name, xr_<key>_total
_tally_key = re.compile(r"[A-Za-z0-9_]+").fullmatch


def _load_tally(log_path: Path) -> Counter:
    """The ``tally.json`` beside a log: an object of name -> integer >= 0,
    each name of letters, digits and ``_``.

    Anything else raises SchemaError naming ``tally.json`` and the key.
    """
    sidecar = log_path.parent / "tally.json"
    if not sidecar.exists():
        return Counter()
    try:
        doc = json_object(read_json(sidecar))
    except TypeError as exc:
        raise SchemaError("tally.json", str(exc)) from None
    tally: Counter = Counter()
    for key, value in doc.items():
        if not _tally_key(key):
            # the path holds the key escaped, so a newline in it cannot split the error
            raise SchemaError(f"tally.json.{ascii(key)[1:-1]}",
                              f"expected a key of [A-Za-z0-9_]+, got {key!r}")
        try:
            tally[key] = integer(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"tally.json.{key}", str(exc)) from None
        if tally[key] < 0:
            raise SchemaError(f"tally.json.{key}", f"expected a count >= 0, got {value!r}")
    return tally


def _scan_log(log_path: Path, epoch_ms: int) -> LatencyScan:
    """The scan of a log and of the ``tally.json`` beside it: what ``analyze``
    and ``serve`` both render.

    The log's records stream from ``read_log`` into the scan one at a time;
    a bad line raises before the scan returns, so nothing is rendered.
    """
    return scan_log(read_log(log_path), _load_tally(log_path), epoch_ms)


def _cmd_analyze(args) -> int:
    log_path = _resolve_log(args.log)
    scan = _scan_log(log_path, args.epoch_ms)
    report = build_report(scan)
    out = Path(args.out) if args.out else log_path.parent
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    write_epoch_series_csv(out / "epochs.csv", scan)
    total = sum(report["sample_count"].values())
    means = ", ".join(f"{media} {value:.1f} ms"
                      for media, value in sorted(report["mean_latency_ms"].items()))
    print(f"{total} samples ({means or 'no latencies'}) -> {out / 'report.json'}")
    return 0


def _cmd_serve(args) -> int:
    exposition = render_exposition(_scan_log(_resolve_log(args.log), DEFAULT_EPOCH_MS))
    if args.serve_port == 0:
        sys.stdout.write(exposition)
        return 0
    server = make_server(exposition, port=args.serve_port)
    host, port = server.server_address[:2]
    print(f"serving metrics on http://{host}:{port}/metrics", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


_COMMANDS = {
    "gen-video": _cmd_gen_video,
    "detect-video": _cmd_detect_video,
    "gen-audio": _cmd_gen_audio,
    "detect-audio": _cmd_detect_audio,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "serve": _cmd_serve,
}


def run(argv: list[str] | None = None) -> int:
    """Parse and execute; 0 success, 1 runtime error, 2 usage error."""
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage/help itself
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except _FlagError as exc:
        print(f"xrprobe {args.command}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"xrprobe {args.command}: {exc}", file=sys.stderr)
        log.debug("traceback", exc_info=True)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
