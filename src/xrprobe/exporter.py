"""Detection-log persistence, pull-style metrics exposition, and the HTTP
service that serves the exposition and retunes the quality adaptation.

The record itself is ``metrics.DetectionRecord``; this module only
persists it and exposes it.

Log format: JSON lines, one detection per line. ``write_log`` writes each
record as ``json.dumps(..., sort_keys=True)`` would, with the optional
fields left out when None:

    {"confidence": C, "device": "D", "emission_ts": E, "frequency": F,
     "media": "M", "playout_ts": P, "slot": S}

``read_log`` reads the file once, splits it on newlines only and decodes
each line with the C JSON scanner. A line is taken on that fast path only
when it is one whole JSON object with the canonical types: media "video"
or "audio", a string device, integer timestamps, an integer or null slot,
and a float or null frequency and confidence. Anything else, valid or not,
sends the whole file through the per-line parser, which is the only place
a ``ParseError`` is raised; so both paths accept the same logs, read them
to equal records, and reject the rest with the same line and message.

Exposition format: one `name{label="value"} number` line per metric, all
metric names prefixed `xr_`, lines sorted lexicographically so scrapes
are stable and diffable.
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable

from .metrics import AUDIO, VIDEO, DetectionRecord, valid_latency
from .scenario import QualitySpec
from .schema import SchemaError, finite, read_fields, text


class ParseError(ValueError):
    """Malformed detection log; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# json.dumps spells the non-finite floats as JavaScript does
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_int = int.__repr__


def _number(value: float) -> str:
    """A JSON number exactly as json.dumps writes it (float subclasses too)."""
    if isinstance(value, float):
        digits = float.__repr__(value)
        return _NON_FINITE.get(digits, digits)
    return _int(value)


def format_log_line(rec: DetectionRecord) -> str:
    """One log line, newline included: the bytes of json.dumps(sort_keys=True)."""
    confidence = "" if rec.confidence is None else f'"confidence": {_number(rec.confidence)}, '
    frequency = "" if rec.frequency is None else f'"frequency": {_number(rec.frequency)}, '
    slot = "null" if rec.slot is None else _int(rec.slot)
    return (f'{{{confidence}"device": {encode_basestring_ascii(rec.device)}, '
            f'"emission_ts": {_int(rec.emission_ts)}, {frequency}'
            f'"media": {encode_basestring_ascii(rec.media)}, '
            f'"playout_ts": {_int(rec.playout_ts)}, "slot": {slot}}}\n')


def write_log(path: str | Path, records: Iterable[DetectionRecord]) -> None:
    body = "".join(map(format_log_line, records))
    with open(path, "w") as fh:
        fh.write(body)


_REQUIRED = ("media", "device", "emission_ts", "playout_ts")
_MEDIA = (VIDEO, AUDIO)
_scan = json.JSONDecoder().scan_once


def read_log(path: str | Path) -> list[DetectionRecord]:
    """Every record of a detection log; ParseError names the first bad line."""
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")  # what file iteration splits on; not splitlines()
        records: list[DetectionRecord] = []
        append = records.append
        for line in lines:
            line = line.strip()
            if not line:
                continue
            doc, end = _scan(line, 0)
            if end != len(line):
                return _read_log_per_line(path)
            media, device = doc["media"], doc["device"]
            emission_ts, playout_ts = doc["emission_ts"], doc["playout_ts"]
            slot, frequency, confidence = doc.get("slot"), doc.get("frequency"), doc.get("confidence")
            if (media not in _MEDIA or type(device) is not str
                    or type(emission_ts) is not int or type(playout_ts) is not int
                    or (slot is not None and type(slot) is not int)
                    or (frequency is not None and type(frequency) is not float)
                    or (confidence is not None and type(confidence) is not float)):
                return _read_log_per_line(path)
            append(DetectionRecord(media, device, emission_ts, playout_ts,
                                   slot, frequency, confidence))
    except (ValueError, LookupError, TypeError, StopIteration, RecursionError):
        # undecodable text, bad JSON, a non-object line or a missing field:
        # the reference parser names the first offending line
        return _read_log_per_line(path)
    return records


def _not_integer(line_no: int, key: str, value) -> ParseError:
    return ParseError(line_no, f"field {key!r} must be an integer, got {value!r}")


def _read_log_per_line(path: str | Path) -> list[DetectionRecord]:
    """The reference parser: every log ``read_log`` cannot take whole."""
    records: list[DetectionRecord] = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(doc, dict):
                raise ParseError(line_no, "record must be a JSON object")
            for key in _REQUIRED:
                if key not in doc:
                    raise ParseError(line_no, f"missing field {key!r}")
            if doc["media"] not in _MEDIA:
                raise ParseError(line_no, f"unknown media {doc['media']!r}")
            # exact type checks: true or 1.7 is rejected, not truncated
            emission_ts, playout_ts, slot = doc["emission_ts"], doc["playout_ts"], doc.get("slot")
            if type(emission_ts) is not int:
                raise _not_integer(line_no, "emission_ts", emission_ts)
            if type(playout_ts) is not int:
                raise _not_integer(line_no, "playout_ts", playout_ts)
            if slot is not None and type(slot) is not int:
                raise _not_integer(line_no, "slot", slot)
            try:
                records.append(
                    DetectionRecord(
                        media=doc["media"],
                        device=str(doc["device"]),
                        emission_ts=emission_ts,
                        playout_ts=playout_ts,
                        slot=slot,
                        frequency=None if doc.get("frequency") is None else float(doc["frequency"]),
                        confidence=None if doc.get("confidence") is None else float(doc["confidence"]),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise ParseError(line_no, str(exc)) from exc
    return records


# --- snapshot and exposition ----------------------------------------------------

@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable view of the latest per-device gauges and cumulative counters."""

    m2p_ms: dict[str, float]
    m2e_ms: dict[str, float]
    skew_ms: dict[str, float]
    slot_counts: dict[tuple[str, int], int]
    tallies: dict[str, int]


def snapshot_from_records(records: Iterable[DetectionRecord],
                          tally: Counter | None = None) -> MetricsSnapshot:
    """Latest-latency gauges per device plus per-slot detection counters."""
    m2p: dict[str, float] = {}
    m2e: dict[str, float] = {}
    slot_counts: Counter = Counter()
    tallies: Counter = Counter(tally or {})
    for rec in records:
        latency = valid_latency(rec, tallies)
        if latency is None:
            continue
        if rec.media == VIDEO:
            m2p[rec.device] = latency
        else:
            m2e[rec.device] = latency
        if rec.slot is not None:
            slot_counts[(rec.media, rec.slot)] += 1
    skew = {dev: m2p[dev] - m2e[dev] for dev in m2p.keys() & m2e.keys()}
    return MetricsSnapshot(
        m2p_ms=m2p,
        m2e_ms=m2e,
        skew_ms=skew,
        slot_counts=dict(slot_counts),
        tallies=dict(tallies),
    )


def _num(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


_COUNTER_NAMES = {
    "crc_mismatch": "xr_crc_failures_total",
    "finder_not_found": "xr_finder_failures_total",
    "unknown_tone": "xr_unknown_tones_total",
    "ambiguous": "xr_ambiguous_tones_total",
    "clock_skew_suspected": "xr_negative_latencies_total",
}


# label values escape backslash, double quote and newline (Prometheus text format)
_LABEL_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n"})


def _label(value: str) -> str:
    return value.translate(_LABEL_ESCAPES)


def render_exposition(snapshot: MetricsSnapshot) -> str:
    """Text exposition of a snapshot; empty snapshot renders an empty body."""
    lines: list[str] = []
    for device, value in snapshot.m2p_ms.items():
        lines.append(f'xr_m2p_latency_ms{{device="{_label(device)}"}} {_num(value)}')
    for device, value in snapshot.m2e_ms.items():
        lines.append(f'xr_m2e_latency_ms{{device="{_label(device)}"}} {_num(value)}')
    for device, value in snapshot.skew_ms.items():
        lines.append(f'xr_intra_media_skew_ms{{device="{_label(device)}"}} {_num(value)}')
    for (media, slot), count in snapshot.slot_counts.items():
        lines.append(f'xr_slot_detections_total{{media="{_label(media)}",slot="{slot}"}} {count}')
    merged: Counter = Counter()
    for key, count in snapshot.tallies.items():
        merged[_COUNTER_NAMES.get(key, f"xr_{key}_total")] += count
    for name, count in merged.items():
        lines.append(f"{name} {count}")
    lines.sort()
    return "".join(line + "\n" for line in lines)


# --- control service --------------------------------------------------------------

class ExporterState:
    """Shared state behind the service: one writer, many readers."""

    def __init__(self, snapshot: MetricsSnapshot | None = None):
        self._lock = threading.Lock()
        self._snapshot = snapshot or MetricsSnapshot({}, {}, {}, {}, {})
        self._quality = QualitySpec()
        self._level = self._quality.initial_level

    def update_snapshot(self, snapshot: MetricsSnapshot) -> None:
        with self._lock:
            self._snapshot = snapshot

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return self._snapshot

    def config(self) -> dict:
        with self._lock:
            return {
                "level": self._level,
                "levels": list(self._quality.levels),
                "step_down_threshold_ms": self._quality.step_down_threshold_ms,
                "step_up_threshold_ms": self._quality.step_up_threshold_ms,
                "dwell_s": self._quality.dwell_s,
            }

    def apply_config(self, change: dict) -> dict:
        """Apply a partial config change; returns the full applied config.

        Values are typed and checked by the scenario loader's rules, and any
        rejection is a SchemaError naming the field.
        """
        values = read_fields(change, "", level=text, step_down_threshold_ms=finite,
                             step_up_threshold_ms=finite, dwell_s=finite)
        level = values.pop("level", None)
        with self._lock:
            # replace() re-runs __post_init__, which validates the thresholds
            quality = replace(self._quality, **values)
            level = self._level if level is None else level
            if level not in quality.levels:
                raise SchemaError("level", f"unknown level {level!r}")
            self._quality = quality
            self._level = level
        return self.config()


# seconds a request may stall mid-read; a body shorter than its
# Content-Length then gets a 400 instead of holding the handler thread
READ_TIMEOUT_S = 5.0


class _Handler(BaseHTTPRequestHandler):
    state: ExporterState  # injected by make_server
    timeout = READ_TIMEOUT_S

    def do_GET(self):  # noqa: N802 (http.server naming)
        if self.path.split("?")[0] != "/metrics":
            self._send(404, "text/plain", b"not found\n")
            return
        body = render_exposition(self.state.snapshot()).encode()
        self._send(200, "text/plain; version=0.0.4", body)

    def do_POST(self):  # noqa: N802
        if self.path.split("?")[0] != "/config":
            self._send(404, "text/plain", b"not found\n")
            return
        try:
            length = self.headers.get("Content-Length", "0")
            if not length.isdecimal():
                raise SchemaError("Content-Length", f"expected a byte count, got {length!r}")
            try:
                body = self.rfile.read(int(length))
            except TimeoutError:
                body = b""
            if len(body) < int(length):
                raise SchemaError("Content-Length",
                                  f"body ended before the declared {length} bytes")
            change = json.loads(body or b"{}")
            applied = self.state.apply_config(change)
        except ValueError as exc:
            self._send(400, "application/json",
                       json.dumps({"error": str(exc)}).encode())
            return
        self._send(200, "application/json", json.dumps(applied, sort_keys=True).encode())

    def _send(self, code: int, ctype: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):  # silence per-request stderr noise
        pass


def make_server(state: ExporterState, port: int = 0) -> ThreadingHTTPServer:
    """Bind the metrics/config service; port 0 picks an ephemeral port."""
    handler = type("BoundHandler", (_Handler,), {"state": state})
    return ThreadingHTTPServer(("127.0.0.1", port), handler)


def serve_forever(server: ThreadingHTTPServer) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread
