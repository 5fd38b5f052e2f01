"""Detection-log persistence, pull-style metrics exposition, and the HTTP
endpoint that serves one rendered exposition.

The record itself is ``metrics.DetectionRecord``; this module only
persists it. The exposition is a second rendering of the
``metrics.LatencyScan`` that ``analyze`` builds ``report.json`` from, so
both outputs of one log rest on the same kept latencies and the same tally,
the one the scan carries.

Log format: JSON lines, one detection per line. ``write_log`` writes each
record as ``json.dumps(..., sort_keys=True)`` would, with the optional
fields left out when None:

    {"confidence": C, "device": "D", "emission_ts": E, "frequency": F,
     "media": "M", "playout_ts": P, "slot": S}

``read_log`` reads the file once (a file that is not UTF-8 twice), closes
it, splits it on newlines only and then yields the records one at a time, so
the scan that consumes them never holds the whole log as records. A line in
the layout above, as ``format_log_line`` writes it, is read by one compiled
pattern and never reaches the JSON decoder. Every other line is decoded once
and checked: it is accepted when it is one whole JSON object with media
"video" or "audio", a string device, integer timestamps in
0..``clocks.MAX_TIMESTAMP``, an integer or null slot, and a number or null
frequency and confidence (an integer is widened to float). Both paths give
the same record for the same line. Every other line, an integer past the
interpreter's digit limit, nesting past its recursion limit or bytes that
are not UTF-8 included, raises a ``ParseError`` naming that line, after the
records of the lines before it.

Exposition format: one `name{label="value"} number` line per metric, all
metric names prefixed `xr_`, lines sorted lexicographically so scrapes
are stable and diffable.

The HTTP endpoint serves one exposition, rendered and encoded once, at
``GET /metrics``: a finished log has nothing left to update.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

from .clocks import MAX_TIMESTAMP
from .metrics import AUDIO, VIDEO, DetectionRecord, LatencyScan, new_record


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


_MEDIA = (VIDEO, AUDIO)
_scan = json.JSONDecoder().scan_once

# An integer as JSON writes it, of at most 20 digits (2**64-1 has 20), so
# int() never meets the digit limit; [0-9], as \d also matches other scripts'
# digits and int() reads them.
_INT = r"(-?(?:0|[1-9][0-9]{0,19}))"
# A timestamp of at most 19 digits, all within 0..MAX_TIMESTAMP: a negative
# one or one of 20 digits falls through to the range check.
_TS = r"(0|[1-9][0-9]{0,18})"
# A JSON number with a fraction or an exponent, as float.__repr__ writes
# every finite float: the decoder reads it with float(), as is. An integer
# frequency, NaN and Infinity go through the decoder.
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
# A device with no quote, backslash or control character is its own text.
_DEVICE = r'"([^"\\\x00-\x1f]*)"'
# The layout format_log_line writes. Its lines with a non-finite number, an
# escaped character in the device, a slot past 20 digits or a timestamp
# outside _TS fall through.
_written_line = re.compile(
    rf'\{{(?:"confidence": {_FLOAT}, )?"device": {_DEVICE}, "emission_ts": {_TS}, '
    rf'(?:"frequency": {_FLOAT}, )?"media": "(?:(v)ideo|audio)", "playout_ts": {_TS}, '
    rf'"slot": (?:null|{_INT})\}}').fullmatch


def read_log(path: str | Path) -> Iterator[DetectionRecord]:
    """Every record of a detection log, yielded in log order as its line is
    read.

    The file is read whole and closed before the first record. A line as
    ``format_log_line`` writes it is read by one compiled pattern. Every
    other line runs one set of checks, in this order: one whole JSON value
    that is an object, the required fields, then media, device, the two
    timestamps (each an integer in 0..MAX_TIMESTAMP), slot, frequency and
    confidence. Both give the same record for the same line. The first line
    that fails, an integer past the digit limit, nesting past the recursion
    limit or bytes that are not UTF-8 included, raises ParseError with its
    number and the reason, after the records of the lines before it. Only a
    file that is not UTF-8 is read a second time.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")  # what file iteration splits on; not splitlines()
        undecodable = None
    except UnicodeDecodeError:
        lines, undecodable = _lines_before_undecodable(path)
    for line_no, written in enumerate(map(_written_line, lines), start=1):
        if written is not None:
            confidence, device, emission_ts, frequency, video, playout_ts, slot = written.groups()
            # a group is None or non-empty text, so `g and f(g)` is None or f(g)
            yield new_record((AUDIO if video is None else VIDEO, device, int(emission_ts),
                              int(playout_ts), slot and int(slot), frequency and float(frequency),
                              confidence and float(confidence)))
            continue
        line = lines[line_no - 1].strip()
        if not line:
            continue
        try:
            doc, end = _scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = None
        if end != len(line):  # not one whole JSON value: the decoder names the reason
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, f"invalid JSON ({exc.msg})") from exc
            except (ValueError, RecursionError) as exc:  # digit limit, nesting limit
                raise ParseError(line_no, f"invalid JSON ({exc})") from exc
        try:  # any JSON value but an object raises TypeError at the first key
            media, device = doc["media"], doc["device"]
            emission_ts, playout_ts = doc["emission_ts"], doc["playout_ts"]
        except TypeError:
            raise ParseError(line_no, "record must be a JSON object") from None
        except KeyError as exc:  # read left to right: the first missing field
            raise ParseError(line_no, f"missing field {exc.args[0]!r}") from None
        if media not in _MEDIA:
            raise ParseError(line_no, f"unknown media {media!r}")
        # exact type checks: true, 1.7 or "0.5" is rejected, not coerced
        if type(device) is not str:
            raise ParseError(line_no, f"field 'device' must be a string, got {device!r}")
        _check_timestamp(line_no, "emission_ts", emission_ts)
        _check_timestamp(line_no, "playout_ts", playout_ts)
        slot, frequency, confidence = doc.get("slot"), doc.get("frequency"), doc.get("confidence")
        if slot is not None and type(slot) is not int:
            raise ParseError(line_no, f"field 'slot' must be an integer, got {slot!r}")
        if frequency is not None and type(frequency) is not float:
            frequency = _as_float(line_no, "frequency", frequency)
        if confidence is not None and type(confidence) is not float:
            confidence = _as_float(line_no, "confidence", confidence)
        yield DetectionRecord(media, device, emission_ts, playout_ts, slot, frequency, confidence)
    if undecodable is not None:
        raise undecodable


def _check_timestamp(line_no: int, key: str, value) -> None:
    """Raise ParseError unless ``value`` is an integer in 0..MAX_TIMESTAMP."""
    if type(value) is not int:
        raise ParseError(line_no, f"field {key!r} must be an integer, got {value!r}")
    if not 0 <= value <= MAX_TIMESTAMP:
        raise ParseError(line_no, f"field {key!r} must be in 0..2**64-1, got {value}")


def _lines_before_undecodable(path: str | Path) -> tuple[list[str], ParseError | None]:
    """The lines of a file up to the first that is not UTF-8, and the
    ParseError naming that line. The bytes split as text mode's universal
    newlines split the text: CR and LF never occur inside a multi-byte UTF-8
    sequence."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines: list[str] = []
    for raw in data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n"):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            return lines, ParseError(len(lines) + 1, f"invalid UTF-8 ({exc})")
    return lines, None


def _as_float(line_no: int, key: str, value) -> float:
    """A JSON integer widened to float; a bool, a string, any other value or
    an integer past float range raises ParseError."""
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    raise ParseError(line_no, f"field {key!r} must be a number, got {value!r}")


# --- exposition ------------------------------------------------------------------

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


def render_exposition(scan: LatencyScan) -> str:
    """Text exposition of the scan ``build_report`` reads, its tally
    included; an empty scan of an empty tally renders an empty body.

    The latency gauges are each (media, device)'s last latency, and the skew
    gauge is a device's last video minus its last audio latency.
    """
    last = scan.last
    lines: list[str] = []
    for (media, device), value in last.items():
        name = "xr_m2p_latency_ms" if media == VIDEO else "xr_m2e_latency_ms"
        lines.append(f'{name}{{device="{_label(device)}"}} {_num(value)}')
        if media == VIDEO and (AUDIO, device) in last:
            skew = value - last[(AUDIO, device)]
            lines.append(f'xr_intra_media_skew_ms{{device="{_label(device)}"}} {_num(skew)}')
    for (slot, media), latencies in scan.slots.items():
        lines.append(f'xr_slot_detections_total{{media="{_label(media)}",slot="{slot}"}} '
                     f'{len(latencies)}')
    merged: Counter = Counter()
    for key, count in scan.tally.items():
        merged[_COUNTER_NAMES.get(key, f"xr_{key}_total")] += count
    for name, count in merged.items():
        lines.append(f"{name} {count}")
    lines.sort()
    return "".join(line + "\n" for line in lines)


# --- HTTP endpoint -----------------------------------------------------------------

# seconds a client may stall partway through its request line or headers
# before the handler drops the connection
READ_TIMEOUT_S = 5.0


class _Handler(BaseHTTPRequestHandler):
    exposition: bytes  # bound by make_server
    timeout = READ_TIMEOUT_S

    def do_GET(self):  # noqa: N802 (http.server naming)
        if self.path.split("?")[0] != "/metrics":
            self._send(404, "text/plain", b"not found\n")
            return
        self._send(200, "text/plain; version=0.0.4", self.exposition)

    def _send(self, code: int, ctype: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):  # silence per-request stderr noise
        pass


def make_server(exposition: str, port: int = 0) -> ThreadingHTTPServer:
    """Serve ``exposition`` at ``GET /metrics``; port 0 picks an ephemeral port.

    Every other path answers 404 and every other method 501.
    """
    handler = type("BoundHandler", (_Handler,), {"exposition": exposition.encode()})
    return ThreadingHTTPServer(("127.0.0.1", port), handler)
