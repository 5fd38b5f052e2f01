"""Log persistence, exposition text, and the HTTP endpoint."""

import collections
import contextlib
import io
import json
import random
import re
import socket
import tempfile
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xrprobe import exporter
from xrprobe.cli import run
from xrprobe.exporter import (
    READ_TIMEOUT_S,
    ParseError,
    format_log_line,
    make_server,
    read_log,
    render_exposition,
    write_log,
)
from xrprobe.metrics import DetectionRecord, scan_log


def random_records(seed, n):
    rng = random.Random(seed)
    recs = []
    for _ in range(n):
        media = rng.choice(("video", "audio"))
        emission = rng.randrange(0, 10**9)
        recs.append(DetectionRecord(
            media=media,
            device=f"u{rng.randint(1, 5)}",
            emission_ts=emission,
            playout_ts=emission + rng.randrange(0, 2000),
            slot=rng.choice((None, rng.randint(1, 5))),
            frequency=rng.choice((None, 600.0 + 120 * rng.randint(0, 31))),
            confidence=rng.choice((None, round(rng.random(), 3))),
        ))
    return recs


class TestLogRoundtrip:
    def test_empty(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [])
        assert path.read_text() == ""
        assert list(read_log(path)) == []

    def test_thousand_random_records(self, tmp_path):
        recs = random_records(1, 1000)
        path = tmp_path / "log.jsonl"
        write_log(path, recs)
        assert list(read_log(path)) == recs

    def test_optional_fields_omitted_when_none(self, tmp_path):
        rec = DetectionRecord(media="video", device="u1", emission_ts=1, playout_ts=2)
        path = tmp_path / "log.jsonl"
        write_log(path, [rec])
        assert path.read_text() == ('{"device": "u1", "emission_ts": 1, "media": "video", '
                                    '"playout_ts": 2, "slot": null}\n')

    def test_malformed_line_cites_line_number(self, tmp_path):
        recs = random_records(2, 10)
        path = tmp_path / "log.jsonl"
        write_log(path, recs)
        lines = path.read_text().splitlines()
        lines[6] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            list(read_log(path))
        assert err.value.line_no == 7
        assert "line 7" in str(err.value)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"media": "video", "device": "u1", "emission_ts": 5}\n')
        with pytest.raises(ParseError):
            list(read_log(path))

    def test_bad_media_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"media": "smell", "device": "u1", '
                        '"emission_ts": 5, "playout_ts": 9}\n')
        with pytest.raises(ParseError):
            list(read_log(path))


    @pytest.mark.parametrize("key", ["emission_ts", "playout_ts", "slot"])
    @pytest.mark.parametrize("value", [1.7, 5.0, True, False, "5"])
    def test_non_integer_field_rejected(self, tmp_path, key, value):
        good = {"media": "video", "device": "u1", "emission_ts": 5, "playout_ts": 9, "slot": 1}
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(good | {key: value}) + "\n")
        with pytest.raises(ParseError) as err:
            list(read_log(path))
        assert err.value.line_no == 2
        assert repr(key) in str(err.value)

    def test_null_slot_accepted(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"media": "audio", "device": "u1", "emission_ts": 5, '
                        '"playout_ts": 9, "slot": null}\n')
        assert next(read_log(path)).slot is None

    @pytest.mark.parametrize("key, value", [
        ("device", None), ("device", 7), ("device", True), ("device", ["u1"]),
        ("frequency", True), ("frequency", "600.0"), ("frequency", [600.0]),
        ("confidence", False), ("confidence", "0.5"), ("confidence", 10**400)],
        ids=lambda v: repr(v)[:12])
    def test_uncoerced_field_rejected(self, tmp_path, key, value):
        good = {"media": "audio", "device": "u1", "emission_ts": 5, "playout_ts": 9}
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(good | {key: value}) + "\n")
        with pytest.raises(ParseError) as err:
            list(read_log(path))
        assert err.value.line_no == 2
        assert repr(key) in str(err.value)

    def test_integer_frequency_and_confidence_read_as_floats(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"media": "audio", "device": "u1", "emission_ts": 5, '
                        '"playout_ts": 9, "frequency": 600, "confidence": 1}\n')
        rec = next(read_log(path))
        assert (rec.frequency, rec.confidence) == (600.0, 1.0)
        assert type(rec.frequency) is type(rec.confidence) is float

    @pytest.mark.parametrize("key", ["emission_ts", "playout_ts"])
    @pytest.mark.parametrize("value", [-1, 2**64, 10**400])
    def test_timestamp_outside_the_range_rejected(self, tmp_path, key, value):
        good = {"media": "video", "device": "u1", "emission_ts": 5, "playout_ts": 9, "slot": 1}
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(good | {key: value}) + "\n")
        with pytest.raises(ParseError) as err:
            list(read_log(path))
        assert err.value.line_no == 2
        assert f"field {key!r} must be in 0..2**64-1, got {value}" in str(err.value)

    def test_records_stream_until_the_bad_line(self, tmp_path, monkeypatch):
        recs = random_records(5, 4)
        path = tmp_path / "log.jsonl"
        write_log(path, recs)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "{not json\n"
        path.write_text("".join(lines))
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(exporter, "open", recording_open, raising=False)
        reader = read_log(path)
        assert iter(reader) is reader
        assert handles == []  # nothing is read before the first record is asked for
        assert next(reader) == recs[0]
        assert len(handles) == 1 and handles[0].closed
        assert next(reader) == recs[1]
        with pytest.raises(ParseError) as err:
            next(reader)
        assert err.value.line_no == 3

    def test_file_opened_once_for_a_non_canonical_line(self, tmp_path, monkeypatch):
        path = tmp_path / "log.jsonl"
        write_log(path, random_records(3, 50))
        with open(path, "a") as fh:
            fh.write('{"media": "audio", "device": "u1", "emission_ts": 5, '
                     '"playout_ts": 9, "frequency": 600}\n')
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(exporter, "open", counting_open, raising=False)
        assert list(read_log(path))[-1].frequency == 600.0
        assert opened == [path]


# --- log reader and writer against their references ---------------------------------

def per_line_oracle(path):
    """The per-line log parser as it was before the fast path, with a device
    that is not a string and a frequency or confidence that is not a JSON
    number rejected rather than coerced, a timestamp outside 0..2**64-1
    rejected, and an over-long integer, nesting past the recursion limit or
    bytes that are not UTF-8 named by their line: the reference."""
    records = []
    with open(path, "rb") as fh:
        raw_lines = re.split(rb"\r\n|\r|\n", fh.read())  # text mode's universal newlines
    for line_no, raw in enumerate(raw_lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ParseError(line_no, f"invalid UTF-8 ({exc})") from exc
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON ({exc.msg})") from exc
        except (ValueError, RecursionError) as exc:  # digit limit, nesting limit
            raise ParseError(line_no, f"invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ParseError(line_no, "record must be a JSON object")
        for key in ("media", "device", "emission_ts", "playout_ts"):
            if key not in doc:
                raise ParseError(line_no, f"missing field {key!r}")
        if doc["media"] not in ("video", "audio"):
            raise ParseError(line_no, f"unknown media {doc['media']!r}")
        emission_ts, playout_ts, slot = doc["emission_ts"], doc["playout_ts"], doc.get("slot")
        if not isinstance(doc["device"], str):
            raise ParseError(line_no, f"field 'device' must be a string, got {doc['device']!r}")
        for key, value in (("emission_ts", emission_ts), ("playout_ts", playout_ts)):
            if type(value) is not int:
                raise ParseError(line_no, f"field {key!r} must be an integer, got {value!r}")
            if not 0 <= value <= 2**64 - 1:
                raise ParseError(line_no, f"field {key!r} must be in 0..2**64-1, got {value}")
        if slot is not None and type(slot) is not int:
            raise ParseError(line_no, f"field 'slot' must be an integer, got {slot!r}")
        numbers = {}
        for key in ("frequency", "confidence"):
            value = doc.get(key)
            try:
                # exact types: bool is an int subclass and must not pass
                numbers[key] = {type(None): lambda v: v, int: float, float: float}[
                    type(value)](value)
            except (KeyError, OverflowError):
                raise ParseError(line_no, f"field {key!r} must be a number, "
                                          f"got {value!r}") from None
        records.append(DetectionRecord(
            media=doc["media"], device=doc["device"],
            emission_ts=emission_ts, playout_ts=playout_ts, slot=slot, **numbers))
    return records


def outcome(reader, path):
    """Records by repr (types and NaN included), or the error's type, line and text."""
    try:
        return "ok", [repr(rec) for rec in reader(path)]
    except Exception as exc:  # the reference may raise more than ParseError
        return type(exc).__name__, getattr(exc, "line_no", None), str(exc)


def assert_reads_as_oracle(text: str | bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/log.jsonl"
        with open(path, "wb") as fh:
            fh.write(text if isinstance(text, bytes) else text.encode())
        assert outcome(read_log, path) == outcome(per_line_oracle, path)


def record_doc(rec):
    """The dict json.dumps would be given for one record."""
    doc = {"media": rec.media, "device": rec.device, "emission_ts": rec.emission_ts,
           "playout_ts": rec.playout_ts, "slot": rec.slot}
    if rec.frequency is not None:
        doc["frequency"] = rec.frequency
    if rec.confidence is not None:
        doc["confidence"] = rec.confidence
    return doc


_DEVICES = st.text(max_size=6) | st.sampled_from(("u1", 'a"b', "c\\d", "\u00e9", "\u2028", "\x1c"))
_TIMESTAMPS = st.integers(-(2**64), 2**64)
_FLOATS = st.floats() | st.floats().map(np.float64)
_RECORDS = st.builds(
    DetectionRecord, media=st.sampled_from(("video", "audio")), device=_DEVICES,
    emission_ts=_TIMESTAMPS, playout_ts=_TIMESTAMPS,
    slot=st.none() | st.integers(-5, 2**40),
    frequency=st.none() | _FLOATS, confidence=st.none() | _FLOATS)

# values the canonical types leave out; the reference accepts some of them
_OFF_TYPE = {
    "emission_ts": (True, False, 1.5, 5.0, "5", None, 2**70 + 0.5),
    "playout_ts": (True, 7.0, "7", [7]),
    "slot": (True, 2.0, "1", {}),
    "frequency": ("600.0", 600, True, "x", [1], "nan"),
    "confidence": ("0.5", 1, False, {}),
    "device": (5, None, True, 1.5, ["u1"], {"id": 1}),
    "media": ("smell", 1, None, ["video"]),
}
# two objects on one line, joined by nothing, JSON whitespace, a comma, or
# characters that str.splitlines() splits on and file iteration does not
_JOINERS = ("", " ", ",", "\u2028", "\u2029", "\x1c", "\x1d", "\x1e", "\x85", "\x0b", "\x0c")


@st.composite
def _log_texts(draw):
    docs = [record_doc(rec) for rec in draw(st.lists(_RECORDS, max_size=6))]
    for doc in docs:
        change = draw(st.sampled_from(("none", "none", "off_type", "drop", "extra")))
        if change == "off_type":
            key = draw(st.sampled_from(sorted(_OFF_TYPE)))
            doc[key] = draw(st.sampled_from(_OFF_TYPE[key]))
        elif change == "drop":
            doc.pop(draw(st.sampled_from(sorted(doc))))
        elif change == "extra":
            doc["note"] = draw(st.sampled_from((1, "x", None, [1, {"a": 2}])))
    lines = [json.dumps(doc, sort_keys=draw(st.booleans()), ensure_ascii=draw(st.booleans()))
             for doc in docs]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(("blank", "truncate", "two_on_line", "split_object",
                                     "non_object", "bom")))
        if kind == "blank":
            lines.insert(at, draw(st.sampled_from(("", "  ", "\t", " \x0c ", "\u2028"))))
        elif kind == "non_object":
            lines.insert(at, draw(st.sampled_from(("[1, 2]", "5", '"s"', "null", "{not json",
                                                   "[]", "{}", "NaN"))))
        elif not lines:
            continue
        elif kind == "truncate":
            line = lines[at % len(lines)]
            lines[at % len(lines)] = line[:draw(st.integers(0, max(0, len(line) - 1)))]
        elif kind == "two_on_line":
            i = at % len(lines)
            lines[i] += draw(st.sampled_from(_JOINERS)) + lines[(i + 1) % len(lines)]
        elif kind == "split_object":
            # an object broken across two lines, plus a "{..},{..}" line elsewhere:
            # wrapping the file in [...] would still count the right elements
            whole = lines[at % len(lines)]
            cut = whole.find(", ")
            if cut > 0:
                lines[at % len(lines):at % len(lines) + 1] = [whole[:cut + 1], whole[cut + 1:]]
                lines.insert(draw(st.integers(0, len(lines))), whole + "," + whole)
        elif kind == "bom":
            lines[at % len(lines)] = "\ufeff" + lines[at % len(lines)]
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return newline.join(lines) + draw(st.sampled_from(("", newline)))


class TestLogOracle:
    @given(text=_log_texts())
    @settings(max_examples=400, deadline=None)
    def test_reader_matches_per_line_parser(self, text):
        assert_reads_as_oracle(text)

    GOOD = '{"device": "u1", "emission_ts": 5, "media": "video", "playout_ts": 9, "slot": 1}'
    NAMED = {
        "two_objects": GOOD + GOOD + "\n",
        "two_objects_space": GOOD + " " + GOOD + "\n",
        "two_objects_comma": GOOD + "," + GOOD + "\n",
        # separators str.splitlines() splits on and file iteration does not
        "two_objects_u2028": GOOD + "\u2028" + GOOD + "\n",
        "two_objects_x1c": GOOD + "\x1c" + GOOD + "\n",
        "split_object_and_pair": (GOOD + "\n" + GOOD[:20] + "\n" + GOOD[20:] + "\n"
                                  + GOOD + "," + GOOD + "\n"),
        "crlf_and_blank": GOOD + "\r\n\r\n  \n" + GOOD + "\r\n",
        "escaped_device": GOOD.replace('"u1"', '"\\u00e9\\"\\\\"') + "\n",
        "raw_non_ascii_device": GOOD.replace('"u1"', '"\u00e9\u2028"') + "\n",
        "int_device": GOOD.replace('"u1"', "7") + "\n",
        "null_device": GOOD.replace('"u1"', "null") + "\n",
        "int_frequency": GOOD.replace('"slot": 1', '"slot": 1, "frequency": 600') + "\n",
        "string_confidence": GOOD.replace('"slot": 1', '"slot": 1, "confidence": "0.5"') + "\n",
        "bool_frequency": GOOD.replace('"slot": 1', '"slot": 1, "frequency": true') + "\n",
        "huge_int_confidence": GOOD.replace('"slot": 1', '"slot": 1, "confidence": 1' + "0" * 400) + "\n",
        "bool_timestamp": GOOD.replace("5", "true", 1) + "\n",
        "float_timestamp": GOOD.replace("9", "9.0", 1) + "\n",
        "deep_nesting": GOOD + "\n" + "{" * 100_000 + "\n",
        "deep_array_nesting": GOOD + "\n" + "[" * 100_000 + "\n",
        "deep_object_nesting": GOOD + "\n" + '{"a":' * 100_000 + "\n",
        "over_long_integer": GOOD + "\n" + GOOD.replace("5", "1" + "0" * 5000, 1) + "\n",
        "bad_json_then_bad_utf8": (GOOD + "\n{\n" + GOOD + "\n").encode() + b"\xff\xfe\n",
        "bad_utf8_line_crlf": ((GOOD + "\r\n").encode() + GOOD.replace("u1", "u\xff").encode("latin-1")
                               + (b"\r\n" + GOOD.encode()) * 2),
        "utf8_sequence_cut_by_newline": (GOOD + "\r").encode() + b'"\xe2\x82\n\xac"\n',
    }

    @pytest.mark.parametrize("text", NAMED.values(), ids=NAMED.keys())
    def test_named_cases(self, text):
        assert_reads_as_oracle(text)

    # a line as the writer writes it, then lines one step off its layout
    WRITTEN = ('{"confidence": 1.0, "device": "u1", "emission_ts": 1700000000001, '
               '"frequency": 600.0, "media": "audio", "playout_ts": 1700000000338, "slot": 1}')
    NEAR_MISSES = {
        "leading_zero": WRITTEN.replace("1700000000001", "01700000000001"),
        "minus_zero": WRITTEN.replace("1700000000001", "-0"),
        "20_digits": WRITTEN.replace("1700000000001", "9" * 20),
        "21_digits": WRITTEN.replace("1700000000001", "1" + "0" * 20),
        "two_to_the_64": WRITTEN.replace("1700000000338", str(2**64)),
        "top_timestamp": WRITTEN.replace("1700000000338", str(2**64 - 1)),
        "19_digits": WRITTEN.replace("1700000000338", "9" * 19),
        "negative_timestamp": WRITTEN.replace("1700000000001", "-1"),
        "400_digit_timestamp": WRITTEN.replace("1700000000338", "1" + "0" * 400),
        "arabic_indic_digits": WRITTEN.replace("1700000000001", "\u0661\u0667\u0660\u0660"),
        "arabic_indic_after_a_digit": WRITTEN.replace("1700000000001", "1\u0667\u0660\u0660"),
        "integer_frequency": WRITTEN.replace("600.0", "600"),
        "integer_frequency_past_float_range": WRITTEN.replace("600.0", "1" + "0" * 400),
        "frequency_past_float_range": WRITTEN.replace("600.0", "1e999"),
        "nan_frequency": WRITTEN.replace("600.0", "NaN"),
        "minus_infinity_frequency": WRITTEN.replace("600.0", "-Infinity"),
        "float_slot": WRITTEN.replace('"slot": 1', '"slot": 1.0'),
        "true_timestamp": WRITTEN.replace("1700000000338", "true"),
        "raw_u2028_device": WRITTEN.replace('"u1"', '"u\u20281"'),
        "raw_del_device": WRITTEN.replace('"u1"', '"u\x7f1"'),
        "raw_tab_device": WRITTEN.replace('"u1"', '"u\t1"'),
        "duplicate_device": WRITTEN.replace('"device": "u1"', '"device": "u1", "device": "u2"'),
        "trailing_space": WRITTEN + " ",
        "crlf": WRITTEN + "\r",
    }

    @pytest.mark.parametrize("line", NEAR_MISSES.values(), ids=NEAR_MISSES.keys())
    def test_near_misses_of_the_written_layout(self, line):
        assert_reads_as_oracle(self.WRITTEN + "\n" + line + "\n" + self.WRITTEN + "\n")

    @pytest.mark.parametrize("name, line_no", [
        ("bad_utf8_line_crlf", 2), ("bad_json_then_bad_utf8", 2),
        ("utf8_sequence_cut_by_newline", 2)])
    def test_first_bad_line_is_named(self, tmp_path, name, line_no):
        path = tmp_path / "log.jsonl"
        path.write_bytes(self.NAMED[name])
        with pytest.raises(ParseError) as raised:
            list(read_log(path))
        assert raised.value.line_no == line_no

    @given(recs=st.lists(_RECORDS, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_writer_is_json_dumps(self, recs):
        lines = [json.dumps(record_doc(rec), sort_keys=True) + "\n" for rec in recs]
        assert [format_log_line(rec) for rec in recs] == lines
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/log.jsonl"
            write_log(path, recs)
            with open(path, "rb") as fh:
                assert fh.read() == "".join(lines).encode()
            assert outcome(read_log, path) == outcome(per_line_oracle, path)
            # the first timestamp outside 0..2**64-1 is named; without one, the
            # records read back are written again as the same bytes
            outside = next(((line_no, key) for line_no, rec in enumerate(recs, start=1)
                            for key in ("emission_ts", "playout_ts")
                            if not 0 <= getattr(rec, key) <= 2**64 - 1), None)
            if outside is None:
                assert "".join(map(format_log_line, read_log(path))) == "".join(lines)
            else:
                with pytest.raises(ParseError) as raised:
                    list(read_log(path))
                assert raised.value.line_no == outside[0]
                assert f"field {outside[1]!r} must be in 0..2**64-1" in str(raised.value)

    def test_writer_non_finite_and_null_slot(self):
        rec = DetectionRecord(media="audio", device="u1", emission_ts=1, playout_ts=2,
                              frequency=float("nan"), confidence=float("-inf"))
        assert format_log_line(rec) == (
            '{"confidence": -Infinity, "device": "u1", "emission_ts": 1, "frequency": NaN, '
            '"media": "audio", "playout_ts": 2, "slot": null}\n')


class TestWrittenLogsSkipTheDecoder:
    """Every line the tool writes is read by the pattern alone, into the
    reference's records: a writer change that sent its lines to the JSON
    decoder fails here instead of only running slower."""

    @staticmethod
    def assert_read_without_decoder(monkeypatch, *paths):
        expected = [outcome(per_line_oracle, path) for path in paths]

        def refuse(*_):
            raise AssertionError("a written line reached the JSON decoder")

        monkeypatch.setattr(exporter, "_scan", refuse)
        for path, (status, records) in zip(paths, expected):
            assert status == "ok" and records
            assert [repr(rec) for rec in read_log(path)] == records

    @pytest.mark.parametrize("physical", [[], ["--physical"]], ids=["symbolic", "physical"])
    @pytest.mark.parametrize("profile", ["wifi", "fiveg"])
    def test_simulate(self, tmp_path, capsys, monkeypatch, profile, physical):
        scenario = tmp_path / "sc.json"
        scenario.write_text(json.dumps({"profile": profile, "duration_s": 30, "seed": 42,
                                        "viewers": ["u2", "u3"], "join_times_s": [10, 20]}))
        out = tmp_path / "out"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(out), *physical]) == 0
        capsys.readouterr()
        self.assert_read_without_decoder(monkeypatch, *sorted(out.glob("*.jsonl")))

    def test_detect_out(self, tmp_path, capsys, monkeypatch):
        frames, wav = tmp_path / "frames", tmp_path / "a.wav"
        video, audio = tmp_path / "video.jsonl", tmp_path / "audio.jsonl"
        assert run(["gen-video", "--out", str(frames), "--fps", "10", "--duration-s", "2"]) == 0
        assert run(["gen-audio", "--out", str(wav), "--duration-s", "2"]) == 0
        assert run(["detect-video", str(frames), "--out", str(video)]) == 0
        assert run(["detect-audio", str(wav), "--out", str(audio)]) == 0
        capsys.readouterr()
        self.assert_read_without_decoder(monkeypatch, video, audio)


def exposition(records, tally=()):
    """What ``serve`` renders for a log: the scan of the log and its tally."""
    return render_exposition(scan_log(records, collections.Counter(tally)))


class TestExposition:
    def test_single_gauge_format(self):
        recs = [DetectionRecord(media="video", device="v1", emission_ts=0, playout_ts=250)]
        assert exposition(recs) == 'xr_m2p_latency_ms{device="v1"} 250\n'

    def test_empty_snapshot_empty_body(self):
        assert exposition([]) == ""

    def test_lines_sorted(self):
        lines = exposition(random_records(3, 50)).splitlines()
        assert lines == sorted(lines)

    def test_pure_function_of_snapshot(self):
        recs = random_records(4, 80)
        assert exposition(recs) == exposition(list(recs))

    def test_counters_merged_and_named(self):
        tally = collections.Counter({"crc_mismatch": 2, "unknown_tone": 3})
        scan = scan_log(
            [DetectionRecord(media="video", device="u1", emission_ts=10, playout_ts=5)], tally)
        assert scan.tally["clock_skew_suspected"] == 1
        body = render_exposition(scan)
        assert "xr_crc_failures_total 2" in body
        assert "xr_unknown_tones_total 3" in body
        assert "xr_negative_latencies_total 1" in body

    def test_slot_counters(self):
        recs = [DetectionRecord(media="video", device="u1", emission_ts=0,
                                playout_ts=10, slot=2)] * 3
        assert 'xr_slot_detections_total{media="video",slot="2"} 3' in exposition(recs)

    def test_label_values_escaped(self):
        device = 'a"b\nc\\'
        body = exposition([DetectionRecord(media="video", device=device,
                                           emission_ts=0, playout_ts=5)])
        assert body == 'xr_m2p_latency_ms{device="a\\"b\\nc\\\\"} 5\n'
        # one sample line in the Prometheus text format, label value unescaped back
        m = re.fullmatch(r'(\w+)\{device="((?:[^"\\\n]|\\[\\"n])*)"\} (\S+)\n', body)
        assert m is not None
        unescaped = re.sub(r"\\(.)", lambda e: "\n" if e[1] == "n" else e[1], m[2])
        assert (m[1], unescaped, m[3]) == ("xr_m2p_latency_ms", device, "5")

    def test_skew_needs_both_media(self):
        recs = [
            DetectionRecord(media="video", device="u1", emission_ts=0, playout_ts=250),
            DetectionRecord(media="audio", device="u1", emission_ts=0, playout_ts=200),
            DetectionRecord(media="video", device="u2", emission_ts=0, playout_ts=100),
        ]
        skews = [line for line in exposition(recs).splitlines()
                 if line.startswith("xr_intra_media_skew_ms")]
        assert skews == ['xr_intra_media_skew_ms{device="u1"} 50']


# devices and the media each one sends; the names need escaping
_MEDIA_OF = {"u1": ("video", "audio"), 'q"t': ("video", "audio"),
             "b\\s": ("audio",), "n\nl": ("video",)}
_COUNTER_NAME = {"crc_mismatch": "xr_crc_failures_total",
                 "clock_skew_suspected": "xr_negative_latencies_total"}


@st.composite
def _exposition_logs(draw):
    """A log whose latencies are sometimes negative, in which some devices
    send one medium only and some stop sending partway through."""
    def rows(devices):
        pairs = [(media, dev) for dev in devices for media in _MEDIA_OF[dev]]
        return st.lists(st.tuples(st.sampled_from(pairs), st.integers(0, 5000),
                                  st.integers(-20, 300),
                                  st.one_of(st.none(), st.integers(1, 4))), max_size=40)
    stopped = draw(st.sets(st.sampled_from(sorted(_MEDIA_OF))))
    going = sorted(_MEDIA_OF.keys() - stopped)
    head = draw(rows(sorted(_MEDIA_OF)))
    tail = draw(rows(going)) if going else []
    return [DetectionRecord(media, dev, playout - latency, playout, slot)
            for (media, dev), playout, latency, slot in head + tail]


def _brute_last(records):
    """Each (media, device)'s last non-negative latency, by a forward walk."""
    last = {}
    for rec in records:
        if rec.playout_ts >= rec.emission_ts:
            last[(rec.media, rec.device)] = rec.playout_ts - rec.emission_ts
    return last


def _brute_exposition(records, tally):
    """The exposition text, from the raw records by its definition."""
    def label(value):
        return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")

    last = _brute_last(records)
    lines = []
    for (media, dev), latency in last.items():
        name = {"video": "xr_m2p_latency_ms", "audio": "xr_m2e_latency_ms"}[media]
        lines.append(f'{name}{{device="{label(dev)}"}} {latency}')
        if media == "video" and ("audio", dev) in last:
            lines.append(f'xr_intra_media_skew_ms{{device="{label(dev)}"}} '
                         f'{latency - last[("audio", dev)]}')
    slots = collections.Counter((rec.media, rec.slot) for rec in records
                                if rec.slot is not None and rec.playout_ts >= rec.emission_ts)
    lines += [f'xr_slot_detections_total{{media="{media}",slot="{slot}"}} {n}'
              for (media, slot), n in slots.items()]
    negatives = sum(rec.playout_ts < rec.emission_ts for rec in records)
    counts = collections.Counter()
    for key, n in tally.items():
        counts[_COUNTER_NAME.get(key, f"xr_{key}_total")] += n
    if negatives:
        counts["xr_negative_latencies_total"] += negatives
    lines += [f"{name} {n}" for name, n in counts.items()]
    return "".join(line + "\n" for line in sorted(lines))


@given(records=_exposition_logs(),
       tally=st.dictionaries(st.sampled_from(("crc_mismatch", "clock_skew_suspected",
                                              "negative_latencies", "frames_stale")),
                             st.integers(0, 9)))
@settings(max_examples=200, deadline=None)
def test_exposition_matches_brute_force(records, tally):
    scan = scan_log(records, collections.Counter(tally))
    assert scan.last == _brute_last(records)
    assert render_exposition(scan) == _brute_exposition(records, tally)


@pytest.fixture(scope="module")
def one_shot(tmp_path_factory):
    """A simulated 30 s wifi log and the stdout of ``serve --serve-port 0`` on it.

    One record played out before it was emitted is appended to the log, so
    the negative-latency rule has something to count.
    """
    tmp = tmp_path_factory.mktemp("serve")
    scenario = tmp / "scenario.json"
    scenario.write_text(json.dumps({"profile": "wifi", "seed": 42, "duration_s": 30,
                                    "join_times_s": [5, 10, 15, 20]}))
    out = tmp / "run"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    with open(out / "log.jsonl", "a") as fh:
        fh.write(format_log_line(DetectionRecord(media="video", device="u2", emission_ts=10,
                                                 playout_ts=5, slot=1)))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run(["serve", "--log", str(out), "--serve-port", "0"]) == 0
    return out, stdout.getvalue().encode()


def test_serve_counts_what_analyze_reports(one_shot, tmp_path, capsys):
    log_dir, body = one_shot
    assert run(["analyze", "--log", str(log_dir), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    samples = dict(line.rsplit(" ", 1) for line in body.decode().splitlines())
    negatives = report["diagnostics"]["clock_skew_suspected"]
    assert int(samples["xr_negative_latencies_total"]) == negatives == 1
    slots = {name: int(value) for name, value in samples.items()
             if name.startswith("xr_slot_detections_total")}
    assert slots == {f'xr_slot_detections_total{{media="{entry["media"]}",slot="{entry["slot"]}"}}':
                     entry["count"] for entry in report["slot_stats"]}


class TestHttpService:
    @pytest.fixture()
    def server(self, one_shot):
        log_dir, _ = one_shot
        tally = collections.Counter(json.loads((log_dir / "tally.json").read_text()))
        scan = scan_log(read_log(log_dir / "log.jsonl"), tally)
        srv = make_server(render_exposition(scan), port=0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        yield srv
        srv.shutdown()
        srv.server_close()

    def _url(self, server, path):
        return f"http://127.0.0.1:{server.server_address[1]}{path}"

    def _get_metrics(self, server) -> bytes:
        with urllib.request.urlopen(self._url(server, "/metrics"), timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            return resp.read()

    def test_get_metrics(self, server, one_shot):
        # the same bytes `serve --serve-port 0` prints for the same log
        body = self._get_metrics(server)
        assert b"xr_m2p_latency_ms" in body
        assert body == one_shot[1]

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(self._url(server, "/nope"), timeout=10)
        assert err.value.code == 404

    def test_post_answers_501_and_changes_nothing(self, server, one_shot):
        req = urllib.request.Request(self._url(server, "/config"),
                                     data=b'{"level": "low"}', method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 501
        assert self._get_metrics(server) == one_shot[1]

    def test_stalled_request_line_dropped_after_timeout(self, server):
        assert server.RequestHandlerClass.timeout == READ_TIMEOUT_S
        server.RequestHandlerClass.timeout = 0.3  # the bound class only, to keep the test short
        started = time.monotonic()
        with socket.create_connection(server.server_address, timeout=10) as sock:
            sock.sendall(b"GET /metr")
            assert sock.recv(1024) == b""
        assert 0.3 <= time.monotonic() - started < 0.3 + 1
