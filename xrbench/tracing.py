"""In-memory span recorder that times xrprobe's public functions from outside.

Spans are recorded by shims the benchmark installs around public functions;
nothing under ``src/`` knows it is being traced. A shim replaces a function
in every loaded ``xrprobe`` module that holds a reference to it, so the call
is timed whichever module makes it (``xrprobe.cli`` and ``xrprobe.netsim``
import most layer functions by name).
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# (module, function) pairs wrapped while tracing; one span per call.
TRACED = (
    ("video_beacon", "encode_beacon"),
    ("video_beacon", "rasterize"),
    ("video_beacon", "detect_decode"),
    ("video_beacon", "write_frame_sequence"),
    ("video_beacon", "read_pgm"),
    ("audio_beacon", "synthesize"),
    ("audio_beacon", "write_wav"),
    ("audio_beacon", "read_wav"),
    ("audio_beacon", "detect_pulses"),
    ("netsim", "run_scenario"),
    ("netsim", "run_physical"),
    ("netsim", "compare_logs"),
    ("exporter", "write_log"),
    ("exporter", "read_log"),
    ("exporter", "snapshot_from_records"),
    ("exporter", "render_exposition"),
    ("metrics", "build_report"),
    ("metrics", "write_epoch_series_csv"),
)

# Small per-call facts kept on the span; the arguments themselves are not
# kept, so traced runs hold no extra frames or audio in memory.
def _audio_seconds(args, kwargs, result) -> dict:
    pcm = args[0] if args else kwargs["pcm"]
    return {"audio_s": pcm.samples.size / pcm.sample_rate}


_MEASURES = {
    "audio_beacon.detect_pulses": _audio_seconds,
    "netsim.run_scenario": lambda args, kwargs, result: {"records": len(result.records)},
}

NAME, START, END, PARENT, REQUEST, OK, ATTRS = range(7)


class Tracer:
    """Spans as lists [name, start_ns, end_ns, parent index, request, ok, attrs].

    ``clock`` gives the span times in ns; the benchmark passes the speed
    probe's clock, which leaves out the probe's own samples.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None
        self.missing: list[str] = []

    def _open(self, name: str, attrs: dict | None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent,
                           self._request, True, attrs or {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[END] = self.clock()
        span[OK] = ok

    @contextmanager
    def request(self, name: str, request_id, **attrs):
        """Root span of one request (a frame, a CLI command, a physical run)."""
        self._request = request_id
        idx = self._open(name, attrs)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(idx, ok)
            self._request = None

    def _shim(self, name: str, fn):
        measure = _MEASURES.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name, None)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(idx, ok)
            if measure is not None:
                self.spans[idx][ATTRS] = measure(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every TRACED function, wherever an xrprobe module references
        it, for the duration of the block."""
        self.missing.clear()
        patched = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "xrprobe" or key.startswith("xrprobe."))]
        for mod_name, fn_name in TRACED:
            fn = getattr(sys.modules.get(f"xrprobe.{mod_name}"), fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            shim = self._shim(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, shim)
                        patched.append((mod, attr, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)

    def self_ns(self) -> list[int]:
        """Self time per span: its duration minus the time its children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def dump(self, path: Path, header: dict) -> None:
        """Write the spans out as JSON lines after the measured region."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start_ns": s[START],
                                     "end_ns": s[END], "parent": s[PARENT],
                                     "request": s[REQUEST], "ok": s[OK],
                                     "attrs": s[ATTRS]}) + "\n")
