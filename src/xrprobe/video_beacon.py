"""Matrix-barcode timestamp beacons for the video path.

A beacon is a 21x21 grid of boolean modules (True = dark) carrying a 64-bit
big-endian millisecond timestamp plus a CRC-16 in its first 80 data modules.
Three 7x7 finder patterns (dark border, light ring, dark 3x3 core) sit in the
top-left, top-right and bottom-left corners, each fenced off by a one-module
light separator; remaining data modules are filled with a checkerboard so the
code keeps dark/light texture regardless of payload.

Detection assumes axis-aligned codes on a flat background. Each module is
sampled at its center against the frame's min/max midpoint threshold. No
perspective correction is attempted.

A frame is first read where its dark bounding box puts the code: the
finders' outer borders lie on the code's first and last rows and columns, so
when the frame's only dark content is one intact code, the box is the code,
its side is 21 module pitches, and the finder centers follow. The box is read
from three lines: the first dark pixel in raster order, then the last dark
pixel of its row and of its column. The guess is kept when the sampled finder
zones match exactly and the CRC holds. Anything else (a speck or second code
on those lines, an occluded finder, a damaged payload) falls through to the
full finder scan, which alone decides what such a frame yields or raises.
Finder candidates there come from a 1:1:3:1:1 dark/light run-length test run
once over every ``stride``-th row of the whole frame: the rows' runs are
flattened with a forced break at column 0, so no run crosses a row end, and
each hit is then confirmed on its column. The scan makes two passes: one at
an adaptive stride, coarse enough that a frame it settles pays for little,
and one at stride 1 for codes too small for it. A pass whose candidates
form fewer than three clusters tries no triple and skips the refinement
walk. A frame's row and column run decompositions are computed at most
once per frame, and so is each column check: one is fixed by its column,
the run the hit falls in and the unit, so the rows that cross one finder
core share it, in one pass and across both. The module pitch comes from
the finder geometry.

Every frame is decided on its own, with no state kept across frames:
``detect_decode`` makes the bounding-box guess and then the full scan. The
guess checks module centers only, so a finder damaged solely between module
centers can still decode through it where the full scan alone would find no
finder. ``detect_frame_sequence`` makes the same guess over a stack of
frames of one geometry at a time, ``CHUNK_BYTES`` of pixels at most (and at
least one frame), with the single-frame expressions, so each frame's
decision is the one it gets alone; only the frames that read does not
decode pay for ``detect_decode``. One rasterizer draws a stack of frames:
``rasterize`` draws a stack of one, and ``render_frames`` a sequence's
frames a stack at a time, ``CHUNK_BYTES`` of pixels at most.

A frame sequence on disk is a directory holding ``frames.pgm``, every frame
back to back as binary PGM images (Netpbm allows a sequence of images in one
file, with nothing between them), and ``manifest.json``. The file is written
in one pass and read in one ``read_bytes``; each frame is a read-only view of
that blob.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby, islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .clocks import MAX_TIMESTAMP, Timestamp
from .metrics import VIDEO, DetectionRecord, new_record
from .schema import SchemaError, finite, integer, json_object, read_fields, read_json, text

GRID_SIZE = 21
FINDER_SIZE = 7
PAYLOAD_BITS = 80
TS_BITS = 64
DEFAULT_BEACON_INTERVAL_MS = 10
DEFAULT_SCALE = 8
DEFAULT_QUIET = 4
# largest frame side, in pixels, a generated sequence may ask for: 16 MB a frame
MAX_FRAME_SIDE = 4096
# a frame sequence is rendered and read this many bytes of pixels at a time,
# and at least one frame at a time
CHUNK_BYTES = 4 << 20

CRC_POLY = 0x1021
CRC_INIT = 0xFFFF


class FinderNotFound(ValueError):
    """No valid finder triple located in the frame."""


class CrcMismatch(ValueError):
    """Payload read back from the frame fails its checksum."""


def _crc_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ CRC_POLY) if crc & 0x8000 else (crc << 1)
        table.append(crc & 0xFFFF)
    return tuple(table)


_CRC_TABLE = _crc_table()


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection, no xor-out."""
    crc = CRC_INIT
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC_TABLE[(crc >> 8) ^ byte]
    return crc


def _finder_pattern() -> np.ndarray:
    pat = np.zeros((FINDER_SIZE, FINDER_SIZE), dtype=bool)
    pat[0, :] = pat[-1, :] = pat[:, 0] = pat[:, -1] = True
    pat[2:5, 2:5] = True
    return pat


_FINDER = _finder_pattern()

# Finder zones plus their one-module separators. Everything else is data.
_RESERVED = np.zeros((GRID_SIZE, GRID_SIZE), dtype=bool)
_RESERVED[0:8, 0:8] = True
_RESERVED[0:8, 13:21] = True
_RESERVED[13:21, 0:8] = True

# Data modules in row-major order; the first PAYLOAD_BITS carry the payload.
_DATA_ROWS, _DATA_COLS = np.nonzero(~_RESERVED)
_PAYLOAD_AT = (_DATA_ROWS[:PAYLOAD_BITS], _DATA_COLS[:PAYLOAD_BITS])

_FINDER_ORIGINS = ((0, 0), (0, GRID_SIZE - FINDER_SIZE), (GRID_SIZE - FINDER_SIZE, 0))


@dataclass(frozen=True, eq=False)
class ModuleGrid:
    """21x21 beacon; modules[r, c] True means dark."""

    modules: np.ndarray
    payload_ts: int

    def __post_init__(self):
        if self.modules.shape != (GRID_SIZE, GRID_SIZE):
            raise ValueError("module grid must be 21x21")


@dataclass(frozen=True, eq=False)
class PixelBuffer:
    """8-bit grayscale frame, row-major."""

    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.ndim != 2 or self.pixels.dtype != np.uint8:
            raise ValueError("pixels must be a 2-D uint8 array")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _reference_grid() -> np.ndarray:
    """Finder patterns and separators on a light field; data region light."""
    modules = np.zeros((GRID_SIZE, GRID_SIZE), dtype=bool)
    for r0, c0 in _FINDER_ORIGINS:
        modules[r0 : r0 + FINDER_SIZE, c0 : c0 + FINDER_SIZE] = _FINDER
    return modules


_REFERENCE = _reference_grid()

# The reference plus the checkerboard fill: every module but the payload's.
_BASE = _REFERENCE.copy()
_BASE[_DATA_ROWS, _DATA_COLS] = (_DATA_ROWS + _DATA_COLS) % 2 == 0


def _payload_word(ts: Timestamp) -> bytes:
    """The 80-bit payload of a timestamp: its 8 big-endian bytes, then their CRC-16."""
    if not 0 <= ts <= MAX_TIMESTAMP:
        raise ValueError("timestamp must fit in 64 bits")
    payload = int(ts).to_bytes(8, "big")
    return payload + crc16(payload).to_bytes(2, "big")


def _word_timestamp(word: bytes) -> Timestamp | None:
    """The timestamp an 80-bit payload word carries, or None when its CRC fails."""
    if crc16(word[:8]) != int.from_bytes(word[8:], "big"):
        return None
    return int.from_bytes(word[:8], "big")


def encode_beacon(ts: Timestamp) -> ModuleGrid:
    """Build the beacon grid for a millisecond timestamp.

    The first 80 data modules (row-major, skipping finder zones) carry the
    64-bit timestamp then its CRC-16, MSB first, bit 1 = dark. Remaining data
    modules are checkerboard: dark iff (row + col) is even.
    """
    word = _payload_word(ts)
    modules = _BASE.copy()
    modules[_PAYLOAD_AT] = np.unpackbits(np.frombuffer(word, dtype=np.uint8)).view(bool)
    return ModuleGrid(modules=modules, payload_ts=int(ts))


def grid_timestamp(modules: np.ndarray) -> Timestamp:
    """Reassemble and checksum the 80-bit payload of a sampled grid."""
    word = np.packbits(modules[_PAYLOAD_AT] != 0).tobytes()
    ts = _word_timestamp(word)
    if ts is None:
        crc = int.from_bytes(word[8:], "big")
        raise CrcMismatch(f"payload checksum failed (read 0x{crc:04X})")
    return ts


def _raster(modules: np.ndarray, scale: int, quiet: int) -> np.ndarray:
    """``(n, side, side)`` frames of ``(n, 21, 21)`` module grids: a truthy
    module dark (0), every other module and the quiet zone light (255), at
    ``scale`` px per module inside ``quiet`` modules of quiet zone."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if quiet < 0:
        raise ValueError("quiet zone must be >= 0")
    n = len(modules)
    pad = quiet * scale
    code = GRID_SIZE * scale
    img = np.full((n,) + (code + 2 * pad,) * 2, 255, dtype=np.uint8)
    levels = ~modules.astype(bool, copy=False) * np.uint8(255)  # any truthy module is dark
    # one module row widened to pixels is broadcast over that module's pixel
    # rows: splitting the code region's row axis into (module, pixel) is a view
    rows = img[:, pad : pad + code, pad : pad + code].reshape(n, GRID_SIZE, scale, code)
    rows[...] = levels.repeat(scale, 2)[:, :, None, :]
    return img


def rasterize(grid: ModuleGrid, scale: int = DEFAULT_SCALE, quiet: int = DEFAULT_QUIET) -> PixelBuffer:
    """Render dark modules as 0 and light/quiet area as 255 at ``scale`` px
    per module: the one-frame stack of the rasterizer ``render_frames`` draws with."""
    return PixelBuffer(pixels=_raster(grid.modules[None], scale, quiet)[0])


def render_frames(emissions: Iterable[Timestamp | None], scale: int = DEFAULT_SCALE,
                  quiet: int = DEFAULT_QUIET) -> Iterator[PixelBuffer]:
    """The frames of a sequence of emissions, in order: the beacon frame
    ``rasterize(encode_beacon(ts), scale, quiet)`` for a timestamp and an
    all-light (blank) frame of the same geometry for None.

    Frames are drawn by ``rasterize``'s rasterizer a stack at a time,
    ``CHUNK_BYTES`` of pixels (at least one frame), and each is yielded as a
    view of the stack, so a generator of emissions is drawn a chunk ahead of
    the frames. A bad timestamp, scale or quiet zone raises as its chunk is drawn.
    """
    side = (GRID_SIZE + 2 * quiet) * scale
    per_chunk = max(1, CHUNK_BYTES // max(1, side * side))
    blank = bytes(PAYLOAD_BITS // 8)
    emissions = iter(emissions)
    while chunk := list(islice(emissions, per_chunk)):
        words = b"".join(blank if ts is None else _payload_word(ts) for ts in chunk)
        modules = np.repeat(_BASE[None], len(chunk), axis=0)
        modules[(slice(None),) + _PAYLOAD_AT] = np.unpackbits(
            np.frombuffer(words, dtype=np.uint8)).reshape(len(chunk), PAYLOAD_BITS).view(bool)
        modules[[i for i, ts in enumerate(chunk) if ts is None]] = False
        for pixels in _raster(modules, scale, quiet):
            yield PixelBuffer(pixels=pixels)


def beacon_emission(stream_start_ts: Timestamp, capture_ts: Timestamp,
                    interval_ms: int = DEFAULT_BEACON_INTERVAL_MS) -> Timestamp:
    """Timestamp of the newest beacon at or before ``capture_ts``.

    Beacons tick at exact multiples of the interval from stream start, so a
    frame always carries an emission at most one interval old.
    """
    if capture_ts < stream_start_ts:
        raise ValueError("capture precedes stream start")
    ticks = (capture_ts - stream_start_ts) // interval_ms
    return stream_start_ts + ticks * interval_ms


# --- detection ---------------------------------------------------------------

# the 1:1:3:1:1 finder signature: each run's width, and how far it may miss,
# in units of the quintet's width / 7
_OUTER, _OUTER_TOL = 1.0, 0.5
_CORE, _CORE_TOL = 3.0, 0.8
_RATIO_PAIRS = ((_OUTER, _OUTER_TOL),) * 2 + ((_CORE, _CORE_TOL),) + ((_OUTER, _OUTER_TOL),) * 2


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length decomposition of a 1-D bool array -> (starts, lengths)."""
    change = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [values.size]))
    return starts, ends - starts


class _LineRuns:
    """Run decompositions of one frame's rows and columns, each made at most
    once, and the quintet centers read on them.

    A line maps to ``(starts, lengths, dark)`` as Python lists, ``dark``
    giving each run's color. A center is memoised by its line, the run its
    hint falls in and the unit it is checked against, which together fix
    ``_line_center``'s result: the consecutive row hits that cross one finder
    core share one column check. Created per frame: nothing is kept across
    frames.
    """

    def __init__(self, dark: np.ndarray):
        self.dark = dark
        self._runs: dict[tuple[int, int], tuple[list, list, list]] = {}
        self._centers: dict[tuple[int, int, int, float], tuple[float, float] | None] = {}

    def center(self, axis: int, index: int, hint: int, unit: float):
        """``_line_center`` of the run covering ``hint`` on row (axis 0) or
        column (axis 1) ``index``."""
        runs = self._runs.get((axis, index))
        if runs is None:
            line = self.dark[index] if axis == 0 else self.dark[:, index]
            starts, lengths = _runs(line)
            runs = (starts.tolist(), lengths.tolist(), line[starts].tolist())
            self._runs[(axis, index)] = runs
        i = bisect_right(runs[0], hint) - 1
        key = (axis, index, i, unit)
        if key not in self._centers:
            self._centers[key] = _line_center(runs, i, unit)
        return self._centers[key]


def _line_center(runs: tuple[list, list, list], i: int, unit: float):
    """Center/unit of the 1:1:3:1:1 quintet whose middle run is run ``i``."""
    starts, lengths, dark = runs
    if i < 2 or i + 2 >= len(starts) or not dark[i]:
        return None
    win = lengths[i - 2 : i + 3]
    u = sum(win) / 7.0
    if abs(u - unit) > 0.6 * max(u, unit):
        return None
    for n, (ratio, tol) in zip(win, _RATIO_PAIRS):
        if abs(n - ratio * u) > max(u * tol, 0.6):
            return None
    return starts[i] + lengths[i] / 2.0, u


def _refine_center(lines: _LineRuns, cx: float, cy: float, unit: float):
    """Walk a candidate onto the exact center of its run quintet, both axes.

    A genuine finder candidate lands inside the core, so the vertical and
    horizontal quintets through it converge on the true center; refining
    before clustering keeps payload patterns that mimic the finder signature
    from dragging a genuine cluster's mean off center.
    """
    vert = lines.center(1, int(round(cx)), int(round(cy)), unit)
    if vert is None:
        return None
    cy2, vunit = vert
    horiz = lines.center(0, int(round(cy2)), int(round(cx)), vunit)
    if horiz is None:
        return None
    cx2, hunit = horiz
    vert2 = lines.center(1, int(round(cx2)), int(round(cy2)), hunit)
    if vert2 is None:
        return None
    cy3, vunit2 = vert2
    return cx2, cy3, (hunit + vunit2) / 2.0


def _row_hits(dark: np.ndarray, stride: int) -> tuple[list[int], list[float], list[float]]:
    """(y, cx, unit) of every dark-led 1:1:3:1:1 run quintet on every ``stride``-th row.

    One pass over the strided frame: a run starts at every color change and
    at column 0, so no flattened run crosses a row end, and the ratio test
    runs once over all 5-run windows, each window position a shifted slice of
    the run lengths. Windows spanning two rows or led by a light run are
    dropped. Hits come out row-major, left to right, and each lies within one
    row: the hits at stride ``s`` are the stride-1 hits on rows ``y % s == 0``.
    """
    rows = dark[::stride]
    width = rows.shape[1]
    flat = rows.ravel()
    edge = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=edge[1:])
    edge[::width] = True
    starts = np.flatnonzero(edge)
    n = starts.size
    if n < 5:
        return [], [], []
    lengths = np.empty(n, dtype=starts.dtype)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = rows.size - starts[-1]
    m = n - 4
    w0, w1, w2, w3, w4 = (lengths[k : k + m] for k in range(5))
    units = (w0 + w1 + w2 + w3 + w4) / 7.0
    ok = np.abs(w2 - _CORE * units) <= np.maximum(units * _CORE_TOL, 0.6)
    outer, outer_tol = _OUTER * units, np.maximum(units * _OUTER_TOL, 0.6)
    for w in (w0, w1, w3, w4):
        ok &= np.abs(w - outer) <= outer_tol
    idx = np.flatnonzero(ok)
    first = starts[idx]
    row = first // width
    keep = flat[first] & (row == starts[idx + 4] // width)
    idx, row = idx[keep], row[keep]
    core = idx + 2
    cx = (starts[core] - row * width) + lengths[core] / 2.0
    return (row * stride).tolist(), cx.tolist(), units[idx].tolist()


def _scan_finders(lines: _LineRuns, hits) -> list[tuple[float, float, float]]:
    """Candidate finder centers (cx, cy, unit): (y, cx, unit) row hits
    confirmed on their column, each column check memoised per run and unit."""
    found: list[tuple[float, float, float]] = []
    for y, cx, unit in hits:
        vert = lines.center(1, int(cx), y, unit)
        if vert is None:
            continue
        cy, vunit = vert
        found.append((cx, cy, (unit + vunit) / 2.0))
    return found


# candidates from the same finder already agree to sub-module precision (the
# vertical pass centers them), so they merge within this many module units;
# false payload hits stay in their own clusters
CLUSTER_RADIUS_UNITS = 0.75


def _cluster(candidates: list[tuple[float, float, float]]):
    radius_units = CLUSTER_RADIUS_UNITS
    clusters: list[list[float]] = []  # [sum_x, sum_y, sum_u, n]
    for cx, cy, u in candidates:
        for cl in clusters:
            n = cl[3]
            if (abs(cl[0] / n - cx) <= radius_units * u
                    and abs(cl[1] / n - cy) <= radius_units * u):
                cl[0] += cx
                cl[1] += cy
                cl[2] += u
                cl[3] += 1
                break
        else:
            clusters.append([cx, cy, u, 1])
    return [(c[0] / c[3], c[1] / c[3], c[2] / c[3]) for c in clusters]


def _triples(clusters):
    """Yield (tl, tr, bl) combinations whose geometry fits an axis-aligned code."""
    for tl in clusters:
        u = tl[2]
        for tr in clusters:
            if tr is tl:
                continue
            if abs(tr[1] - tl[1]) > 2.0 * u or tr[0] < tl[0] + 7.0 * u:
                continue
            for bl in clusters:
                if bl is tl or bl is tr:
                    continue
                if abs(bl[0] - tl[0]) > 2.0 * u or bl[1] < tl[1] + 7.0 * u:
                    continue
                span_x = tr[0] - tl[0]
                span_y = bl[1] - tl[1]
                if abs(span_x - span_y) > 3.0 * u:
                    continue
                yield tl, tr, bl


# module centers in module units from the code's top-left corner
_MODULE_CENTERS = np.arange(GRID_SIZE) + 0.5


def _sample_grid(dark: np.ndarray, tl, tr, bl) -> np.ndarray | None:
    """Sample all 441 module centers given the three finder centers."""
    mw = (tr[0] - tl[0]) / 14.0
    mh = (bl[1] - tl[1]) / 14.0
    if mw <= 0.5 or mh <= 0.5:
        return None
    ox = tl[0] - 3.5 * mw
    oy = tl[1] - 3.5 * mh
    xs = np.floor(ox + _MODULE_CENTERS * mw).astype(int)
    ys = np.floor(oy + _MODULE_CENTERS * mh).astype(int)
    h, w = dark.shape
    if xs[0] < 0 or ys[0] < 0 or xs[-1] >= w or ys[-1] >= h:
        return None
    return dark.take(ys, axis=0).take(xs, axis=1)


def _structure_ok(modules: np.ndarray) -> bool:
    # Finder zones (pattern plus light separators) must match exactly.
    return bool((modules[_RESERVED] == _REFERENCE[_RESERVED]).all())


def _threshold(pixels: np.ndarray) -> np.ndarray:
    """Dark mask at the midpoint of the frame's min/max sample."""
    if pixels.size == 0:
        raise FinderNotFound("empty frame")
    lo = int(pixels.min())
    hi = int(pixels.max())
    if hi == lo:
        raise FinderNotFound("uniform frame")
    # p < (lo + hi) / 2 holds for an integer p exactly when p < ceil((lo + hi) / 2);
    # a uint8 bound keeps the compare in uint8, with no float copy of the frame
    return pixels < np.uint8((lo + hi + 1) // 2)


def _decode_at(dark: np.ndarray, tl, tr, bl) -> Timestamp | None:
    """Timestamp of the code whose finders sit at (tl, tr, bl).

    None when the grid falls outside the frame or its finder zones do not
    match; CrcMismatch when they match but the payload is damaged.
    """
    modules = _sample_grid(dark, tl, tr, bl)
    if modules is None or not _structure_ok(modules):
        return None
    return grid_timestamp(modules)


def _guess_finders(dark: np.ndarray) -> tuple:
    """(tl, tr, bl) finder centers (x, y, module unit) of a code that exactly
    fills the dark bounding box, read from three lines of the frame.

    The code's top-left corner is the first dark pixel in raster order. Its
    last column is the last dark pixel of that row (the top-right finder's
    top border), and its last row the last dark pixel of that column (the
    bottom-left finder's left border). The code is 21 modules a side and its
    finder centers sit 3.5 and 17.5 modules from the corner.
    """
    h, w = dark.shape
    y0, x0 = divmod(int(dark.argmax()), w)
    mw = (w - int(dark[y0, ::-1].argmax()) - x0) / GRID_SIZE
    mh = (h - int(dark[::-1, x0].argmax()) - y0) / GRID_SIZE
    unit = (mw + mh) / 2.0
    near, far = 3.5, GRID_SIZE - 3.5
    return ((x0 + near * mw, y0 + near * mh, unit),
            (x0 + far * mw, y0 + near * mh, unit),
            (x0 + near * mw, y0 + far * mh, unit))


def _locate(dark: np.ndarray) -> Timestamp:
    """The timestamp of the code in a thresholded frame.

    The frame is first read at the finders its dark bounding box implies
    (``_guess_finders``). A grid out of bounds, a finder-zone mismatch or a
    CRC miss there is dropped, never reported: it falls through to the full
    finder scan, which alone decides what a frame that fails the guess yields
    or raises. The scan makes two passes, the first at an adaptive stride: a
    code filling the frame has a finder core >= 3*min(h,w)/37 tall, so it
    still crosses every core; the stride-1 pass covers small codes inside
    large frames. A pass with fewer than three clusters tries no triple, and
    one that meets a CRC miss and decodes nothing ends the scan.
    """
    try:
        ts = _decode_at(dark, *_guess_finders(dark))
    except CrcMismatch:
        ts = None
    if ts is not None:
        return ts
    lines = _LineRuns(dark)
    last_error: Exception = FinderNotFound("no finder triple")
    for stride in (max(4, min(dark.shape) // 32), 1):
        # dedupe before the refinement walk
        tight = _cluster(_scan_finders(lines, zip(*_row_hits(dark, stride))))
        if len(tight) < 3:
            continue  # no triple to try
        clusters = []
        for cand in tight:
            refined = _refine_center(lines, *cand)
            clusters.append(refined if refined is not None else cand)
        for triple in _triples(clusters):
            try:
                ts = _decode_at(dark, *triple)
            except CrcMismatch as exc:
                last_error = exc
                continue
            if ts is not None:
                return ts
        if isinstance(last_error, CrcMismatch):
            break
    raise last_error


def detect_decode(frame: PixelBuffer, playout_ts: Timestamp,
                  device_id: str = "") -> DetectionRecord:
    """Locate the beacon in a frame and decode it into a video record.

    The frame is first read at the finder centers its dark bounding box
    implies; a grid out of bounds, a finder-zone mismatch or a CRC miss there
    falls through to the full finder scan. Raises FinderNotFound when the
    scan finds no structurally valid code and CrcMismatch when the payload is
    damaged. The frame threshold is the midpoint of its min/max sample, which
    makes decoding invariant to any monotone affine remap of the gray levels
    with adequate separation.
    """
    return DetectionRecord(VIDEO, device_id, _locate(_threshold(frame.pixels)), playout_ts)


def _stack_timestamps(stack: np.ndarray) -> list[Timestamp | None]:
    """The bounding-box read of ``_locate`` over a ``(k, h, w)`` stack of
    frames: each frame's timestamp where the code its dark bounding box
    implies decodes, else None (a uniform or empty frame, a grid out of
    bounds, a finder-zone mismatch, a CRC miss).

    ``_threshold``, ``_guess_finders`` and ``_sample_grid`` run over the
    stack's leading axis with their own expressions, element by element, so
    each frame's decision is the one ``detect_decode`` makes on it alone.
    """
    k, h, w = stack.shape
    if stack.size == 0:
        return [None] * k
    lo = stack.min(axis=(1, 2))
    hi = stack.max(axis=(1, 2))
    dark = stack < ((lo.astype(np.intp) + hi + 1) // 2).astype(np.uint8)[:, None, None]
    # _guess_finders
    frames = np.arange(k)
    y0, x0 = np.divmod(dark.reshape(k, -1).argmax(axis=1), w)
    mw = (w - dark[frames, y0, ::-1].argmax(axis=1) - x0) / GRID_SIZE
    mh = (h - dark[frames, ::-1, x0].argmax(axis=1) - y0) / GRID_SIZE
    near, far = 3.5, GRID_SIZE - 3.5
    tl_x, tl_y = x0 + near * mw, y0 + near * mh
    tr_x, bl_y = x0 + far * mw, y0 + far * mh
    # _sample_grid at (tl, tr, bl)
    mw = (tr_x - tl_x) / 14.0
    mh = (bl_y - tl_y) / 14.0
    ox = tl_x - 3.5 * mw
    oy = tl_y - 3.5 * mh
    xs = np.floor(ox[:, None] + _MODULE_CENTERS * mw[:, None]).astype(int)
    ys = np.floor(oy[:, None] + _MODULE_CENTERS * mh[:, None]).astype(int)
    ok = ((hi > lo) & (mw > 0.5) & (mh > 0.5)
          & (xs[:, 0] >= 0) & (ys[:, 0] >= 0) & (xs[:, -1] < w) & (ys[:, -1] < h))
    at = np.flatnonzero(ok)
    # each frame's dark.take(ys, axis=0).take(xs, axis=1), as one gather
    modules = dark.reshape(-1).take((at * (h * w))[:, None, None] + (ys[at] * w)[:, :, None]
                                    + xs[at][:, None, :])
    # _structure_ok, then grid_timestamp's payload and CRC
    good = (modules[:, _RESERVED] == _REFERENCE[_RESERVED]).all(axis=1)
    words = np.packbits(modules[good][(slice(None),) + _PAYLOAD_AT], axis=1).tobytes()
    size = PAYLOAD_BITS // 8
    stamps: list[Timestamp | None] = [None] * k
    for i, j in zip(at[good].tolist(), range(0, len(words), size)):
        stamps[i] = _word_timestamp(words[j : j + size])
    return stamps


# --- frame sequence I/O -------------------------------------------------------

FRAMES_NAME = "frames.pgm"
MANIFEST_NAME = "manifest.json"

# Netpbm: a comment runs from '#' through the next CR or LF and may stand
# wherever whitespace may; after maxval, one whitespace byte (or a comment)
# ends the header, so the raster may itself begin with '#' or a space
_PGM_SPACE = rb"(?:\s|#[^\n\r]*[\n\r])"
# a number has at most 20 digits after its leading zeros (2**64 has 20), so
# no header number reaches the interpreter's limit on digits in int()
_PGM_NUMBER = rb"0*(\d{1,20})"
# the largest side a numpy array may have
_MAX_SIDE = np.iinfo(np.intp).max
_PGM_HEADER = re.compile(rb"P5%s+%s%s+%s%s+%s%s" % (
    (_PGM_SPACE, _PGM_NUMBER) * 3 + (_PGM_SPACE,)))


def _write_pgm_stream(path: str | Path, frames: Iterable[PixelBuffer]) -> int:
    """Write frames back to back as binary PGM images, nothing between them,
    each as it comes; returns how many were written. One 1 MiB buffer
    gathers many small frames into one write call, and a frame's pixels go
    to it without a ``tobytes`` copy (only a non-contiguous frame is copied,
    since a write takes contiguous bytes)."""
    count = 0
    with open(path, "wb", buffering=1 << 20) as fh:
        for frame in frames:
            fh.write(b"P5\n%d %d\n255\n" % (frame.width, frame.height))
            fh.write(np.ascontiguousarray(frame.pixels))
            count += 1
    return count


def _read_pgm_stream(path: str | Path, count: int) -> list[PixelBuffer]:
    """Exactly ``count`` binary PGM images from one file.

    The file is read once and each frame is a read-only view of that blob.
    A missing file, fewer images, bytes after the last image, a maxval other
    than 255, short pixel data or a side no array can have (only a zero-area
    frame gets that far) raise ValueError naming the file and frame.
    """
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError:
        raise ValueError(f"{path}: frame 0: no such file") from None
    frames = []
    offset = 0
    for i in range(count):
        if offset == len(blob):
            raise ValueError(f"{path}: frame {i}: file ends after {i} of {count} images")
        m = _PGM_HEADER.match(blob, offset)
        if not m:
            raise ValueError(f"{path}: frame {i}: not a binary PGM image")
        width, height, maxval = (int(g) for g in m.groups())
        if maxval != 255:
            raise ValueError(f"{path}: frame {i}: unsupported maxval {maxval}")
        offset = m.end() + width * height
        if offset > len(blob):
            raise ValueError(f"{path}: frame {i}: truncated pixel data")
        if max(width, height) > _MAX_SIDE:  # a zero-area frame may name any side
            raise ValueError(f"{path}: frame {i}: a {width} x {height} frame has a side "
                             f"past the largest array side, {_MAX_SIDE}")
        pixels = np.frombuffer(blob, dtype=np.uint8, count=width * height, offset=m.end())
        frames.append(PixelBuffer(pixels=pixels.reshape(height, width)))
    if offset != len(blob):
        raise ValueError(f"{path}: frame {count}: {len(blob) - offset} bytes "
                         f"after the last of {count} images")
    return frames


@dataclass(frozen=True)
class FrameManifest:
    """Sidecar for a PGM frame sequence: playout timing and identity."""

    device_id: str
    fps: float
    start_ts: Timestamp
    frame_count: int
    session: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.fps > 0:
            raise SchemaError("fps", f"must be positive, got {self.fps!r}")
        if self.frame_count < 0:
            raise SchemaError("frame_count", f"must be >= 0, got {self.frame_count!r}")
        # the first and the last frame, so every frame's playout is a
        # timestamp in 0..2**64-1
        try:
            offset = self.playout_offset(max(self.frame_count - 1, 0), self.fps)
        except OverflowError:  # an infinite offset
            offset = MAX_TIMESTAMP + 1
        if offset > MAX_TIMESTAMP:
            raise SchemaError("fps", f"the last frame's offset overflows 64 bits, "
                                     f"got {self.fps!r}")
        if not 0 <= self.start_ts <= MAX_TIMESTAMP - offset:
            raise SchemaError("start_ts", f"the frames play out from {self.start_ts} to "
                                          f"{self.start_ts + offset} ms, outside 0..2**64-1")

    @staticmethod
    def playout_offset(index: int, fps: float) -> int:
        """Milliseconds from the first frame's playout to frame ``index``'s."""
        return round(index * 1000.0 / fps)

    def frame_playout(self, index: int) -> Timestamp:
        return self.start_ts + self.playout_offset(index, self.fps)


def write_frame_sequence(directory: str | Path, frames: Iterable[PixelBuffer],
                         manifest: FrameManifest) -> None:
    """Write ``frames.pgm`` (all frames, one multi-image PGM) and ``manifest.json``.

    Each frame is written as ``frames`` yields it, so a generator keeps only
    what it draws ahead: ``render_frames`` holds one chunk of at most
    ``CHUNK_BYTES`` of pixels, or one frame. A count other than
    ``manifest.frame_count`` (checked after the last frame, or at the first
    frame too many) raises ValueError.
    That, or any error raised while drawing a frame, removes ``frames.pgm``
    and writes no manifest.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / FRAMES_NAME
    try:
        written = _write_pgm_stream(path, islice(frames, manifest.frame_count + 1))
        if written != manifest.frame_count:
            raise ValueError("manifest frame_count disagrees with frames")
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    doc = {
        "device_id": manifest.device_id,
        "fps": manifest.fps,
        "start_ts": manifest.start_ts,
        "frame_count": manifest.frame_count,
        "session": manifest.session,
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(doc, indent=2, sort_keys=True))


def read_frame_manifest(directory: str | Path) -> FrameManifest:
    """The sidecar through the schema converters; a missing or bad field
    raises SchemaError naming it."""
    return FrameManifest(**read_fields(
        read_json(Path(directory) / MANIFEST_NAME),
        required=("device_id", "fps", "start_ts", "frame_count"),
        device_id=text, fps=finite, start_ts=integer, frame_count=integer,
        session=json_object))


def detect_frame_sequence(directory: str | Path) -> tuple[list[DetectionRecord], Counter]:
    """A video record for every decodable frame of a sequence written by
    ``write_frame_sequence``, and the tally of the rest.

    Frame i plays out at ``manifest.frame_playout(i)`` and is decided on its
    own, with nothing kept from one frame to the next. Consecutive frames of
    one geometry are stacked, ``CHUNK_BYTES`` of pixels at a time (at least
    one frame), for ``_stack_timestamps``, which decodes exactly the frames
    that ``detect_decode``'s bounding-box guess decodes. Only a frame it does
    not decode goes to ``detect_decode``, alone, which decides its record or
    tally. Undecodable frames are skipped and tallied as ``finder_not_found``
    or ``crc_mismatch``.
    """
    manifest = read_frame_manifest(directory)
    device = manifest.device_id
    frames = _read_pgm_stream(Path(directory) / FRAMES_NAME, manifest.frame_count)
    records: list[DetectionRecord] = []
    tally: Counter = Counter()
    i = 0
    for (h, w), run in groupby(frames, key=lambda frame: frame.pixels.shape):
        per_chunk = max(1, CHUNK_BYTES // max(1, h * w))
        while chunk := list(islice(run, per_chunk)):
            stamps = _stack_timestamps(np.stack([frame.pixels for frame in chunk]))
            for frame, ts in zip(chunk, stamps):
                playout = manifest.frame_playout(i)
                i += 1
                if ts is not None:
                    records.append(new_record((VIDEO, device, ts, playout, None, None, None)))
                    continue
                try:
                    records.append(detect_decode(frame, playout, device))
                except FinderNotFound:
                    tally["finder_not_found"] += 1
                except CrcMismatch:
                    tally["crc_mismatch"] += 1
    return records, tally
