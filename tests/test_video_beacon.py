"""Video beacon encode/rasterize/detect tests.

The CRC oracle below is bit-serial on purpose: the library computes the
checksum from a byte table, so agreement between the two is a real
cross-check rather than the same code run twice. Likewise the original
per-module encoder, the kron-based rasterizer and the per-row finder scan are
kept here as the references for the table-driven and whole-frame code, the
float-midpoint threshold and two-``repeat`` rasterizer for their integer and
broadcast forms, and the frame-by-frame ``detect_decode`` loop for reading a
frame sequence.
The original pass loop, one per-row scan per stride, is the reference for
``_locate``'s two passes and memoised column checks.
"""

import itertools
import json
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xrprobe.video_beacon import (
    CrcMismatch,
    FinderNotFound,
    FrameManifest,
    ModuleGrid,
    PixelBuffer,
    beacon_emission,
    blank_frame,
    crc16,
    detect_decode,
    detect_frame_sequence,
    encode_beacon,
    grid_timestamp,
    rasterize,
    read_frame_manifest,
    write_frame_sequence,
)
from xrprobe import video_beacon
from xrprobe.schema import SchemaError
from xrprobe.video_beacon import (
    _cluster,
    _decode_at,
    _guess_finders,
    _LineRuns,
    _locate,
    _read_pgm_stream,
    _refine_center,
    _row_hits,
    _scan_finders,
    _triples,
    _write_pgm_stream,
)


def crc16_oracle(data: bytes) -> int:
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


class TestCrc16:
    # frozen check vectors for CRC-16/CCITT-FALSE
    VECTORS = [
        (b"123456789", 0x29B1),
        (b"", 0xFFFF),
        (b"\x00", 0xE1F0),
    ]

    @pytest.mark.parametrize("data,expected", VECTORS)
    def test_known_vectors(self, data, expected):
        assert crc16(data) == expected
        assert crc16_oracle(data) == expected

    def test_check_value(self):
        # the catalogued check value of CRC-16/CCITT-FALSE
        assert crc16(b"123456789") == 0x29B1

    @given(st.binary(max_size=64))
    def test_matches_bitwise_oracle(self, data):
        assert crc16(data) == crc16_oracle(data)

    @given(st.binary(min_size=1, max_size=32), st.integers(min_value=0), st.integers(0, 7))
    def test_single_bit_flip_changes_crc(self, data, pos, bit):
        pos %= len(data)
        flipped = bytearray(data)
        flipped[pos] ^= 1 << bit
        assert crc16(bytes(flipped)) != crc16(data)


FINDER_ROWS = 7


def _expected_finder():
    pat = np.zeros((7, 7), dtype=bool)
    pat[0, :] = pat[6, :] = pat[:, 0] = pat[:, 6] = True
    pat[2:5, 2:5] = True
    return pat


class TestEncode:
    def test_grid_shape_and_payload(self):
        grid = encode_beacon(0)
        assert grid.modules.shape == (21, 21)
        assert grid.payload_ts == 0

    def test_finder_corners(self):
        grid = encode_beacon(123456789).modules
        pat = _expected_finder()
        assert (grid[0:7, 0:7] == pat).all()
        assert (grid[0:7, 14:21] == pat).all()
        assert (grid[14:21, 0:7] == pat).all()

    def test_separators_light(self):
        grid = encode_beacon(2**63 - 1).modules
        assert not grid[7, 0:8].any()
        assert not grid[0:8, 7].any()
        assert not grid[7, 13:21].any()
        assert not grid[0:8, 13].any()
        assert not grid[13, 0:8].any()
        assert not grid[13:21, 7].any()

    def test_zero_timestamp_payload_bits(self):
        grid = encode_beacon(0).modules
        reserved = np.zeros((21, 21), dtype=bool)
        reserved[0:8, 0:8] = reserved[0:8, 13:21] = reserved[13:21, 0:8] = True
        data = [(r, c) for r in range(21) for c in range(21) if not reserved[r, c]]
        bits = [int(grid[r, c]) for r, c in data[:80]]
        expect_crc = crc16_oracle(bytes(8))
        assert bits[:64] == [0] * 64
        assert int("".join(map(str, bits[64:80])), 2) == expect_crc

    def test_fill_is_checkerboard(self):
        grid = encode_beacon(0).modules
        reserved = np.zeros((21, 21), dtype=bool)
        reserved[0:8, 0:8] = reserved[0:8, 13:21] = reserved[13:21, 0:8] = True
        data = [(r, c) for r in range(21) for c in range(21) if not reserved[r, c]]
        for r, c in data[80:]:
            assert grid[r, c] == ((r + c) % 2 == 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            encode_beacon(-1)
        with pytest.raises(ValueError):
            encode_beacon(1 << 64)

    def test_grid_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for ts in rng.integers(0, 1 << 63, size=1000):
            assert grid_timestamp(encode_beacon(int(ts)).modules) == int(ts)


class TestRasterize:
    def test_scale_one_no_quiet(self):
        img = rasterize(encode_beacon(0), scale=1, quiet=0).pixels
        assert img.shape == (21, 21)
        assert img[0, 0] == 0  # finder corner is dark

    def test_default_geometry(self):
        img = rasterize(encode_beacon(0), scale=8, quiet=4).pixels
        assert img.shape == (232, 232)
        assert img[0, 0] == 255  # quiet zone
        assert img[32, 32] == 0  # finder corner after 4-module quiet

    def test_binary_levels(self):
        img = rasterize(encode_beacon(42), scale=3, quiet=2).pixels
        assert set(np.unique(img)) <= {0, 255}

    def test_blank_frame_geometry(self):
        frame = blank_frame(scale=8, quiet=4)
        assert frame.pixels.shape == (232, 232)
        assert (frame.pixels == 255).all()

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            rasterize(encode_beacon(0), scale=0)
        with pytest.raises(ValueError):
            rasterize(encode_beacon(0), quiet=-1)


# --- codec oracles: the original per-module encoder and kron rasterizer -----------

_RESERVED_REF = np.zeros((21, 21), dtype=bool)
_RESERVED_REF[0:8, 0:8] = _RESERVED_REF[0:8, 13:21] = _RESERVED_REF[13:21, 0:8] = True
_DATA_REF = [(r, c) for r in range(21) for c in range(21) if not _RESERVED_REF[r, c]]


def encode_oracle(ts: int) -> np.ndarray:
    word = (ts << 16) | crc16_oracle(ts.to_bytes(8, "big"))
    modules = np.zeros((21, 21), dtype=bool)
    for r0, c0 in ((0, 0), (0, 14), (14, 0)):
        modules[r0 : r0 + 7, c0 : c0 + 7] = _expected_finder()
    for i, (r, c) in enumerate(_DATA_REF):
        modules[r, c] = bool((word >> (79 - i)) & 1) if i < 80 else (r + c) % 2 == 0
    return modules


def grid_timestamp_oracle(modules: np.ndarray) -> int:
    word = 0
    for r, c in _DATA_REF[:80]:
        word = (word << 1) | int(bool(modules[r, c]))
    if crc16_oracle((word >> 16).to_bytes(8, "big")) != word & 0xFFFF:
        raise CrcMismatch("oracle")
    return word >> 16


def rasterize_oracle(modules: np.ndarray, scale: int, quiet: int) -> np.ndarray:
    img = np.where(np.kron(modules, np.ones((scale, scale), dtype=bool)), 0, 255).astype(np.uint8)
    return np.pad(img, quiet * scale, constant_values=255) if quiet else img


class TestCodecOracles:
    @given(ts=st.integers(0, (1 << 64) - 1), scale=st.integers(1, 16), quiet=st.integers(0, 5),
           flip=st.one_of(st.none(), st.integers(0, 440)))
    @settings(max_examples=150, deadline=None)
    def test_encode_decode_rasterize_match_oracles(self, ts, scale, quiet, flip):
        grid = encode_beacon(ts)
        assert grid.modules.dtype == bool
        assert (grid.modules == encode_oracle(ts)).all()
        modules = grid.modules.copy()
        if flip is not None:
            modules.flat[flip] = not modules.flat[flip]
        try:
            expected = grid_timestamp_oracle(modules)
        except CrcMismatch:
            with pytest.raises(CrcMismatch):
                grid_timestamp(modules)
        else:
            assert grid_timestamp(modules) == expected
        img = rasterize(ModuleGrid(modules=modules, payload_ts=ts), scale, quiet).pixels
        oracle = rasterize_oracle(modules, scale, quiet)
        assert img.dtype == np.uint8 and img.shape == oracle.shape
        assert (img == oracle).all()


class TestDetect:
    def test_roundtrip_example(self):
        ts = 1699999999123
        frame = rasterize(encode_beacon(ts), scale=8, quiet=4)
        det = detect_decode(frame, playout_ts=ts + 87, device_id="hmd-1")
        assert det.emission_ts == ts
        assert det.playout_ts == ts + 87
        assert det.device == "hmd-1"
        assert det.media == "video"

    def test_uniform_gray_raises_finder_not_found(self):
        frame = PixelBuffer(pixels=np.full((232, 232), 128, dtype=np.uint8))
        with pytest.raises(FinderNotFound):
            detect_decode(frame, playout_ts=0)

    def test_all_dark_raises_finder_not_found(self):
        frame = PixelBuffer(pixels=np.zeros((232, 232), dtype=np.uint8))
        with pytest.raises(FinderNotFound):
            detect_decode(frame, playout_ts=0)

    def test_flipped_payload_module_raises_crc_mismatch(self):
        grid = encode_beacon(1699999999123)
        reserved = np.zeros((21, 21), dtype=bool)
        reserved[0:8, 0:8] = reserved[0:8, 13:21] = reserved[13:21, 0:8] = True
        r, c = next((r, c) for r in range(21) for c in range(21) if not reserved[r, c])
        tampered = grid.modules.copy()
        tampered[r, c] = not tampered[r, c]
        frame = rasterize(ModuleGrid(modules=tampered, payload_ts=0), scale=8, quiet=4)
        with pytest.raises(CrcMismatch):
            detect_decode(frame, playout_ts=0)

    @given(
        ts=st.integers(min_value=0, max_value=(1 << 63) - 1),
        scale=st.integers(min_value=3, max_value=16),
        quiet=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_any_geometry(self, ts, scale, quiet):
        frame = rasterize(encode_beacon(ts), scale=scale, quiet=quiet)
        assert detect_decode(frame, playout_ts=0).emission_ts == ts

    @given(
        ts=st.integers(min_value=0, max_value=(1 << 63) - 1),
        gain_pct=st.integers(min_value=15, max_value=100),
        offset=st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=30, deadline=None)
    def test_photometric_affine_invariance(self, ts, gain_pct, offset):
        # p -> a*p + b keeping dark/light separation >= 32 gray levels
        a = gain_pct / 100.0
        b = min(offset, 255 - int(a * 255))
        dark, light = b, int(a * 255) + b
        if light - dark < 32:
            return
        base = rasterize(encode_beacon(ts), scale=6, quiet=3).pixels
        warped = (base.astype(np.float64) * a + b).round().clip(0, 255).astype(np.uint8)
        det = detect_decode(PixelBuffer(pixels=warped), playout_ts=0)
        assert det.emission_ts == ts

    def test_never_returns_corrupted_timestamp(self):
        # any single flipped payload module must surface as an error,
        # never as a silently wrong timestamp
        ts = 987654321012
        grid = encode_beacon(ts)
        reserved = np.zeros((21, 21), dtype=bool)
        reserved[0:8, 0:8] = reserved[0:8, 13:21] = reserved[13:21, 0:8] = True
        data = [(r, c) for r in range(21) for c in range(21) if not reserved[r, c]]
        for r, c in data[:80:7]:
            tampered = grid.modules.copy()
            tampered[r, c] = not tampered[r, c]
            frame = rasterize(ModuleGrid(modules=tampered, payload_ts=0), scale=4, quiet=2)
            with pytest.raises(CrcMismatch):
                detect_decode(frame, playout_ts=0)

    def test_checkerboard_flip_is_tolerated(self):
        # fill modules carry no payload; damage there must not break decode
        ts = 555
        grid = encode_beacon(ts)
        reserved = np.zeros((21, 21), dtype=bool)
        reserved[0:8, 0:8] = reserved[0:8, 13:21] = reserved[13:21, 0:8] = True
        data = [(r, c) for r in range(21) for c in range(21) if not reserved[r, c]]
        r, c = data[80]
        tampered = grid.modules.copy()
        tampered[r, c] = not tampered[r, c]
        frame = rasterize(ModuleGrid(modules=tampered, payload_ts=0), scale=8, quiet=4)
        assert detect_decode(frame, playout_ts=0).emission_ts == ts


# --- bounding-box guess: the frame read where its dark bounding box puts the code --

def rasterize_repeat_oracle(modules: np.ndarray, scale: int, quiet: int) -> np.ndarray:
    """The two-``repeat`` rasterizer the broadcast write replaced."""
    pad, code = quiet * scale, 21 * scale
    img = np.full((code + 2 * pad,) * 2, 255, dtype=np.uint8)
    levels = np.where(modules, np.uint8(0), np.uint8(255))
    img[pad : pad + code, pad : pad + code] = levels.repeat(scale, 0).repeat(scale, 1)
    return img


class _LineRunsSpy:
    """Counts the full scans of a test: each builds one ``_LineRuns``."""

    def __init__(self, monkeypatch):
        self.built = 0
        real = video_beacon._LineRuns

        def spy(dark):
            self.built += 1
            return real(dark)

        monkeypatch.setattr(video_beacon, "_LineRuns", spy)


def _painted(ts: int, scale: int, quiet: int, paint) -> PixelBuffer:
    """A rasterized beacon for ``ts`` with ``paint(modules)`` applied first."""
    modules = encode_beacon(ts).modules.copy()
    paint(modules)
    return rasterize(ModuleGrid(modules=modules, payload_ts=ts), scale, quiet)


class TestBoundingBoxGuess:
    def test_integer_threshold_matches_float_midpoint(self):
        # every min/max pair, over every gray level that can lie between them
        for lo in range(256):
            for hi in range(lo + 1, 256):
                pixels = np.arange(lo, hi + 1, dtype=np.uint8)[None, :]
                dark = video_beacon._threshold(pixels)
                assert dark.dtype == bool
                assert (dark == (pixels < (lo + hi) / 2.0)).all(), (lo, hi)

    def test_rasterize_matches_repeat_formula(self):
        rng = np.random.default_rng(5)
        for scale in range(1, 17):
            for quiet in range(7):
                modules = rng.random((21, 21)) < 0.5
                img = rasterize(ModuleGrid(modules=modules, payload_ts=0), scale, quiet).pixels
                oracle = rasterize_repeat_oracle(modules, scale, quiet)
                assert img.dtype == oracle.dtype and img.shape == oracle.shape
                assert img.tobytes() == oracle.tobytes(), (scale, quiet)

    @pytest.mark.parametrize("scale", [3, 8, 16])
    def test_clean_frame_skips_the_full_scan(self, monkeypatch, scale):
        spy = _LineRunsSpy(monkeypatch)
        ts = 0xFEDCBA9876543210
        frame = rasterize(encode_beacon(ts), scale=scale, quiet=4)
        assert detect_decode(frame, playout_ts=0).emission_ts == ts
        assert spy.built == 0

    # the code spans pixels 32..199 on both axes; a speck that becomes the
    # first dark pixel, or extends the code's first row or first column,
    # sends the frame to the full scan, and any other speck goes unread
    @pytest.mark.parametrize("speck, scans", [
        ((3, 200), 1),
        ((32, 220), 1),
        ((220, 32), 1),
        ((100, 2), 0),
        ((228, 228), 0),
    ])
    def test_quiet_zone_speck_still_decodes(self, monkeypatch, speck, scans):
        spy = _LineRunsSpy(monkeypatch)
        ts = 1699999999123
        pixels = rasterize(encode_beacon(ts), scale=8, quiet=4).pixels.copy()
        pixels[speck] = 0
        assert detect_decode(PixelBuffer(pixels=pixels), playout_ts=0).emission_ts == ts
        assert spy.built == scans

    @pytest.mark.parametrize("origin", [(0, 0), (0, 14), (14, 0)])
    def test_finder_painted_light_raises_finder_not_found(self, monkeypatch, origin):
        spy = _LineRunsSpy(monkeypatch)
        r0, c0 = origin

        def occlude(modules):
            modules[r0 : r0 + 7, c0 : c0 + 7] = False

        with pytest.raises(FinderNotFound):
            detect_decode(_painted(4242, 8, 4, occlude), playout_ts=0)
        assert spy.built == 1

    @pytest.mark.parametrize("bit", [0, 40, 79])
    def test_flipped_payload_module_raises_crc_mismatch(self, monkeypatch, bit):
        spy = _LineRunsSpy(monkeypatch)
        r, c = _DATA_REF[bit]

        def flip(modules):
            modules[r, c] = not modules[r, c]

        with pytest.raises(CrcMismatch):
            detect_decode(_painted(4242, 8, 4, flip), playout_ts=0)
        assert spy.built == 1

    @pytest.mark.parametrize("stack", [np.hstack, np.vstack])
    def test_two_codes_decode_to_one_of_their_timestamps(self, stack):
        a = rasterize(encode_beacon(111), scale=4, quiet=2).pixels
        b = rasterize(encode_beacon(222), scale=4, quiet=2).pixels
        det = detect_decode(PixelBuffer(pixels=stack([a, b])), playout_ts=0)
        assert det.emission_ts in (111, 222)

    def test_finder_damaged_between_module_centers_decodes_through_the_guess(self):
        # a light pixel column through the top-left finder's core, on a module
        # edge: every module center is intact, so the guess reads the frame,
        # while every row through the core fails the 1:1:3:1:1 run test
        ts, scale, quiet = 123456789, 8, 4
        pixels = rasterize(encode_beacon(ts), scale, quiet).pixels.copy()
        pad = quiet * scale
        pixels[pad + scale : pad + 6 * scale, pad + 3 * scale] = 255
        assert detect_decode(PixelBuffer(pixels=pixels), playout_ts=0).emission_ts == ts
        # the same damage with the guess defeated by a speck: the scan alone
        # finds no finder triple
        pixels[2, 2] = 0
        with pytest.raises(FinderNotFound):
            detect_decode(PixelBuffer(pixels=pixels), playout_ts=0)


# --- finder-scan oracle: the original one-row-at-a-time scan --------------------

_REF_RATIO = np.array([1.0, 1.0, 3.0, 1.0, 1.0])
_REF_RATIO_TOL = np.array([0.5, 0.5, 0.8, 0.5, 0.5])


def _ref_runs(values):
    change = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [values.size]))
    return starts, ends - starts


def _ref_quintet_hits(starts, lengths, first_dark):
    n = lengths.size
    if n < 5:
        return []
    win = np.lib.stride_tricks.sliding_window_view(lengths, 5)
    units = win.sum(axis=1) / 7.0
    tol = np.maximum(units[:, None] * _REF_RATIO_TOL, 0.6)
    ok = (np.abs(win - _REF_RATIO * units[:, None]) <= tol).all(axis=1)
    idx = np.flatnonzero(ok)
    idx = idx[idx % 2 == (0 if first_dark else 1)]
    return [(starts[i + 2] + lengths[i + 2] / 2.0, units[i]) for i in idx]


def _ref_line_center(line, hint, unit):
    starts, lengths = _ref_runs(line)
    i = int(np.searchsorted(starts, hint, "right")) - 1
    if i < 2 or i + 2 >= starts.size or not line[starts[i]]:
        return None
    win = lengths[i - 2 : i + 3].astype(float)
    u = win.sum() / 7.0
    if abs(u - unit) > 0.6 * max(u, unit):
        return None
    tol = np.maximum(u * _REF_RATIO_TOL, 0.6)
    if not (np.abs(win - _REF_RATIO * u) <= tol).all():
        return None
    return starts[i] + lengths[i] / 2.0, u


def _ref_row_hits(dark, stride):
    for y in range(0, dark.shape[0], stride):
        row = dark[y]
        for cx, unit in _ref_quintet_hits(*_ref_runs(row), bool(row[0])):
            yield y, cx, unit


def _ref_scan_finders(dark, stride):
    found = []
    for y, cx, unit in _ref_row_hits(dark, stride):
        vert = _ref_line_center(dark[:, int(cx)], y, unit)
        if vert is None:
            continue
        cy, vunit = vert
        found.append((cx, cy, (unit + vunit) / 2.0))
    return found


def _strides(dark):
    return (max(4, min(dark.shape) // 32), 4, 1)


def _drawn_modules(draw) -> ModuleGrid:
    """A beacon intact, with a finder painted light, or with a payload module flipped."""
    modules = encode_beacon(draw(st.integers(0, (1 << 63) - 1))).modules.copy()
    damage = draw(st.sampled_from(["intact", "finder", "payload"]))
    if damage == "finder":
        r0, c0 = [(0, 0), (0, 14), (14, 0)][draw(st.integers(0, 2))]
        modules[r0 : r0 + 7, c0 : c0 + 7] = False
    elif damage == "payload":
        modules[8, 8 + draw(st.integers(0, 4))] ^= True
    return ModuleGrid(modules=modules, payload_ts=0)


@st.composite
def _scan_frames(draw):
    """Beacon frames, intact or damaged, with noise and non-square padding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = _drawn_modules(draw)
    scale = draw(st.integers(1, 16))
    quiet = draw(st.integers(0, 4))
    px = rasterize(grid, scale=scale, quiet=quiet).pixels
    pad = [draw(st.integers(0, 40)) for _ in range(4)]
    px = np.pad(px, ((pad[0], pad[1]), (pad[2], pad[3])), constant_values=255)
    noise = draw(st.sampled_from([0.0, 0.002, 0.02, 0.5]))
    return px ^ np.where(rng.random(px.shape) < noise, 255, 0).astype(np.uint8) < 128


@st.composite
def _small_random_frames(draw):
    seed, h, w = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    return np.random.default_rng(seed).random((h, w)) < 0.5


class TestFinderScan:
    @given(dark=_scan_frames())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_oracle(self, dark):
        lines = _LineRuns(dark)
        for stride in _strides(dark):
            # the row stage alone too: the column check would hide a
            # light-led row hit, since it rejects a light middle run
            assert list(zip(*_row_hits(dark, stride))) == [
                (y, float(cx), float(u)) for y, cx, u in _ref_row_hits(dark, stride)]
            got = _scan_finders(lines, zip(*_row_hits(dark, stride)))
            want = _ref_scan_finders(dark, stride)
            assert [tuple(map(float, c)) for c in got] == [tuple(map(float, c)) for c in want]

    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 40), w=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_small_random_frames(self, seed, h, w):
        dark = np.random.default_rng(seed).random((h, w)) < 0.5
        lines = _LineRuns(dark)
        for stride in _strides(dark):
            assert (_scan_finders(lines, zip(*_row_hits(dark, stride)))
                    == _ref_scan_finders(dark, stride))

    @given(dark=st.one_of(_scan_frames(), _small_random_frames()))
    @settings(max_examples=80, deadline=None)
    def test_stride_hits_are_the_stride_1_hits_on_their_rows(self, dark):
        fine = list(zip(*_row_hits(dark, 1)))
        for stride in _strides(dark):
            assert list(zip(*_row_hits(dark, stride))) == [h for h in fine if h[0] % stride == 0]

    @pytest.mark.parametrize("shape", [(1, 64), (64, 1), (1, 1), (64, 4), (4, 64), (3, 3)])
    def test_degenerate_frames_raise_finder_not_found(self, shape):
        px = np.random.default_rng(1).integers(0, 2, size=shape, dtype=np.uint8) * 255
        px.flat[0], px.flat[-1] = 0, 255  # two gray levels, so detection gets to the scan
        with pytest.raises(FinderNotFound):
            detect_decode(PixelBuffer(pixels=px), playout_ts=0)

    def test_fewer_than_five_runs_raise_finder_not_found(self):
        px = np.full((40, 40), 255, dtype=np.uint8)
        px[:, 10:20] = 0  # three runs per row
        with pytest.raises(FinderNotFound):
            detect_decode(PixelBuffer(pixels=px), playout_ts=0)
        assert _row_hits(px[:1, :3] < 128, 1) == ([], [], [])

    def test_no_window_spans_two_rows(self):
        # row 0 ends dark, light; row 1 opens dark x3, light, dark: joined,
        # the five runs read 1:1:3:1:1, but they lie in two rows
        dark = np.array([[0, 0, 0, 0, 0, 1, 0],
                         [1, 1, 1, 0, 1, 0, 0]], dtype=bool)
        assert _row_hits(dark, 1) == ([], [], [])
        # the same five runs inside one row do hit, centered on the 3-run
        one_row = np.array([[0, 1, 0, 1, 1, 1, 0, 1, 0]], dtype=bool)
        assert _row_hits(one_row, 1) == ([0], [4.5], [1.0])


# --- whole-frame oracle: the original pass loop, one per-row scan per stride -----

def _ref_locate(dark):
    """``_locate`` as it was: the bounding-box guess, then for each stride its
    own per-row scan, clustering, refinement and triple decodes."""
    try:
        ts = _decode_at(dark, *_guess_finders(dark))
    except CrcMismatch:
        ts = None
    if ts is not None:
        return ts
    lines = _LineRuns(dark)
    last_error = FinderNotFound("no finder triple")
    adaptive = _strides(dark)[0]
    for stride in (adaptive, 4, 1) if adaptive > 4 else (4, 1):
        clusters = []
        for cand in _cluster(_ref_scan_finders(dark, stride)):
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


@st.composite
def _speck_frames(draw):
    """A dark speck ahead of the code in raster order: the guess reads the
    wrong box, so the frame takes the full scan."""
    scale, quiet = draw(st.integers(1, 16)), draw(st.integers(1, 4))
    px = rasterize(_drawn_modules(draw), scale, quiet).pixels.copy()
    pad = quiet * scale
    y = draw(st.integers(0, pad))
    x = draw(st.integers(0, pad - 1 if y == pad else px.shape[1] - 1))
    px[y, x] = 0
    return px < 128


@st.composite
def _stacked_frames(draw):
    """Two codes of different scales side by side or one above the other."""
    scale_a = draw(st.integers(1, 12))
    scale_b = draw(st.integers(1, 12).filter(lambda s: s != scale_a))
    a = rasterize(_drawn_modules(draw), scale_a, draw(st.integers(0, 3))).pixels
    b = rasterize(_drawn_modules(draw), scale_b, draw(st.integers(0, 3))).pixels
    axis = draw(st.integers(0, 1))
    across = max(a.shape[1 - axis], b.shape[1 - axis])

    def fit(px):
        pad = [(0, 0), (0, 0)]
        pad[1 - axis] = (0, across - px.shape[1 - axis])
        return np.pad(px, pad, constant_values=255)

    return np.concatenate([fit(a), fit(b)], axis=axis) < 128


@st.composite
def _small_code_frames(draw):
    """A scale-1 code inside a large light frame: only the finer passes can
    cross its 3 px finder cores."""
    px = rasterize(_drawn_modules(draw), 1, 0).pixels
    pad = [draw(st.integers(40, 120)) for _ in range(4)]
    return np.pad(px, ((pad[0], pad[1]), (pad[2], pad[3])), constant_values=255) < 128


@st.composite
def _decoy_frames(draw):
    """A code with a finder painted light and a finder pattern of any unit
    painted anywhere on the frame: the decoy may or may not give the stride-1
    pass a third cluster, so passes with and without a triple to try are
    drawn."""
    modules = encode_beacon(draw(st.integers(0, (1 << 63) - 1))).modules.copy()
    r0, c0 = [(0, 0), (0, 14), (14, 0)][draw(st.integers(0, 2))]
    modules[r0 : r0 + 7, c0 : c0 + 7] = False
    grid = ModuleGrid(modules=modules, payload_ts=0)
    px = rasterize(grid, draw(st.integers(1, 16)), draw(st.integers(0, 4))).pixels.copy()
    unit = draw(st.integers(1, min(px.shape) // 7))
    side = 7 * unit
    y = draw(st.integers(0, px.shape[0] - side))
    x = draw(st.integers(0, px.shape[1] - side))
    px[y : y + side, x : x + side] = np.where(
        _expected_finder().repeat(unit, 0).repeat(unit, 1), 0, 255)
    return px < 128


def _outcome(locate, dark):
    """The timestamp, or the class of the exception raised."""
    try:
        return locate(dark)
    except (FinderNotFound, CrcMismatch) as exc:
        return type(exc)


class TestLocate:
    @given(dark=st.one_of(_scan_frames(), _speck_frames(), _stacked_frames(),
                          _small_code_frames(), _decoy_frames()))
    @settings(max_examples=200, deadline=None)
    def test_matches_pass_loop_oracle(self, dark):
        assert _outcome(_locate, dark) == _outcome(_ref_locate, dark)

    @pytest.mark.parametrize("scale", [3, 8, 16])
    @pytest.mark.parametrize("ts", [4242, 0xFEDCBA9876543210])
    def test_every_damaged_frame_kind_matches_the_oracle(self, scale, ts):
        # every frame kind the beacon stream damages: each finder painted
        # light, and each of the 80 payload modules flipped
        kinds = [(FinderNotFound, (slice(r0, r0 + 7), slice(c0, c0 + 7)))
                 for r0, c0 in [(0, 0), (0, 14), (14, 0)]]
        kinds += [(CrcMismatch, rc) for rc in _DATA_REF[:80]]
        for expected, at in kinds:
            def paint(modules):
                modules[at] = False if expected is FinderNotFound else not modules[at]

            dark = _painted(ts, scale, 4, paint).pixels < 128
            assert _outcome(_locate, dark) == _outcome(_ref_locate, dark) == expected, at


class _ScanSpy:
    """Records the ``_row_hits`` strides and the ``_line_center`` keys (line,
    run index, unit) a test's full scans compute, and counts the calls of
    the per-pass steps."""

    def __init__(self, monkeypatch):
        self.strides, self.keys = [], []
        self.calls = Counter()
        for name in ("_cluster", "_refine_center", "_decode_at"):
            monkeypatch.setattr(video_beacon, name, self._counted(name))
        row_hits, line_center = video_beacon._row_hits, video_beacon._line_center

        def rows(dark, stride):
            self.strides.append(stride)
            return row_hits(dark, stride)

        def center(runs, i, unit):
            # each line's runs are built once per frame, so the id names the line
            self.keys.append((id(runs), i, unit))
            return line_center(runs, i, unit)

        monkeypatch.setattr(video_beacon, "_row_hits", rows)
        monkeypatch.setattr(video_beacon, "_line_center", center)

    def _counted(self, name):
        real = getattr(video_beacon, name)

        def call(*args):
            self.calls[name] += 1
            return real(*args)

        return call


class TestScanCost:
    def test_occluded_frame_scans_rows_twice(self, monkeypatch):
        spy = _ScanSpy(monkeypatch)

        def occlude(modules):
            modules[0:7, 0:7] = False

        frame = _painted(4242, 8, 4, occlude)
        with pytest.raises(FinderNotFound):
            detect_decode(frame, playout_ts=0)
        # the adaptive pass, then the stride-1 pass
        assert spy.strides == [232 // 32, 1]
        assert spy.keys and len(spy.keys) == len(set(spy.keys))
        # the stride-1 pass crosses the finder cores on 3 * 8 rows each: most
        # of its hits share a column check
        assert len(spy.keys) < len(_row_hits(frame.pixels < 128, 1)[0]) / 2

    @pytest.mark.parametrize("scale", [3, 8, 16])
    @pytest.mark.parametrize("origin", [(0, 0), (0, 14), (14, 0)])
    def test_two_candidate_places_try_no_triple(self, monkeypatch, origin, scale):
        spy = _ScanSpy(monkeypatch)
        r0, c0 = origin

        def occlude(modules):
            modules[r0 : r0 + 7, c0 : c0 + 7] = False

        frame = _painted(4242, scale, 4, occlude)
        with pytest.raises(FinderNotFound):
            detect_decode(frame, playout_ts=0)
        assert spy.strides == [max(4, frame.width // 32), 1]
        # each pass's candidates are the two intact finders: both passes are
        # clustered, nothing is refined, and only the guess is read
        assert spy.calls == Counter(_cluster=2, _decode_at=1)

    def test_three_candidate_places_run_every_pass(self, monkeypatch):
        # the payload of this timestamp gives the stride-1 scan a third
        # candidate place besides the two intact finders
        ts, scale, quiet = 987654321, 8, 4

        def occlude(modules):
            modules[0:7, 14:21] = False

        frame = _painted(ts, scale, quiet, occlude)
        dark = frame.pixels < 128
        fine = _scan_finders(_LineRuns(dark), zip(*_row_hits(dark, 1)))
        assert {(cx, cy) for cx, cy, _ in fine} == {(60, 60), (60, 172), (72, 104)}
        spy = _ScanSpy(monkeypatch)
        with pytest.raises(FinderNotFound):
            detect_decode(frame, playout_ts=0)
        assert spy.strides == [232 // 32, 1]
        # the adaptive and stride-1 passes are each clustered
        assert spy.calls["_cluster"] == 2
        assert spy.calls["_refine_center"] > 0

    def test_crc_miss_scans_rows_once(self, monkeypatch):
        spy = _ScanSpy(monkeypatch)
        r, c = _DATA_REF[40]

        def flip(modules):
            modules[r, c] = not modules[r, c]

        with pytest.raises(CrcMismatch):
            detect_decode(_painted(4242, 8, 4, flip), playout_ts=0)
        assert spy.strides == [232 // 32]
        assert spy.keys and len(spy.keys) == len(set(spy.keys))


class TestBeaconEmission:
    def test_exact_multiples_of_interval(self):
        start = 1_700_000_000_000
        rng = np.random.default_rng(3)
        for dt in rng.integers(0, 100_000, size=500):
            capture = start + int(dt)
            emission = beacon_emission(start, capture, interval_ms=10)
            assert (emission - start) % 10 == 0
            assert 0 <= capture - emission < 10

    def test_at_stream_start(self):
        assert beacon_emission(1000, 1000) == 1000

    def test_before_start_rejected(self):
        with pytest.raises(ValueError):
            beacon_emission(1000, 999)


_DROP = object()  # a manifest key to delete


class TestFrameIo:
    def test_pgm_roundtrip(self, tmp_path):
        # a one-frame sequence's frames.pgm is a single PGM image
        frame = rasterize(encode_beacon(777), scale=5, quiet=2)
        write_frame_sequence(tmp_path, [frame], FrameManifest("u2", 30.0, 777, 1))
        back = _read_pgm_stream(tmp_path / "frames.pgm", 1)[0]
        assert (back.pixels == frame.pixels).all()

    def test_pgm_header_with_comment(self, tmp_path):
        path = tmp_path / "c.pgm"
        body = bytes([0, 128, 255, 7])
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + body)
        img = _read_pgm_stream(path, 1)[0].pixels
        assert img.shape == (2, 2)
        assert img[0, 1] == 128

    def test_sequence_roundtrip(self, tmp_path):
        frames = [rasterize(encode_beacon(1000 + 33 * i), scale=4, quiet=2) for i in range(5)]
        manifest = FrameManifest(
            device_id="u2", fps=30.0, start_ts=1000, frame_count=5,
            session={"joins_ms": {"u1": 0}},
        )
        write_frame_sequence(tmp_path, frames, manifest)
        back = read_frame_manifest(tmp_path)
        assert back.device_id == "u2"
        assert back.fps == 30.0
        assert back.frame_count == 5
        assert back.session == {"joins_ms": {"u1": 0}}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.pgm", "manifest.json"]
        back_frames = _read_pgm_stream(tmp_path / "frames.pgm", back.frame_count)
        assert [f.pixels.tolist() for f in back_frames] == [f.pixels.tolist() for f in frames]

    def test_detect_frame_sequence_tallies_failures(self, tmp_path):
        tampered = encode_beacon(2000).modules.copy()
        tampered[8, 8] = not tampered[8, 8]  # a payload module
        frames = [
            rasterize(encode_beacon(1000), scale=4, quiet=2),
            blank_frame(scale=4, quiet=2),
            rasterize(ModuleGrid(modules=tampered, payload_ts=0), scale=4, quiet=2),
            rasterize(encode_beacon(1100), scale=4, quiet=2),
        ]
        manifest = FrameManifest(device_id="u3", fps=10.0, start_ts=1050,
                                 frame_count=len(frames))
        write_frame_sequence(tmp_path, frames, manifest)
        detections, tally = detect_frame_sequence(tmp_path)
        assert [(d.device, d.emission_ts, d.playout_ts) for d in detections] == [
            ("u3", 1000, 1050), ("u3", 1100, 1350)]
        assert tally == {"finder_not_found": 1, "crc_mismatch": 1}

    def test_generator_writes_the_list_bytes(self, tmp_path):
        frames = [rasterize(encode_beacon(1000 + 33 * i), scale=3, quiet=2) for i in range(4)]
        drawn = []

        def draw():
            for frame in frames:
                drawn.append(frame)
                yield frame

        manifest = FrameManifest("u2", 30.0, 1000, 4)
        write_frame_sequence(tmp_path / "list", frames, manifest)
        write_frame_sequence(tmp_path / "gen", draw(), manifest)
        assert drawn == frames
        for name in ("frames.pgm", "manifest.json"):
            assert (tmp_path / "gen" / name).read_bytes() == (tmp_path / "list" / name).read_bytes()

    @pytest.mark.parametrize("count, drawn", [(2, 2), (4, 4), (None, 4)])
    def test_wrong_count_raises_and_writes_no_manifest(self, tmp_path, count, drawn):
        # three frames expected; an endless generator is stopped at the fourth
        pulled = []

        def draw():
            for i in itertools.count() if count is None else range(count):
                pulled.append(i)
                yield blank_frame(1, 0)

        with pytest.raises(ValueError, match="manifest frame_count disagrees with frames"):
            write_frame_sequence(tmp_path, draw(), FrameManifest("d", 30.0, 0, 3))
        assert len(pulled) == drawn
        assert list(tmp_path.iterdir()) == []

    def test_failed_draw_leaves_no_frames(self, tmp_path):
        def draw():
            yield blank_frame(1, 0)
            raise RuntimeError("drawing failed")

        with pytest.raises(RuntimeError, match="drawing failed"):
            write_frame_sequence(tmp_path, draw(), FrameManifest("d", 30.0, 0, 3))
        assert list(tmp_path.iterdir()) == []

    def test_frame_playout_arithmetic(self):
        manifest = FrameManifest(device_id="d", fps=30.0, start_ts=5000, frame_count=4)
        assert manifest.frame_playout(0) == 5000
        assert manifest.frame_playout(1) == 5000 + round(1000 / 30)
        assert manifest.frame_playout(3) == 5000 + round(3 * 1000 / 30)


# --- the multi-image PGM stream and its manifest -----------------------------------

def _pgm_image(pixels: np.ndarray, comments: list[list[str]], sep: bytes) -> bytes:
    """One binary PGM image; ``comments[k]`` follow header token k.

    The tokens are the magic number, width, height and maxval. At most one
    comment follows maxval, touching it: the comment's newline ends the
    header, as one whitespace byte would.
    """
    notes = [b"".join(b"#" + c.encode() + b"\n" for c in group) for group in comments]
    return (b"P5" + sep + notes[0] + b"%d" % pixels.shape[1] + sep + notes[1]
            + b"%d" % pixels.shape[0] + sep + notes[2] + b"255" + (notes[3] or b"\n")
            + pixels.tobytes())


@st.composite
def _images(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    data = draw(st.binary(min_size=h * w, max_size=h * w))
    comments = [draw(st.lists(st.text("abc #P5 0123456789", max_size=8), max_size=n))
                for n in (2, 2, 2, 1)]
    sep = draw(st.sampled_from((b" ", b"\n", b"\t", b"  \n ")))
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w), comments, sep


class TestPgmStream:
    @given(images=st.lists(_images(), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_mixed_sizes_and_comments(self, images):
        with tempfile.TemporaryDirectory() as tmp:
            # written by hand, header comments and separators varied
            path = f"{tmp}/by_hand.pgm"
            with open(path, "wb") as fh:
                fh.write(b"".join(_pgm_image(*image) for image in images))
            back = _read_pgm_stream(path, len(images))
            assert [f.pixels.tolist() for f in back] == [px.tolist() for px, _, _ in images]
            # written by write_frame_sequence, read by the same reader
            frames = [PixelBuffer(pixels=px.copy()) for px, _, _ in images]
            write_frame_sequence(tmp, frames, FrameManifest(
                device_id="d", fps=30.0, start_ts=0, frame_count=len(frames)))
            back = _read_pgm_stream(f"{tmp}/frames.pgm", len(frames))
            assert [f.pixels.tolist() for f in back] == [f.pixels.tolist() for f in frames]

    def test_strided_and_large_frames_written_as_their_bytes(self, tmp_path):
        # a strided view must be written as its pixels, not refused as
        # non-contiguous, and a frame past the 1 MiB write buffer must not be cut
        big = np.random.default_rng(3).integers(0, 256, (1100, 1000), dtype=np.uint8)
        assert big.nbytes > 1 << 20
        pixels = [big[::2, ::2], big, big[1:4, ::-3]]
        assert not pixels[0].flags.c_contiguous and not pixels[2].flags.c_contiguous
        path = tmp_path / "frames.pgm"
        assert _write_pgm_stream(path, [PixelBuffer(pixels=px) for px in pixels]) == 3
        assert path.read_bytes() == b"".join(b"P5\n%d %d\n255\n" % (px.shape[1], px.shape[0])
                                             + px.tobytes() for px in pixels)
        back = _read_pgm_stream(path, 3)
        assert all(np.array_equal(f.pixels, px) for f, px in zip(back, pixels))

    def test_frames_are_read_only_views(self, tmp_path):
        frames = [rasterize(encode_beacon(5), scale=1, quiet=0)] * 2
        write_frame_sequence(tmp_path, frames, FrameManifest("d", 30.0, 0, 2))
        back = _read_pgm_stream(tmp_path / "frames.pgm", 2)
        assert not back[1].pixels.flags.writeable
        assert (back[1].pixels == frames[1].pixels).all()

    def test_empty_sequence(self, tmp_path):
        write_frame_sequence(tmp_path, [], FrameManifest("d", 30.0, 0, 0))
        assert (tmp_path / "frames.pgm").read_bytes() == b""
        assert detect_frame_sequence(tmp_path) == ([], Counter())

    @pytest.mark.parametrize("blob, count, message", [
        (b"P5\n2 1\n255\nab", 2, "frame 1: file ends after 1 of 2 images"),
        (b"P5\n2 1\n255\nabP5\n1 1\n255\nc", 1, "frame 1: 12 bytes after the last of 1 images"),
        (b"P5\n2 1\n255\nab\n", 1, "frame 1: 1 bytes after the last of 1 images"),
        (b"P5\n2 1\n255\nabP5\n1 1\n65535\ncc", 2, "frame 1: unsupported maxval 65535"),
        (b"P5\n2 1\n255\nabP5\n2 2\n255\nabc", 2, "frame 1: truncated pixel data"),
        (b"P5\n2 1\n255\nabP2\n1 1\n255\n9", 2, "frame 1: not a binary PGM image"),
        (b"", 1, "frame 0: file ends after 0 of 1 images"),
        (b"P5\n2 1\n255 #c\nab", 1, "frame 1: 3 bytes after the last of 1 images"),
    ])
    def test_bad_stream_names_file_and_frame(self, tmp_path, blob, count, message):
        path = tmp_path / "frames.pgm"
        path.write_bytes(blob)
        with pytest.raises(ValueError) as err:
            _read_pgm_stream(path, count)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("blob", [
        b"P5\n2 # width\n1\n255\nab",
        b"P5\n2 1 # height\n255\nab",
        b"P5\n2\n1#height\n255# maxval\nab",
        b"P5#magic\r2#width\r1\t#height\r\n255#maxval\rab",
    ])
    def test_header_comments_wherever_whitespace_is(self, tmp_path, blob):
        path = tmp_path / "frame.pgm"
        path.write_bytes(blob)
        assert _read_pgm_stream(path, 1)[0].pixels.tolist() == [[ord("a"), ord("b")]]

    def test_missing_stream_names_file(self, tmp_path):
        write_frame_sequence(tmp_path, [blank_frame(1, 0)], FrameManifest("d", 30.0, 0, 1))
        (tmp_path / "frames.pgm").unlink()
        with pytest.raises(ValueError) as err:
            detect_frame_sequence(tmp_path)
        assert str(err.value) == f"{tmp_path / 'frames.pgm'}: frame 0: no such file"

    def test_manifest_count_must_match_stream(self, tmp_path):
        frames = [blank_frame(1, 0)] * 3
        write_frame_sequence(tmp_path, frames, FrameManifest("d", 30.0, 0, 3))
        doc = json.loads((tmp_path / "manifest.json").read_text())
        for count, message in ((4, "frame 3: file ends after 3 of 4 images"),
                               (2, "frame 2: 454 bytes after the last of 2 images")):
            doc["frame_count"] = count
            (tmp_path / "manifest.json").write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=message):
                detect_frame_sequence(tmp_path)


class TestFrameManifest:
    def _write(self, tmp_path, **change):
        write_frame_sequence(tmp_path, [blank_frame(1, 0)], FrameManifest("d", 30.0, 0, 1))
        doc = json.loads((tmp_path / "manifest.json").read_text())
        for key, value in change.items():
            if value is _DROP:
                del doc[key]
            else:
                doc[key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(doc))

    @pytest.mark.parametrize("key, value", [
        ("fps", 0), ("fps", -30.0), ("fps", "30"), ("fps", None), ("fps", True),
        ("frame_count", -1), ("frame_count", 1.5), ("frame_count", "1"), ("frame_count", False),
        ("start_ts", 0.5), ("device_id", 7), ("session", []), ("extra", 1),
        ("device_id", _DROP), ("fps", _DROP), ("start_ts", _DROP), ("frame_count", _DROP),
    ])
    def test_bad_field_named(self, tmp_path, key, value):
        self._write(tmp_path, **{key: value})
        with pytest.raises(SchemaError) as err:
            read_frame_manifest(tmp_path)
        assert err.value.field == key

    @pytest.mark.parametrize("doc", [[], None])
    def test_non_object_manifest_rejected(self, tmp_path, doc):
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            read_frame_manifest(tmp_path)
        assert err.value.field == "<root>"

    def test_integral_values_and_no_session_accepted(self, tmp_path):
        self._write(tmp_path, fps=25, frame_count=1.0, session=_DROP)
        manifest = read_frame_manifest(tmp_path)
        assert (manifest.fps, manifest.frame_count, manifest.session) == (25.0, 1, {})

    def test_constructor_checks_ranges(self):
        with pytest.raises(SchemaError, match="fps"):
            FrameManifest("d", 0.0, 0, 1)
        with pytest.raises(SchemaError, match="frame_count"):
            FrameManifest("d", 30.0, 0, -1)

    @pytest.mark.parametrize("fps, start_ts, frame_count, field", [
        (1e-300, 0, 2, "fps"),  # a finite offset of about 1e303 ms
        (1e-310, 0, 2, "fps"),  # an infinite one
        (30.0, -1, 1, "start_ts"),
        (30.0, 2**64, 0, "start_ts"),
        (30.0, 2**64 - 33, 2, "start_ts"),  # the second frame plays out at 2**64
    ])
    def test_playout_must_fit_in_64_bits(self, fps, start_ts, frame_count, field):
        with pytest.raises(SchemaError) as err:
            FrameManifest("d", fps, start_ts, frame_count)
        assert err.value.field == field

    def test_playout_may_end_at_the_top_timestamp(self):
        manifest = FrameManifest("d", 30.0, 2**64 - 34, 2)
        assert manifest.frame_playout(1) == 2**64 - 1


# --- frame sequences: the frame-by-frame detect_decode loop as the oracle ---------

def detect_frame_sequence_oracle(directory):
    manifest = read_frame_manifest(directory)
    detections, tally = [], Counter()
    frames = _read_pgm_stream(f"{directory}/frames.pgm", manifest.frame_count)
    for i, frame in enumerate(frames):
        try:
            detections.append(detect_decode(frame, manifest.frame_playout(i),
                                            manifest.device_id))
        except FinderNotFound:
            tally["finder_not_found"] += 1
        except CrcMismatch:
            tally["crc_mismatch"] += 1
    return detections, tally


_KINDS = ("intact", "intact", "intact", "blank", "occluded", "damaged")


@st.composite
def _frame_sequences(draw):
    """Frames of one or more geometries (scale, quiet zone, a 1-px shift),
    each intact, blank, a finder painted light, or a payload module flipped."""
    frames = []
    for _ in range(draw(st.integers(1, 3))):
        scale = draw(st.integers(1, 5))
        quiet = draw(st.integers(0, 3))
        shift = draw(st.booleans())
        for kind in draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6)):
            ts = draw(st.integers(0, (1 << 63) - 1))
            if kind == "blank":
                frames.append(blank_frame(scale, quiet))
                continue
            modules = encode_beacon(ts).modules.copy()
            if kind == "occluded":
                r0, c0 = draw(st.sampled_from(((0, 0), (0, 14), (14, 0))))
                modules[r0 : r0 + 7, c0 : c0 + 7] = False
            elif kind == "damaged":
                r, c = _DATA_REF[draw(st.integers(0, 79))]
                modules[r, c] = not modules[r, c]
            px = rasterize(ModuleGrid(modules=modules, payload_ts=ts), scale, quiet).pixels
            if shift:
                px = np.pad(px, ((1, 0), (1, 0)), constant_values=255)
            frames.append(PixelBuffer(pixels=px))
    return frames


class TestFrameSequence:
    @given(frames=_frame_sequences())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_frame_oracle(self, frames):
        with tempfile.TemporaryDirectory() as tmp:
            write_frame_sequence(tmp, frames, FrameManifest(
                device_id="u4", fps=30.0, start_ts=10_000, frame_count=len(frames)))
            detections, tally = detect_frame_sequence(tmp)
            expected, expected_tally = detect_frame_sequence_oracle(tmp)
        assert detections == expected
        assert tally == expected_tally

    def test_every_frame_goes_through_detect_decode(self, tmp_path, monkeypatch):
        calls = []
        decode = video_beacon.detect_decode
        monkeypatch.setattr(video_beacon, "detect_decode",
                            lambda *args: calls.append(args) or decode(*args))
        frames = [rasterize(encode_beacon(1000 + 10 * i), scale=4, quiet=2) for i in range(6)]
        frames[3] = blank_frame(scale=4, quiet=2)
        write_frame_sequence(tmp_path, frames, FrameManifest(
            device_id="u2", fps=30.0, start_ts=0, frame_count=len(frames)))
        detections, tally = detect_frame_sequence(tmp_path)
        assert [d.emission_ts for d in detections] == [1000, 1010, 1020, 1040, 1050]
        assert tally == {"finder_not_found": 1}
        # one call a frame, the blank one included, each with its own playout
        # and the manifest's device: nothing is read past detect_decode
        assert [(args[1], args[2]) for args in calls] == [
            (round(i * 1000 / 30), "u2") for i in range(6)]
