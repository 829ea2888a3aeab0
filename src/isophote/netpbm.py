"""Netpbm image I/O: PGM (P2/P5), PPM (P3/P6) and PBM (P1/P4).

Integer-native formats with no external codec dependency. Parse errors
report the byte offset of the offending input. Writers are deterministic:
identical data produces identical bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .raster import IntensityGrid, storage_dtype

__all__ = [
    "NetpbmError",
    "read_image",
    "read_grid",
    "read_pbm",
    "write_pgm",
    "write_pbm",
    "write_ppm",
]

_WS = b" \t\r\n\x0b\x0c"


def _number(token: bytes) -> str:
    """A digit token for a message: no leading zeros, cut to 16 digits like every quoted token."""
    digits = token.lstrip(b"0") or b"0"
    return digits[:16].decode() + ("..." if len(digits) > 16 else "")


class NetpbmError(ValueError):
    """Malformed Netpbm data; the message names the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class _Scanner:
    def __init__(self, data: bytes, name: str):
        self.data = data
        self.name = name
        self.pos = 0

    def fail(self, message: str, at: int | None = None):
        offset = self.pos if at is None else at
        raise NetpbmError(f"{self.name}: {message} at byte {offset}", offset)

    def skip_space(self):
        data = self.data
        while self.pos < len(data):
            c = data[self.pos]
            if c in _WS:
                self.pos += 1
            elif c == 0x23:  # '#' comment runs to end of line
                while self.pos < len(data) and data[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                return

    def uint(self, what: str, limit: int) -> int:
        self.skip_space()
        if self.pos >= len(self.data):
            self.fail(f"expected {what}, found end of file")
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos] not in _WS:
            self.pos += 1
        token = self.data[start : self.pos]
        if not token.isdigit():
            self.fail(f"expected {what}, found {token[:16]!r}", at=start)
        # the length decides first: int() refuses tokens above 4300 digits
        digits = token.lstrip(b"0") or b"0"
        if len(digits) > len(str(limit)) or not 1 <= int(digits) <= limit:
            self.fail(f"{what} {_number(digits)} out of range [1, {limit}]", at=start)
        return int(digits)

    def require(self, count: int, what: str) -> None:
        """Fail before allocating unless count more bytes remain; guards declared sizes."""
        avail = len(self.data) - self.pos
        if avail < count:
            message = f"raster truncated: {what} need at least {count} bytes, have {avail}"
            self.fail(message, at=len(self.data))

    def raster_bytes(self, count: int) -> memoryview:
        """The next count bytes after the one whitespace byte a binary raster starts with.

        A view of the file's bytes, not a copy; it is read-only because they are.
        """
        if self.pos >= len(self.data) or self.data[self.pos] not in _WS:
            self.fail("expected single whitespace before binary raster")
        self.pos += 1
        self.require(count, "binary samples")
        out = memoryview(self.data)[self.pos : self.pos + count]
        self.pos += count
        return out


def _comments(raw: np.ndarray, is_space: np.ndarray, bits: bool) -> None:
    """Mark in is_space every comment in raw, from its '#' up to its line end."""
    opens = np.flatnonzero(raw == ord("#"))
    if not bits:
        opens = opens[is_space[opens - 1]]  # in a sample, '#' is part of the sample
    eols = np.flatnonzero((raw == ord("\n")) | (raw == ord("\r")))
    ends = np.append(eols, raw.size - 1)[np.searchsorted(eols, opens)]
    first = np.flatnonzero(np.diff(ends, prepend=-1))  # one range per commented line
    if first.size:
        lo, hi = opens[first[0]], ends[-1]
        inside = np.zeros(hi - lo, dtype=np.int8)
        inside[opens[first] - lo] = 1
        inside[ends[first[:-1]] - lo] = -1
        is_space[lo:hi] |= np.cumsum(inside, dtype=np.int8, out=inside).view(bool)


def _plain_raster(sc: _Scanner, n: int, maxval: int | None) -> np.ndarray:
    """The first n plain samples from sc.pos on, decoded with array operations.

    maxval None reads P1 bits: the first n non-whitespace bytes, each 0 or
    1, which may run together. Otherwise samples are runs of digits split
    by whitespace, returned in :func:`storage_dtype` of maxval. Comments
    run from '#' to the line end; a '#' opens one after whitespace, or
    anywhere in P1 (in a P2/P3 sample, it is part of the sample). What
    follows the n-th sample is ignored; the first bad sample, or the end
    of a raster of fewer than n, fails with its byte offset.
    """
    data, start = sc.data, sc.pos
    # a space on each side, so that every token has both of its edges
    raw = np.full(len(data) - start + 2, ord(" "), dtype=np.uint8)
    raw[1:-1] = np.frombuffer(data, dtype=np.uint8, offset=start)
    is_space = (raw == ord(" ")) | (raw - np.uint8(ord("\t")) < 5)  # HT LF VT FF CR
    if data.find(b"#", start) >= 0:
        _comments(raw, is_space, maxval is None)
    if maxval is None:
        bits = raw[~is_space][:n] - np.uint8(ord("0"))
        if (bits > 1).any():
            at = int(np.flatnonzero(~is_space)[(bits > 1).argmax()])
            sc.fail(f"expected 0 or 1, found {bytes([raw[at]])!r}", at=start + at - 1)
        if bits.size < n:
            sc.fail("expected bit, found end of file", at=len(data))
        return bits
    digit = raw - np.uint8(ord("0"))  # non-digits wrap above 9
    # alternately the index before a token's first byte and its last byte
    edges = np.flatnonzero(is_space[1:] != is_space[:-1])[: 2 * n]
    last = edges[1::2]
    stop = last[-1] + 1 if last.size else 0
    # is_space is not read again: its memory holds where bytes are digits or whitespace
    ok = np.logical_or(digit[:stop] < 10, is_space[:stop], out=is_space[:stop])
    if not ok.all():  # keep the tokens before the first that is not all digits
        last = last[: np.searchsorted(last, ok.argmin())]
    lengths = last - edges[: 2 * last.size : 2]
    values = digit[last].astype(np.uint32)
    for k in range(1, min(int(lengths.max(initial=0)), 5)):
        place = digit[last - k].astype(np.uint32)
        place *= lengths > k  # left of a shorter run's first digit, or wrapped below 0
        place *= 10**k
        values += place
    over = values > maxval
    long = np.flatnonzero(lengths > 5)  # above maxval unless every digit left of its last five is 0
    prefix = np.stack([last[long] - lengths[long] + 1, last[long] - 4], axis=1)
    over[long] |= np.logical_or.reduceat(digit, prefix.ravel())[::2]
    k = int(over.argmax()) if over.any() else last.size
    if k < edges.size // 2:
        at, end = (start + edges[2 * k : 2 * k + 2]).tolist()
        if k < last.size:
            sc.fail(f"sample value {_number(data[at:end])} exceeds maxval {maxval}", at=at)
        sc.fail(f"expected sample value, found {data[at:end][:16]!r}", at=at)
    if last.size < n:
        sc.fail("expected sample value, found end of file", at=len(data))
    return values.astype(storage_dtype(maxval))


def read_image(path) -> tuple[np.ndarray, int, str]:
    """Read any supported Netpbm file.

    Returns (values, maxval, kind) where kind is "pbm", "pgm" or "ppm";
    values has shape (h, w) or (h, w, 3) and dtype uint8, or uint16 when
    maxval exceeds 255. PBM files yield 0/1 with maxval 1 (1 = black,
    following the format). Binary 8-bit values are a read-only view of
    the file's bytes. The declared size is checked against the bytes that
    remain before anything of that size is allocated, and a sample above
    maxval fails with its byte offset in every format.
    """
    data = Path(path).read_bytes()
    sc = _Scanner(data, str(path))
    if len(data) < 2:
        sc.fail("not a Netpbm file: truncated magic")
    magic = data[:2]
    sc.pos = 2
    if magic not in (b"P1", b"P2", b"P3", b"P4", b"P5", b"P6"):
        sc.fail(f"unknown magic {magic!r}", at=0)
    width = sc.uint("width", 1 << 30)
    height = sc.uint("height", 1 << 30)

    if magic in (b"P1", b"P4"):
        if magic == b"P1":
            n = width * height
            sc.require(n, f"{n} ASCII bits")  # at least one byte per bit
            bits = _plain_raster(sc, n, None).reshape(height, width)
        else:
            rowbytes = (width + 7) // 8
            raw = np.frombuffer(sc.raster_bytes(rowbytes * height), dtype=np.uint8)
            bits = np.unpackbits(raw.reshape(height, rowbytes), axis=1)[:, :width]
        return bits, 1, "pbm"

    maxval = sc.uint("maxval", 65535)
    channels = 3 if magic in (b"P3", b"P6") else 1
    n = width * height * channels
    if magic in (b"P2", b"P3"):
        sc.require(2 * n, f"{n} ASCII samples")  # each is a separator and a digit at least
        flat = _plain_raster(sc, n, maxval)
    else:
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        flat = np.frombuffer(sc.raster_bytes(dtype.itemsize * n), dtype=dtype)
        if maxval not in (255, 65535):  # at full scale every sample fits
            over = flat > maxval
            if over.any():
                i = int(over.argmax())
                start = sc.pos - flat.nbytes
                sc.fail(f"sample value {flat[i]} exceeds maxval {maxval}", at=start + i * dtype.itemsize)
        if maxval > 255:
            flat = flat.astype(np.uint16)
    if channels == 3:
        return flat.reshape(height, width, 3), maxval, "ppm"
    return flat.reshape(height, width), maxval, "pgm"


def _extract_channel(rgb: np.ndarray, channel: str) -> np.ndarray:
    if channel == "gray":
        # widen first: the weighted sum of unsigned samples would wrap
        r, g, b = (rgb[..., i].astype(np.int32) for i in range(3))
        return ((77 * r + 150 * g + 29 * b) >> 8).astype(rgb.dtype)
    return rgb[..., "rgb".index(channel)]


def read_grid(path, channel: str = "gray") -> IntensityGrid:
    """Read an image as an IntensityGrid, extracting a channel from color input.

    Grayscale luma is integer: (77R + 150G + 29B) >> 8. Requesting r/g/b
    from a grayscale file is an error.
    """
    if channel not in ("gray", "r", "g", "b"):
        raise ValueError(f"unknown channel {channel!r}")
    values, maxval, kind = read_image(path)
    if kind == "ppm":
        return IntensityGrid(_extract_channel(values, channel), maxval)
    if channel != "gray":
        raise ValueError(f"{path}: channel {channel!r} requested but the image has no color planes")
    return IntensityGrid(values, maxval)


def read_pbm(path) -> np.ndarray:
    """Read a PBM file as a boolean mask (True where the bit is 1)."""
    values, _, kind = read_image(path)
    if kind != "pbm":
        raise ValueError(f"{path}: expected a PBM file")
    return values.astype(bool)


def _plain_rows(values: np.ndarray) -> bytes:
    """Each row of a 2D array of non-negative integers in decimal, joined
    by spaces and ended by a newline.
    """
    h, m = values.shape
    if values.size == 0:
        return b"\n" * h
    top = int(values.max())
    flat = values.ravel().astype(np.min_scalar_type(top), copy=False)  # narrow: cheaper digits
    width = len(str(top))
    # one fixed-width cell per value: its digits, then its separator; the
    # places left of a value's leading digit hold NUL, deleted at the end
    cells = np.empty((flat.size, width + 1), dtype=np.uint8)
    cells[:, width] = ord(" ")
    cells[m - 1 :: m, width] = ord("\n")
    rest = flat
    for j in range(width - 1, -1, -1):
        cells[:, j] = rest % 10 + ord("0")
        rest = rest // 10
    for j in range(width - 1):
        cells[:, j] *= flat >= 10 ** (width - 1 - j)
    return cells.tobytes().replace(b"\0", b"")


def _write_samples(fh, values: np.ndarray, maxval: int) -> None:
    """Write integer samples as binary Netpbm: one byte each, or two big-endian above 255.

    The bytes come from the array's own buffer when it already holds them,
    without a copy.
    """
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    fh.write(np.ascontiguousarray(values, dtype=dtype).data)


def pgm_maxval(max_value: int) -> int:
    """The maxval a PGM of values up to max_value declares: at least 1, and ValueError above 65535."""
    maxval = max(1, max_value)
    if maxval > 65535:
        raise ValueError(f"PGM maxval limit is 65535, grid has {maxval}")
    return maxval


def write_pgm(path, grid: IntensityGrid, binary: bool = True) -> None:
    """Write a grid as PGM; P5 (binary) by default, P2 with binary=False."""
    maxval = pgm_maxval(grid.max_value)
    header = f"{'P5' if binary else 'P2'}\n{grid.width} {grid.height}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            _write_samples(fh, grid.values, maxval)
        else:
            fh.write(_plain_rows(grid.values))


def write_pbm(path, mask: np.ndarray, binary: bool = True) -> None:
    """Write a boolean mask as PBM (1 = set); P4 by default, P1 with binary=False."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2D, got shape {mask.shape}")
    h, w = mask.shape
    header = f"{'P4' if binary else 'P1'}\n{w} {h}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(np.packbits(mask, axis=1).data)
        else:
            fh.write(_plain_rows(mask.view(np.uint8)))


def write_ppm(path, rgb: np.ndarray, maxval: int = 255, binary: bool = True) -> None:
    """Write an (h, w, 3) integer array as PPM; P6 by default, P3 with binary=False."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected shape (h, w, 3), got {rgb.shape}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"PPM maxval must lie in [1, 65535], got {maxval}")
    if rgb.min() < 0 or rgb.max() > maxval:
        raise ValueError(f"samples must lie in [0, {maxval}]")
    h, w = rgb.shape[:2]
    header = f"{'P6' if binary else 'P3'}\n{w} {h}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            _write_samples(fh, rgb, maxval)
        else:
            fh.write(_plain_rows(rgb.reshape(h, 3 * w)))
