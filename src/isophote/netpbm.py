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
        value = int(token)
        if not 1 <= value <= limit:
            self.fail(f"{what} {value} out of range [1, {limit}]", at=start)
        return value

    def sample(self, maxval: int) -> int:
        self.skip_space()
        if self.pos >= len(self.data):
            self.fail("expected sample value, found end of file")
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos] not in _WS:
            self.pos += 1
        token = self.data[start : self.pos]
        if not token.isdigit():
            self.fail(f"expected sample value, found {token[:16]!r}", at=start)
        value = int(token)
        if value > maxval:
            self.fail(f"sample value {value} exceeds maxval {maxval}", at=start)
        return value

    def bit(self) -> int:
        self.skip_space()
        if self.pos >= len(self.data):
            self.fail("expected bit, found end of file")
        c = self.data[self.pos]
        if c not in b"01":
            self.fail(f"expected 0 or 1, found {bytes([c])!r}")
        self.pos += 1
        return c - 0x30

    def require(self, count: int, what: str) -> None:
        """Fail before allocating unless count more bytes remain; guards declared sizes."""
        avail = len(self.data) - self.pos
        if avail < count:
            message = f"raster truncated: {what} need at least {count} bytes, have {avail}"
            self.fail(message, at=len(self.data))

    def raster_bytes(self, count: int) -> bytes:
        # binary rasters start after exactly one whitespace byte
        if self.pos >= len(self.data) or self.data[self.pos] not in _WS:
            self.fail("expected single whitespace before binary raster")
        self.pos += 1
        self.require(count, "binary samples")
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out


def _plain_raster(data: bytes, start: int, n: int, maxval: int | None) -> np.ndarray | None:
    """The first n plain samples of data[start:], decoded with array operations, or None.

    maxval None reads P1 bits: the first n non-whitespace bytes, each 0 or
    1, which may run together. Otherwise samples are runs of digits split
    by whitespace, returned in :func:`storage_dtype` of maxval. Returns
    None, leaving the file to the byte-by-byte scanner and its exact error
    messages, on any byte other than a digit or whitespace (a comment, a
    sign), fewer than n samples, a sample above maxval, or a token longer
    than 5 digits. What follows the n-th sample is ignored, as the scanner
    ignores it.
    """
    # a space on each side, so that every digit run has both of its edges
    raw = np.full(len(data) - start + 2, ord(" "), dtype=np.uint8)
    raw[1:-1] = np.frombuffer(data, dtype=np.uint8, offset=start)
    digit = raw - np.uint8(ord("0"))  # non-digits wrap above 9
    is_digit = digit < 10
    is_space = (raw == ord(" ")) | (raw - np.uint8(ord("\t")) < 5)  # HT LF VT FF CR
    if not (is_digit | is_space).all():
        return None
    if maxval is None:
        bits = digit[is_digit][:n]
        return bits if bits.size == n and bits.max() <= 1 else None
    # alternately the index before a run's first digit and its last digit
    edges = np.flatnonzero(is_digit[1:] != is_digit[:-1])[: 2 * n]
    if edges.size < 2 * n:
        return None
    last = edges[1::2]
    lengths = last - edges[0::2]
    width = int(lengths.max())
    if width > 5:
        return None
    values = digit[last].astype(np.uint32)
    for k in range(1, width):
        place = digit[last - k].astype(np.uint32)
        place *= lengths > k  # left of a shorter run's first digit, or wrapped below 0
        place *= 10**k
        values += place
    if values.max() > maxval:
        return None
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
            bits = _plain_raster(data, sc.pos, n, None)
            if bits is None:
                bits = np.fromiter((sc.bit() for _ in range(n)), dtype=np.uint8, count=n)
            bits = bits.reshape(height, width)
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
        flat = _plain_raster(data, sc.pos, n, maxval)
        if flat is None:
            flat = np.fromiter((sc.sample(maxval) for _ in range(n)), dtype=storage_dtype(maxval), count=n)
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


def write_pgm(path, grid: IntensityGrid, binary: bool = True) -> None:
    """Write a grid as PGM; P5 (binary) by default, P2 with binary=False."""
    maxval = max(1, grid.max_value)
    if maxval > 65535:
        raise ValueError(f"PGM maxval limit is 65535, grid has {maxval}")
    header = f"{'P5' if binary else 'P2'}\n{grid.width} {grid.height}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
            fh.write(grid.values.astype(dtype).tobytes())
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
            fh.write(np.packbits(mask, axis=1).tobytes())
        else:
            fh.write(_plain_rows(mask.view(np.uint8)))


def write_ppm(path, rgb: np.ndarray, maxval: int = 255, binary: bool = True) -> None:
    """Write an (h, w, 3) integer array as PPM; P6 by default, P3 with binary=False."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected shape (h, w, 3), got {rgb.shape}")
    if rgb.min() < 0 or rgb.max() > maxval:
        raise ValueError(f"samples must lie in [0, {maxval}]")
    h, w = rgb.shape[:2]
    header = f"{'P6' if binary else 'P3'}\n{w} {h}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
            fh.write(rgb.astype(dtype).tobytes())
        else:
            fh.write(_plain_rows(rgb.reshape(h, 3 * w)))
