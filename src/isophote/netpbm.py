"""Netpbm image I/O: PGM (P2/P5), PPM (P3/P6) and PBM (P1/P4).

Integer-native formats with no external codec dependency. Parse errors
report the byte offset of the offending input. Writers are deterministic:
identical data produces identical bytes.
"""

from __future__ import annotations

import os
import re
import stat
import sys

import numpy as np

from .raster import IntensityGrid, adopt, storage_dtype

__all__ = [
    "NetpbmError",
    "read_image",
    "read_grid",
    "write_pgm",
    "write_pbm",
    "write_ppm",
]

_WS = b" \t\r\n\x0b\x0c"
_SPACES = re.compile(rb"[%b]*" % _WS)
_KINDS = ("pbm", "pgm", "ppm")  # of magic digits 1-3 (plain) and 4-6 (binary)


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
    """Parses data, the first bytes of a file of size bytes; by default data is the whole file."""

    def __init__(self, data: bytes, name: str, size: int | None = None):
        self.data = data
        self.name = name
        self.size = len(data) if size is None else size
        self.pos = 0

    def fail(self, message: str, at: int | None = None):
        offset = self.pos if at is None else at
        raise NetpbmError(f"{self.name}: {message} at byte {offset}", offset)

    def token_start(self) -> int:
        """The offset of the next header token: past whitespace, and past '#' comments to their line ends.

        Comments are found as in a plain raster, by :func:`_blank` over
        blocks that end at a line end, so a header of a million one-line
        comments costs about what one comment of as many bytes does.
        """
        data, at = self.data, self.pos
        while True:
            at = _SPACES.match(data, at).end()
            if not data.startswith(b"#", at):
                return at
            end = _line_end(data, at + _PLAIN_BLOCK)
            token = np.flatnonzero(_blank(data, at, end, False)[1])
            if token.size:
                return at + int(token[0]) - 1
            at = end

    def uint(self, what: str, limit: int) -> int:
        start = self.token_start()
        self.pos = _find_any(self.data, start, _WS)  # a '#' inside a token belongs to it
        token = self.data[start : self.pos]
        if not token:
            self.fail(f"expected {what}, found end of file")
        if not token.isdigit():
            self.fail(f"expected {what}, found {token[:16]!r}", at=start)
        # the length decides first: int() refuses tokens above 4300 digits
        digits = token.lstrip(b"0") or b"0"
        if len(digits) > len(str(limit)) or not 1 <= int(digits) <= limit:
            self.fail(f"{what} {_number(digits)} out of range [1, {limit}]", at=start)
        return int(digits)

    def require(self, count: int, what: str) -> None:
        """Fail before allocating unless count more bytes remain in the file; guards declared sizes."""
        avail = self.size - self.pos
        if avail < count:
            message = f"raster truncated: {what} need at least {count} bytes, have {avail}"
            self.fail(message, at=self.size)

    def header(self) -> tuple[str, bool, int, int, int]:
        """(kind, binary, width, height, maxval) from the magic and the header tokens after it."""
        data = self.data
        if len(data) < 2:
            self.fail("not a Netpbm file: truncated magic")
        if data[0] != ord("P") or data[1] not in b"123456":
            self.fail(f"unknown magic {data[:2]!r}", at=0)
        digit = data[1] - ord("0")
        kind = _KINDS[(digit - 1) % 3]
        self.pos = 2
        width = self.uint("width", 1 << 30)
        height = self.uint("height", 1 << 30)
        maxval = 1 if kind == "pbm" else self.uint("maxval", 65535)
        return kind, digit > 3, width, height, maxval

    def binary_raster(self, fh, n: int, dtype: np.dtype) -> np.ndarray:
        """The n big-endian samples of dtype after the one whitespace byte a binary raster starts with.

        They go into a new native-endian array: the bytes of data past the
        header are copied in, and fh, positioned at the end of data, is read
        straight into the rest. Samples of two bytes are then swapped in place.
        """
        if self.pos >= len(self.data) or self.data[self.pos] not in _WS:
            self.fail("expected single whitespace before binary raster")
        self.pos += 1
        count = n * dtype.itemsize
        self.require(count, "binary samples")
        out = np.empty(n, dtype)
        into = memoryview(out).cast("B")
        got = min(len(self.data) - self.pos, count)
        into[:got] = memoryview(self.data)[self.pos : self.pos + got]
        while got < count and (more := fh.readinto(into[got:])):
            got += more
        if got < count:  # the file was cut after its size was read
            self.size = self.pos + got
            self.require(count, "binary samples")
        self.pos += count
        if dtype.itemsize > 1 and sys.byteorder == "little":
            out.byteswap(inplace=True)
        return out


def _comments(raw: np.ndarray, kept: np.ndarray, bits: bool) -> None:
    """Clear in kept every comment in raw, from its '#' up to its line end.

    A byte is in a comment when the last opening '#' or line end at or
    before it is a '#'. That state flips only at those bytes, so it is a
    running parity of its flips there, and no line end is searched for.
    """
    opens = raw == ord("#")
    if not bits:
        np.greater(opens[1:], kept[:-1], out=opens[1:])  # in a sample, '#' is part of the sample
    marks = np.flatnonzero(opens | (raw == ord("\n")) | (raw == ord("\r")))
    state = opens.take(marks)
    if state.any():
        lo = marks[state.argmax()]
        flips = np.zeros(raw.size, dtype=bool)
        flips[marks] = np.diff(state, prepend=False)
        inside = np.logical_xor.accumulate(flips[lo:], out=flips[lo:])
        np.greater(kept[lo:], inside, out=kept[lo:])


# Bytes of plain raster decoded at a time, up to the next line end: the
# temporaries of a block stay cache-sized and reuse the memory the last
# block freed.
_PLAIN_BLOCK = 1 << 16
# Bytes of binary samples converted at a time when a writer must narrow or
# byte-swap them, so that no raster-sized copy is made.
_BINARY_BLOCK = 1 << 18


def _find_any(data: bytes, at: int, chars: bytes) -> int:
    """The offset of the first of the bytes chars at or after at, or len(data).

    The bytes are looked for in windows that double from _PLAIN_BLOCK
    bytes, each only before the nearest found so far, so one that is near
    costs no scan of the rest of the data.
    """
    size = _PLAIN_BLOCK
    while at < len(data):
        first = stop = at + size
        for c in chars:
            i = data.find(c, at, first)
            if i >= 0:
                first = i
        if first < stop:
            return first
        at = stop
        size *= 2
    return len(data)


def _line_end(data: bytes, at: int) -> int:
    """The offset just past the first line end at or after at, or len(data)."""
    return min(_find_any(data, at, b"\n\r") + 1, len(data))


def _blank(data: bytes, pos: int, end: int, bits: bool) -> tuple[np.ndarray, np.ndarray]:
    """data[pos:end] with a space on each side, so that every token has both of its
    edges, and the mask of its token bytes: neither whitespace nor comment (see :func:`_comments`).
    """
    raw = np.full(end - pos + 2, ord(" "), dtype=np.uint8)
    raw[1:-1] = np.frombuffer(data, dtype=np.uint8, count=end - pos, offset=pos)
    kept = (raw != ord(" ")) & (raw - np.uint8(ord("\t")) > 4)  # not HT LF VT FF CR
    if data.find(b"#", pos, end) >= 0:
        _comments(raw, kept, bits)
    return raw, kept


def _plain_raster(sc: _Scanner, n: int, maxval: int | None) -> np.ndarray:
    """The first n plain samples from sc.pos on, decoded with array operations.

    maxval None reads P1 bits: the first n non-whitespace bytes, each 0 or
    1, which may run together. Otherwise samples are runs of digits split
    by whitespace, returned in :func:`storage_dtype` of maxval. Comments
    run from '#' to the line end; a '#' opens one after whitespace, or
    anywhere in P1 (in a P2/P3 sample, it is part of the sample). What
    follows the n-th sample is ignored; the first bad sample, or the end
    of a raster of fewer than n, fails with its byte offset. The raster is
    decoded in blocks of at least _PLAIN_BLOCK bytes that end at a line
    end, so that no sample or comment straddles two.
    """
    bits = maxval is None
    # each bit is a byte at least; each sample a separator and a digit
    sc.require(n if bits else 2 * n, f"{n} ASCII {'bits' if bits else 'samples'}")
    data, pos = sc.data, sc.pos
    out = np.empty(n, np.uint8 if bits else storage_dtype(maxval))
    done = 0
    while done < n and pos < len(data):
        end = _line_end(data, pos + _PLAIN_BLOCK)
        raw, kept = _blank(data, pos, end, bits)
        if bits:
            done += _plain_bits(sc, pos, raw, kept, out[done:])
        else:
            done += _plain_samples(sc, pos, raw, kept, out[done:], maxval)
        pos = end
    if done < n:
        sc.fail(f"expected {'bit' if bits else 'sample value'}, found end of file", at=len(data))
    return out


def _plain_bits(sc: _Scanner, at: int, raw: np.ndarray, kept: np.ndarray, out: np.ndarray) -> int:
    """Decode the P1 bits of one block into out, up to its size; return how many.

    Byte i of raw is byte at + i - 1 of sc.data. The first byte that is
    not whitespace, 0 or 1 fails with its byte offset.
    """
    index = np.flatnonzero(kept)[: out.size]
    bits = raw.take(index) - np.uint8(ord("0"))  # non-digits wrap above 9
    if bits.max(initial=0) > 1:
        i = int(index[(bits > 1).argmax()])
        sc.fail(f"expected 0 or 1, found {bytes([raw[i]])!r}", at=at + i - 1)
    out[: bits.size] = bits
    return bits.size


def _plain_samples(
    sc: _Scanner, at: int, raw: np.ndarray, kept: np.ndarray, out: np.ndarray, maxval: int
) -> int:
    """Decode the samples of one block into out, up to its size; return how many.

    Byte i of raw is byte at + i - 1 of sc.data, its first and last bytes
    are whitespace, and kept marks the bytes of its tokens. The first
    sample that is not all digits or exceeds maxval fails with its byte
    offset.

    Each byte gets the value of the last p digits of its token up to it,
    p the number of digits of maxval, summed from shifted views of the
    digits; one gather takes it at each token's last byte. A token of more
    than p digits is over maxval exactly when a digit other than 0 has p
    token bytes after it.
    """
    places = len(str(maxval))
    ends = np.flatnonzero(kept[:-1] > kept[1:])[: out.size]  # each token's last byte
    stop = int(ends[-1]) + 1 if ends.size else 0
    digit = raw - np.uint8(ord("0"))
    digit *= kept.view(np.uint8)  # 0 outside tokens; a non-digit wraps above 9
    values = digit.astype(np.uint16)
    span = kept[1:]  # span[j]: the k bytes after byte j are token bytes
    for k in range(1, places + 1):
        # digit j counts k bytes past it while its token lasts, so the digits
        # of the token before, one byte apart, do not
        place = digit[:-k] * span.view(np.uint8)
        if k == places:
            break
        if k == 4:
            values = values.astype(np.uint32)  # five digits pass 65535
        place = place.astype(values.dtype)
        place *= 10**k
        values[k:] += place
        span = span[:-1] & kept[k + 1 :]
    samples = values.take(ends)
    high = place[:stop]  # a digit other than 0 with places token bytes after it
    if digit[:stop].max(initial=0) > 9 or samples.max(initial=0) > maxval or high.any():

        def first(byte):  # the token of the first byte marked, or ends.size
            return int(np.searchsorted(ends, byte.argmax())) if byte.any() else ends.size

        bad = first(digit[:stop] > 9)
        over = np.flatnonzero(samples > maxval)
        i = min(bad, first(high != 0), int(over[0]) if over.size else bad)
        end = int(ends[i])
        begin = at + end - int(kept[end::-1].argmin())
        token = sc.data[begin : at + end]
        if i < bad:  # a token that is not all digits has no value
            sc.fail(f"sample value {_number(token)} exceeds maxval {maxval}", at=begin)
        sc.fail(f"expected sample value, found {token[:16]!r}", at=begin)
    out[: samples.size] = samples
    return samples.size


def read_image(path) -> tuple[np.ndarray, int, str]:
    """Read any supported Netpbm file.

    Returns (values, maxval, kind) where kind is "pbm", "pgm" or "ppm";
    values has shape (h, w) or (h, w, 3) and dtype uint8, or uint16 when
    maxval exceeds 255. PBM files yield 0/1 with maxval 1 (1 = black,
    following the format). The array is the caller's own, writable in
    every format: binary samples are read from the file straight into it.
    The declared size is checked against the bytes that remain before
    anything of that size is allocated, and a sample above maxval fails
    with its byte offset in every format.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):  # no more than the file holds, unless it reports no size
            data = fh.read(min(_PLAIN_BLOCK, info.st_size) or _PLAIN_BLOCK)
        else:  # a file of no known size, such as a pipe, is read whole
            data = fh.read()
        sc = _Scanner(data, str(path), max(info.st_size, len(data)))
        kind, binary, width, height, maxval = _read_header(sc, fh)
        if not binary and len(sc.data) < sc.size:  # a plain raster is parsed in memory
            fh.seek(0)
            sc.data = fh.read()
            sc.size = len(sc.data)
        n = width * height * (3 if kind == "ppm" else 1)
        if not binary:
            flat = _plain_raster(sc, n, None if kind == "pbm" else maxval)
        elif kind == "pbm":
            rowbytes = (width + 7) // 8
            raw = sc.binary_raster(fh, rowbytes * height, np.dtype(np.uint8))
            flat = np.unpackbits(raw.reshape(height, rowbytes), axis=1)[:, :width]
        else:
            flat = sc.binary_raster(fh, n, np.dtype(np.uint8 if maxval < 256 else np.uint16))
            if maxval not in (255, 65535):  # at full scale every sample fits
                over = flat > maxval
                if over.any():
                    i = int(over.argmax())
                    start = sc.pos - flat.nbytes
                    sc.fail(f"sample value {flat[i]} exceeds maxval {maxval}", at=start + i * flat.itemsize)
    return flat.reshape((height, width, 3) if kind == "ppm" else (height, width)), maxval, kind


def _read_header(sc: _Scanner, fh) -> tuple[str, bool, int, int, int]:
    """sc.header(), reading more of fh into sc.data while that holds only the start of the file.

    A header parsed from the start of a file is the file's header when its
    last token ends inside that start, so that the byte after it is there
    too. Otherwise, or when the start fails to parse, the bytes held double,
    up to the whole file, whose result stands. A plain file is read whole
    at once, since its raster is parsed in memory.
    """
    while True:
        whole = len(sc.data) >= sc.size
        try:
            header = sc.header()
        except NetpbmError:
            if whole:
                raise
        else:
            if whole or sc.pos < len(sc.data):
                return header
        left = sc.size - len(sc.data)
        more = fh.read(left if sc.data[1:2] in (b"1", b"2", b"3") else min(len(sc.data), left))
        if not more:  # the file was cut after its size was read
            sc.size = len(sc.data)
        sc.data += more


def _extract_channel(rgb: np.ndarray, channel: str, maxval: int) -> np.ndarray:
    if channel == "gray":
        # widened to the narrowest type that holds 256 * maxval, which the weighted sum never exceeds
        r, g, b = (rgb[..., i].astype(np.min_scalar_type(256 * maxval)) for i in range(3))
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
        return IntensityGrid(adopt(_extract_channel(values, channel, maxval)), maxval)
    if channel != "gray":
        raise ValueError(f"{path}: channel {channel!r} requested but the image has no color planes")
    return IntensityGrid(adopt(values), maxval)


def decimal_cells(values: np.ndarray, suffix: bytes = b"") -> np.ndarray:
    """Each of an array of non-negative integers in decimal, then suffix: one
    row of uint8 per value, in flat order, as wide as the largest value's
    digits and the suffix. The places left of a value's leading digit hold
    NUL, for the caller to delete.
    """
    top = int(values.max(initial=0))
    flat = values.ravel().astype(np.min_scalar_type(top), copy=False)  # narrow: cheaper digits
    width = len(str(top))
    cells = np.empty((flat.size, width + len(suffix)), dtype=np.uint8)
    cells[:, width:] = np.frombuffer(suffix, np.uint8)
    rest = flat
    for j in range(width - 1, -1, -1):
        q = rest // 10  # the remainder by subtraction: % on unsigned integers is many times slower
        cells[:, j] = rest - 10 * q + ord("0")
        rest = q
    for j in range(width - 1):
        cells[:, j] *= flat >= 10 ** (width - 1 - j)
    return cells


def _plain_rows(values: np.ndarray) -> bytes:
    """Each row (along the first axis) of an array of non-negative integers
    in decimal, its samples joined by spaces and ended by a newline.
    """
    cells = decimal_cells(values, b" ")
    cells[values[0].size - 1 :: values[0].size, -1] = ord("\n")
    return cells.tobytes().replace(b"\0", b"")


def _write(path, magic: int, values: np.ndarray, maxval: int, binary: bool) -> None:
    """Write (h, w) or (h, w, 3) values as plain P<magic> or binary P<magic + 3>; see _KINDS.

    Binary PBM packs 8 bits a byte; binary samples are bytes, or big-endian
    pairs above maxval 255, written from the array's own buffer when it
    holds them and otherwise converted in blocks of rows of about
    _BINARY_BLOCK bytes. Every other body is made before the file is
    opened, and nothing but a conversion of checked samples is left after,
    so a failure leaves no file.
    """
    h, w = values.shape[:2]
    header = f"P{magic + 3 * binary}\n{w} {h}\n" + (f"{maxval}\n" if magic > 1 else "")
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    if not binary:
        body = _plain_rows(values)
    elif magic == 1:
        body = np.packbits(values, axis=1).data
    elif values.dtype == dtype and values.flags.c_contiguous:
        body = values.data
    else:
        body = None
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if body is not None:
            fh.write(body)
            return
        rows = max(_BINARY_BLOCK // (values[0].size * dtype.itemsize), 1)
        block = np.empty((rows, *values.shape[1:]), dtype)
        for top in range(0, h, rows):
            part = block[: h - top]
            np.copyto(part, values[top : top + rows], casting="unsafe")
            fh.write(part.data)


def pgm_maxval(max_value: int) -> int:
    """The maxval a PGM of values up to max_value declares: at least 1, and ValueError above 65535."""
    maxval = max(1, max_value)
    if maxval > 65535:
        raise ValueError(f"PGM maxval limit is 65535, grid has {maxval}")
    return maxval


def write_pgm(path, grid: IntensityGrid, binary: bool = True) -> None:
    """Write a grid as PGM; P5 (binary) by default, P2 with binary=False."""
    _write(path, 2, grid.values, pgm_maxval(grid.max_value), binary)


def write_pbm(path, mask: np.ndarray, binary: bool = True) -> None:
    """Write a boolean mask as PBM (1 = set); P4 by default, P1 with binary=False."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or not mask.size:
        raise ValueError(f"mask must be 2D with at least one pixel, got shape {mask.shape}")
    _write(path, 1, mask.view(np.uint8), 1, binary)


def write_ppm(path, rgb: np.ndarray, maxval: int = 255, binary: bool = True) -> None:
    """Write an (h, w, 3) integer array as PPM; P6 by default, P3 with binary=False."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or not rgb.size:
        raise ValueError(f"expected shape (h, w, 3) with h, w >= 1, got {rgb.shape}")
    if rgb.dtype.kind not in "iub":
        raise ValueError(f"samples must be integers, got dtype {rgb.dtype}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"PPM maxval must lie in [1, 65535], got {maxval}")
    if rgb.min() < 0 or rgb.max() > maxval:
        raise ValueError(f"samples must lie in [0, {maxval}]")
    _write(path, 3, rgb, maxval, binary)
