"""The token-by-token plain Netpbm reader that isophote.netpbm replaced.

Kept as a test-only oracle: it reads one byte at a time, exactly as the
format describes, which is slow but simple enough to trust. The array
decoder in isophote.netpbm must match it on every P1/P2/P3 file: the same
values and dtype, or the same error message at the same byte offset.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from isophote import NetpbmError
from isophote.raster import storage_dtype

_WS = b" \t\r\n\x0b\x0c"


class ReferenceScanner:
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
        avail = len(self.data) - self.pos
        if avail < count:
            message = f"raster truncated: {what} need at least {count} bytes, have {avail}"
            self.fail(message, at=len(self.data))


def read_plain(path) -> np.ndarray:
    """The samples of a P1, P2 or P3 file, shaped as isophote.read_image shapes them."""
    data = Path(path).read_bytes()
    sc = ReferenceScanner(data, str(path))
    magic = data[:2]
    assert magic in (b"P1", b"P2", b"P3"), magic
    sc.pos = 2
    width = sc.uint("width", 1 << 30)
    height = sc.uint("height", 1 << 30)
    if magic == b"P1":
        n = width * height
        sc.require(n, f"{n} ASCII bits")
        bits = np.fromiter((sc.bit() for _ in range(n)), dtype=np.uint8, count=n)
        return bits.reshape(height, width)
    maxval = sc.uint("maxval", 65535)
    channels = 3 if magic == b"P3" else 1
    n = width * height * channels
    sc.require(2 * n, f"{n} ASCII samples")
    flat = np.fromiter((sc.sample(maxval) for _ in range(n)), dtype=storage_dtype(maxval), count=n)
    return flat.reshape((height, width, 3) if channels == 3 else (height, width))
