"""Output checks: what the benchmark expects from each operation, and the test of each output.

Expectations are built at set-up from the generated arrays and the
package's public per-pixel definitions; the timed process runs the check
after the first call of each op, outside its timer, and reads the output
files with the benchmark's own Netpbm decoder.

Four kinds of check:

* ``pixels`` -- on seeded sample pixels, the PBM bit (and the level count
  when ``--levels-out`` is written) must equal the count of schedule
  members in the membership interval ``(m, I(p)]``, with the zero filter
  applied when the call asks for it.
* ``bytes`` -- the output file must be byte-equal to a reference written
  at set-up (the pointwise route for the multilevel calls).
* ``contours`` -- the traced chains must partition the level curve set
  exactly, and consecutive pixels of a chain must be neighbours.
* ``render`` -- the decoded image and truth masks must equal the arrays of
  an in-process ``render``.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

from isophote import PixelCoord, StackCoord, Topology, level_curve_set, membership_interval

SAMPLES = 512
_WS = b" \t\r\n\x0b\x0c"


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def array_digest(values: np.ndarray) -> str:
    """Digest of an integer array's shape and values, independent of its dtype."""
    arr = np.ascontiguousarray(values, dtype="<i8")
    return hashlib.sha256(repr(arr.shape).encode("ascii") + arr.tobytes()).hexdigest()


def read_netpbm(path) -> tuple[np.ndarray, int]:
    """Decode any Netpbm file to (values, maxval); PBM gives 0/1 with maxval 1."""
    data = Path(path).read_bytes()
    magic = data[:2]
    fields = 3 if magic in (b"P1", b"P4") else 4
    tokens, pos = [magic], 2
    while len(tokens) < fields:
        while pos < len(data) and (data[pos] in _WS or data[pos] == 0x23):
            if data[pos] == 0x23:
                while pos < len(data) and data[pos] not in b"\r\n":
                    pos += 1
            else:
                pos += 1
        start = pos
        while pos < len(data) and data[pos] not in _WS:
            pos += 1
        tokens.append(data[start:pos])
    width, height = int(tokens[1]), int(tokens[2])
    maxval = 1 if fields == 3 else int(tokens[3])
    planes = 3 if magic in (b"P3", b"P6") else 1
    shape = (height, width, 3) if planes == 3 else (height, width)
    body = data[pos + 1:]
    if magic == b"P4":
        rowbytes = (width + 7) // 8
        raw = np.frombuffer(body, np.uint8, rowbytes * height).reshape(height, rowbytes)
        return np.unpackbits(raw, axis=1)[:, :width], 1
    if magic in (b"P5", b"P6"):
        dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
        return np.frombuffer(body, dtype, height * width * planes).reshape(shape), maxval
    if magic == b"P1":
        bits = np.frombuffer(body.translate(None, _WS), np.uint8, height * width)
        return (bits - 0x30).reshape(shape), 1
    return np.array(body.split(), dtype=np.int64).reshape(shape), maxval


# --- expectations, built at set-up -------------------------------------------------


def members_between(low: int, high: int, increment: int) -> int:
    """Schedule members (multiples-of-increment thresholds from one increment up) in (low, high]."""
    return len(range(increment, high + 1, increment)) - len(range(increment, low + 1, increment))


def gradient_is_zero(values: np.ndarray, x: int, y: int) -> bool:
    """True where the doubled central difference (one-sided at borders) vanishes on both axes."""

    def diff(line, i):
        n = len(line)
        if n < 2:
            return 0
        if i == 0:
            return int(line[1]) - int(line[0])
        if i == n - 1:
            return int(line[n - 1]) - int(line[n - 2])
        return int(line[i + 1]) - int(line[i - 1])

    return diff(values[y], x) == 0 and diff(values[:, x], y) == 0


def sample_pixels(rng: np.random.Generator, values: np.ndarray, k: int = SAMPLES) -> np.ndarray:
    """Half uniform pixels, half pixels whose right neighbour differs (where flags live)."""
    uniform = rng.integers(0, values.size, k // 2)
    steps = values[..., 1:] != values[..., :-1]
    edges = np.ravel_multi_index(np.unravel_index(np.flatnonzero(steps), steps.shape), values.shape)
    edges = rng.choice(edges, size=min(k - k // 2, edges.size), replace=False)
    return np.column_stack(np.unravel_index(np.concatenate([uniform, edges]), values.shape))


def pixel_expectations(rng, grid, topology: Topology, increment: int, zero_filter: bool) -> np.ndarray:
    """Rows (t, x, y, count, bit) on seeded sample pixels of a grid or frame stack."""
    values = grid.values
    rows = []
    for idx in sample_pixels(rng, values):
        *frame, y, x = (int(i) for i in idx)
        p = StackCoord(x, y, frame[0]) if frame else PixelCoord(x, y)
        interval = membership_interval(grid, p, topology)
        count = 0 if interval is None else members_between(*interval, increment)
        bit = count >= 2 and not (zero_filter and gradient_is_zero(values, x, y))
        rows.append((frame[0] if frame else 0, x, y, count, int(bit)))
    return np.array(rows, dtype=np.int64)


def contour_members(grid, c: int, topology: Topology) -> np.ndarray:
    """Sorted flat indices of the level curve set at c."""
    return np.flatnonzero(level_curve_set(grid, c, topology).mask)


# --- checks, run after the first call of each op ------------------------------------


def _check_pixels(check: dict) -> str | None:
    samples = np.load(check["samples"])
    for frame, path in enumerate(check["masks"]):
        bits, _ = read_netpbm(path)
        if bits.shape != tuple(check["shape"]):
            return f"{path}: shape {bits.shape}, expected {tuple(check['shape'])}"
        rows = samples[samples[:, 0] == frame]
        bad = np.flatnonzero(bits[rows[:, 2], rows[:, 1]] != rows[:, 4])
        if bad.size:
            _, x, y, count, bit = rows[bad[0]]
            return f"{path}: pixel ({x}, {y}) is {1 - bit}, expected {bit} (count {count})"
    if check.get("levels"):
        counts, _ = read_netpbm(check["levels"])
        bad = np.flatnonzero(counts[samples[:, 2], samples[:, 1]] != samples[:, 3])
        if bad.size:
            _, x, y, count, _ = samples[bad[0]]
            return f"{check['levels']}: pixel ({x}, {y}) level count differs from {count}"
    return None


def _check_bytes(check: dict) -> str | None:
    for path, digest in check["files"]:
        if file_digest(path) != digest:
            return f"{path}: bytes differ from the reference"
    return None


def read_contours(path, fmt: str) -> list[np.ndarray]:
    """Chains of (x, y) pixels from the CLI's text or SVG contour output."""
    text = Path(path).read_text(encoding="ascii")
    if fmt == "text":
        rows = [line.removesuffix(" Z").replace(",", " ").split() for line in text.splitlines()]
        flat = np.array([tok for row in rows for tok in row], dtype=np.int64)
    else:
        rows = [pts.replace(",", " ").split() for pts in re.findall(r'points="([^"]*)"', text)]
        flat = (np.array([tok for row in rows for tok in row], dtype=float) - 0.5).astype(np.int64)
    return np.split(flat.reshape(-1, 2), np.cumsum([len(row) // 2 for row in rows])[:-1])


def chains_partition(chains: list[np.ndarray], members: np.ndarray, width: int, topology: str) -> str | None:
    """None when the chains list every member exactly once and step between neighbours."""
    xy = np.concatenate(chains) if chains else np.empty((0, 2), np.int64)
    if not np.array_equal(np.sort(xy[:, 1] * width + xy[:, 0]), members):
        return f"{len(xy)} chain pixels do not partition the {members.size} level-curve pixels"
    steps = np.abs(np.diff(xy, axis=0))
    adjacent = steps.sum(axis=1) == 1 if topology == "4" else steps.max(axis=1) == 1
    adjacent[np.cumsum([len(c) for c in chains])[:-1] - 1] = True  # steps between chains
    if not adjacent.all():
        return f"chain step {int(np.flatnonzero(~adjacent)[0])} joins pixels that are not neighbours"
    return None


def _check_contours(check: dict) -> str | None:
    chains = read_contours(check["path"], check["format"])
    problem = chains_partition(chains, np.load(check["members"]), check["width"], check["topology"])
    return f"{check['path']}: {problem}" if problem else None


def _check_render(check: dict) -> str | None:
    for path, digest, maxval in check["files"]:
        values, got = read_netpbm(path)
        if got != maxval or array_digest(values) != digest:
            return f"{path}: differs from the in-process render"
    return None


_CHECKS = {
    "pixels": _check_pixels,
    "bytes": _check_bytes,
    "contours": _check_contours,
    "render": _check_render,
}


def check_output(check: dict) -> str | None:
    """None when the op's outputs pass its check, else a one-line reason."""
    try:
        return _CHECKS[check["kind"]](check)
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
