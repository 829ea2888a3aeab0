"""Discrete vector fields on images and level-curve tracing.

The rotated gradient (-dI/dy, dI/dx) has the level curves of I as its
integral curves, so chaining its directions head to tail walks along
curves of constant intensity. At pixel resolution we get the same curves
more robustly by tracing the boundaries of sublevel sets; the field is
still needed to find the points where it vanishes, which mark candidate
occluding points worth filtering from a detection mask.

All differences are doubled instead of halved so the fields stay exact
integers: central differences in the interior, one-sided at the borders.

Traced chains stay flat arrays of pixel coordinates: trace_level_contours
returns a read-only sequence that builds each Contour when it is accessed,
and the SVG and text exports lay out every pixel in array passes, formatting
each distinct coordinate once.
"""

from __future__ import annotations

import gc
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .detector import level_curve_set
from .raster import IntensityGrid, PixelCoord, Topology, signed_dtype

__all__ = [
    "VectorFieldGrid",
    "Contour",
    "discrete_gradient",
    "hamiltonian",
    "zero_mask",
    "apply_operator",
    "trace_level_contours",
    "contours_to_svg",
    "contours_to_text",
]


@dataclass(frozen=True, eq=False)
class VectorFieldGrid:
    """Per-pixel integer 2-vectors (hx, hy) on the source grid.

    Without a support the components have the grid's shape. With one, a
    boolean mask of the grid's shape, they hold the vectors at its True
    pixels only, in scan order, and the field is undefined elsewhere.
    ``index`` then holds those pixels' flat indices in the same order; it
    is found from the support unless the caller already has it.
    """

    hx: np.ndarray
    hy: np.ndarray
    support: Optional[np.ndarray] = None
    index: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.hx.shape != self.hy.shape:
            raise ValueError("component arrays must share a shape")
        if self.support is not None:
            if self.index is None:
                object.__setattr__(self, "index", np.flatnonzero(self.support))
            if not self.hx.shape == self.index.shape == (np.count_nonzero(self.support),):
                raise ValueError("components on a support hold one value per supported pixel")
        elif self.index is not None:
            raise ValueError("an index needs the support it indexes")
        for a in (self.hx, self.hy, self.support, self.index):
            if a is not None:
                a.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.hx.shape if self.support is None else self.support.shape

    @property
    def width(self) -> int:
        return self.shape[1]

    @property
    def height(self) -> int:
        return self.shape[0]


def _axis_slicer(ndim: int, axis: int):
    return lambda a, b: tuple(slice(a, b) if ax == axis else slice(None) for ax in range(ndim))


def _doubled_diff(v: np.ndarray, axis: int, dtype) -> np.ndarray:
    """Doubled central difference along an axis, doubled one-sided at the borders.

    Differences are taken in the signed dtype, never in the (possibly
    unsigned) dtype of v.
    """
    out = np.zeros(v.shape, dtype=dtype)
    if v.shape[axis] < 2:
        return out
    sl = _axis_slicer(v.ndim, axis)
    np.subtract(v[sl(2, None)], v[sl(None, -2)], out=out[sl(1, -1)], dtype=dtype)
    for dst, a, b in ((sl(0, 1), sl(1, 2), sl(0, 1)), (sl(-1, None), sl(-1, None), sl(-2, -1))):
        edge = out[dst]
        np.subtract(v[a], v[b], out=edge, dtype=dtype)
        edge *= 2
    return out


def _field_dtype(grid: IntensityGrid) -> np.dtype:
    # |hx| + |hy| in zero_mask reaches 4 * max_value; int32 at least keeps
    # products of two components exact on 8-bit grids
    return np.promote_types(signed_dtype(4 * grid.max_value), np.int32)


def discrete_gradient(grid: IntensityGrid) -> tuple[np.ndarray, np.ndarray]:
    """(gx, gy) with gx = I(x+1,y) - I(x-1,y), gy = I(x,y+1) - I(x,y-1) in the interior.

    Both are int32, or int64 when max_value is too large for that. Widen
    them before multiplying two of them together.
    """
    dtype = _field_dtype(grid)
    gx = _doubled_diff(grid.values, 1, dtype)
    gy = _doubled_diff(grid.values, 0, dtype)
    return gx, gy


def _gathered_diff(flat, index, pos, n: int, step: int, dtype) -> np.ndarray:
    """The differences of _doubled_diff at the given flat indices only.

    pos is each index's place along the axis, n the axis length and step
    its flat stride. A border pixel pairs with itself on its missing side
    and its difference is doubled; on an axis of length 1 both sides are
    the pixel itself, so the result is 0.
    """
    inner_hi, inner_lo = pos < n - 1, pos > 0
    hi = index + step * inner_hi
    lo = index - step * inner_lo
    out = np.subtract(flat.take(hi), flat.take(lo), dtype=dtype)
    out <<= ~(inner_hi & inner_lo)  # doubles the one-sided differences
    return out


def hamiltonian(grid: IntensityGrid, where: Optional[np.ndarray] = None) -> VectorFieldGrid:
    """The rotated gradient (-gy, gx); orthogonal to the gradient by construction.

    With ``where``, a boolean mask of the grid's shape, the field is
    evaluated only at its True pixels and carries it as its support; each
    vector equals the whole-image one at that pixel.
    """
    if where is None:
        gx, gy = discrete_gradient(grid)
        np.negative(gy, out=gy)
        return VectorFieldGrid(gy, gx)
    support = np.array(where, dtype=bool)
    if support.shape != grid.values.shape:
        raise ValueError(f"where has shape {support.shape}, the grid {grid.values.shape}")
    h, w = support.shape
    index = np.flatnonzero(support)
    row, col = np.divmod(index, w)
    flat, dtype = grid.values.ravel(), _field_dtype(grid)
    gx = _gathered_diff(flat, index, col, w, 1, dtype)
    gy = _gathered_diff(flat, index, row, h, w, dtype)
    np.negative(gy, out=gy)
    return VectorFieldGrid(gy, gx, support, index)


def zero_mask(field: VectorFieldGrid, tolerance: int = 0) -> np.ndarray:
    """Pixels where |hx| + |hy| <= tolerance; exact integer zeros at tolerance 0.

    On a field with a support the mask is False outside it.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    total = np.abs(field.hx)
    total += np.abs(field.hy)
    if field.support is None:
        return total <= tolerance
    out = np.zeros(field.shape, dtype=bool)
    out.reshape(-1)[field.index] = total <= tolerance  # a scatter; no second scan of the support
    return out


def apply_operator(grid: IntensityGrid, op: str) -> IntensityGrid:
    """Apply a smooth-operator approximation before detection.

    "dx"/"dy" take one-sided differences (backward at the far border) and
    shift them up by max_value so negative slopes survive as integers;
    the result has max_value doubled. "identity" returns the grid as is.
    Any pipeline of such transforms feeds straight back into the detector.
    """
    if op == "identity":
        return grid
    if op not in ("dx", "dy"):
        raise ValueError(f"unknown operator {op!r}, expected identity, dx or dy")
    v = grid.values
    axis = 1 if op == "dx" else 0
    dtype = signed_dtype(2 * grid.max_value)
    raw = np.zeros(v.shape, dtype=dtype)
    if v.shape[axis] >= 2:
        sl = _axis_slicer(2, axis)
        np.subtract(v[sl(1, None)], v[sl(None, -1)], out=raw[sl(None, -1)], dtype=dtype)
        np.subtract(v[sl(-1, None)], v[sl(-2, -1)], out=raw[sl(-1, None)], dtype=dtype)
    raw += grid.max_value
    return IntensityGrid(raw, 2 * grid.max_value)


@dataclass(frozen=True)
class Contour:
    """An ordered chain of topology-adjacent pixels along one level curve."""

    pixels: tuple[PixelCoord, ...]
    closed: bool


# Clockwise direction rings (y grows downward), used for deterministic walks.
_RINGS = {
    Topology.N4: ((0, -1), (1, 0), (0, 1), (-1, 0)),  # N, E, S, W
    Topology.N8: ((0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1)),
}


def _component_roots(members: np.ndarray, offsets) -> np.ndarray:
    """Per member, the position in members of its component's first pixel.

    members holds the sorted flat indices of a padded mask; offsets are
    flat neighbor offsets. Min-label hooking: every edge between two roots
    points the larger root at the smaller, then pointer jumping flattens
    the trees, until no edge joins two roots. Parents only ever decrease,
    so each root is the smallest, i.e. first in scan order, of its component.
    """
    n = members.size
    u_parts, v_parts = [], []
    for off in offsets:
        if off > 0:  # one direction of every undirected edge
            target = members + off
            v = np.searchsorted(members, target)
            hit = members[np.minimum(v, n - 1)] == target
            u_parts.append(np.flatnonzero(hit))
            v_parts.append(v[hit])
    u, v = np.concatenate(u_parts), np.concatenate(v_parts)
    parent = np.arange(n)
    while True:
        ru, rv = parent[u], parent[v]
        live = ru != rv
        if not live.any():
            return parent
        u, v, ru, rv = u[live], v[live], ru[live], rv[live]
        parent[np.maximum(ru, rv)] = np.minimum(ru, rv)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def _walk_chains(starts, interior, remaining: bytearray, ring) -> tuple[np.ndarray, list, list]:
    """Walk a chain from every start that is still unvisited when the cursor reaches it.

    starts lists the members grouped by component, in scan order inside
    each; interior flags a start whose component stays off the image
    border; remaining holds 1 at members not visited yet. Returns the flat
    indices of every chain, one chain after another, with each chain's
    end in that array and whether it is closed.
    """
    n = len(ring)
    first_turn = tuple(zip(ring, range(n)))
    # after arriving in direction d, search clockwise from just past the way back
    past = [(d + n // 2 + 1) % n for d in range(n)]
    turns = [first_turn[k:] + first_turn[:k] for k in past]
    adjacent = frozenset(ring)
    path, ends, closed = [], [], []
    # walks never leave a component, so all earlier components are used up
    # by the time the cursor reaches a pixel: an unvisited one starts a chain
    for start, inside in zip(starts, interior):
        if not remaining[start]:
            continue
        cur = start
        remaining[cur] = 0
        path.append(cur)
        steps = first_turn
        while True:
            for off, d in steps:
                if remaining[cur + off]:
                    break
            else:
                break
            cur += off
            remaining[cur] = 0
            path.append(cur)
            steps = turns[d]
        ends.append(len(path))
        closed.append(inside and (cur == start or cur - start in adjacent))
    return np.array(path, dtype=np.intp), ends, closed


def trace_level_contours(grid: IntensityGrid, c: int, topology: Topology) -> Sequence[Contour]:
    """Partition the level curve set at c into ordered pixel chains.

    Components come in scan order of their first pixel. Each is walked
    clockwise starting from its topmost-leftmost pixel. A chain that would
    revisit a pixel stops instead, and the topmost-leftmost unvisited pixel
    of the same component starts the next chain, so the chains always
    partition the level curve set exactly. A chain is closed when its
    component never touches the image border and its endpoints are
    adjacent; no curve completion is attempted. The cost is linear in the
    size of the level curve set, apart from sorting it by component.

    The result is a read-only sequence of Contour that holds the chains as
    flat arrays. It compares equal to the list of the same contours, and
    each Contour is built only when it is accessed; contours_to_svg and
    contours_to_text read the arrays without building any.
    """
    if topology.temporal:
        raise ValueError("contour tracing is defined on single frames only")
    mask = level_curve_set(grid, c, topology).mask
    h, w = mask.shape
    stride = w + 2
    # padding by one cell makes every neighbor of a member a valid flat index
    padded = np.zeros((h + 2, stride), dtype=bool)
    padded[1:-1, 1:-1] = mask
    members = np.flatnonzero(padded)
    ring = tuple(dy * stride + dx for dx, dy in _RINGS[topology])
    roots = _component_roots(members, ring)
    row, col = np.divmod(members, stride)
    # set at each component's root when any of its members lies on the image border
    touches = np.zeros(members.size, dtype=bool)
    touches[roots[(row == 1) | (row == h) | (col == 1) | (col == w)]] = True
    # grouped by component in scan order of first pixels, scan order inside each
    by_component = np.argsort(roots, kind="stable")
    path, ends, closed = _walk_chains(
        members[by_component].tolist(),
        (~touches[roots[by_component]]).tolist(),
        bytearray(padded),
        ring,
    )
    row, col = np.divmod(path - (stride + 1), stride)
    return _Chains(col, row, np.array(ends, dtype=np.intp), np.array(closed, dtype=bool))


def _pixel_tuple(xs: list, ys: list) -> tuple[PixelCoord, ...]:
    # tuple.__new__ builds each PixelCoord without a Python-level call
    return tuple(map(tuple.__new__, repeat(PixelCoord), zip(xs, ys)))


class _Chains(Sequence):
    """Contours held as flat arrays: the columns x and rows y of every chain's
    pixels, one chain after another, each chain's end in them, and whether
    it is closed. A read-only sequence of Contour that builds each one on
    access and compares equal to the list of the same contours.
    """

    __slots__ = ("x", "y", "ends", "closed")

    def __init__(self, x: np.ndarray, y: np.ndarray, ends: np.ndarray, closed: np.ndarray):
        for a in (x, y, ends, closed):
            a.setflags(write=False)
        self.x, self.y, self.ends, self.closed = x, y, ends, closed

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("contour index out of range")
        begin, end = (int(self.ends[i - 1]) if i else 0), int(self.ends[i])
        pixels = _pixel_tuple(self.x[begin:end].tolist(), self.y[begin:end].tolist())
        return Contour(pixels, bool(self.closed[i]))

    def __iter__(self):
        # Every Contour built here lives as long as the caller keeps the list,
        # so the cyclic collector, which the allocations would trigger over and
        # over, finds nothing to free: pause it, and restore its state however
        # this ends.
        collecting = gc.isenabled()
        gc.disable()
        try:
            pixels = _pixel_tuple(self.x.tolist(), self.y.tolist())
            contours = []
            begin = 0
            for end, closed in zip(self.ends.tolist(), self.closed.tolist()):
                contours.append(Contour(pixels[begin:end], closed))
                begin = end
        finally:
            if collecting:
                gc.enable()
        return iter(contours)

    def __eq__(self, other):
        if isinstance(other, (list, _Chains)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    @classmethod
    def of(cls, contours) -> "_Chains":
        """A traced result as it is; any other iterable of Contour flattened into the same arrays."""
        if isinstance(contours, cls):
            return contours
        contours = list(contours)
        ends = np.cumsum([len(c.pixels) for c in contours], dtype=np.int64)
        flat = list(chain.from_iterable(chain.from_iterable(c.pixels for c in contours)))
        xy = np.array(flat) if flat else np.zeros(0, np.int64)
        if xy.size != 2 * (int(ends[-1]) if ends.size else 0) or xy.dtype.kind not in "iu":
            raise TypeError("contour pixels must be (x, y) pairs of integers that fit int64 or uint64")
        xy = xy.reshape(-1, 2)
        closed = np.array([bool(c.closed) for c in contours], dtype=bool)
        return cls(xy[:, 0], xy[:, 1], ends, closed)


def _padded(texts: list[bytes]) -> np.ndarray:
    """One row of bytes per text, NUL-padded to the longest."""
    width = max(map(len, texts), default=0)
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), np.uint8).reshape(len(texts), width)


def _cells(values: np.ndarray, fmt) -> tuple[np.ndarray, np.ndarray]:
    """fmt(v) of each distinct value as one padded row of ASCII bytes, and
    each value's row in that table.

    The table spans the whole range from the smallest value to the largest
    when that range is no longer than twice the values, else only the
    values' distinct entries.
    """
    if not values.size:
        return _padded([]), values
    lo, hi = int(values.min()), int(values.max())
    if hi - lo < 2 * values.size:
        distinct, index = range(lo, hi + 1), (values - lo).astype(np.intp, copy=False)
    else:
        distinct, index = np.unique(values, return_inverse=True)
        distinct = distinct.tolist()
    return _padded([fmt(v).encode("ascii") for v in distinct]), index


def _export(chains: _Chains, fmt, heads: tuple[bytes, bytes], tails: tuple[bytes, bytes]) -> bytes:
    """Each chain as its head, fmt(x),fmt(y) per pixel joined by spaces, and
    its tail; an open chain takes heads[0] and tails[0], a closed one [1].

    Every pixel fills one fixed-width row of bytes: the chain's head if it
    is the first pixel, its two coordinates and the comma, and then a space,
    or the chain's tail after its last pixel. A chain without pixels gets a
    row of its head and tail alone. The places left over hold NUL, and the
    NULs are dropped at the end.
    """
    (x_table, x), (y_table, y) = _cells(chains.x, fmt), _cells(chains.y, fmt)
    head, tail = _padded(list(heads)), _padded(list(tails))
    hw, wx, wy = head.shape[1], x_table.shape[1], y_table.shape[1]
    comma = hw + wx
    sep = comma + 1 + wy
    rows = np.zeros((chains.x.size, sep + tail.shape[1]), np.uint8)
    np.take(x_table, x, axis=0, out=rows[:, hw:comma], mode="clip")
    rows[:, comma] = ord(",")
    np.take(y_table, y, axis=0, out=rows[:, comma + 1 : sep], mode="clip")
    rows[:, sep] = ord(" ")
    kind = chains.closed.view(np.uint8)
    ends = chains.ends
    begins = ends - np.diff(ends, prepend=0)
    full = begins < ends
    rows[begins[full], :hw] = head[kind[full]]
    rows[ends[full] - 1, sep:] = tail[kind[full]]
    if not full.all():
        lone = np.zeros((np.count_nonzero(~full), rows.shape[1]), np.uint8)
        lone[:, :hw] = head[kind[~full]]
        lone[:, sep:] = tail[kind[~full]]
        rows = np.insert(rows, begins[~full], lone, axis=0)
    return rows.tobytes().translate(None, b"\0")


def contours_to_svg(contours, width: int, height: int) -> str:
    """Render contours as SVG polylines/polygons at pixel centers.

    Takes the result of trace_level_contours or any iterable of Contour
    with integer pixels. Each distinct coordinate is formatted once, as
    f"{v + 0.5:g}", and the points are laid out in array passes, between
    one-byte markers that the tags then replace.
    """
    body = _export(_Chains.of(contours), lambda v: f"{v + 0.5:g}", (b"\1", b"\2"), (b"\3", b"\3"))
    body = body.replace(b"\1", b'<polyline points="').replace(b"\2", b'<polygon points="')
    body = body.replace(b"\3", b'" fill="none" stroke="black" stroke-width="0.25"/>\n')
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    return "".join((head, body.decode("ascii"), "</svg>\n"))


def contours_to_text(contours) -> str:
    """One contour per line as x,y pairs; closed chains end with a Z marker.

    Takes what contours_to_svg takes. Each distinct coordinate is formatted
    once, as f"{v}", and the lines are laid out in array passes.
    """
    return _export(_Chains.of(contours), str, (b"", b""), (b"\n", b" Z\n")).decode("ascii")
