"""Discrete vector fields on images and level-curve tracing.

The rotated gradient (-dI/dy, dI/dx) has the level curves of I as its
integral curves, so chaining its directions head to tail walks along
curves of constant intensity. At pixel resolution we get the same curves
more robustly by tracing the boundaries of sublevel sets; the field is
still needed to find the points where it vanishes, which mark candidate
occluding points worth filtering from a detection mask.

All differences are doubled instead of halved so the fields stay exact
integers: central differences in the interior, one-sided at the borders.
A VectorFieldGrid is the field of one whole 2-D grid and builds each
component the first time it is read. zero_mask at tolerance 0 builds
neither: the doubled differences vanish exactly where a pixel's two sides
are equal along both axes, so it is two boolean passes over the grid.

Traced chains stay flat arrays of pixel coordinates: trace_level_contours
returns a Chains, a frozen record of read-only arrays, and the SVG and text
exports lay out every pixel of such a record in array passes, with the
digits of netpbm.decimal_cells, the plain Netpbm writer's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import repeat

import numpy as np

from .detector import level_curve_set
from .netpbm import decimal_cells
from .raster import IntensityGrid, PixelCoord, Topology, adopt, as_integer, signed_dtype

__all__ = [
    "VectorFieldGrid",
    "Chains",
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
    """The rotated gradient (hx, hy) = (-gy, gx) of one 2-D grid, over the whole image.

    Each component is a read-only integer array of the grid's shape, built
    the first time it is read.
    """

    grid: IntensityGrid

    def __post_init__(self):
        if self.grid.values.ndim != 2:  # a frame stack would be differenced along t and y
            raise ValueError(f"the field needs a 2-D grid, got values of shape {self.grid.values.shape}")

    def _doubled_diff(self, axis: int) -> np.ndarray:
        """Doubled central difference along an axis, doubled one-sided at the borders.

        Differences are taken in a signed dtype, never in the (possibly
        unsigned) dtype of the values: |hx| + |hy| in zero_mask reaches
        4 * max_value, and int32 at least keeps products of two components
        exact on 8-bit grids.
        """
        v = self.grid.values
        dtype = np.promote_types(signed_dtype(4 * self.grid.max_value), np.int32)
        out = _sides(v, axis, np.subtract, np.empty(v.shape, dtype=dtype), dtype=dtype)
        sl = _axis_slicer(2, axis)
        for edge in (out[sl(0, 1)], out[sl(-1, None)]):
            edge *= 2
        return out

    @cached_property
    def hx(self) -> np.ndarray:
        hx = self._doubled_diff(0)
        np.negative(hx, out=hx)
        hx.setflags(write=False)
        return hx

    @cached_property
    def hy(self) -> np.ndarray:
        hy = self._doubled_diff(1)
        hy.setflags(write=False)
        return hy


def _axis_slicer(ndim: int, axis: int):
    return lambda a, b: tuple(slice(a, b) if ax == axis else slice(None) for ax in range(ndim))


def _sides(v: np.ndarray, axis: int, op, out: np.ndarray, **kwargs) -> np.ndarray:
    """op(after, before) of each pixel's two sides along an axis, written to out.

    Inside, the sides are the pixel's two neighbors; at a border the
    missing side is the pixel itself, and on an axis of length 1 both are.
    out is C-contiguous. The inside is one contiguous pass over the
    flattened arrays, whose neighbors along axis lie a fixed distance
    apart: a view offset by a column would run in numpy's buffered
    iterator. Along the last axis that pass pairs the first and last
    pixel of each row with the adjacent row, and the border passes then
    overwrite those columns.
    """
    sl = _axis_slicer(v.ndim, axis)
    if v.shape[axis] < 2:
        return op(v, v, out=out, **kwargs)
    step, flat = math.prod(v.shape[axis + 1:]), v.reshape(-1)
    op(flat[2 * step:], flat[: -2 * step], out=out.reshape(-1)[step:-step], **kwargs)
    op(v[sl(1, 2)], v[sl(0, 1)], out=out[sl(0, 1)], **kwargs)
    op(v[sl(-1, None)], v[sl(-2, -1)], out=out[sl(-1, None)], **kwargs)
    return out


def discrete_gradient(grid: IntensityGrid) -> tuple[np.ndarray, np.ndarray]:
    """(gx, gy) with gx = I(x+1,y) - I(x-1,y), gy = I(x,y+1) - I(x,y-1) in the interior.

    Both are int32, or int64 when max_value is too large for that. Widen
    them before multiplying two of them together.
    """
    field = VectorFieldGrid(grid)  # refuses a grid that is not 2-D
    return field._doubled_diff(1), field._doubled_diff(0)


def hamiltonian(grid: IntensityGrid) -> VectorFieldGrid:
    """The rotated gradient (-gy, gx); orthogonal to the gradient by construction.

    Returns at once: each component is computed when it is first read.
    """
    return VectorFieldGrid(grid)


def zero_mask(field: VectorFieldGrid, tolerance: int = 0) -> np.ndarray:
    """Pixels where |hx| + |hy| <= tolerance; exact integer zeros at tolerance 0.

    At tolerance 0 that is two equality passes over the grid, of each
    pixel's two sides along each axis; no component is built.
    """
    if as_integer(tolerance, "tolerance") < 0:
        raise ValueError("tolerance must be nonnegative")
    if tolerance == 0:
        values = field.grid.values
        out = _sides(values, 1, np.equal, np.empty(values.shape, dtype=bool))
        out &= _sides(values, 0, np.equal, np.empty(values.shape, dtype=bool))
        return out
    total = np.abs(field.hx)
    total += np.abs(field.hy)
    return total <= tolerance


def apply_operator(grid: IntensityGrid, op: str) -> IntensityGrid:
    """Apply a smooth-operator approximation before detection.

    "dx"/"dy" take one-sided differences (backward at the far border) and
    shift them up by max_value so negative slopes survive as integers;
    the result has max_value doubled.
    Any pipeline of such transforms feeds straight back into the detector.
    """
    VectorFieldGrid(grid)  # refuses a frame stack, whose axes would be taken as t and y
    if op not in ("dx", "dy"):
        raise ValueError(f"unknown operator {op!r}, expected dx or dy")
    v = grid.values
    axis = 1 if op == "dx" else 0
    dtype = signed_dtype(2 * grid.max_value)
    raw = np.zeros(v.shape, dtype=dtype)
    if v.shape[axis] >= 2:
        sl = _axis_slicer(2, axis)
        np.subtract(v[sl(1, None)], v[sl(None, -1)], out=raw[sl(None, -1)], dtype=dtype)
        np.subtract(v[sl(-1, None)], v[sl(-2, -1)], out=raw[sl(-1, None)], dtype=dtype)
    raw += grid.max_value
    return IntensityGrid(adopt(raw), 2 * grid.max_value)


@dataclass(frozen=True)
class Contour:
    """An ordered chain of topology-adjacent pixels along one level curve.

    Only iterating a Chains builds these. They remain for the benchmark's
    traced counter (bench/spans.py), which iterates the chains, and go when
    it reads the arrays instead.
    """

    pixels: tuple[PixelCoord, ...]
    closed: bool


def _component_roots(members: np.ndarray, below) -> np.ndarray:
    """Per member, the position in members of its component's first pixel.

    members holds the sorted flat indices of a padded mask; below lists
    the consecutive flat offsets of a pixel's neighbors in the next row.
    Each edge is found once, from its earlier member: the right neighbor
    can only be the next member, and the neighbors below sit at
    consecutive places of members from where one searchsorted puts the
    first of them. Min-label hooking: every edge between two roots points
    the larger root at the smaller, then pointer jumping flattens the
    trees, until no edge joins two roots. Parents only ever decrease, so
    each root is the smallest, i.e. first in scan order, of its component.
    """
    n = members.size
    right = np.flatnonzero(np.diff(members) == 1)
    u_parts, v_parts = [right], [right + 1]
    low, width = below[0], len(below)
    first = np.searchsorted(members, members + low)
    for k in range(width):
        v = first + k
        # members[v] is at least members + low wherever v < n
        hit = np.flatnonzero(members[np.minimum(v, n - 1)] - members - low < width)
        hit = hit[v[hit] < n]
        u_parts.append(hit)
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


def _walk_chains(starts, lo, hi, remaining: bytearray, ring, path, end_at) -> None:
    """Walk the components whose members are starts[lo[i]:hi[i]], one pixel at a time.

    starts lists the members grouped by component, in scan order inside
    each; remaining holds 1 at members not visited yet. A chain starts at
    every member of a segment that is still unvisited when the cursor
    reaches it. The chains of component i fill path[lo[i]:hi[i]], and
    end_at is set at each chain's end in path.
    """
    order, fresh = _search_order(len(ring))
    turns = [tuple((ring[d], d) for d in tries) for tries in order.tolist()]
    ends = []
    for begin, end in zip(lo.tolist(), hi.tolist()):
        walked = []
        for start in starts[begin:end].tolist():
            if not remaining[start]:
                continue
            cur = start
            remaining[cur] = 0
            walked.append(cur)
            steps = turns[fresh]
            while True:
                for off, d in steps:
                    if remaining[cur + off]:
                        break
                else:
                    break
                cur += off
                remaining[cur] = 0
                walked.append(cur)
                steps = turns[d]
            ends.append(begin + len(walked))
        path[begin:end] = walked
    end_at[ends] = True


def _search_order(n: int) -> tuple[np.ndarray, int]:
    """Both walks' search on a ring of n directions: row d lists the directions to try after
    arriving in direction d, clockwise from just past the way back. A chain starts searching
    from direction 0, as after arriving in the direction returned with the rows.
    """
    order = (np.arange(n)[:, None] + (n // 2 + 1) + np.arange(n)) % n
    return order, int(order[:, 0].argmin())


@cache
def _turn_table(n: int) -> tuple[np.ndarray, int]:
    """The search order of _search_order as a table, for a ring of n directions.

    Returns the table and a multiplier. Bit k of a free-neighbor code is
    set when the neighbor in direction k is unvisited; the code of n such
    bytes, read as one little-endian word w, is (w * multiplier) >> 8(n-1).
    Entry (d << n) | code of the table is the direction of the next step
    after arriving in direction d, or -1 when no neighbor is free.
    """
    codes = np.arange(1 << n)
    free = (codes[:, None] >> np.arange(n)) & 1  # (code, direction)
    order, _ = _search_order(n)
    hits = free[:, order]  # (code, arrival, try)
    turn = np.where(hits.any(axis=2), order[np.arange(n), hits.argmax(axis=2)], -1)
    # byte j of the word weighs 2**(n - 1 - j), so the top byte of the product sums byte k's bit at 2**k
    multiplier = int((1 << (7 * np.arange(n) + n - 1)).sum())
    return turn.T.ravel(), multiplier


_LOOKAHEAD = 8  # places of a segment read at once when looking for the next chain's start


def _walk_lockstep(starts, lo, hi, remaining: bytearray, ring, path, end_at) -> None:
    """Walk the components whose members are starts[lo[i]:hi[i]], one pixel of each per array pass.

    The contract and the chains are those of _walk_chains: every cursor
    takes its next step from _turn_table; when it has none, its chain ends
    and the first unvisited member of its segment after the chain's start
    starts the next.
    """
    if not lo.size:
        return
    remaining = np.frombuffer(remaining, dtype=np.uint8)
    n = len(ring)
    turn, multiplier = _turn_table(n)
    word, signed = np.dtype(f"<u{n}"), np.dtype(f"<i{n}")
    multiplier, shift = word.type(multiplier), word.type(8 * (n - 1))
    step = np.array((*ring, 0), dtype=np.intp)  # direction -1 stays put
    _, fresh = _search_order(n)
    around, ahead = step[:n], np.arange(1, _LOOKAHEAD + 1)
    # largest first: pass t walks the (t+1)-th pixel of every component of more
    # than t pixels, so the components still walking are a prefix
    by_size = np.argsort(lo - hi)
    lo, hi = lo[by_size], hi[by_size]
    walking = np.searchsorted(lo - hi, -np.arange(1, hi[0] - lo[0]), side="left")
    cur = starts[lo]
    scan = lo.copy()  # each current chain's start, as a place in starts
    d = np.full(lo.size, fresh, dtype=np.intp)
    remaining[cur] = 0
    path[lo] = cur
    for t, k in enumerate(walking.tolist(), 1):
        c, dk = cur[:k], d[:k]
        free = remaining[c[:, None] + around]
        code = ((free.view(word).ravel() * multiplier) >> shift).view(signed)
        np.take(turn, (dk << n) | code, out=dk)
        c += step[dk]
        pending = np.flatnonzero(dk < 0)
        if pending.size:
            end_at[lo[pending] + t] = True
            # a stopped component has pixels left; look a few places ahead at a
            # time, so that the search reads each place of a segment only once
            while pending.size:
                place = np.minimum(scan[pending, None] + ahead, hi[pending, None] - 1)
                free = remaining[starts[place]].view(bool)
                rows, seen = np.arange(pending.size), free.argmax(axis=1)
                hit = free[rows, seen]
                scan[pending] = np.where(hit, place[rows, seen], place[:, -1])
                go = pending[hit]
                c[go] = starts[scan[go]]
                dk[go] = fresh
                pending = pending[~hit]
        remaining[c] = 0
        path[lo[:k] + t] = c
    end_at[hi] = True  # every component's last chain ends where its segment does


# The estimated cost of a lockstep pass, in pixels: a pass costs as much as
# walking this many pixels in lockstep rather than by _walk_chains saves
_PASS_COST = 154.0


def _lockstep_size(sizes: np.ndarray) -> int:
    """The largest component size to walk in lockstep; larger components are walked by _walk_chains.

    The lockstep makes as many passes as its largest component has pixels,
    at a fixed cost each, and spends less per pixel than _walk_chains. The
    size returned minimises the estimated cost of both walks together; 0
    walks every component by _walk_chains.
    """
    size = np.append(0, np.sort(sizes))  # size 0 walks none in lockstep and saves nothing
    saved = np.cumsum(size) - size * _PASS_COST
    return int(size[saved.argmax()])


def trace_level_contours(grid: IntensityGrid, c: int, topology: Topology) -> Chains:
    """Partition the level curve set at c into ordered pixel chains.

    Components come in scan order of their first pixel. Each is walked
    clockwise starting from its topmost-leftmost pixel. A chain that would
    revisit a pixel stops instead, and the topmost-leftmost unvisited pixel
    of the same component starts the next chain, so the chains always
    partition the level curve set exactly. A chain is closed when its
    component never touches the image border and its endpoints are
    adjacent; no curve completion is attempted.

    Walks never leave their component, so each component is walked on its
    own, into its own stretch of the result. Small components are walked
    together in lockstep, one pixel of each per array pass; the few large
    ones, which would cost more passes than the lockstep saves, are walked
    one pixel at a time (_lockstep_size splits them). The cost is linear in
    the size of the level curve set, apart from sorting it by component.

    Both walks fill the same flat arrays, which the returned Chains holds;
    contours_to_svg and contours_to_text read them.
    """
    if topology.temporal:
        raise ValueError("contour tracing is defined on single frames only")
    VectorFieldGrid(grid)  # refuses a frame stack before any work
    mask = level_curve_set(grid, c, topology).mask
    h, w = mask.shape
    stride = w + 2
    # padding by one cell makes every neighbor of a member a valid flat index;
    # both walks read and clear the members in this one image
    remaining = bytearray((h + 2) * stride)
    padded = np.frombuffer(remaining, dtype=np.uint8)
    padded.reshape(h + 2, stride)[1:-1, 1:-1] = mask
    members = np.flatnonzero(padded.view(bool))
    # the neighbor offsets clockwise from north (y grows downward) fix the walks' order
    clockwise = sorted(topology.spatial_offsets, key=lambda d: math.atan2(d[0], -d[1]) % math.tau)
    ring = tuple(dy * stride + dx for dx, dy in clockwise)
    roots = _component_roots(members, sorted(off for off in ring if off > 1))
    row, col = np.divmod(members, stride)
    # set at each component's root when any of its members lies on the image border
    touches = np.zeros(members.size, dtype=bool)
    touches[roots[(row == 1) | (row == h) | (col == 1) | (col == w)]] = True
    # grouped by component in scan order of first pixels, scan order inside each
    by_component = np.argsort(roots, kind="stable")
    starts = members[by_component]
    lo = np.flatnonzero(np.diff(roots[by_component], prepend=-1))
    hi = np.append(lo[1:], members.size)
    lockstep = hi - lo <= _lockstep_size(hi - lo)
    # every chain lies in the segment of starts that holds its component
    path = np.empty(members.size, dtype=np.intp)
    end_at = np.zeros(members.size + 1, dtype=bool)
    _walk_lockstep(starts, lo[lockstep], hi[lockstep], remaining, ring, path, end_at)
    _walk_chains(starts, lo[~lockstep], hi[~lockstep], remaining, ring, path, end_at)
    ends = np.flatnonzero(end_at)
    begins = ends - np.diff(ends, prepend=0)
    closed = np.isin(path[ends - 1] - path[begins], (0, *ring)) & ~touches[roots[by_component[begins]]]
    row, col = np.divmod(path - (stride + 1), stride)
    return Chains(col, row, ends, closed)


@dataclass(frozen=True, eq=False)
class Chains:
    """Traced chains as flat read-only arrays: the columns x and rows y of
    every chain's pixels, one chain after another, each chain's end in them,
    and whether it is closed. Its length is the number of chains.

    x, y and ends are intp and closed is bool; chain i is
    x[ends[i - 1]:ends[i]], y[ends[i - 1]:ends[i]] (from 0 for i = 0).
    """

    x: np.ndarray
    y: np.ndarray
    ends: np.ndarray
    closed: np.ndarray

    def __post_init__(self):
        for a in (self.x, self.y, self.ends, self.closed):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self):
        """One Contour per chain, in order.

        Kept only for the benchmark's traced counter (bench/spans.py), which
        iterates the chains; it goes with Contour when that reads the arrays.
        """
        # tuple.__new__ builds each PixelCoord without a Python-level call
        pixels = tuple(map(tuple.__new__, repeat(PixelCoord), zip(self.x.tolist(), self.y.tolist())))
        begin = 0
        for end, closed in zip(self.ends.tolist(), self.closed.tolist()):
            yield Contour(pixels[begin:end], closed)
            begin = end


def _padded(texts: list[bytes]) -> np.ndarray:
    """One row of bytes per text, NUL-padded to the longest."""
    width = max(map(len, texts), default=0)
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), np.uint8).reshape(len(texts), width)


def _export(chains: Chains, fraction: bytes, heads: tuple[bytes, bytes], tails: tuple[bytes, bytes]) -> bytes:
    """Each chain as its head, x<fraction>,y<fraction> per pixel joined by
    spaces, and its tail; an open chain takes heads[0] and tails[0], a closed one [1].

    Every pixel fills one fixed-width row of bytes: the chain's head if it
    is the first pixel, then the decimal_cells of its x, ended by the
    fraction and the comma, and of its y, ended by the fraction and the
    space that the chain's tail replaces after its last pixel. The places
    left over hold NUL, and the NULs are dropped at the end. Every traced
    chain has a pixel.
    """
    x, y = decimal_cells(chains.x, fraction + b","), decimal_cells(chains.y, fraction + b" ")
    head, tail = _padded(list(heads)), _padded(list(tails))
    hw, wx, wy = head.shape[1], x.shape[1], y.shape[1]
    sep = hw + wx + wy - 1
    rows = np.zeros((chains.x.size, sep + tail.shape[1]), np.uint8)
    rows[:, hw : hw + wx] = x
    rows[:, hw + wx : sep + 1] = y
    kind = chains.closed.view(np.uint8)
    ends = chains.ends
    rows[ends - np.diff(ends, prepend=0), :hw] = head[kind]
    rows[ends - 1, sep:] = tail[kind]
    return rows.tobytes().translate(None, b"\0")


def contours_to_svg(contours: Chains, width: int, height: int) -> str:
    """Render traced contours as SVG polylines/polygons at pixel centers.

    Takes the result of trace_level_contours. Each coordinate v is written
    exactly, as f"{v}.5", by the one digit pass of netpbm.decimal_cells,
    and the points are laid out in array passes, between one-byte markers
    that the tags then replace.
    """
    body = _export(contours, b".5", (b"\1", b"\2"), (b"\3", b"\3"))
    body = body.replace(b"\1", b'<polyline points="').replace(b"\2", b'<polygon points="')
    body = body.replace(b"\3", b'" fill="none" stroke="black" stroke-width="0.25"/>\n')
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    return "".join((head, body.decode("ascii"), "</svg>\n"))


def contours_to_text(contours: Chains) -> str:
    """One traced contour per line as x,y pairs; closed chains end with a Z marker.

    Takes the result of trace_level_contours. Each coordinate v is written
    as f"{v}" by the one digit pass of netpbm.decimal_cells, and the lines
    are laid out in array passes.
    """
    return _export(contours, b"", (b"", b""), (b"\n", b" Z\n")).decode("ascii")
