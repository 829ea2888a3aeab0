"""Discrete vector fields on images and level-curve tracing.

The rotated gradient (-dI/dy, dI/dx) has the level curves of I as its
integral curves, so chaining its directions head to tail walks along
curves of constant intensity. At pixel resolution we get the same curves
more robustly by tracing the boundaries of sublevel sets; the field is
still needed to find the points where it vanishes, which mark candidate
occluding points worth filtering from a detection mask.

All differences are doubled instead of halved so the fields stay exact
integers: central differences in the interior, one-sided at the borders.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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
    """Per-pixel integer 2-vectors (hx, hy), same shape as the source grid."""

    hx: np.ndarray
    hy: np.ndarray

    def __post_init__(self):
        if self.hx.shape != self.hy.shape:
            raise ValueError("component arrays must share a shape")
        self.hx.setflags(write=False)
        self.hy.setflags(write=False)

    @property
    def width(self) -> int:
        return self.hx.shape[1]

    @property
    def height(self) -> int:
        return self.hx.shape[0]

    def vector_at(self, p) -> tuple[int, int]:
        x, y = p
        return int(self.hx[y, x]), int(self.hy[y, x])


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


def discrete_gradient(grid: IntensityGrid) -> tuple[np.ndarray, np.ndarray]:
    """(gx, gy) with gx = I(x+1,y) - I(x-1,y), gy = I(x,y+1) - I(x,y-1) in the interior.

    Both are int32, or int64 when max_value is too large for that. Widen
    them before multiplying two of them together.
    """
    # |hx| + |hy| in zero_mask reaches 4 * max_value; int32 at least keeps
    # products of two components exact on 8-bit grids
    dtype = np.promote_types(signed_dtype(4 * grid.max_value), np.int32)
    gx = _doubled_diff(grid.values, 1, dtype)
    gy = _doubled_diff(grid.values, 0, dtype)
    return gx, gy


def hamiltonian(grid: IntensityGrid) -> VectorFieldGrid:
    """The rotated gradient (-gy, gx); orthogonal to the gradient by construction."""
    gx, gy = discrete_gradient(grid)
    np.negative(gy, out=gy)
    return VectorFieldGrid(gy, gx)


def zero_mask(field: VectorFieldGrid, tolerance: int = 0) -> np.ndarray:
    """Pixels where |hx| + |hy| <= tolerance; exact integer zeros at tolerance 0."""
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    total = np.abs(field.hx)
    total += np.abs(field.hy)
    return total <= tolerance


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


def _components(mask: np.ndarray, ring) -> list[set]:
    """Connected components in deterministic scan order of their first pixel."""
    h, w = mask.shape
    seen = np.zeros_like(mask)
    comps = []
    for y, x in np.argwhere(mask):
        if seen[y, x]:
            continue
        comp = set()
        queue = deque([(int(x), int(y))])
        seen[y, x] = True
        while queue:
            cx, cy = queue.popleft()
            comp.add((cx, cy))
            for dx, dy in ring:
                nx, ny = cx + dx, cy + dy
                if 0 <= nx < w and 0 <= ny < h and mask[ny, nx] and not seen[ny, nx]:
                    seen[ny, nx] = True
                    queue.append((nx, ny))
        comps.append(comp)
    return comps


def _walk_chain(remaining: set, start, ring) -> list:
    """Greedy clockwise boundary walk through unvisited pixels, right hand inward."""
    n = len(ring)
    path = [start]
    remaining.discard(start)
    cur = start
    d_in = None
    while True:
        if d_in is None:
            order = range(n)
        else:
            back = (d_in + n // 2) % n
            order = [(back + 1 + i) % n for i in range(n)]
        step = None
        for di in order:
            dx, dy = ring[di]
            cand = (cur[0] + dx, cur[1] + dy)
            if cand in remaining:
                step = (cand, di)
                break
        if step is None:
            return path
        cur, d_in = step
        remaining.discard(cur)
        path.append(cur)


def trace_level_contours(grid: IntensityGrid, c: int, topology: Topology) -> list[Contour]:
    """Partition the level curve set at c into ordered pixel chains.

    Each connected component is walked clockwise starting from its
    topmost-leftmost pixel. A chain that would revisit a pixel stops
    instead, and leftover pixels of the same component start further
    chains, so the chains always partition the level curve set exactly.
    A chain is closed when its component never touches the image border
    and its endpoints are adjacent; no curve completion is attempted.
    """
    if topology.temporal:
        raise ValueError("contour tracing is defined on single frames only")
    mask = level_curve_set(grid, c, topology).mask
    ring = _RINGS[topology]
    h, w = mask.shape
    contours = []
    for comp in _components(mask, ring):
        interior = all(0 < x < w - 1 and 0 < y < h - 1 for x, y in comp)
        remaining = set(comp)
        while remaining:
            start = min(remaining, key=lambda p: (p[1], p[0]))
            path = _walk_chain(remaining, start, ring)
            first, last = path[0], path[-1]
            wraps = len(path) == 1 or (last[0] - first[0], last[1] - first[1]) in ring
            contours.append(
                Contour(tuple(PixelCoord(x, y) for x, y in path), closed=interior and wraps)
            )
    return contours


def contours_to_svg(contours, width: int, height: int) -> str:
    """Render contours as SVG polylines/polygons at pixel centers."""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for contour in contours:
        pts = " ".join(f"{p.x + 0.5:g},{p.y + 0.5:g}" for p in contour.pixels)
        tag = "polygon" if contour.closed else "polyline"
        lines.append(f'<{tag} points="{pts}" fill="none" stroke="black" stroke-width="0.25"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def contours_to_text(contours) -> str:
    """One contour per line as x,y pairs; closed chains end with a Z marker."""
    out = []
    for contour in contours:
        line = " ".join(f"{p.x},{p.y}" for p in contour.pixels)
        if contour.closed:
            line += " Z"
        out.append(line)
    return "\n".join(out) + ("\n" if out else "")
