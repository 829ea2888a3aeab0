"""The set-based contour tracer and per-point exporters that isophote.field replaced.

Kept as test-only oracles: the tracer walks sets of (x, y) tuples and
starts every chain with a scan for the topmost-leftmost remaining pixel,
which is quadratic in the size of a component but simple enough to trust.
The production tracer and exporters must match them exactly, pixel for
pixel and byte for byte.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from isophote import Chains, IntensityGrid, Topology, level_curve_set

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


def reference_trace_level_contours(grid: IntensityGrid, c: int, topology: Topology) -> Chains:
    """Partition the level curve set at c into ordered pixel chains.

    Each connected component is walked clockwise starting from its
    topmost-leftmost pixel. A chain that would revisit a pixel stops
    instead, and leftover pixels of the same component start further
    chains, so the chains always partition the level curve set exactly.
    A chain is closed when its component never touches the image border
    and its endpoints are adjacent; no curve completion is attempted.
    Returns the chains as the production tracer does: every chain's pixels
    one chain after another, each chain's end among them, and whether it
    is closed.
    """
    if topology.temporal:
        raise ValueError("contour tracing is defined on single frames only")
    mask = level_curve_set(grid, c, topology).mask
    ring = _RINGS[topology]
    h, w = mask.shape
    pixels, ends, closed = [], [], []
    for comp in _components(mask, ring):
        interior = all(0 < x < w - 1 and 0 < y < h - 1 for x, y in comp)
        remaining = set(comp)
        while remaining:
            start = min(remaining, key=lambda p: (p[1], p[0]))
            path = _walk_chain(remaining, start, ring)
            first, last = path[0], path[-1]
            wraps = len(path) == 1 or (last[0] - first[0], last[1] - first[1]) in ring
            pixels.extend(path)
            ends.append(len(pixels))
            closed.append(interior and wraps)
    x, y = np.array(pixels, dtype=np.intp).reshape(-1, 2).T
    return Chains(x, y, np.array(ends, dtype=np.intp), np.array(closed, dtype=bool))


def chain_pixels(chains: Chains) -> list[list[tuple[int, int]]]:
    """Each chain's (x, y) pixels, in order, read from the arrays."""
    points = list(zip(chains.x.tolist(), chains.y.tolist()))
    begins = [0, *chains.ends.tolist()]
    return [points[a:b] for a, b in zip(begins, begins[1:])]


def reference_contours_to_svg(chains: Chains, width: int, height: int) -> str:
    """Render traced chains as SVG polylines/polygons at pixel centers, each coordinate exact."""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for pixels, closed in zip(chain_pixels(chains), chains.closed.tolist()):
        pts = " ".join(f"{x + 0.5},{y + 0.5}" for x, y in pixels)  # exact below 2**52
        tag = "polygon" if closed else "polyline"
        lines.append(f'<{tag} points="{pts}" fill="none" stroke="black" stroke-width="0.25"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def reference_contours_to_text(chains: Chains) -> str:
    """One traced chain per line as x,y pairs; closed chains end with a Z marker."""
    out = []
    for pixels, closed in zip(chain_pixels(chains), chains.closed.tolist()):
        line = " ".join(f"{x},{y}" for x, y in pixels)
        if closed:
            line += " Z"
        out.append(line)
    return "\n".join(out) + ("\n" if out else "")
