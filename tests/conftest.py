"""Shared test helpers: brute-force reference implementations and strategies.

The brute functions re-derive everything from the definitions with plain
Python loops and sets, deliberately independent of the package's
vectorized code paths, so they can serve as oracles.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import settings

from isophote import IntensityGrid, Topology

# CI runs three times the default examples per property (pytest --hypothesis-profile=ci);
# local runs keep the default profile.
settings.register_profile("ci", max_examples=300)

# Independent offset tables; not imported from the package on purpose.
BRUTE_OFFSETS = {
    Topology.N4: ((0, -1), (-1, 0), (1, 0), (0, 1)),
    Topology.N8: tuple(
        (dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dx, dy) != (0, 0)
    ),
}


def brute_neighbors(p, w, h, topology):
    x, y = p
    return [
        (x + dx, y + dy)
        for dx, dy in BRUTE_OFFSETS[topology]
        if 0 <= x + dx < w and 0 <= y + dy < h
    ]


def brute_sublevel(rows, c):
    return {(x, y) for y, row in enumerate(rows) for x, v in enumerate(row) if v < c}


def brute_level_curve(rows, c, topology):
    """Boundary of {I < c}: pixels outside the set adjacent to a pixel inside it."""
    h, w = len(rows), len(rows[0])
    below = brute_sublevel(rows, c)
    out = set()
    for y in range(h):
        for x in range(w):
            if (x, y) in below:
                continue
            if any(q in below for q in brute_neighbors((x, y), w, h, topology)):
                out.add((x, y))
    return out


def brute_member_levels(rows, levels, topology):
    """(x, y) -> ascending list of thresholds whose level curve contains the pixel."""
    members = {}
    for c in levels:
        for p in brute_level_curve(rows, c, topology):
            members.setdefault(p, []).append(c)
    return members


def brute_stack_member_levels(frames, levels):
    """(x, y, t) -> ascending thresholds whose N4T level curve contains the pixel.

    frames is a list of row lists; a pixel's neighbors are its N4 neighbors
    in its own frame plus the same pixel in the previous and next frame.
    """
    n, h, w = len(frames), len(frames[0]), len(frames[0][0])
    members = {}
    for c in levels:
        for t in range(n):
            for y in range(h):
                for x in range(w):
                    if frames[t][y][x] < c:
                        continue
                    qs = [(qx, qy, t) for qx, qy in brute_neighbors((x, y), w, h, Topology.N4)]
                    qs += [(x, y, s) for s in (t - 1, t + 1) if 0 <= s < n]
                    if any(frames[s][qy][qx] < c for qx, qy, s in qs):
                        members.setdefault((x, y, t), []).append(c)
    return members


def cheb_dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Chebyshev-ball dilation of a boolean mask by whole pixels."""
    out = np.zeros_like(mask)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            shifted = np.zeros_like(mask)
            ys = slice(max(0, dy), mask.shape[0] + min(0, dy))
            xs = slice(max(0, dx), mask.shape[1] + min(0, dx))
            yd = slice(max(0, -dy), mask.shape[0] + min(0, -dy))
            xd = slice(max(0, -dx), mask.shape[1] + min(0, -dx))
            shifted[yd, xd] = mask[ys, xs]
            out |= shifted
    return out


@st.composite
def grid_rows(draw, max_side=6, max_value=12):
    """Small random integer grids as plain row lists plus their ceiling."""
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, max_value), min_size=w, max_size=w),
            min_size=h,
            max_size=h,
        )
    )
    return rows, max_value


topologies = st.sampled_from([Topology.N4, Topology.N8])

# Plain files whose one bad token is longer than the 4300 digits int() accepts:
# (data, the error text before " at byte", the token's offset). Messages quote 16 digits.
_HUGE = b"9" * 5000
_CUT = "9" * 16 + "..."
LONG_TOKEN_FILES = {
    "sample": (b"P2\n2 1\n255\n1 " + _HUGE + b"\n", f"sample value {_CUT} exceeds maxval 255", 13),
    "width": (b"P2\n" + _HUGE + b" 1\n255\n1 1\n", f"width {_CUT} out of range [1, 1073741824]", 3),
    "height": (b"P2\n2 " + _HUGE + b"\n255\n1 1\n", f"height {_CUT} out of range [1, 1073741824]", 5),
    "maxval": (b"P2\n2 1\n" + _HUGE + b"\n1 1\n", f"maxval {_CUT} out of range [1, 65535]", 7),
}


@pytest.fixture
def ring_grid():
    """3x3 grid, centre 5 surrounded by 3s; the standard worked example."""
    return IntensityGrid([[3, 3, 3], [3, 5, 3], [3, 3, 3]], max_value=5)
