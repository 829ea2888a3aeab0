"""Both detector routes against brute force on every input of a few small domains.

N4 and N8 act on each frame of a stack alone, so every grid of one shape
becomes one frame of a FrameStack, and one call per schedule covers the
domain. N4T cases (stacks of two frames) lie side by side in one stack,
each followed by a column of max_value: such a neighbor never lowers a
pixel's minimum, so the separators change no case's counts. Every case is
checked against its own brute force, which enumerates the schedule's levels
up to its cap in each pixel's membership interval (min neighbor, I(p)].

The 3x3 domains with values 0-3, and with values 0-2 at every ceiling, take
tens of seconds and run in their own CI step: ``pytest tests/exhaustive_3x3.py``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from conftest import BRUTE_OFFSETS

from isophote import FrameStack, IntensityGrid, ThresholdSchedule, Topology, detect_multilevel, detect_pointwise

N4, N8, N4T = Topology.N4, Topology.N8, Topology.N4T


def every_case(frames: int, height: int, width: int, values: int) -> np.ndarray:
    """Every (frames, height, width) array of values 0 .. values - 1, stacked on a leading axis."""
    cells = frames * height * width
    digits = np.arange(values**cells)[:, None] // values ** np.arange(cells) % values
    return digits.astype(np.uint8).reshape(-1, frames, height, width)


def lay_out(cases: np.ndarray, max_value: int, topology: Topology):
    """One FrameStack holding every case, and a function that takes a route's
    per-pixel array back to the cases' (n, frames, height, width) shape."""
    n, frames, h, w = cases.shape
    if topology is not N4T:
        return FrameStack(cases.reshape(n, h, w), max_value), lambda a: a.reshape(cases.shape)
    side = np.full((frames, h, n, w + 1), max_value, dtype=cases.dtype)
    side[..., :w] = cases.transpose(1, 2, 0, 3)
    stack = FrameStack(side.reshape(frames, h, n * (w + 1)), max_value)
    return stack, lambda a: a.reshape(side.shape)[..., :w].transpose(2, 0, 1, 3)


def brute_min_neighbor(cases: np.ndarray, max_value: int, topology: Topology) -> np.ndarray:
    """Per pixel, the least value among its neighbors; max_value + 1 when it has none."""
    n, frames, h, w = cases.shape
    offsets = [(0, dy, dx) for dx, dy in BRUTE_OFFSETS[N8 if topology is N8 else N4]]
    if topology is N4T:
        offsets += [(-1, 0, 0), (1, 0, 0)]
    padded = np.full((n, frames + 2, h + 2, w + 2), max_value + 1, dtype=np.int16)
    padded[:, 1:-1, 1:-1, 1:-1] = cases
    low = np.full(cases.shape, max_value + 1, dtype=np.int16)
    for dt, dy, dx in offsets:
        np.minimum(low, padded[:, 1 + dt : 1 + dt + frames, 1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w], out=low)
    return low


def brute_members(cases: np.ndarray, low: np.ndarray, increment: int, offset: int, cap: int):
    """The number of schedule levels up to cap in each pixel's (low, I(p)], and the two
    largest of them where there are two or more (0 elsewhere), enumerated level by level."""
    values = cases.astype(np.int16)
    count, lo, hi = (np.zeros(cases.shape, dtype=np.int16) for _ in range(3))
    for c in range(offset, cap + 1, increment):
        member = (low < c) & (c <= values)
        count += member
        lo[member] = hi[member]
        hi[member] = c
    flagged = count >= 2
    return count, lo * flagged, hi * flagged


def assert_domain(cases: np.ndarray, max_value: int, topologies, ceilings=(None,)) -> None:
    """Both routes' level counts and witness pairs equal the brute force on every case
    at every increment d in 1-5, offset in [-d, 5] and ceiling in ceilings, and without
    a ceiling clamp(drop - d, 0, d) of the offsets in [1, d] flag each pixel."""
    for topology in topologies:
        stack, back = lay_out(cases, max_value, topology)
        low = brute_min_neighbor(cases, max_value, topology)
        drop = cases.astype(np.int16) - low
        for ceiling, d in itertools.product(ceilings, range(1, 6)):
            cap = max_value + 1 if ceiling is None else min(max_value + 1, ceiling)
            flags = np.zeros(cases.shape, dtype=np.int16)
            for offset in range(-d, 6):
                count, lo, hi = brute_members(cases, low, d, offset, cap)
                schedule = ThresholdSchedule(d, offset=offset, ceiling=ceiling)
                for route in (detect_multilevel, detect_pointwise):
                    mask = route(stack, schedule, topology)
                    assert np.array_equal(back(mask.level_count), count), (route.__name__, topology, schedule)
                    assert np.array_equal(back(mask.witness_hi), hi), (route.__name__, topology, schedule)
                    assert np.array_equal(back(mask.witness_lo), lo), (route.__name__, topology, schedule)
                if 1 <= offset <= d:
                    flags += back(mask.flagged)
            if ceiling is None:
                assert np.array_equal(flags, np.clip(drop - d, 0, d)), (topology, d)


@pytest.mark.parametrize("frames, height, width, values, topologies", [
    (1, 3, 3, 3, (N4, N8)),
    (1, 2, 4, 4, (N4, N8)),
    (1, 1, 6, 5, (N4, N8)),
    (2, 2, 2, 4, (N4T,)),
], ids=["3x3-values-0-2", "2x4-values-0-3", "1x6-values-0-4", "N4T-2x2x2-values-0-3"])
def test_every_small_input_matches_brute_force(frames, height, width, values, topologies):
    assert_domain(every_case(frames, height, width, values), values - 1, topologies)


def test_every_1x6_input_matches_brute_force_under_ceilings():
    assert_domain(every_case(1, 1, 6, 5), 4, (N4, N8), ceilings=(0, 1, 3, 4))


# The largest max(max_value + 2, |cap|, |offset| + increment) that _check_range
# admits: 4 * EDGE + 2 is the largest such bound that fits in int64.
EDGE = (np.iinfo(np.int64).max - 2) // 4


def edge_cases():
    """max_value, increment, offset and ceiling on both sides of the int64 edge, each
    term of _check_range's bound in turn; increments keep schedules to a few levels."""
    for max_value in (EDGE - 3, EDGE - 2, EDGE - 1, 2**40):
        for inc in (2**59, 2**60 - 1, 2**60 + 1):
            for offset in (-(EDGE - inc) - 1, -(EDGE - inc), -(EDGE - inc) + 1, 0, 1, EDGE - inc, EDGE - inc + 1):
                for ceiling in (None, -EDGE, -EDGE - 1):
                    yield max_value, inc, offset, ceiling


@pytest.mark.parametrize("topology", [N4, N8])
def test_routes_raise_alike_around_the_int64_edge(topology):
    seen = set()
    for max_value, inc, offset, ceiling in edge_cases():
        rows = [[0, max_value, max_value // 2], [max_value, 0, 1]]
        grid = IntensityGrid(np.array(rows, dtype=np.int64), max_value)
        schedule = ThresholdSchedule(inc, offset=offset, ceiling=ceiling)
        outcomes = []
        for route in (detect_multilevel, detect_pointwise):
            try:
                outcomes.append(route(grid, schedule, topology))
            except ValueError as err:
                outcomes.append(str(err))
        case = (max_value, inc, offset, ceiling)
        assert outcomes[0] == outcomes[1], case
        cap = max_value + 1 if ceiling is None else min(max_value + 1, ceiling)
        fits = max(max_value + 2, abs(cap), abs(offset) + inc) <= EDGE
        seen.add(fits)
        if not fits:
            assert "must fit in int64" in outcomes[0], case
            continue
        mask = outcomes[0]
        levels = range(offset, cap + 1, inc)
        for y, x in np.ndindex(grid.values.shape):
            v = rows[y][x]
            low = min(rows[y + dy][x + dx] for dx, dy in BRUTE_OFFSETS[topology]
                      if 0 <= y + dy < 2 and 0 <= x + dx < 3)
            members = [c for c in levels if low < c <= v]
            assert mask.count_at((x, y)) == len(members), case
            assert mask.witnesses_at((x, y)) == (tuple(members[-2:]) if len(members) >= 2 else None), case
            assert mask.witness_hi[y, x] == (members[-1] if len(members) >= 2 else 0), case
    assert seen == {True, False}
