import dataclasses
import re
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import (
    brute_level_curve,
    brute_member_levels,
    brute_neighbors,
    brute_stack_member_levels,
    grid_rows,
    topologies,
)
from hypothesis import given, settings

from isophote import (
    DetectionMask,
    FrameStack,
    IntensityGrid,
    ThresholdSchedule,
    Topology,
    check_necessary_condition,
    detect_multilevel,
    detect_pointwise,
    frame_stack,
    level_curve_set,
    membership_interval,
    neighbors,
    sublevel,
    trace_level_contours,
)
from isophote import detector
from isophote.raster import signed_dtype, storage_dtype

N4, N8 = Topology.N4, Topology.N8

schedules = st.builds(
    ThresholdSchedule,
    st.integers(1, 6),
    offset=st.one_of(st.none(), st.integers(-5, 8)),
    ceiling=st.one_of(st.none(), st.integers(0, 14)),
)


@st.composite
def dtype_boundary_cases(draw):
    """Grids whose max_value sits at a storage width boundary, with schedules of few levels.

    Values cluster at both ends of [0, max_value], so the neighbor minimum's
    fill (max_value) and thresholds at the top of the range all matter.
    Thin grids have pixels with no neighbor along an axis, and a 1x1 grid
    has one with none at all.
    """
    mv = draw(st.sampled_from([0, 1, 255, 256, 65535, 65536]))
    w, h = draw(st.one_of(
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        st.sampled_from([(1, 1)]),
        st.tuples(st.just(1), st.integers(2, 9)),
        st.tuples(st.integers(2, 9), st.just(1)),
    ))
    value = st.one_of(st.integers(0, min(3, mv)), st.integers(max(mv - 40, 0), mv))
    rows = draw(st.lists(st.lists(value, min_size=w, max_size=w), min_size=h, max_size=h))
    near_top = st.builds(
        ThresholdSchedule,
        st.sampled_from([1, 2, 3, 17]),
        offset=st.integers(mv - 40, mv + 1),
        ceiling=st.one_of(st.none(), st.integers(mv - 40, mv + 3)),
    )
    coarse = st.builds(
        ThresholdSchedule,
        st.integers(mv // 32 + 1, mv + 2),
        offset=st.one_of(st.none(), st.integers(-3, 3)),
    )
    # offsets <= 0 and a ceiling below max_value + 1, the default cap
    low = st.builds(
        ThresholdSchedule,
        st.integers(max(1, (mv + 7) // 32), mv + 2),
        offset=st.integers(-6, 0),
        ceiling=st.one_of(st.none(), st.integers(-2, mv)),
    )
    return rows, mv, draw(st.one_of(near_top, coarse, low))


@st.composite
def chunk_cases(draw):
    """A grid at N4/N8 or a stack at N4T of values up to 47, a schedule of 0-2 or 9-40 levels, and words of 8 or 16 bits."""
    mv = 47
    topology = draw(st.sampled_from([N4, N8, Topology.N4T]))
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    value = st.one_of(st.integers(0, mv), st.integers(0, 3))
    frame = st.lists(st.lists(value, min_size=w, max_size=w), min_size=h, max_size=h)
    if topology is Topology.N4T:
        rows = [draw(frame) for _ in range(draw(st.integers(2, 3)))]
        grid = FrameStack(np.array(rows), mv)
    else:
        rows = draw(frame)
        grid = IntensityGrid.from_rows(rows, mv)
    offset = draw(st.integers(-3, 6))
    n = draw(st.one_of(st.integers(0, 2), st.integers(9, 40)))
    inc = draw(st.integers(1, 2))  # at increment 2, the cap of 48 admits at most 22-26 levels
    schedule = ThresholdSchedule(inc, offset=offset, ceiling=offset + (n - 1) * inc)
    return rows, grid, schedule, topology, draw(st.integers(1, 2))


@st.composite
def strip_cases(draw):
    """A grid at N4/N8 or a stack at N4T up to 9 rows tall, a schedule with a random or negative offset, strips of 1-3 rows."""
    mv = draw(st.sampled_from([12, 255]))
    topology = draw(st.sampled_from([N4, N8, Topology.N4T]))
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    value = st.one_of(st.integers(0, mv), st.integers(0, 3))
    frame = st.lists(st.lists(value, min_size=w, max_size=w), min_size=h, max_size=h)
    if topology is Topology.N4T:
        rows = [draw(frame) for _ in range(draw(st.integers(2, 3)))]
        grid = FrameStack(np.array(rows), mv)
    else:
        rows = draw(frame)
        grid = IntensityGrid.from_rows(rows, mv)
    schedule = ThresholdSchedule(
        draw(st.integers(1, max(mv // 8, 3))),
        offset=draw(st.one_of(st.integers(-mv, mv + 1), st.integers(-3, 0))),
        ceiling=draw(st.one_of(st.none(), st.integers(0, mv + 2))),
    )
    return rows, grid, schedule, topology, draw(st.integers(1, 3))


@st.composite
def adjacency_cases(draw):
    """A grid at N4/N8 or a stack at N4T, a schedule of at most about 40 levels
    with a random increment, an offset in [-increment, increment] and maybe a
    ceiling, and words of 8 to 64 bits; max_value up to 2**40 (int64 witnesses)."""
    mv = draw(st.sampled_from([12, 255, 65535, 2**40]))
    topology = draw(st.sampled_from([N4, N8, Topology.N4T]))
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    value = st.one_of(st.integers(0, mv), st.integers(0, 3), st.integers(max(mv - 3, 0), mv))
    frame = st.lists(st.lists(value, min_size=w, max_size=w), min_size=h, max_size=h)
    if topology is Topology.N4T:
        rows = [draw(frame) for _ in range(draw(st.integers(2, 3)))]
        grid = FrameStack(np.array(rows), mv)
    else:
        rows = draw(frame)
        grid = IntensityGrid.from_rows(rows, mv)
    least = max((mv + 1) // 40, 1)
    inc = draw(st.one_of(st.integers(least, least + 3), st.integers(least, mv + 2)))
    schedule = ThresholdSchedule(
        inc,
        offset=draw(st.integers(-inc, inc)),
        ceiling=draw(st.one_of(st.none(), st.integers(-2, mv + 2))),
    )
    return rows, grid, schedule, topology, draw(st.integers(1, 4))


@st.composite
def oracle_strip_cases(draw):
    """A grid at N4/N8 or a stack at N4T up to 9 rows tall, max_value at a storage width
    boundary, a schedule of up to about 200 levels, so most cross a 64-level chunk, with an
    offset <= 0 or in [1, increment] and maybe a ceiling, and strips of 1-3 rows plus part of one.

    Some grids are stored as uint64, the widest dtype a grid keeps.
    """
    mv = draw(st.sampled_from([255, 256, 65535, 65536]))
    topology = draw(st.sampled_from([N4, N8, Topology.N4T]))
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    value = st.one_of(st.integers(0, mv), st.integers(0, 3), st.integers(mv - 3, mv))
    frame = st.lists(st.lists(value, min_size=w, max_size=w), min_size=h, max_size=h)
    rows = [draw(frame) for _ in range(draw(st.integers(2, 3)))] if topology is Topology.N4T else draw(frame)
    values = np.array(rows, dtype=draw(st.sampled_from([storage_dtype(mv), np.uint64])))
    grid = FrameStack(values, mv) if topology is Topology.N4T else IntensityGrid(values, mv)
    least = max((mv + 1) // 200, 1)
    inc = draw(st.integers(least, 3 * least))
    schedule = ThresholdSchedule(
        inc,
        offset=draw(st.one_of(st.integers(-3 * inc, 0), st.integers(1, inc))),
        ceiling=draw(st.one_of(st.none(), st.integers(-2, mv + 2))),
    )
    return rows, grid, schedule, topology, draw(st.integers(1, 3)), draw(st.floats(0, 1, exclude_max=True))


@st.composite
def sandwich_cases(draw):
    """A grid at N4/N8 or a stack at N4T and an increment d; most values lie within 3d of one
    another, so drops fall on both sides of d and 2d."""
    mv = draw(st.sampled_from([1, 3, 255, 65535]))
    topology = draw(st.sampled_from([N4, N8, Topology.N4T]))
    d = draw(st.integers(1, min(mv + 2, 40)))
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    low = draw(st.integers(0, max(mv - 3 * d, 0)))
    value = st.one_of(st.integers(low, min(low + 3 * d, mv)), st.integers(0, mv))
    frame = st.lists(st.lists(value, min_size=w, max_size=w), min_size=h, max_size=h)
    rows = [draw(frame) for _ in range(draw(st.integers(2, 3)))] if topology is Topology.N4T else draw(frame)
    grid = FrameStack(np.array(rows), mv) if topology is Topology.N4T else IntensityGrid.from_rows(rows, mv)
    return rows, grid, d, topology


def brute_drops(rows, topology):
    """I(p) - min neighbor per pixel, from the definition; 0 for a pixel without neighbors.
    rows are a stack's frames at N4T."""
    frames = rows if topology is Topology.N4T else [rows]
    n, h, w = len(frames), len(frames[0]), len(frames[0][0])
    spatial = N4 if topology is Topology.N4T else topology
    drops = np.zeros((n, h, w), dtype=np.int64)
    for t, y, x in np.ndindex(n, h, w):
        qs = [frames[t][qy][qx] for qx, qy in brute_neighbors((x, y), w, h, spatial)]
        if topology is Topology.N4T:
            qs += [frames[s][y][x] for s in (t - 1, t + 1) if 0 <= s < n]
        drops[t, y, x] = frames[t][y][x] - min(qs) if qs else 0
    return drops if topology is Topology.N4T else drops[0]


def assert_matches_brute(mask, rows, grid, schedule, topology):
    """Every pixel's count and witness pair equal the brute enumeration's; rows are a stack's frames at N4T."""
    levels = schedule.levels(grid.max_value).tolist()
    if topology is Topology.N4T:
        members = brute_stack_member_levels(rows, levels)
    else:
        members = brute_member_levels(rows, levels, topology)
    for idx in np.ndindex(grid.values.shape):
        p = tuple(reversed(idx))
        found = members.get(p, [])
        assert mask.count_at(p) == len(found)
        expect = (found[-2], found[-1]) if len(found) >= 2 else None
        assert mask.witnesses_at(p) == expect


def assert_witnesses_adjacent(rows, grid, schedule, topology, words=4):
    """The brute member levels of every pixel step by the increment, and on
    both routes witness_lo reads (witness_hi - increment) * flagged, read-only
    and in the storage dtype.

    words patches the oracle's word dtypes down to the first 1-4 of them.
    """
    levels = schedule.levels(grid.max_value).tolist()
    if topology is Topology.N4T:
        members = brute_stack_member_levels(rows, levels)
    else:
        members = brute_member_levels(rows, levels, topology)
    for found in members.values():
        # the two largest in particular: consecutive schedule levels
        assert [b - a for a, b in zip(found, found[1:])] == [schedule.increment] * (len(found) - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detector, "_WORD_DTYPES", detector._WORD_DTYPES[:words])
        oracle = detect_multilevel(grid, schedule, topology)
    closed_form = detect_pointwise(grid, schedule, topology)
    for mask in (oracle, closed_form):
        assert mask.increment == schedule.increment
        lo = np.where(mask.flagged, mask.witness_hi.astype(np.int64) - schedule.increment, 0)
        assert np.array_equal(mask.witness_lo, lo)
        assert not mask.witness_lo.flags.writeable
        assert mask.witness_lo.dtype == mask.witness_hi.dtype == storage_dtype(grid.max_value)
        assert_matches_brute(mask, rows, grid, schedule, topology)
    assert oracle == closed_form
    return oracle


def constant(v, w=3, h=3, mv=12):
    return IntensityGrid(np.full((h, w), v, dtype=np.int64), mv)


@st.composite
def extreme_range_cases(draw):
    """6x6 grids with a max_value far beyond any image format's, and
    schedules whose offsets lie near 0, near +-2**60 or near +-2**62.

    Increments keep every schedule to at most about 300 levels: a schedule
    of billions would make the multilevel route allocate its levels first,
    which is its documented levels x pixels cost, not a disagreement.
    """
    mv = draw(st.sampled_from([2**31 - 1, 2**32 - 3, 2**32 - 2, 2**40, 2**62, 2**63 - 1]))
    value = st.one_of(st.integers(0, 3), st.integers(mv - 3, mv), st.integers(0, mv))
    values = np.array(draw(st.lists(value, min_size=36, max_size=36)), dtype=np.uint64).reshape(6, 6)
    dtype = draw(st.sampled_from([np.int64, np.uint64]))
    offset = draw(st.sampled_from([0, 2**60, -(2**60), 2**62, -(2**62)])) + draw(st.integers(-3, 3))
    least = max((mv + 1 - offset) // 300, 1)
    inc = draw(st.integers(least, max(least, mv)))
    return IntensityGrid(values.astype(dtype), mv), ThresholdSchedule(inc, offset=offset)


class TestThresholdSchedule:
    def test_levels_are_the_arithmetic_sequence(self):
        sch = ThresholdSchedule(2, offset=1)
        assert sch.levels(max_value=8).tolist() == [1, 3, 5, 7, 9]

    def test_offset_defaults_to_increment(self):
        assert ThresholdSchedule(8).offset == 8
        assert ThresholdSchedule(3).levels(10).tolist() == [3, 6, 9]

    def test_ceiling_truncates(self):
        assert ThresholdSchedule(1, offset=1, ceiling=2).levels(255).tolist() == [1, 2]
        assert ThresholdSchedule(1, offset=5, ceiling=2).levels(255).size == 0

    def test_increment_must_be_positive(self):
        with pytest.raises(ValueError):
            ThresholdSchedule(0)
        with pytest.raises(ValueError):
            ThresholdSchedule(-3)

    @pytest.mark.parametrize("kwargs, field", [
        ({"offset": 2.7}, "offset"),
        ({"offset": "3"}, "offset"),
        ({"ceiling": 9.9}, "ceiling"),
        ({"increment": True}, "increment"),
        ({"offset": False}, "offset"),
        ({"ceiling": True}, "ceiling"),
    ], ids=["float-offset", "str-offset", "float-ceiling", "bool-increment", "bool-offset", "bool-ceiling"])
    def test_refuses_thresholds_it_would_silently_change(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ThresholdSchedule(**{"increment": 8, **kwargs})

    def test_numpy_integers_become_python_ints(self):
        sch = ThresholdSchedule(np.uint8(3), offset=np.int64(-2), ceiling=np.int32(9))
        assert (sch.increment, sch.offset, sch.ceiling) == (3, -2, 9)
        assert all(type(v) is int for v in (sch.increment, sch.offset, sch.ceiling))

    def test_contains(self):
        sch = ThresholdSchedule(5, offset=2)
        assert sch.contains(12, max_value=20)
        assert not sch.contains(13, max_value=20)
        assert not sch.contains(27, max_value=20)  # beyond max_value + 1


class TestSublevel:
    def test_strict_inequality(self):
        assert not sublevel(constant(5), 5).any()

    def test_all_below(self):
        assert sublevel(constant(5), 6).all()

    def test_ring_example(self, ring_grid):
        got = sublevel(ring_grid, 4)
        assert got.sum() == 8 and not got[1, 1]

    @given(grid_rows(), st.integers(-1, 14), st.integers(-1, 14))
    def test_monotone_in_threshold(self, rows_mv, c1, c2):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        lo, hi = sorted((c1, c2))
        assert not (sublevel(g, lo) & ~sublevel(g, hi)).any()


class TestThresholdIsAnInteger:
    """A float or a bool threshold would compare as some other level, so every function that takes one refuses it."""

    @pytest.mark.parametrize("c", [4.5, 5.0, True, "5"])
    def test_refused(self, ring_grid, c):
        calls = (sublevel, lambda g, c: level_curve_set(g, c, N4), lambda g, c: trace_level_contours(g, c, N4))
        for call in calls:
            with pytest.raises(ValueError, match=f"^threshold must be an integer, got {re.escape(repr(c))}$"):
                call(ring_grid, c)

    def test_numpy_integers_are_accepted(self, ring_grid):
        lcs = level_curve_set(ring_grid, np.int64(4), N4)
        assert lcs.c == 4 and type(lcs.c) is int
        assert np.array_equal(lcs.mask, level_curve_set(ring_grid, 4, N4).mask)
        assert np.array_equal(sublevel(ring_grid, np.uint8(4)), sublevel(ring_grid, 4))


class TestLevelCurveSet:
    def test_ring_center_only(self, ring_grid):
        assert np.argwhere(level_curve_set(ring_grid, 4, N4).mask).tolist() == [[1, 1]]

    def test_ring_low_threshold_empty(self, ring_grid):
        # no pixel has a neighbor below 2, so the boundary is empty
        assert len(level_curve_set(ring_grid, 2, N4)) == 0

    def test_constant_grid_empty_for_every_threshold(self):
        g = constant(5)
        for c in range(0, g.max_value + 2):
            assert len(level_curve_set(g, c, N4)) == 0
            assert len(level_curve_set(g, c, N8)) == 0

    @given(grid_rows(), st.integers(0, 14), topologies)
    def test_matches_boundary_definition(self, rows_mv, c, topology):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        got = {(x, y) for y, x in np.argwhere(level_curve_set(g, c, topology).mask).tolist()}
        assert got == brute_level_curve(rows, c, topology)

    @given(grid_rows(), st.integers(0, 14), topologies)
    def test_members_satisfy_invariant(self, rows_mv, c, topology):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        for p in np.argwhere(level_curve_set(g, c, topology).mask)[:, ::-1].tolist():
            assert g.value_at(p) >= c
            assert any(g.value_at(q) < c for q in neighbors(p, g, topology))


class TestMembershipInterval:
    def test_ring_center(self, ring_grid):
        assert membership_interval(ring_grid, (1, 1), N4) == (3, 5)

    def test_constant_grid_empty(self):
        g = constant(5)
        for y in range(g.height):
            for x in range(g.width):
                assert membership_interval(g, (x, y), N4) is None

    def test_extremes(self):
        g = IntensityGrid.from_rows([[255, 0]], max_value=255)
        assert membership_interval(g, (0, 0), N4) == (0, 255)

    def test_isolated_pixel_has_no_interval(self):
        g = IntensityGrid.from_rows([[7]], max_value=10)
        assert membership_interval(g, (0, 0), N4) is None

    @given(grid_rows(), topologies)
    def test_interval_characterizes_membership(self, rows_mv, topology):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        for y in range(g.height):
            for x in range(g.width):
                interval = membership_interval(g, (x, y), topology)
                for c in range(0, mv + 2):
                    member = (x, y) in brute_level_curve(rows, c, topology)
                    inside = interval is not None and interval[0] < c <= interval[1]
                    assert member == inside


class TestDetectMultilevel:
    def test_ring_flagged_at_unit_increment(self, ring_grid):
        mask = detect_multilevel(ring_grid, ThresholdSchedule(1, offset=1), N4)
        # oracle: enumerate boundaries by definition over the entire schedule
        members = brute_member_levels(
            [[3, 3, 3], [3, 5, 3], [3, 3, 3]], range(1, 7), N4
        )
        assert members == {(1, 1): [4, 5]}
        assert mask.count_at((1, 1)) == 2
        assert mask.witnesses_at((1, 1)) == (4, 5)
        assert mask.flagged.sum() == 1

    def test_ring_not_flagged_by_low_schedule(self, ring_grid):
        mask = detect_multilevel(ring_grid, ThresholdSchedule(1, offset=1, ceiling=2), N4)
        assert not mask.flagged.any()
        assert not mask.level_count.any()

    def test_constant_grid_empty_mask(self):
        for sch in (ThresholdSchedule(1), ThresholdSchedule(3, offset=0)):
            mask = detect_multilevel(constant(7), sch, N4)
            assert not mask.level_count.any()

    def test_chunked_enumeration_matches_brute_across_many_levels(self):
        # a unit schedule over a wide intensity range spans several internal
        # level chunks; witness merging must still match plain enumeration
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 200, size=(6, 7)).tolist()
        g = IntensityGrid.from_rows(rows, 199)
        sch = ThresholdSchedule(1, offset=0)
        mask = detect_multilevel(g, sch, N8)
        members = brute_member_levels(rows, sch.levels(199).tolist(), N8)
        for y in range(g.height):
            for x in range(g.width):
                levels = members.get((x, y), [])
                assert mask.level_count[y, x] == len(levels)
                if len(levels) >= 2:
                    assert mask.witnesses_at((x, y)) == (levels[-2], levels[-1])

    @given(chunk_cases())
    @settings(max_examples=200)
    def test_chunk_boundaries_match_pointwise_and_brute(self, case):
        # words of 8 or 16 bits make witnesses cross chunk boundaries, which
        # the small schedules elsewhere never do: all their levels fit one word
        rows, grid, sch, topology, words = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detector, "_WORD_DTYPES", detector._WORD_DTYPES[:words])
            mask = detect_multilevel(grid, sch, topology)
        assert mask == detect_pointwise(grid, sch, topology)
        assert_matches_brute(mask, rows, grid, sch, topology)

    @pytest.mark.parametrize("max_value, side, increment, topology", [
        (255, 1024, 1, N4), (255, 1024, 1, N8), (65535, 512, 16, N8),
    ], ids=["N4", "N8", "16bit-N8"])
    def test_transient_memory_is_a_few_bytes_per_pixel(self, max_value, side, increment, topology):
        # 256 levels on 1024^2 8-bit, and 4096 on 512^2 16-bit: an upper
        # bound of a few bytes a pixel and an intensity beyond the mask,
        # whatever the schedule length; the strips stay far below it
        rng = np.random.default_rng(3)
        values = rng.integers(0, max_value + 1, size=(side, side), dtype=storage_dtype(max_value))
        g = IntensityGrid(values, max_value)
        sch = ThresholdSchedule(increment)
        assert sch.levels(max_value).size == (max_value + 1) // increment
        tracemalloc.start()
        try:
            mask = detect_multilevel(g, sch, topology)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mask_bytes = mask.level_count.nbytes + mask.witness_hi.nbytes
        assert peak < mask_bytes + 24 * g.values.size + 24 * (max_value + 1)

    @given(grid_rows(), schedules, topologies)
    def test_level_count_matches_brute_enumeration(self, rows_mv, sch, topology):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        mask = detect_multilevel(g, sch, topology)
        members = brute_member_levels(rows, sch.levels(mv).tolist(), topology)
        for y in range(g.height):
            for x in range(g.width):
                levels = members.get((x, y), [])
                assert mask.level_count[y, x] == len(levels)
                if len(levels) >= 2:
                    assert mask.witnesses_at((x, y)) == (levels[-2], levels[-1])
                else:
                    assert mask.witnesses_at((x, y)) is None
                    assert mask.witness_hi[y, x] == 0 and mask.witness_lo[y, x] == 0

    @given(adjacency_cases())
    @settings(max_examples=150)
    def test_top_two_members_are_one_increment_apart(self, case):
        assert_witnesses_adjacent(*case)

    @pytest.mark.parametrize("max_value, increment, offset", [
        (255, 256, 0), (255, 256, -255), (65535, 65536, 0), (65535, 65536, -1),
    ])
    @pytest.mark.parametrize("topology", [N4, N8])
    def test_increment_too_wide_for_the_witness_dtype_flags_nothing(self, max_value, increment, offset, topology):
        # 256 does not fit uint8 witnesses, nor 65536 uint16 ones: the
        # second witness must still come out as zero, not raise
        rows = [[0, max_value, 0], [max_value, 0, max_value]]
        grid = IntensityGrid.from_rows(rows, max_value)
        mask = assert_witnesses_adjacent(rows, grid, ThresholdSchedule(increment, offset=offset), topology)
        assert mask.witness_lo.dtype == storage_dtype(max_value)
        assert not mask.flagged.any()

    @pytest.mark.parametrize("topology", [N4, N8, Topology.N4T])
    def test_witnesses_of_a_40_bit_grid_are_int64(self, topology):
        mv = 2**40
        rows = [[0, mv, 3], [mv - 1, 2**39, mv]]
        if topology is Topology.N4T:
            rows = [rows, [row[::-1] for row in rows]]
            grid, p = FrameStack(np.array(rows), mv), (1, 0, 0)
        else:
            grid, p = IntensityGrid.from_rows(rows, mv), (1, 0)
        mask = assert_witnesses_adjacent(rows, grid, ThresholdSchedule(2**35, offset=-(2**34)), topology)
        assert mask.witness_hi.dtype == np.int64
        # members (0, 2**40] are the levels 2**35 * k - 2**34, k = 1..32
        assert mask.witnesses_at(p) == (mv - 2**34 - 2**35, mv - 2**34)

    @pytest.mark.parametrize("topology", [N4, N8, Topology.N4T])
    def test_second_witness_in_the_chunk_below_the_top_one(self, topology):
        # With words of 8 bits the levels 1..20 fall in chunks [1..8], [9..16],
        # [17..20]. The pixel of value 9 beside a 7 has members {8, 9}: its
        # top member is the lowest level of the second chunk, and the second,
        # which the oracle no longer looks for, lies in the first.
        rows = [[7, 9, 12], [12, 12, 12]]
        if topology is Topology.N4T:
            rows = [rows, [[12] * 3] * 2]
            grid, p = FrameStack(np.array(rows), 47), (1, 0, 0)
        else:
            grid, p = IntensityGrid.from_rows(rows, 47), (1, 0)
        mask = assert_witnesses_adjacent(rows, grid, ThresholdSchedule(1, offset=1, ceiling=20), topology, words=1)
        assert mask.count_at(p) == 2 and mask.witnesses_at(p) == (8, 9)


    @given(oracle_strip_cases())
    @settings(max_examples=200)
    def test_strip_boundaries_match_pointwise_and_brute(self, case):
        # strips of 1-3 rows put neighbors of most pixels in another strip,
        # in every 64-level chunk
        rows, grid, sch, topology, strip, part = case
        n = min(max(sch.size(grid.max_value), 1), 64)
        word = next(w for w in detector._WORD_DTYPES if 8 * w.itemsize >= n)
        itemsize = max(word.itemsize, signed_dtype(detector._check_range(grid, sch)).itemsize)
        row_bytes = grid.values[..., :1, :].size * itemsize
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detector, "_STRIP_BUDGET", strip * row_bytes + int(part * row_bytes))
            assert detector._row_strips(grid.values.shape, itemsize)[0] == strip
            mask = detect_multilevel(grid, sch, topology)
        assert mask == detect_pointwise(grid, sch, topology)
        assert_matches_brute(mask, rows, grid, sch, topology)

    @pytest.mark.parametrize("max_value", [1, 255, 256, 65535, 65536])
    @given(
        st.integers(1, 2**20), st.integers(-3, 3), st.one_of(st.none(), st.integers(-2, 2**17)),
        st.sampled_from(range(4)), st.sampled_from([None, np.uint64]),
    )
    @settings(max_examples=40)
    def test_sublevel_words_count_the_levels_at_or_below(self, max_value, inc, offset, ceiling, words, stored):
        # Every intensity against every chunk of the schedule in words of 8-64
        # bits: the zero bits count the chunk's levels at or below the value,
        # and the set bits are the low ones.
        inc = max(inc % (max_value + 3), (max_value + 1) // 256, 1)
        sch = ThresholdSchedule(inc, offset=offset * inc, ceiling=ceiling)
        values = np.arange(max_value + 1, dtype=stored or storage_dtype(max_value))
        grid = IntensityGrid(values[None, :], max_value)
        k = np.empty(values.size, dtype=signed_dtype(detector._check_range(grid, sch)))
        word = detector._WORD_DTYPES[words]
        chunk = 8 * word.itemsize
        levels = sch.levels(max_value)
        for start in range(0, levels.size, chunk):
            ls = levels[start : start + chunk]
            chunk_levels = range(int(ls[0]), int(ls[-1]) + inc, inc)
            out = np.empty(values.size, dtype=word)
            got = detector._sublevel_words(values, chunk_levels, k, np.zeros_like(k), out=out)
            assert got is out
            ranks = np.searchsorted(ls, values.astype(np.int64), side="right")
            assert np.array_equal(ls.size - np.bitwise_count(out).astype(np.int64), ranks)
            assert not (out & (out + word.type(1))).any()

    @given(sandwich_cases())
    @settings(max_examples=150, deadline=None)
    def test_offsets_that_flag_a_pixel_are_its_drop_past_the_increment(self, case):
        # With increment d and no ceiling, the offsets 1..d each admit every
        # level in one residue class mod d, and the drop I(p) - min neighbor
        # spans that many consecutive thresholds: exactly clamp(drop - d, 0, d)
        # residues occur twice among them. So every pixel with drop >= 2d is
        # flagged, none with drop <= d.
        rows, grid, d, topology = case
        flags = sum(
            detect_multilevel(grid, ThresholdSchedule(d, offset=o), topology).flagged.astype(np.int64)
            for o in range(1, d + 1)
        )
        assert np.array_equal(flags, np.clip(brute_drops(rows, topology) - d, 0, d))

    @pytest.mark.parametrize("max_value, side, increment, topology", [
        (255, 1024, 1, N4), (65535, 512, 16, N8),
    ], ids=["8bit-N4", "16bit-N8"])
    def test_transient_memory_is_the_mask_plus_a_few_strips(self, max_value, side, increment, topology):
        # 256 levels on 1024^2 8-bit, and 4096 on 512^2 16-bit: each chunk
        # runs on strips, so beyond the mask only strip-sized scratch (and
        # numpy's fixed ufunc buffers) is ever alive, whatever the schedule
        # length or max_value
        rng = np.random.default_rng(3)
        values = rng.integers(0, max_value + 1, size=(side, side), dtype=storage_dtype(max_value))
        g = IntensityGrid(values, max_value)
        sch = ThresholdSchedule(increment)
        assert sch.levels(max_value).size == (max_value + 1) // increment
        tracemalloc.start()
        try:
            mask = detect_multilevel(g, sch, topology)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mask.level_count.nbytes + mask.witness_hi.nbytes + 6 * detector._STRIP_BUDGET


class TestDetectPointwise:
    @given(grid_rows(), schedules, topologies)
    @settings(max_examples=150)
    def test_agrees_with_multilevel(self, rows_mv, sch, topology):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        assert detect_pointwise(g, sch, topology) == detect_multilevel(g, sch, topology)

    def test_coinciding_neighbors_still_flag(self):
        # a single darker neighbor supplies both witnesses when the drop
        # spans two schedule values
        g = IntensityGrid.from_rows([[5, 2]], max_value=5)
        mask = detect_pointwise(g, ThresholdSchedule(1, offset=1), N4)
        assert mask.flagged[0, 0]
        assert mask.witnesses_at((0, 0)) == (4, 5)
        assert not mask.flagged[0, 1]

    def test_witnesses_are_two_largest(self):
        g = IntensityGrid.from_rows([[9, 0]], max_value=9)
        mask = detect_pointwise(g, ThresholdSchedule(2, offset=2), N4)
        # members of (0, 9] are {2, 4, 6, 8}
        assert mask.count_at((0, 0)) == 4
        assert mask.witnesses_at((0, 0)) == (6, 8)

    def test_routes_reject_n4t_on_a_single_grid_alike(self):
        g = IntensityGrid(np.random.default_rng(5).integers(0, 256, size=(6, 6)), 255)
        messages = set()
        for route in (detect_multilevel, detect_pointwise):
            with pytest.raises(ValueError) as err:
                route(g, ThresholdSchedule(8), Topology.N4T)
            messages.add(str(err.value))
        assert len(messages) == 1

    @given(dtype_boundary_cases(), topologies)
    @settings(max_examples=300)
    def test_routes_and_brute_agree_at_dtype_boundaries(self, case, topology):
        rows, mv, sch = case
        g = IntensityGrid(np.array(rows, dtype=storage_dtype(mv)), mv)
        assert g.values.dtype == storage_dtype(mv)
        point = detect_pointwise(g, sch, topology)
        assert point == detect_multilevel(g, sch, topology)
        members = brute_member_levels(rows, sch.levels(mv).tolist(), topology)
        for y in range(g.height):
            for x in range(g.width):
                levels = members.get((x, y), [])
                assert point.count_at((x, y)) == len(levels)
                expect = (levels[-2], levels[-1]) if len(levels) >= 2 else None
                assert point.witnesses_at((x, y)) == expect

    @given(extreme_range_cases(), topologies)
    @settings(max_examples=120)
    def test_routes_agree_or_reject_alike_at_every_max_value(self, case, topology):
        g, sch = case
        outcomes = []
        for route in (detect_multilevel, detect_pointwise):
            try:
                outcomes.append(route(g, sch, topology))
            except ValueError as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], str):
            assert "int64" in outcomes[0]
            return
        members = brute_member_levels(g.values.tolist(), sch.levels(g.max_value).tolist(), topology)
        for (x, y), levels in members.items():
            assert outcomes[0].count_at((x, y)) == len(levels)

    @given(strip_cases())
    @settings(max_examples=200)
    def test_strip_boundaries_match_multilevel_and_brute(self, case):
        # strips of 1-3 rows put neighbors of most pixels in another strip
        rows, grid, sch, topology, strip = case
        itemsize = signed_dtype(detector._check_range(grid, sch)).itemsize
        row_bytes = grid.values[..., :1, :].size * itemsize
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detector, "_STRIP_BUDGET", strip * row_bytes + row_bytes - 1)
            mask = detect_pointwise(grid, sch, topology)
        assert mask == detect_multilevel(grid, sch, topology)
        assert_matches_brute(mask, rows, grid, sch, topology)

    @pytest.mark.parametrize("topology", [N4, N8], ids=["N4", "N8"])
    def test_transient_memory_is_the_mask_plus_a_few_strips(self, topology):
        # the closed form runs on strips, so beyond the narrow mask (one
        # byte per stored array here) only strip-sized scratch is ever alive
        rng = np.random.default_rng(4)
        g = IntensityGrid(rng.integers(0, 256, size=(1024, 1024), dtype=np.uint8), 255)
        tracemalloc.start()
        try:
            mask = detect_pointwise(g, ThresholdSchedule(8), topology)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mask_bytes = 2 * g.values.size
        assert mask.level_count.nbytes + mask.witness_hi.nbytes == mask_bytes
        assert peak < mask_bytes + 6 * detector._STRIP_BUDGET

    def test_single_pixel_grid_never_flagged(self):
        g = IntensityGrid.from_rows([[7]], max_value=10)
        for sch in (ThresholdSchedule(1, offset=0), ThresholdSchedule(1, offset=1)):
            assert not detect_pointwise(g, sch, N4).level_count.any()


class TestMaskDtypes:
    """Both routes store level_count in the narrowest unsigned dtype that
    holds the number of levels, and the witnesses in the grid's storage dtype."""

    @pytest.mark.parametrize(
        "max_value, witness",
        [(255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.int64)],
    )
    @pytest.mark.parametrize("route", [detect_pointwise, detect_multilevel])
    def test_witnesses_take_the_storage_dtype(self, route, max_value, witness):
        g = IntensityGrid.from_rows([[0, max_value, 0], [max_value, 1, max_value]], max_value)
        sch = ThresholdSchedule(max(max_value // 100, 1))
        mask = route(g, sch, N4)
        assert mask.witness_hi.dtype == mask.witness_lo.dtype == witness
        members = [c for c in sch.levels(max_value).tolist() if 0 < c <= max_value]
        assert mask.witnesses_at((1, 0)) == tuple(members[-2:])

    @pytest.mark.parametrize(
        "max_value, schedule, levels, count",
        [
            (255, ThresholdSchedule(1, offset=2), 255, np.uint8),
            (255, ThresholdSchedule(1, offset=1), 256, np.uint16),
            (65535, ThresholdSchedule(1, offset=2), 65535, np.uint16),
            (65535, ThresholdSchedule(1, offset=1), 65536, np.uint32),
        ],
    )
    @pytest.mark.parametrize("route", [detect_pointwise, detect_multilevel])
    def test_level_count_holds_the_number_of_levels(self, route, max_value, schedule, levels, count):
        assert schedule.size(max_value) == schedule.levels(max_value).size == levels
        g = IntensityGrid.from_rows([[0, max_value], [1, 0]], max_value)
        mask = route(g, schedule, N4)
        assert mask.level_count.dtype == count
        # the members of (0, max_value]: every level but max_value + 1
        assert mask.count_at((1, 0)) == levels - 1


class TestDerivedWitness:
    """A mask stores level_count and witness_hi; witness_lo follows from those and the increment."""

    def test_stores_two_arrays_and_the_increment(self):
        assert [f.name for f in dataclasses.fields(DetectionMask)] == ["level_count", "witness_hi", "increment"]

    @pytest.mark.parametrize("rows, flagged", [([[0, 0, 0], [0, 9, 0], [0, 0, 0]], True), ([[4] * 3] * 3, False)])
    def test_increment_compares_only_where_a_pixel_is_flagged(self, rows, flagged):
        mask = detect_pointwise(IntensityGrid.from_rows(rows, 9), ThresholdSchedule(1), N4)
        wider = DetectionMask(mask.level_count, mask.witness_hi, 2)
        assert mask.flagged.any() == flagged
        assert (mask == wider) != flagged and (mask != wider) == flagged
        assert mask.witnesses_at((1, 1)) == ((8, 9) if flagged else None)
        assert wider.witnesses_at((1, 1)) == ((7, 9) if flagged else None)


class TestNecessaryCondition:
    def test_ring_witness_pair(self, ring_grid):
        assert check_necessary_condition(ring_grid, (1, 1), 4, 5, N4)

    def test_not_sufficient(self, ring_grid):
        # the threshold test passes with c=2, c'=1, yet the pixel lies on
        # neither boundary: a large step alone is not conclusive
        assert check_necessary_condition(ring_grid, (1, 1), 2, 1, N4)
        assert (1, 1) not in level_curve_set(ring_grid, 2, N4)
        assert (1, 1) not in level_curve_set(ring_grid, 1, N4)

    def test_constant_grid_false(self):
        g = constant(5)
        assert not check_necessary_condition(g, (1, 1), 3, 1, N4)

    def test_equal_thresholds_rejected(self, ring_grid):
        with pytest.raises(ValueError):
            check_necessary_condition(ring_grid, (1, 1), 4, 4, N4)

    @given(grid_rows(), schedules, topologies)
    def test_holds_for_every_witness_pair(self, rows_mv, sch, topology):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        mask = detect_multilevel(g, sch, topology)
        for y, x in np.argwhere(mask.flagged):
            lo, hi = mask.witnesses_at((x, y))
            assert sch.contains(lo, mv) and sch.contains(hi, mv) and lo != hi
            v = rows[y][x]
            assert any(
                v - rows[qy][qx] > hi - lo
                for qx, qy in brute_neighbors((x, y), g.width, g.height, topology)
            )


class TestEquivariance:
    @given(grid_rows(), schedules, topologies, st.integers(0, 20))
    def test_intensity_translation(self, rows_mv, sch, topology, k):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        shifted = IntensityGrid(g.values + k, mv + k)
        sch_k = ThresholdSchedule(
            sch.increment,
            sch.offset + k,
            None if sch.ceiling is None else sch.ceiling + k,
        )
        base = detect_pointwise(g, sch, topology)
        moved = detect_pointwise(shifted, sch_k, topology)
        assert np.array_equal(base.level_count, moved.level_count)
        assert np.array_equal(moved.witness_hi, np.where(base.flagged, base.witness_hi + k, 0))
        assert np.array_equal(moved.witness_lo, np.where(base.flagged, base.witness_lo + k, 0))

    @given(grid_rows(), schedules, topologies, st.integers(1, 5))
    def test_intensity_scaling(self, rows_mv, sch, topology, s):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        scaled = IntensityGrid(g.values * s, mv * s)
        sch_s = ThresholdSchedule(
            sch.increment * s,
            sch.offset * s,
            None if sch.ceiling is None else sch.ceiling * s,
        )
        base = detect_multilevel(g, sch, topology)
        big = detect_multilevel(scaled, sch_s, topology)
        assert np.array_equal(base.level_count, big.level_count)
        assert np.array_equal(big.witness_hi, base.witness_hi * s)
        assert np.array_equal(big.witness_lo, base.witness_lo * s)


class TestSmoothInputs:
    def test_constant_grids_empty(self):
        for v in (0, 5, 12):
            assert not detect_multilevel(constant(v), ThresholdSchedule(1), N8).level_count.any()

    def test_unit_ramp_below_increment_empty(self):
        vals = np.tile(np.arange(10, dtype=np.int64), (4, 1))
        g = IntensityGrid(vals, 9)
        for topology in (N4, N8):
            assert not detect_multilevel(g, ThresholdSchedule(2), topology).flagged.any()
            assert not detect_pointwise(g, ThresholdSchedule(2), topology).flagged.any()

    def test_determinism(self, ring_grid):
        sch = ThresholdSchedule(1, offset=1)
        assert detect_multilevel(ring_grid, sch, N4) == detect_multilevel(ring_grid, sch, N4)


class TestTemporalDetection:
    def step_frames(self, positions, width=8, height=4):
        frames = []
        for s in positions:
            vals = np.zeros((height, width), dtype=np.int64)
            vals[:, s:] = 10
            frames.append(IntensityGrid(vals, 10))
        return frames

    def test_stack_flags_are_superset_of_per_frame(self):
        frames = self.step_frames([2, 3, 5])
        stack = frame_stack(frames)
        sch = ThresholdSchedule(4)
        stacked = detect_multilevel(stack, sch, Topology.N4T)
        for t, frame in enumerate(frames):
            flat = detect_multilevel(frame, sch, N4)
            assert (flat.flagged <= stacked.flagged[t]).all()

    def test_translating_edge_tracked_per_frame(self):
        frames = self.step_frames([2, 3, 4])
        stack = frame_stack(frames)
        sch = ThresholdSchedule(4)
        stacked = detect_multilevel(stack, sch, Topology.N4T)
        for t, frame in enumerate(frames):
            flat = detect_multilevel(frame, sch, N4)
            # the smoothly translating step flags exactly the per-frame edge
            assert np.array_equal(stacked.flagged[t], flat.flagged)
            assert set(np.argwhere(stacked.flagged[t])[:, 1]) == {2 + t}

    def test_constant_frames_with_jump_flag_later_frame(self):
        a = IntensityGrid(np.zeros((3, 3), dtype=np.int64), 10)
        b = IntensityGrid(np.full((3, 3), 10, dtype=np.int64), 10)
        stack = frame_stack([a, b])
        mask = detect_multilevel(stack, ThresholdSchedule(4), Topology.N4T)
        assert mask.flagged[1].all()
        assert not mask.flagged[0].any()
        assert detect_pointwise(stack, ThresholdSchedule(4), Topology.N4T) == mask

    def test_pointwise_equivalence_on_stacks(self):
        rng = np.random.default_rng(42)
        frames = [IntensityGrid(rng.integers(0, 16, size=(5, 6)), 15) for _ in range(3)]
        stack = frame_stack(frames)
        for inc in (1, 3):
            sch = ThresholdSchedule(inc)
            assert detect_pointwise(stack, sch, Topology.N4T) == detect_multilevel(
                stack, sch, Topology.N4T
            )
