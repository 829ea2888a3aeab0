import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import (
    brute_level_curve,
    brute_member_levels,
    brute_neighbors,
    grid_rows,
    topologies,
)
from hypothesis import given, settings

from isophote import (
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
)
from isophote.raster import storage_dtype

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
    fill (max_value + 2) and thresholds at the top of the range all matter.
    """
    mv = draw(st.sampled_from([255, 256, 65535, 65536]))
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    value = st.one_of(st.integers(0, 3), st.integers(mv - 40, mv))
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
    return rows, mv, draw(st.one_of(near_top, coarse))


def constant(v, w=3, h=3, mv=12):
    return IntensityGrid(np.full((h, w), v, dtype=np.int64), mv)


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


class TestLevelCurveSet:
    def test_ring_center_only(self, ring_grid):
        assert level_curve_set(ring_grid, 4, N4).members == {(1, 1)}

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
        got = {(p.x, p.y) for p in level_curve_set(g, c, topology).members}
        assert got == brute_level_curve(rows, c, topology)

    @given(grid_rows(), st.integers(0, 14), topologies)
    def test_members_satisfy_invariant(self, rows_mv, c, topology):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        for p in level_curve_set(g, c, topology).members:
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
    @settings(max_examples=120)
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

    def test_single_pixel_grid_never_flagged(self):
        g = IntensityGrid.from_rows([[7]], max_value=10)
        for sch in (ThresholdSchedule(1, offset=0), ThresholdSchedule(1, offset=1)):
            assert not detect_pointwise(g, sch, N4).level_count.any()


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
