import dataclasses
import time
import tracemalloc
from contextlib import nullcontext
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import grid_rows, topologies
from hypothesis import given, settings
from reference_trace import (
    chain_pixels,
    reference_contours_to_svg,
    reference_contours_to_text,
    reference_trace_level_contours,
)

from isophote import field
from isophote import (
    Chains,
    IntensityGrid,
    PixelCoord,
    Topology,
    VectorFieldGrid,
    apply_operator,
    contours_to_svg,
    contours_to_text,
    discrete_gradient,
    frame_stack,
    hamiltonian,
    level_curve_set,
    trace_level_contours,
    zero_mask,
)
from isophote.raster import storage_dtype

N4, N8 = Topology.N4, Topology.N8


def ramp_x(w=6, h=5, mv=None):
    vals = np.tile(np.arange(w, dtype=np.int64), (h, 1))
    return IntensityGrid(vals, mv if mv is not None else w - 1)


def block_grid():
    vals = np.zeros((5, 5), dtype=np.int64)
    vals[1:4, 1:4] = 9
    return IntensityGrid(vals, 9)


class TestHamiltonian:
    def test_constant_grid_zero_field(self):
        g = IntensityGrid(np.full((4, 4), 7, dtype=np.int64), 10)
        f = hamiltonian(g)
        assert not f.hx.any() and not f.hy.any()

    def test_ramp_in_x(self):
        f = hamiltonian(ramp_x())
        assert (f.hx[1:-1, 1:-1] == 0).all()
        assert (f.hy[1:-1, 1:-1] == 2).all()

    def test_diagonal_ramp_parallel_field(self):
        yy, xx = np.mgrid[0:5, 0:6]
        g = IntensityGrid(xx + yy, 9)
        f = hamiltonian(g)
        assert (f.hx[1:-1, 1:-1] == -2).all()
        assert (f.hy[1:-1, 1:-1] == 2).all()
        # every vector is collinear with every other one
        cross = f.hx * np.roll(f.hy, 1) - f.hy * np.roll(f.hx, 1)
        assert not cross[1:-1, 1:-1].any()

    @given(st.integers(0, 3), st.integers(0, 3))
    def test_affine_grid_matches_analytic_derivatives(self, a, b):
        yy, xx = np.mgrid[0:6, 0:7]
        g = IntensityGrid(a * xx + b * yy, int((a + b) * 8 + 1))
        f = hamiltonian(g)
        assert (f.hx[1:-1, 1:-1] == -2 * b).all()
        assert (f.hy[1:-1, 1:-1] == 2 * a).all()

    @given(grid_rows())
    def test_orthogonal_to_gradient_exactly(self, rows_mv):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        gx, gy = discrete_gradient(g)
        f = hamiltonian(g)
        assert not (f.hx * gx + f.hy * gy).any()

    def test_vector_at(self):
        f = hamiltonian(ramp_x())
        assert (f.hx[2, 2], f.hy[2, 2]) == (0, 2)  # (x, y) = (2, 2)


class TestZeroMask:
    def test_constant_grid_all_zero(self):
        g = IntensityGrid(np.full((3, 4), 5, dtype=np.int64), 9)
        assert zero_mask(hamiltonian(g), 0).all()

    def test_ramp_has_no_zeros(self):
        mask = zero_mask(hamiltonian(ramp_x()), 0)
        assert not mask.any()

    def test_radial_blob_center_is_zero(self):
        yy, xx = np.mgrid[0:7, 0:7]
        vals = np.maximum(0, 20 - (xx - 3) ** 2 - (yy - 3) ** 2)
        g = IntensityGrid(vals, 20)
        mask = zero_mask(hamiltonian(g), 0)
        assert mask[3, 3]
        assert not mask[3, 2] and not mask[2, 3]

    def test_tolerance_widens_the_mask(self):
        f = hamiltonian(ramp_x())
        assert zero_mask(f, 2).all()

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            zero_mask(hamiltonian(ramp_x()), -1)


@st.composite
def field_grids(draw):
    """A grid: thin shapes included; 8-bit, 16-bit or int64 storage, or the result of dx."""
    h, w = draw(st.one_of(
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        st.sampled_from([(1, 1)]),
        st.tuples(st.just(1), st.integers(2, 9)),
        st.tuples(st.integers(2, 9), st.just(1)),
    ))
    mv = draw(st.sampled_from([255, 65535, 2**40]))
    value = st.one_of(st.integers(0, mv), st.sampled_from([0, 1, mv - 1, mv]))
    rows = draw(st.lists(st.lists(value, min_size=w, max_size=w), min_size=h, max_size=h))
    grid = IntensityGrid(np.array(rows, dtype=np.int64), mv)
    if draw(st.booleans()):
        grid = apply_operator(grid, "dx")  # max_value 510, 131070 or 2**41
    return grid


class TestWholeImageField:
    @given(field_grids(), st.integers(0, 4))
    @settings(max_examples=200)
    def test_zero_mask_equals_int64_arithmetic(self, grid, tolerance):
        gx, gy = (g.astype(np.int64) for g in discrete_gradient(grid))
        expect = np.abs(gx) + np.abs(gy) <= tolerance
        assert np.array_equal(zero_mask(hamiltonian(grid), tolerance), expect)

    @given(field_grids())
    @settings(max_examples=50)
    def test_components_are_read_only_and_built_once(self, grid):
        f = hamiltonian(grid)
        gx, gy = discrete_gradient(grid)
        assert (f.width, f.height, f.shape) == (grid.width, grid.height, grid.values.shape)
        assert np.array_equal(f.hx, -gy) and np.array_equal(f.hy, gx)
        assert f.hx is f.hx and f.hy is f.hy
        assert not f.hx.flags.writeable and not f.hy.flags.writeable

    @pytest.mark.parametrize("function", [hamiltonian, discrete_gradient, VectorFieldGrid])
    def test_a_frame_stack_is_refused(self, function):
        # differences along t and y would leave gx all 0 and every pixel a zero of the field
        stack = frame_stack([ramp_x(6, 5), ramp_x(6, 5)])
        with pytest.raises(ValueError, match=r"2-D grid, got values of shape \(2, 5, 6\)"):
            function(stack)

    @pytest.mark.parametrize("max_value", [255, 65535])
    def test_zero_filter_memory_is_two_bytes_per_pixel(self, max_value):
        # four-level noise, so that the field vanishes at some pixels and not at others
        levels = np.array([0, 1, max_value - 1, max_value], dtype=storage_dtype(max_value))
        values = np.random.default_rng(5).choice(levels, size=(512, 512))
        grid = IntensityGrid(values, max_value)
        tracemalloc.start()
        try:
            field = hamiltonian(grid)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            zero = zero_mask(field, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert zero.any() and not zero.all()
        assert built < 1 << 14  # nothing image-sized: the image alone is 256 KiB at one byte a pixel
        assert peak <= 2 * values.size + (1 << 16)


class TestUnsignedStorage:
    """uint8 storage must not leak into differences: results equal int64 arithmetic."""

    @staticmethod
    def descending_ramp():
        yy, xx = np.mgrid[0:10, 0:9]
        return np.maximum(0, 255 - 40 * xx - 30 * yy)  # steps down, flat zero corner

    def test_apply_operator_matches_int64(self):
        v = self.descending_ramp()
        g = IntensityGrid(v.astype(np.uint8), 255)
        assert g.values.dtype == np.uint8
        for op, axis in (("dx", 1), ("dy", 0)):
            d = np.diff(v, axis=axis)
            expect = np.concatenate([d, d.take([-1], axis=axis)], axis=axis) + 255
            assert np.array_equal(apply_operator(g, op).values, expect)

    def test_field_and_zero_mask_match_int64(self):
        v = self.descending_ramp()
        g = IntensityGrid(v.astype(np.uint8), 255)
        # np.gradient: central differences inside, one-sided at the borders
        gx, gy = 2 * np.gradient(v, axis=1), 2 * np.gradient(v, axis=0)
        got_gx, got_gy = discrete_gradient(g)
        assert np.array_equal(got_gx, gx) and np.array_equal(got_gy, gy)
        f = hamiltonian(g)
        assert np.array_equal(f.hx, -gy) and np.array_equal(f.hy, gx)
        for tolerance in (0, 2, 80, 140):
            expect = np.abs(gy) + np.abs(gx) <= tolerance
            assert np.array_equal(zero_mask(f, tolerance), expect)
        assert zero_mask(f, 0).any() and not zero_mask(f, 0).all()


class TestApplyOperator:
    def test_identity(self):
        g = ramp_x()
        assert apply_operator(g, "identity") is g

    def test_dx_constant_grid_is_bias(self):
        g = IntensityGrid(np.full((3, 4), 9, dtype=np.int64), 12)
        out = apply_operator(g, "dx")
        assert (out.values == 12).all()
        assert out.max_value == 24

    def test_dx_ramp(self):
        out = apply_operator(ramp_x(w=5, h=3, mv=4), "dx")
        assert (out.values == 5).all()  # slope 1 on top of bias 4
        assert out.max_value == 8

    def test_dy_transposes_dx(self):
        rng = np.random.default_rng(7)
        vals = rng.integers(0, 10, size=(4, 6))
        g = IntensityGrid(vals, 9)
        gt = IntensityGrid(vals.T.copy(), 9)
        assert np.array_equal(apply_operator(g, "dy").values, apply_operator(gt, "dx").values.T)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            apply_operator(ramp_x(), "laplace")

    def test_output_feeds_back_into_grids(self):
        out = apply_operator(ramp_x(), "dx")
        assert 0 <= out.values.min() and out.values.max() <= out.max_value


class TestTraceLevelContours:
    def test_block_yields_one_closed_ring(self):
        chains = trace_level_contours(block_grid(), 5, N4)
        assert len(chains) == 1 and chains.closed.tolist() == [True]
        assert chain_pixels(chains) == [[(1, 1), (2, 1), (3, 1), (3, 2), (3, 3), (2, 3), (1, 3), (1, 2)]]

    def test_constant_grid_has_no_contours(self):
        g = IntensityGrid(np.full((4, 4), 3, dtype=np.int64), 9)
        assert len(trace_level_contours(g, 2, N4)) == 0

    def test_two_blocks_give_two_contours(self):
        vals = np.zeros((5, 9), dtype=np.int64)
        vals[1:4, 1:4] = 9
        vals[1:4, 5:8] = 9
        g = IntensityGrid(vals, 9)
        chains = trace_level_contours(g, 5, N4)
        assert len(chains) == 2 and chains.closed.all()

    def test_border_touching_contour_is_open(self):
        vals = np.zeros((5, 5), dtype=np.int64)
        vals[0:3, 0:3] = 9
        g = IntensityGrid(vals, 9)
        chains = trace_level_contours(g, 5, N4)
        assert chains and not chains.closed.any()

    def test_temporal_topology_rejected(self):
        with pytest.raises(ValueError):
            trace_level_contours(block_grid(), 5, Topology.N4T)

    @given(grid_rows(), st.integers(0, 13), topologies)
    def test_chains_partition_the_level_curve_set(self, rows_mv, c, topology):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        chains = trace_level_contours(g, c, topology)
        expected = {(x, y) for y, x in np.argwhere(level_curve_set(g, c, topology).mask).tolist()}
        seen = list(zip(chains.x.tolist(), chains.y.tolist()))
        assert len(seen) == len(set(seen))  # pairwise disjoint, no repeats
        assert set(seen) == expected

    @given(grid_rows(), st.integers(0, 13), topologies)
    def test_chain_steps_are_adjacent(self, rows_mv, c, topology):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        offsets = set(topology.spatial_offsets)
        chains = trace_level_contours(g, c, topology)
        for pts, closed in zip(chain_pixels(chains), chains.closed.tolist()):
            for (ax, ay), (bx, by) in zip(pts, pts[1:]):
                assert (bx - ax, by - ay) in offsets
            if closed and len(pts) > 1:
                assert (pts[0][0] - pts[-1][0], pts[0][1] - pts[-1][1]) in offsets
                assert all(0 < x < g.width - 1 and 0 < y < g.height - 1 for x, y in pts)


@st.composite
def trace_grids(draw):
    """Grids of a few levels, so components grow large; single rows and columns included."""
    shape = draw(st.sampled_from(["row", "column", "block"]))
    if shape == "block":
        h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    else:
        n = draw(st.integers(1, 30))
        h, w = (1, n) if shape == "row" else (n, 1)
    values = draw(st.lists(st.integers(0, 3), min_size=h * w, max_size=h * w))
    return IntensityGrid(np.array(values, dtype=np.int64).reshape(h, w), 3)


def seeded_noise(side, seed=7):
    return IntensityGrid(np.random.default_rng(seed).integers(0, 256, size=(side, side)), 255)


def traced_shape(shape, side, seed=3):
    """A side x side 8-bit grid: one-pixel stripes, concentric 4-pixel rings, or 16-pixel random blocks."""
    if shape == "stripes":
        values = np.zeros((side, side), dtype=np.int64)
        values[:, 1:-1:3] = 255
    elif shape == "rings":
        yy, xx = np.mgrid[0:side, 0:side]
        values = (np.hypot(yy - side / 2, xx - side / 2) // 4 % 2 * 255).astype(np.int64)
    else:
        small = np.random.default_rng(seed).integers(0, 256, size=(-(-side // 16),) * 2)
        values = np.repeat(np.repeat(small, 16, axis=0), 16, axis=1)[:side, :side]
    return IntensityGrid(values, 255)


def assert_same_chains(got, want):
    """got and want hold the same chains: equal arrays of equal dtypes, and the same length."""
    assert isinstance(got, Chains) and len(got) == len(want)
    for name in ("x", "y", "ends", "closed"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_exports_match(got, want, w, h):
    """Both exports of the traced got equal the reference exporters on the chains want."""
    assert contours_to_svg(got, w, h) == reference_contours_to_svg(want, w, h)
    assert contours_to_text(got) == reference_contours_to_text(want)


# The split rule sends the components of small grids to the sequential
# walker, so the tests below force each walker in turn on every component.
WALKERS = {
    "lockstep": lambda sizes: int(sizes.max(initial=0)),
    "sequential": lambda sizes: 0,
}


def walked_by(walker):
    """A context in which trace_level_contours walks every component with the named
    walker, or splits them by its rule when walker is None."""
    return nullcontext() if walker is None else mock.patch.object(field, "_lockstep_size", WALKERS[walker])


class TestTraceMatchesReference:
    """The flat-index tracer returns what the set-based reference tracer returns, with either walker."""

    @pytest.mark.parametrize("walker", WALKERS)
    @given(grid=trace_grids(), c=st.integers(0, 4), topology=topologies)
    def test_random_grids(self, walker, grid, c, topology):
        with walked_by(walker):
            got = trace_level_contours(grid, c, topology)
        want = reference_trace_level_contours(grid, c, topology)
        assert_same_chains(got, want)
        assert_exports_match(got, want, grid.width, grid.height)

    @pytest.mark.parametrize(
        "rows",
        [
            [[9]],  # no level curve at all
            [[0, 9, 0, 9, 0]],  # single row of single-pixel chains on the border
            [[0], [9], [9], [0], [9]],  # single column
            [[0, 0, 0, 0, 0], [0, 9, 0, 9, 0], [0, 0, 0, 0, 0]],  # interior single pixels
            [[9, 9, 9, 0], [9, 0, 9, 0], [9, 9, 9, 0], [0, 0, 0, 0]],  # ring on the border
            [[0, 0, 0, 0, 0], [0, 9, 9, 9, 0], [0, 9, 0, 9, 0], [0, 9, 9, 9, 0], [0, 0, 0, 0, 0]],
        ],
    )
    @pytest.mark.parametrize("topology", [N4, N8])
    @pytest.mark.parametrize("walker", WALKERS)
    def test_small_cases(self, rows, topology, walker):
        grid = IntensityGrid.from_rows(rows, 9)
        with walked_by(walker):
            got = trace_level_contours(grid, 5, topology)
        assert_same_chains(got, reference_trace_level_contours(grid, 5, topology))

    @pytest.mark.parametrize("topology", [N4, N8])
    @pytest.mark.parametrize("walker", [None, *WALKERS])
    def test_seeded_noise(self, topology, walker):
        # under the rule, N4 walks most of its components in lockstep and N8 none
        grid = seeded_noise(128)
        with walked_by(walker):
            got = trace_level_contours(grid, 128, topology)
        want = reference_trace_level_contours(grid, 128, topology)
        assert_same_chains(got, want)
        assert_exports_match(got, want, grid.width, grid.height)
        lengths = np.diff(got.ends, prepend=0)
        assert (lengths == 1).any() and (lengths > 20).any()

    @pytest.mark.parametrize("shape", ["stripes", "rings", "blocks"])
    @pytest.mark.parametrize("topology", [N4, N8])
    @pytest.mark.parametrize("walker", [None, *WALKERS])
    def test_shapes(self, shape, topology, walker):
        grid = traced_shape(shape, 96)
        with walked_by(walker):
            got = trace_level_contours(grid, 128, topology)
        want = reference_trace_level_contours(grid, 128, topology)
        assert_same_chains(got, want)
        assert_exports_match(got, want, grid.width, grid.height)

    def test_n8_noise_is_not_quadratic(self):
        # N8 joins noise into one large component of thousands of chains, so a
        # tracer that scans the component for each chain start is quadratic here
        small = seeded_noise(64)
        assert_same_chains(trace_level_contours(small, 128, N8), reference_trace_level_contours(small, 128, N8))
        grid = seeded_noise(256)
        start = time.perf_counter()
        chains = trace_level_contours(grid, 128, N8)
        assert time.perf_counter() - start < 5.0
        assert len(chains.x) == level_curve_set(grid, 128, N8).mask.sum()


class TestLockstepSplit:
    """The split rule on component-size profiles. The lockstep makes as many passes as
    the largest component it walks has pixels, so the size the rule returns counts them."""

    @staticmethod
    def passes(sizes):
        return field._lockstep_size(np.array(sizes, dtype=np.intp))

    @staticmethod
    def within_bound(sizes, passes):
        # the passes never cost more than the lockstep saves on the pixels it walks
        sizes = np.array(sizes)
        return passes * field._PASS_COST <= sizes[sizes <= passes].sum()

    def test_one_giant_component_walks_sequentially(self):
        # N8 noise: one component of most pixels and a few hundred small ones
        sizes = [128524] + [1, 2, 3, 4] * 250
        passes = self.passes(sizes)
        assert passes < 128524 and self.within_bound(sizes, passes)
        assert self.passes([128524]) == 0

    def test_many_small_components_all_go_lockstep(self):
        sizes = np.arange(28000) % 147 + 1
        assert self.passes(sizes) == 147

    def test_rings_profile_stays_within_its_pass_bound(self):
        # concentric rings: two boundaries per ring, each growing with its radius
        sizes = np.repeat(32 * np.arange(1, 129), 2)
        passes = self.passes(sizes)
        assert passes <= 64 and self.within_bound(sizes, passes)

    @pytest.mark.parametrize("sizes", [[], [1], [5, 5, 5], [1000] * 100, list(range(1, 400))])
    def test_a_split_is_a_component_size_or_zero(self, sizes):
        passes = self.passes(sizes)
        assert passes == 0 or passes in sizes
        assert self.within_bound(sizes, passes)


class TestChainSequence:
    """The traced result is a frozen record of flat arrays."""

    def test_empty_result_has_no_chains(self):
        grid = IntensityGrid(np.zeros((3, 4), dtype=np.int64), 9)
        got = trace_level_contours(grid, 5, N4)
        assert_same_chains(got, reference_trace_level_contours(grid, 5, N4))
        assert not got and got.x.size == got.y.size == 0
        assert contours_to_text(got) == ""
        assert contours_to_svg(got, 4, 3) == reference_contours_to_svg(got, 4, 3)

    def test_iterating_builds_one_contour_per_chain(self):
        # iteration remains only for callers that count each Contour's pixels
        vals = np.zeros((5, 9), dtype=np.int64)
        vals[1:4, 1:4] = 9
        vals[0:3, 7] = 9
        got = trace_level_contours(IntensityGrid(vals, 9), 5, N4)
        contours = list(got)
        assert [c.closed for c in contours] == got.closed.tolist() == [False, True]
        assert [list(c.pixels) for c in contours] == chain_pixels(got)
        assert all(type(p) is PixelCoord for c in contours for p in c.pixels)

    def test_arrays_are_read_only(self):
        got = trace_level_contours(block_grid(), 5, N4)
        for a in (got.x, got.y, got.ends, got.closed):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]

    def test_record_is_frozen(self):
        got = trace_level_contours(block_grid(), 5, N4)
        for name in ("x", "y", "ends", "closed"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, name, getattr(got, name).copy())

    @given(grid_rows(), st.integers(0, 13), topologies)
    def test_length_and_pixels_count_the_level_curve_set(self, rows_mv, c, topology):
        # what a caller that only counts reads: len() and the pixels of each chain
        rows, mv = rows_mv
        grid = IntensityGrid.from_rows(rows, mv)
        chains = trace_level_contours(grid, c, topology)
        assert len(chains) == len(list(chains))
        members = level_curve_set(grid, c, topology).mask.sum()
        assert sum(len(c.pixels) for c in chains) == len(chains.x) == members


@st.composite
def traced_cases(draw):
    """Traces of non-square grids of up to 4096 pixels, with coordinates on their edges and up to 4095."""
    shape = draw(st.sampled_from(["row", "column", "block"]))
    if shape == "block":
        h, w = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    else:
        n = draw(st.one_of(st.just(4096), st.integers(1, 4096)))
        h, w = (1, n) if shape == "row" else (n, 1)
    # a few bright pixels at chosen places, among sparse or dense noise
    density = draw(st.sampled_from([0.0, 0.01, 0.5]))
    seed = draw(st.integers(0, 2**16))
    values = np.where(np.random.default_rng(seed).random((h, w)) < density, 3, 0)
    for i in draw(st.lists(st.integers(0, h * w - 1), max_size=6)):
        values.flat[i] = draw(st.integers(1, 3))
    grid = IntensityGrid(values, 3)
    return grid, draw(st.integers(1, 3)), draw(topologies)


class TestExports:
    @given(traced_cases())
    @settings(deadline=None)
    def test_match_per_point_formulas(self, case):
        grid, c, topology = case
        got = trace_level_contours(grid, c, topology)
        assert_exports_match(got, got, grid.width, grid.height)

    def test_svg_golden(self):
        contours = trace_level_contours(block_grid(), 5, N4)
        svg = contours_to_svg(contours, 5, 5)
        assert svg == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="5" height="5" viewBox="0 0 5 5">\n'
            '<polygon points="1.5,1.5 2.5,1.5 3.5,1.5 3.5,2.5 3.5,3.5 2.5,3.5 1.5,3.5 1.5,2.5"'
            ' fill="none" stroke="black" stroke-width="0.25"/>\n'
            "</svg>\n"
        )

    def test_text_golden(self):
        contours = trace_level_contours(block_grid(), 5, N4)
        assert contours_to_text(contours) == "1,1 2,1 3,1 3,2 3,3 2,3 1,3 1,2 Z\n"

    def test_text_empty(self):
        assert contours_to_text(trace_level_contours(block_grid(), 10, N4)) == ""

    def test_empty_list(self):
        got = trace_level_contours(IntensityGrid.from_rows([[0, 0, 0], [0, 0, 0]], 9), 5, N4)
        assert contours_to_svg(got, 3, 2) == reference_contours_to_svg(got, 3, 2) == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="3" height="2" viewBox="0 0 3 2">\n</svg>\n'
        )

    @pytest.mark.parametrize(
        "closed", [(False,), (True,), (True, False), (False, True, True), (True, True, False, False)]
    )
    @pytest.mark.parametrize("walker", WALKERS)
    def test_open_and_closed_chains_in_each_order(self, closed, walker):
        # closed rings of 3x3 blocks and open 1x3 bars side by side, so the
        # heads and tails of both kinds fall at the start, between and at the end
        vals = np.zeros((5, 4 * len(closed) + 1), dtype=np.int64)
        for i, ring in enumerate(closed):
            x = 1 + 4 * i
            vals[1 : 4 if ring else 2, x : x + 3] = 9
        grid = IntensityGrid(vals, 9)
        for topology in (N4, N8):
            with walked_by(walker):
                got = trace_level_contours(grid, 5, topology)
            want = reference_trace_level_contours(grid, 5, topology)
            assert got.closed.tolist() == list(closed)
            assert_same_chains(got, want)
            assert_exports_match(got, want, grid.width, grid.height)
            assert contours_to_text(got).count(" Z\n") == sum(closed)

    def test_large_coordinates_keep_the_g_rounding(self):
        # a row and a column of 100003 pixels, bright at 99999 and 100001
        row = np.zeros((1, 100003), dtype=np.int64)
        row[0, [99999, 100001]] = 9
        for values, text, svg_points in (
            (row, "99999,0\n100001,0\n", ("99999.5,0.5", "100002,0.5")),
            (row.T, "0,99999\n0,100001\n", ("0.5,99999.5", "0.5,100002")),
        ):
            contours = trace_level_contours(IntensityGrid(values, 9), 5, N4)
            h, w = values.shape
            assert contours_to_text(contours) == text
            svg = contours_to_svg(contours, w, h)
            assert all(f'<polyline points="{p}" ' in svg for p in svg_points)
            assert_exports_match(contours, contours, w, h)

    def test_sparse_coordinates_take_the_table_of_distinct_values(self):
        # a few values spread over a wide range take the table of distinct values
        row = np.zeros((1, 100003), dtype=np.int64)
        row[0, [0, 7, 50000, 100002]] = 9
        contours = trace_level_contours(IntensityGrid(row, 9), 5, N4)
        table, _ = field._cells(contours.x, str)
        assert len(table) == 4
        assert_exports_match(contours, contours, 100003, 1)
