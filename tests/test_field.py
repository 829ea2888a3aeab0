import gc
import time

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import grid_rows, topologies
from hypothesis import given, settings
from reference_trace import (
    reference_contours_to_svg,
    reference_contours_to_text,
    reference_trace_level_contours,
)

from isophote import field
from isophote import (
    Contour,
    IntensityGrid,
    PixelCoord,
    Topology,
    VectorFieldGrid,
    apply_operator,
    contours_to_svg,
    contours_to_text,
    discrete_gradient,
    hamiltonian,
    level_curve_set,
    trace_level_contours,
    zero_mask,
)

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
def supported_fields(draw):
    """A grid (thin shapes included; 8-bit, 16-bit or after dx) and a random mask of its shape."""
    h, w = draw(st.one_of(
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        st.sampled_from([(1, 1)]),
        st.tuples(st.just(1), st.integers(2, 9)),
        st.tuples(st.integers(2, 9), st.just(1)),
    ))
    mv = draw(st.sampled_from([255, 65535]))
    value = st.one_of(st.integers(0, mv), st.sampled_from([0, 1, mv - 1, mv]))
    rows = draw(st.lists(st.lists(value, min_size=w, max_size=w), min_size=h, max_size=h))
    grid = IntensityGrid(np.array(rows), mv)
    if draw(st.booleans()):
        grid = apply_operator(grid, "dx")  # max_value 510 or 131070
    bits = st.lists(st.lists(st.booleans(), min_size=w, max_size=w), min_size=h, max_size=h)
    return grid, np.array(draw(bits), dtype=bool)


class TestSupport:
    """hamiltonian(grid, where=mask) is the whole-image field at the mask's pixels."""

    @given(supported_fields(), st.sampled_from([0, 1, 7]))
    @settings(max_examples=200)
    def test_equals_the_whole_image_field_at_the_mask(self, case, tolerance):
        grid, mask = case
        whole, part = hamiltonian(grid), hamiltonian(grid, where=mask)
        assert np.array_equal(part.hx, whole.hx[mask]) and np.array_equal(part.hy, whole.hy[mask])
        assert (part.width, part.height) == (grid.width, grid.height)
        expect = mask & zero_mask(whole, tolerance)
        assert np.array_equal(zero_mask(part, tolerance), expect)

    def test_mask_of_another_shape_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian(ramp_x(6, 5), where=np.ones((6, 5), dtype=bool))

    @given(supported_fields())
    @settings(max_examples=50)
    def test_index_lists_the_supported_pixels(self, case):
        grid, mask = case
        part = hamiltonian(grid, where=mask)
        assert np.array_equal(part.index, np.flatnonzero(mask))
        rebuilt = VectorFieldGrid(part.hx, part.hy, mask)  # the index found from the support
        assert np.array_equal(rebuilt.index, part.index)
        assert np.array_equal(zero_mask(rebuilt), zero_mask(part))

    def test_index_must_match_the_support(self):
        mask = np.array([[True, False, True]])
        hx = np.zeros(2, dtype=np.int32)
        with pytest.raises(ValueError, match="one value per supported pixel"):
            VectorFieldGrid(hx, hx, mask, np.array([0]))
        with pytest.raises(ValueError, match="support"):
            VectorFieldGrid(hx, hx, None, np.array([0, 2]))
        assert hamiltonian(ramp_x()).index is None


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
        contours = trace_level_contours(block_grid(), 5, N4)
        assert len(contours) == 1
        contour = contours[0]
        assert contour.closed
        assert contour.pixels == (
            PixelCoord(1, 1), PixelCoord(2, 1), PixelCoord(3, 1), PixelCoord(3, 2),
            PixelCoord(3, 3), PixelCoord(2, 3), PixelCoord(1, 3), PixelCoord(1, 2),
        )

    def test_constant_grid_has_no_contours(self):
        g = IntensityGrid(np.full((4, 4), 3, dtype=np.int64), 9)
        assert trace_level_contours(g, 2, N4) == []

    def test_two_blocks_give_two_contours(self):
        vals = np.zeros((5, 9), dtype=np.int64)
        vals[1:4, 1:4] = 9
        vals[1:4, 5:8] = 9
        g = IntensityGrid(vals, 9)
        contours = trace_level_contours(g, 5, N4)
        assert len(contours) == 2
        assert all(c.closed for c in contours)

    def test_border_touching_contour_is_open(self):
        vals = np.zeros((5, 5), dtype=np.int64)
        vals[0:3, 0:3] = 9
        g = IntensityGrid(vals, 9)
        contours = trace_level_contours(g, 5, N4)
        assert contours and all(not c.closed for c in contours)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_paused_while_contours_are_built(self, enabled, monkeypatch):
        states = []

        class Recording(Contour):
            def __init__(self, *args):
                states.append(gc.isenabled())
                super().__init__(*args)

        monkeypatch.setattr(field, "Contour", Recording)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            # the result builds its Contour objects when it is iterated
            contours = list(trace_level_contours(block_grid(), 5, N4))
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert len(contours) == len(states) == 1 and states == [False]

    def test_temporal_topology_rejected(self):
        with pytest.raises(ValueError):
            trace_level_contours(block_grid(), 5, Topology.N4T)

    @given(grid_rows(), st.integers(0, 13), topologies)
    def test_chains_partition_the_level_curve_set(self, rows_mv, c, topology):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        contours = trace_level_contours(g, c, topology)
        expected = {(p.x, p.y) for p in level_curve_set(g, c, topology).members}
        seen = []
        for contour in contours:
            seen.extend((p.x, p.y) for p in contour.pixels)
        assert len(seen) == len(set(seen))  # pairwise disjoint, no repeats
        assert set(seen) == expected

    @given(grid_rows(), st.integers(0, 13), topologies)
    def test_chain_steps_are_adjacent(self, rows_mv, c, topology):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
        offsets = set(topology.spatial_offsets)
        for contour in trace_level_contours(g, c, topology):
            pts = contour.pixels
            for a, b in zip(pts, pts[1:]):
                assert (b.x - a.x, b.y - a.y) in offsets
            if contour.closed and len(pts) > 1:
                assert (pts[0].x - pts[-1].x, pts[0].y - pts[-1].y) in offsets
                assert all(
                    0 < p.x < g.width - 1 and 0 < p.y < g.height - 1 for p in pts
                )


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


def assert_behaves_as_list(got, want):
    """got acts as the list want under ==, len, indexing, slicing and repeated iteration."""
    assert got == want and want == got and not got != want
    assert len(got) == len(want)
    for i in range(-len(want), len(want)):
        assert got[i] == want[i]
    for index in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            got[index]
    for sl in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1), slice(1, None, 2), slice(-2, None)):
        assert got[sl] == want[sl]
    assert list(got) == want and list(got) == want
    assert [c for c in got] == want
    if want:
        assert got != want[:-1] and got != want + want[:1]


def assert_exports_match(got, want, w, h):
    """Both exports of got equal the reference exporters on want, and the exports of list(got)."""
    svg, text = reference_contours_to_svg(want, w, h), reference_contours_to_text(want)
    assert contours_to_svg(got, w, h) == svg == contours_to_svg(list(got), w, h)
    assert contours_to_text(got) == text == contours_to_text(list(got))


class TestTraceMatchesReference:
    """The flat-index tracer returns what the set-based reference tracer returns."""

    @given(trace_grids(), st.integers(0, 4), topologies)
    def test_random_grids(self, grid, c, topology):
        got = trace_level_contours(grid, c, topology)
        want = reference_trace_level_contours(grid, c, topology)
        assert_behaves_as_list(got, want)
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
    def test_small_cases(self, rows, topology):
        grid = IntensityGrid.from_rows(rows, 9)
        got = trace_level_contours(grid, 5, topology)
        assert got == reference_trace_level_contours(grid, 5, topology)

    @pytest.mark.parametrize("topology", [N4, N8])
    def test_seeded_noise(self, topology):
        grid = seeded_noise(128)
        got = trace_level_contours(grid, 128, topology)
        want = reference_trace_level_contours(grid, 128, topology)
        assert_behaves_as_list(got, want)
        assert_exports_match(got, want, grid.width, grid.height)
        assert any(len(c.pixels) == 1 for c in got) and any(len(c.pixels) > 20 for c in got)

    def test_n8_noise_is_not_quadratic(self):
        # N8 joins noise into one large component of thousands of chains, so a
        # tracer that scans the component for each chain start is quadratic here
        small = seeded_noise(64)
        assert trace_level_contours(small, 128, N8) == reference_trace_level_contours(small, 128, N8)
        grid = seeded_noise(256)
        start = time.perf_counter()
        contours = trace_level_contours(grid, 128, N8)
        assert time.perf_counter() - start < 5.0
        assert sum(len(c.pixels) for c in contours) == level_curve_set(grid, 128, N8).mask.sum()


class TestChainSequence:
    """The traced result is a sequence of Contour that builds each one on access."""

    def test_empty_result_behaves_as_an_empty_list(self):
        got = trace_level_contours(IntensityGrid(np.zeros((3, 4), dtype=np.int64), 9), 5, N4)
        assert_behaves_as_list(got, [])
        assert not got
        assert contours_to_text(got) == ""
        assert contours_to_svg(got, 4, 3) == reference_contours_to_svg([], 4, 3)

    def test_contours_are_built_only_on_access(self, monkeypatch):
        built = []

        class Recording(Contour):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(field, "Contour", Recording)
        vals = np.zeros((5, 9), dtype=np.int64)
        vals[1:4, 1:4] = 9
        vals[1:4, 5:8] = 9
        got = trace_level_contours(IntensityGrid(vals, 9), 5, N4)
        assert len(got) == 2
        contours_to_svg(got, 9, 5), contours_to_text(got)
        assert built == []
        assert got[-1].pixels[0] == PixelCoord(5, 1) and len(built) == 1

    def test_result_is_read_only(self):
        got = trace_level_contours(block_grid(), 5, N4)
        with pytest.raises(TypeError):
            got[0] = got[0]
        with pytest.raises(TypeError):
            del got[0]


@st.composite
def contour_lists(draw):
    """Random contours on a non-square image, with coordinates on its edges and up to 4095."""
    w = draw(st.one_of(st.just(4096), st.integers(1, 4096)))
    h = draw(st.one_of(st.just(4096), st.integers(1, 4096)).filter(lambda v: v != w))
    xs = st.one_of(st.sampled_from([0, w - 1]), st.integers(0, w - 1))
    ys = st.one_of(st.sampled_from([0, h - 1]), st.integers(0, h - 1))
    pixels = st.lists(st.builds(PixelCoord, xs, ys), max_size=12).map(tuple)
    return draw(st.lists(st.builds(Contour, pixels, st.booleans()), max_size=6)), w, h


class TestExports:
    @given(contour_lists())
    def test_match_per_point_formulas(self, case):
        contours, w, h = case
        assert contours_to_svg(contours, w, h) == reference_contours_to_svg(contours, w, h)
        assert contours_to_text(contours) == reference_contours_to_text(contours)

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
        assert contours_to_text([]) == ""

    def test_empty_list(self):
        assert contours_to_svg([], 3, 2) == reference_contours_to_svg([], 3, 2) == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="3" height="2" viewBox="0 0 3 2">\n</svg>\n'
        )

    @pytest.mark.parametrize(
        "closed", [(False,), (True,), (True, False), (False, True, True), (True, True, False, False)]
    )
    def test_contours_without_pixels(self, closed):
        # chains without pixels at the start, between and after chains with pixels
        one = (PixelCoord(1, 2),)
        two = (PixelCoord(3, 4), PixelCoord(5, 6))
        for pixels in ((), one, two):
            contours = [Contour(p, c) for c in closed for p in ((), pixels, ())]
            assert_exports_match(contours, contours, 7, 8)
        assert contours_to_text([Contour((), False), Contour((), True)]) == "\n Z\n"

    def test_large_coordinates_keep_the_g_rounding(self):
        contours = [Contour((PixelCoord(99999, 100000), PixelCoord(100001, 999999)), True)]
        assert contours_to_text(contours) == "99999,100000 100001,999999 Z\n"
        svg = contours_to_svg(contours, 7, 8)
        assert '<polygon points="99999.5,100000 100002,1e+06" ' in svg
        assert svg == reference_contours_to_svg(contours, 7, 8)
        assert_exports_match(contours, contours, 7, 8)

    def test_sparse_and_negative_coordinates(self):
        # a few values spread over a wide range take the table of distinct values
        contours = [
            Contour((PixelCoord(0, -5), PixelCoord(2**40, 3), PixelCoord(-(2**62), 2**62)), False),
            Contour((PixelCoord(7, 7),), True),
        ]
        assert_exports_match(contours, contours, 7, 8)

    @pytest.mark.parametrize("pixel", [(1.5, 2), (1, "2"), (2**64, 1), (1, 2, 3)])
    def test_refuses_pixels_that_are_not_integer_pairs(self, pixel):
        with pytest.raises(TypeError):
            contours_to_text([Contour((PixelCoord(0, 0), pixel), False)])
