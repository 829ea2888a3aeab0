import operator
import re
import tracemalloc
from functools import reduce

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import BRUTE_OFFSETS, grid_rows, topologies
from hypothesis import given

from isophote import (
    FrameStack,
    IntensityGrid,
    PixelCoord,
    StackCoord,
    Topology,
    frame_stack,
    level_curve_set,
    neighbor_any,
    neighbor_min,
    neighbors,
)
from isophote.raster import _freeze_values, adopt


def grid3x3():
    return IntensityGrid([[0, 1, 2], [3, 4, 5], [6, 7, 8]], max_value=8)


class TestIntensityGrid:
    def test_basic_fields(self):
        g = grid3x3()
        assert (g.width, g.height, g.max_value) == (3, 3, 8)
        assert g.value_at((2, 0)) == 2
        assert g.value_at(PixelCoord(0, 2)) == 6

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IntensityGrid([[0, 9]], max_value=8)
        with pytest.raises(ValueError):
            IntensityGrid([[-1, 0]], max_value=8)

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            IntensityGrid(np.array([[0.5, 1.0]]), max_value=8)

    @pytest.mark.parametrize("make, shape", [(IntensityGrid, (2, 3)), (FrameStack, (2, 2, 3))])
    @pytest.mark.parametrize("max_value", [True, 2.0])
    def test_refuses_a_max_value_that_is_not_an_integer(self, make, shape, max_value):
        # a bool would be stored as 0 or 1, a float compared as if it were an integer
        with pytest.raises(ValueError, match=rf"^max_value must be an integer, got {max_value!r}$"):
            make(np.zeros(shape, dtype=np.int64), max_value)

    @pytest.mark.parametrize("make, shape", [(IntensityGrid, (4, 5)), (FrameStack, (2, 4, 5))])
    @pytest.mark.parametrize("layout", [np.asfortranarray, lambda a: a[..., ::-1]])
    def test_values_are_c_contiguous_whatever_the_input_layout(self, make, shape, layout):
        # the flat passes of the folds and of zero_mask would copy the image otherwise
        values = np.arange(np.prod(shape), dtype=np.uint8).reshape(shape)
        g = make(layout(values), 255)
        assert g.values.flags.c_contiguous and np.array_equal(g.values, layout(values))

    @pytest.mark.parametrize("make, shape", [(IntensityGrid, (2, 3)), (FrameStack, (2, 2, 3))])
    def test_refuses_a_negative_max_value(self, make, shape):
        with pytest.raises(ValueError, match="max_value must be a nonnegative integer, got -1"):
            make(np.zeros(shape, dtype=np.int64), -1)

    def test_numpy_integer_max_value_becomes_an_int(self):
        g = IntensityGrid(np.zeros((2, 3), dtype=np.int64), np.uint16(300))
        assert g.max_value == 300 and type(g.max_value) is int

    def test_rejects_empty_and_wrong_rank(self):
        with pytest.raises(ValueError):
            IntensityGrid(np.empty((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            IntensityGrid(np.zeros(5, dtype=np.int64))

    @pytest.mark.parametrize("rows, max_value, dtype", [
        ([[1.5, 2]], 255, "float64"), ([["3", 2]], 255, "<U21"), ([[2**70]], 10**30, "object"),
    ], ids=["float", "string", "beyond-uint64"])
    def test_nested_rows_are_not_forced_to_integers(self, rows, max_value, dtype):
        # forcing rows to int64 first would truncate, parse or overflow them
        with pytest.raises(ValueError, match=f"^intensities must be integers, got dtype {re.escape(dtype)}$"):
            IntensityGrid(rows, max_value)
        with pytest.raises(ValueError, match="^intensities must be integers"):
            IntensityGrid(np.asarray(rows), max_value)

    @pytest.mark.parametrize("rows", [[], [[]]])
    def test_nested_rows_with_no_pixels_are_refused(self, rows):
        with pytest.raises(ValueError, match="^grid must contain at least one pixel$"):
            IntensityGrid(rows)

    def test_refuses_values_its_storage_dtype_cannot_hold(self):
        # above int64 a max_value is stored as int64, which 2**63 would wrap in
        values = np.array([[2**63, 0]], dtype=np.uint64)
        with pytest.raises(ValueError, match=f"^intensities must lie in \\[0, {2**63 - 1}\\] to be stored as int64"):
            IntensityGrid(values, 10**30)
        assert IntensityGrid(values, 2**64 - 1).values.dtype == np.uint64

    def test_immutable(self):
        g = grid3x3()
        with pytest.raises(ValueError):
            g.values[0, 0] = 7

    def test_values_are_a_read_only_copy(self):
        src = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        g = IntensityGrid(src, 255)
        assert not g.values.flags.writeable
        assert not np.shares_memory(g.values, src)
        src[0, 0] = 9
        assert g.value_at((0, 0)) == 1

    @pytest.mark.parametrize(
        "given, max_value, stored",
        [
            (np.uint8, 255, np.uint8),
            (np.uint16, 65535, np.uint16),
            (np.int64, 255, np.int64),  # never widened, never narrowed
            (np.uint8, 256, np.uint16),  # too narrow for max_value
            (np.uint16, 65536, np.int64),
            (bool, 1, np.uint8),
        ],
    )
    def test_values_keep_a_dtype_that_holds_max_value(self, given, max_value, stored):
        g = IntensityGrid(np.array([[0, 1]], dtype=given), max_value)
        assert g.values.dtype == stored
        assert g.values.tolist() == [[0, 1]]


def _scan_rule(values: np.ndarray, max_value: int):
    """The freeze rule written out: (dtype, values) of the frozen array, or the error message.

    Every value is scanned; the array keeps its integer dtype when that
    holds max_value, else it is stored as uint8 up to 255, uint16 up to
    65535 and int64 above, which must hold every value.
    """
    lo, hi = int(values.min()), int(values.max())
    if lo < 0 or hi > max_value:
        return f"intensities must lie in [0, {max_value}], found range [{lo}, {hi}]"
    if values.dtype.kind in "iu" and np.iinfo(values.dtype).max >= max_value:
        dtype = values.dtype
    else:
        dtype = np.dtype(np.uint8 if max_value <= 255 else np.uint16 if max_value <= 65535 else np.int64)
    if hi > np.iinfo(dtype).max:
        return f"intensities must lie in [0, {np.iinfo(dtype).max}] to be stored as {dtype}, found {hi}"
    return dtype, values.tolist()


FREEZE_DTYPES = [np.dtype(t) for t in (bool, np.uint8, np.uint16, np.int16, np.int64, np.uint64)]


@st.composite
def freeze_inputs(draw):
    dtype = draw(st.sampled_from(FREEZE_DTYPES))
    max_value = draw(st.sampled_from([0, 1, 254, 255, 65535, 10**30]))
    if dtype.kind == "b":
        lo, hi = 0, 1
    else:
        lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    edges = sorted({v for v in (lo, -1, 0, 1, 254, 255, 256, 65535, 65536, 2**63 - 1, 2**63, hi) if lo <= v <= hi})
    value = st.one_of(st.sampled_from(edges), st.integers(lo, hi))
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 4)))
    flat = draw(st.lists(value, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return np.array(flat, dtype=dtype).reshape(shape), max_value


class TestFreeze:
    @pytest.mark.parametrize("make, shape", [(IntensityGrid, (2, 3)), (FrameStack, (2, 2, 3))])
    @pytest.mark.parametrize("source", ["writable", "read-only", "read-only-view"])
    def test_a_callers_array_is_copied(self, make, shape, source):
        base = np.arange(np.prod(shape), dtype=np.uint8).reshape(shape)
        given = base
        if source == "read-only":
            given = base.copy()
            given.setflags(write=False)
        elif source == "read-only-view":
            given = base.view()
            given.setflags(write=False)  # base stays writable
        raster = make(given, 255)
        assert not np.shares_memory(raster.values, base) and not np.shares_memory(raster.values, given)
        before = raster.values.copy()
        base += 1
        assert np.array_equal(raster.values, before)
        assert base.flags.writeable

    def test_an_adopted_array_is_frozen_in_place(self):
        values = np.arange(6, dtype=np.uint16).reshape(2, 3)
        grid = IntensityGrid(adopt(values), 65535)
        assert grid.values is values and not values.flags.writeable
        stacked = np.stack([values, values])
        assert FrameStack(adopt(stacked), 65535).values is stacked and not stacked.flags.writeable

    @pytest.mark.parametrize("values, max_value", [
        (np.arange(6, dtype=np.uint8).reshape(2, 3), 256),  # too narrow: stored as uint16
        (np.arange(6, dtype=np.uint16).reshape(3, 2).T, 65535),  # not C-contiguous
    ], ids=["dtype", "layout"])
    def test_an_adopted_array_of_another_dtype_or_layout_is_copied(self, values, max_value):
        grid = IntensityGrid(adopt(values), max_value)
        assert not np.shares_memory(grid.values, values) and grid.values.flags.c_contiguous
        assert grid.values.tolist() == values.tolist()

    def test_frame_stack_keeps_the_stack_it_builds(self):
        frames = [IntensityGrid(np.full((2, 3), t, dtype=np.uint8), 255) for t in range(3)]
        stack = frame_stack(frames)
        assert not stack.values.flags.writeable and stack.values.flags.owndata
        assert not any(np.shares_memory(stack.values, f.values) for f in frames)

    @given(freeze_inputs(), st.booleans())
    def test_freeze_follows_the_scan_rule(self, case, adopted):
        values, max_value = case
        expected = _scan_rule(values, max_value)
        given = adopt(values.copy()) if adopted else values
        try:
            frozen = _freeze_values(given, max_value, 2)
        except ValueError as err:
            assert str(err) == expected
        else:
            assert (frozen.dtype, frozen.tolist()) == expected
            assert not frozen.flags.writeable and frozen.flags.c_contiguous
            assert adopted or not np.shares_memory(frozen, values)


class TestNeighbors:
    def test_corner_clipping_n4(self):
        got = neighbors((0, 0), grid3x3(), Topology.N4)
        assert set(got) == {(1, 0), (0, 1)}

    def test_interior_n4_order(self):
        # documented order: N, W, E, S
        got = neighbors((1, 1), grid3x3(), Topology.N4)
        assert got == [(1, 0), (0, 1), (2, 1), (1, 2)]

    def test_interior_n8(self):
        got = neighbors((1, 1), grid3x3(), Topology.N8)
        assert set(got) == {(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2)}
        assert len(got) == 8

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError):
            neighbors((3, 0), grid3x3(), Topology.N4)
        with pytest.raises(ValueError):
            neighbors((0, -1), grid3x3(), Topology.N8)

    def test_n4t_needs_stack(self):
        with pytest.raises(ValueError):
            neighbors((0, 0), grid3x3(), Topology.N4T)

    @given(grid_rows(), topologies)
    def test_symmetry_and_clipping(self, rows_mv, topology):
        rows, mv = rows_mv
        g = IntensityGrid(rows, mv)
        table = {}
        for y in range(g.height):
            for x in range(g.width):
                got = neighbors((x, y), g, topology)
                assert (x, y) not in got
                assert len(got) == len(set(got))
                assert all(0 <= q.x < g.width and 0 <= q.y < g.height for q in got)
                table[(x, y)] = set(got)
        for p, qs in table.items():
            for q in qs:
                assert p in table[q]


class TestFrameStack:
    def make_frames(self, *planes):
        return [IntensityGrid(np.full((2, 3), v, dtype=np.int64), 10) for v in planes]

    def test_requires_two_frames(self):
        with pytest.raises(ValueError):
            frame_stack(self.make_frames(0))

    def test_constructor_requires_two_frames(self):
        with pytest.raises(ValueError, match="at least two frames"):
            FrameStack(np.zeros((1, 2, 3), dtype=np.int64), 10)

    def test_requires_matching_shape(self):
        a = IntensityGrid(np.zeros((2, 3), dtype=np.int64), 10)
        b = IntensityGrid(np.zeros((3, 2), dtype=np.int64), 10)
        with pytest.raises(ValueError):
            frame_stack([a, b])

    def test_requires_matching_max_value(self):
        a = IntensityGrid(np.zeros((2, 3), dtype=np.int64), 10)
        b = IntensityGrid(np.zeros((2, 3), dtype=np.int64), 11)
        with pytest.raises(ValueError):
            frame_stack([a, b])

    def test_identical_frames_have_zero_temporal_difference(self):
        stack = frame_stack(self.make_frames(4, 4, 4))
        for t in range(stack.frames):
            for y in range(stack.height):
                for x in range(stack.width):
                    for q in neighbors((x, y, t), stack, Topology.N4T):
                        if q.t != t:
                            assert stack.value_at(q) == stack.value_at((x, y, t))

    def test_constant_step_between_frames(self):
        stack = frame_stack(self.make_frames(0, 10))
        for y in range(stack.height):
            for x in range(stack.width):
                temporal = [q for q in neighbors((x, y, 1), stack, Topology.N4T) if q.t == 0]
                assert len(temporal) == 1
                assert stack.value_at((x, y, 1)) - stack.value_at(temporal[0]) == 10

    def test_neighbor_order_with_time(self):
        stack = frame_stack(self.make_frames(0, 1, 2))
        got = neighbors((1, 1, 1), stack, Topology.N4T)
        assert got == [
            StackCoord(1, 0, 1),
            StackCoord(0, 1, 1),
            StackCoord(2, 1, 1),
            StackCoord(1, 1, 0),
            StackCoord(1, 1, 2),
        ]

    def test_frame_roundtrip(self):
        frames = self.make_frames(1, 2)
        stack = frame_stack(frames)
        assert np.array_equal(stack.values[1], frames[1].values)


@st.composite
def rasters(draw):
    """A random grid with N4 or N8, or a 2-3-frame stack with N4, N8 or N4T."""
    frames = draw(st.sampled_from([None, 2, 3]))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    if frames is None:
        make, topologies = IntensityGrid, [Topology.N4, Topology.N8]
    else:
        make, topologies, shape = FrameStack, list(Topology), (frames, *shape)
    n = int(np.prod(shape))
    vals = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    return make(np.array(vals).reshape(shape), 8), draw(st.sampled_from(topologies))


class TestCoordinateRule:
    """(x, y) and (x, y, t) are the reversed array index, for grids and stacks alike."""

    @given(rasters(), st.integers(0, 9))
    def test_coordinates_are_reversed_array_indices(self, raster_topology, c):
        grid, topology = raster_topology
        coord = StackCoord if grid.values.ndim == 3 else PixelCoord
        lcs = level_curve_set(grid, c, topology)
        for idx in np.ndindex(grid.values.shape):
            p = idx[::-1]
            assert grid.value_at(p) == grid.value_at(coord(*p)) == grid.values[idx]
            assert (p in lcs) == bool(lcs.mask[idx])
            for q in neighbors(p, grid, topology):
                assert type(q) is coord and grid.value_at(q) == grid.values[q[::-1]]

    @given(rasters())
    def test_coordinate_errors_keep_their_wording(self, raster_topology):
        grid, topology = raster_topology
        lcs = level_curve_set(grid, 1, topology)
        if grid.values.ndim == 3:
            t, h, w = grid.values.shape
            short, long, need, size = (0, 0), (0, 0, 0, 0), "stack coordinates need (x, y, t)", f"{w}x{h}x{t} stack"
            outside = [(w, 0, 0), (0, h, 0), (0, 0, t), (0, 0, -1)]
        else:
            h, w = grid.values.shape
            short, long, need, size = (0,), (0, 0, 0), "pixel coordinates need (x, y)", f"{w}x{h} grid"
            outside = [(w, 0), (0, h), (-1, 0)]
            with pytest.raises(ValueError, match=r"^N4T topology requires a frame stack$"):
                neighbors((0, 0), grid, Topology.N4T)
        for p in (short, long):
            message = f"{need}, got {p!r}"
            with pytest.raises(ValueError) as err:
                neighbors(p, grid, topology)
            assert str(err.value) == message
            for probe in (grid.value_at, lcs.__contains__):
                with pytest.raises(ValueError):
                    probe(p)
        for p in outside:
            with pytest.raises(ValueError) as err:
                neighbors(p, grid, topology)
            assert str(err.value) == f"{p!r} lies outside a {size}"


# Views whose memory is not C-contiguous, as callers may pass to the folds.
STRIDED_VIEWS = {
    "columns reversed": lambda a: a[..., ::-1],
    "transposed": lambda a: a.swapaxes(-1, -2),
    "every other row": lambda a: a[..., ::2, :],
    "halo rows of a stack": lambda a: a[..., a.shape[-2] // 2:, :],  # every frame's lower rows
}


def assert_neighbor_ops_match_definition(frames, h, w, view, topology, dtype, seed):
    """neighbor_any and neighbor_min of a view of a random array against neighbors(), pixel by pixel.

    The array has shape (h, w), or (frames, h, w) when frames is given, and
    is read-only, as a grid's values are. neighbor_any runs on the view and
    on the same view of a boolean array; neighbor_min's fill is any value.
    """
    rng = np.random.default_rng(seed)
    top = int(min(np.iinfo(dtype).max, 1000))
    base = rng.integers(0, top, size=(h, w) if frames is None else (frames, h, w), dtype=dtype, endpoint=True)
    base.setflags(write=False)
    values, flags = view(base), view(base % 3 == 0)
    fill = int(rng.integers(0, top, endpoint=True))
    got_min, got_any, got_flags = (neighbor_min(values, topology, fill), neighbor_any(values, topology),
                                   neighbor_any(flags, topology))
    assert (got_min.dtype, got_any.dtype, got_flags.dtype) == (values.dtype, values.dtype, np.bool_)
    grid = (IntensityGrid if values.ndim == 2 else FrameStack)(np.array(values), top)
    for index in np.ndindex(values.shape):
        near = [tuple(reversed(q)) for q in neighbors(tuple(reversed(index)), grid, topology)]
        assert got_min[index] == min((values[q] for q in near), default=fill)
        assert got_any[index] == reduce(operator.or_, (values[q] for q in near), 0)
        assert got_flags[index] == any(flags[q] for q in near)


class TestVectorizedHelpers:
    """neighbor_any / neighbor_min must agree with the per-pixel definition."""

    def test_a_topology_needs_the_axes_it_offsets(self):
        with pytest.raises(ValueError, match="N4T topology requires arrays with a frame axis"):
            neighbor_any(np.zeros((3, 3), dtype=bool), Topology.N4T)
        with pytest.raises(ValueError, match="need at least two spatial axes"):
            neighbor_min(np.zeros(4, dtype=np.int64), Topology.N4, 0)

    @given(grid_rows(), topologies, st.integers(0, 12))
    def test_neighbor_any_matches_definition(self, rows_mv, topology, c):
        rows, mv = rows_mv
        g = IntensityGrid(rows, mv)
        mask = g.values < c
        got = neighbor_any(mask, topology)
        for y in range(g.height):
            for x in range(g.width):
                expect = any(mask[q.y, q.x] for q in neighbors((x, y), g, topology))
                assert bool(got[y, x]) == expect

    @given(st.sampled_from([np.uint8, np.uint64]), st.integers(1, 6), st.integers(1, 6),
           st.integers(1, 3), st.sampled_from(list(Topology)), st.integers(0, 2**32))
    def test_neighbor_any_dilates_each_bit_plane_of_words(self, dtype, w, h, frames, topology, seed):
        shape = (frames, h, w) if topology is Topology.N4T else (h, w)
        words = np.random.default_rng(seed).integers(0, np.iinfo(dtype).max, size=shape, dtype=dtype,
                                                     endpoint=True)
        got = neighbor_any(words, topology)
        assert got.dtype == words.dtype
        for bit in range(8 * words.itemsize):
            plane = (words >> dtype(bit)) & dtype(1)
            expect = neighbor_any(plane.astype(bool), topology)
            assert np.array_equal((got >> dtype(bit)) & dtype(1), expect)

    @given(grid_rows(), topologies)
    def test_neighbor_min_matches_definition(self, rows_mv, topology):
        rows, mv = rows_mv
        g = IntensityGrid(rows, mv)
        fill = mv + 2
        got = neighbor_min(g.values, topology, fill)
        for y in range(g.height):
            for x in range(g.width):
                qs = neighbors((x, y), g, topology)
                expect = min((g.value_at(q) for q in qs), default=fill)
                assert got[y, x] == expect

    def test_temporal_neighbor_min(self):
        vals = np.stack([np.zeros((2, 2), dtype=np.int64), np.full((2, 2), 9, dtype=np.int64)])
        stack = FrameStack(vals, 9)
        got = neighbor_min(stack.values, Topology.N4T, 11)
        for t in range(2):
            for y in range(2):
                for x in range(2):
                    qs = neighbors((x, y, t), stack, Topology.N4T)
                    assert got[t, y, x] == min(stack.value_at(q) for q in qs)

    def test_neighbor_min_holds_a_fill_wider_than_the_values(self):
        lone = np.array([[7]], dtype=np.uint8)  # no neighbors at all
        assert neighbor_min(lone, Topology.N4, 257).tolist() == [[257]]
        row = np.array([[200, 3, 255]], dtype=np.uint8)
        assert neighbor_min(row, Topology.N8, 257).tolist() == [[3, 200, 3]]

    def test_neighbor_min_widens_for_a_fill_one_past_the_dtype(self):
        lone = np.zeros((1, 1), dtype=np.uint8)
        assert neighbor_min(lone, Topology.N4, 256).tolist() == [[256]]  # uint8 would wrap or raise
        assert neighbor_min(lone, Topology.N4, 255).dtype == np.uint8

    @given(st.integers(2, 3), st.integers(1, 4), st.integers(1, 4), st.sampled_from(list(Topology)), st.data())
    def test_neighbor_ops_on_batched_stacks_match_definition(self, frames, h, w, topology, data):
        # two batches of a stack: no neighbor may leak across a frame, row or batch edge
        n = 2 * frames * h * w
        vals = np.array(data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))
        vals = vals.reshape(2, frames, h, w)
        stack = FrameStack(vals[0], 8)
        got_min = neighbor_min(vals, topology, 10)
        got_any = neighbor_any(vals < 4, topology)
        for b, t, y, x in np.ndindex(vals.shape):
            qs = [vals[b, q.t, q.y, q.x] for q in neighbors((x, y, t), stack, topology)]
            assert got_min[b, t, y, x] == min(qs, default=10)
            assert got_any[b, t, y, x] == any(v < 4 for v in qs)

    @given(st.sampled_from(list(Topology)), st.sampled_from(list(STRIDED_VIEWS)),
           st.sampled_from([np.uint8, np.uint16, np.int64]), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2**32))
    def test_neighbor_ops_on_views_match_definition(self, topology, view, dtype, h, w, seed):
        # the folds copy a view that is not C-contiguous once, before their flat passes
        frames = 3 if topology.temporal or view == "halo rows of a stack" else None
        assert_neighbor_ops_match_definition(frames, h, w, STRIDED_VIEWS[view], topology, dtype, seed)

    @pytest.mark.parametrize("view", list(STRIDED_VIEWS))
    @pytest.mark.parametrize("topology", [Topology.N8, Topology.N4T])
    @pytest.mark.parametrize("h, w", [(1, 1), (1, 5), (5, 1), (2, 1), (1, 2)])
    def test_neighbor_ops_on_thin_views_match_definition(self, topology, view, h, w):
        frames = 2 if topology.temporal or view == "halo rows of a stack" else None
        assert_neighbor_ops_match_definition(frames, h, w, STRIDED_VIEWS[view], topology, np.uint8, h * 7 + w)

    def test_neighbor_min_fill_only_stands_in_for_no_neighbor(self):
        row = np.array([[5, 9, 7]], dtype=np.uint8)
        assert neighbor_min(row, Topology.N4, 0).tolist() == [[9, 5, 9]]
        assert neighbor_min(row[:, :1], Topology.N8, 0).tolist() == [[0]]

    @pytest.mark.parametrize("fold", [neighbor_any, lambda v, t: neighbor_min(v, t, 2**64 - 1)], ids=["any", "min"])
    @pytest.mark.parametrize("topology, outputs", [(Topology.N4, 1), (Topology.N8, 2), (Topology.N4T, 1)])
    def test_folds_allocate_their_outputs_and_no_ufunc_buffers(self, fold, topology, outputs):
        # an oracle strip of 66 rows of 1024 64-bit words; a pass over views offset by a
        # column runs in numpy's buffered iterator, about 200 kB of buffers here
        shape = (3, 22, 1024) if topology.temporal else (66, 1024)
        words = np.random.default_rng(3).integers(0, 2**64 - 1, size=shape, dtype=np.uint64, endpoint=True)
        fold(words, topology)  # a first call may allocate what later ones reuse
        tracemalloc.start()
        try:
            out = fold(words, topology)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.dtype == words.dtype
        assert peak <= outputs * out.nbytes + (1 << 12)

    def test_offsets_match_brute_tables(self):
        for topology, offs in BRUTE_OFFSETS.items():
            assert set(topology.spatial_offsets) == set(offs)
