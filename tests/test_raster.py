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


def grid3x3():
    return IntensityGrid.from_rows([[0, 1, 2], [3, 4, 5], [6, 7, 8]], max_value=8)


class TestIntensityGrid:
    def test_basic_fields(self):
        g = grid3x3()
        assert (g.width, g.height, g.max_value) == (3, 3, 8)
        assert g.value_at((2, 0)) == 2
        assert g.value_at(PixelCoord(0, 2)) == 6

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IntensityGrid.from_rows([[0, 9]], max_value=8)
        with pytest.raises(ValueError):
            IntensityGrid.from_rows([[-1, 0]], max_value=8)

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            IntensityGrid(np.array([[0.5, 1.0]]), max_value=8)

    @pytest.mark.parametrize("make, shape", [(IntensityGrid, (2, 3)), (FrameStack, (2, 2, 3))])
    @pytest.mark.parametrize("max_value", [True, 2.0])
    def test_refuses_a_max_value_that_is_not_an_integer(self, make, shape, max_value):
        # a bool would be stored as 0 or 1, a float compared as if it were an integer
        with pytest.raises(ValueError, match=rf"^max_value must be an integer, got {max_value!r}$"):
            make(np.zeros(shape, dtype=np.int64), max_value)

    def test_numpy_integer_max_value_becomes_an_int(self):
        g = IntensityGrid(np.zeros((2, 3), dtype=np.int64), np.uint16(300))
        assert g.max_value == 300 and type(g.max_value) is int

    def test_rejects_empty_and_wrong_rank(self):
        with pytest.raises(ValueError):
            IntensityGrid(np.empty((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            IntensityGrid(np.zeros(5, dtype=np.int64))

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
        g = IntensityGrid.from_rows(rows, mv)
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


class TestVectorizedHelpers:
    """neighbor_any / neighbor_min must agree with the per-pixel definition."""

    @given(grid_rows(), topologies, st.integers(0, 12))
    def test_neighbor_any_matches_definition(self, rows_mv, topology, c):
        rows, mv = rows_mv
        g = IntensityGrid.from_rows(rows, mv)
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
        g = IntensityGrid.from_rows(rows, mv)
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

    def test_offsets_match_brute_tables(self):
        for topology, offs in BRUTE_OFFSETS.items():
            assert set(topology.spatial_offsets) == set(offs)
