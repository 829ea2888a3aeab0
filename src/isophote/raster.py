"""Raster image model: integer intensity grids, frame stacks and neighbor topologies.

Grids are immutable after construction and safe to share between threads.
They keep the integer dtype they are given when it holds [0, max_value]
and otherwise store :func:`storage_dtype`; the decoder hands them uint8 or
uint16, so arithmetic that can go negative must widen first. Every
function in this module is a pure function of its arguments.
"""

from __future__ import annotations

import enum
import reprlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "PixelCoord",
    "StackCoord",
    "Topology",
    "IntensityGrid",
    "FrameStack",
    "frame_stack",
    "neighbors",
    "neighbor_any",
    "neighbor_min",
]


class PixelCoord(NamedTuple):
    """Address of one pixel; x is the column, y the row (y grows downward)."""

    x: int
    y: int


class StackCoord(NamedTuple):
    """Address of one pixel inside a frame stack; t is the frame index."""

    x: int
    y: int
    t: int


class Topology(enum.Enum):
    """Which pixels count as neighboring points.

    N4  -- north, west, east, south.
    N8  -- the eight surrounding pixels.
    N4T -- N4 plus the same pixel in the previous and next frame;
           only meaningful on a :class:`FrameStack`.

    All variants are symmetric (q is a neighbor of p iff p is one of q)
    and never include the pixel itself.
    """

    N4 = "4"
    N8 = "8"
    N4T = "4t"

    @property
    def spatial_offsets(self) -> tuple[tuple[int, int], ...]:
        """(dx, dy) offsets in the fixed order used everywhere in this package."""
        return _SPATIAL_OFFSETS[self]

    @property
    def temporal(self) -> bool:
        return self is Topology.N4T

    def check_grid(self, grid) -> None:
        """Raise ValueError unless grid can carry this topology.

        N4T needs a frame stack; N4 and N8 act on every frame of a stack
        alone. Every entry point checks this before any work, so all
        routes reject the same inputs with the same error.
        """
        if self.temporal and grid.values.ndim != 3:
            raise ValueError("N4T topology requires a frame stack")


# N, W, E, S for N4; row-major NW..SE for N8. The order is part of the
# public contract: neighbor lists and traced contours depend on it.
_N4 = ((0, -1), (-1, 0), (1, 0), (0, 1))
_SPATIAL_OFFSETS: dict[Topology, tuple[tuple[int, int], ...]] = {
    Topology.N4: _N4,
    Topology.N8: (
        (-1, -1), (0, -1), (1, -1),
        (-1, 0), (1, 0),
        (-1, 1), (0, 1), (1, 1),
    ),
    Topology.N4T: _N4,
}

# Per array ndim: the coordinate type, and the nouns for it and its raster in errors.
_COORDS = {2: (PixelCoord, "pixel", "grid"), 3: (StackCoord, "stack", "stack")}


def array_index(p, ndim: int) -> tuple:
    """The array index of coordinate p: (x, y) reads [y, x] and (x, y, t) reads [t, y, x]."""
    if len(p) != ndim:
        coord, noun, _ = _COORDS[ndim]
        raise ValueError(f"{noun} coordinates need ({', '.join(coord._fields)}), got {p!r}")
    return tuple(reversed(p))


def coordinate(index) -> Union[PixelCoord, StackCoord]:
    """The coordinate of an array index: the index reversed, as PixelCoord or StackCoord."""
    return _COORDS[len(index)][0](*(int(i) for i in reversed(index)))


def storage_dtype(max_value: int) -> np.dtype:
    """The narrowest of uint8, uint16 and int64 that holds every value in [0, max_value]."""
    if max_value < 1 << 8:
        return np.dtype(np.uint8)
    if max_value < 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


def signed_dtype(bound: int) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds every value in [-bound, bound]."""
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def as_integer(value, name, error=ValueError) -> int:
    """value as an int; error unless it is an int or a numpy integer.

    int() would silently change a float, a string or a bool, so all of
    those are refused.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {reprlib.repr(value)}")
    return int(value)


class _Adopted:
    """An array that only the library holds, which a grid freezes in place instead of copying."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def adopt(array: np.ndarray) -> _Adopted:
    """array, marked so that a grid made from it freezes it without a copy.

    Only for an array that the library has just built and that nothing
    else holds: the grid sets it read-only and keeps it, so a write
    through another reference would change the grid.
    """
    return _Adopted(array)


def _freeze_values(values, max_value: int, ndim: int) -> np.ndarray:
    """A validated read-only C-contiguous copy of values, or values itself if adopted.

    The copy keeps an integer dtype that holds [0, max_value], so a grid
    never widens what it is given and the caller's arithmetic on
    ``values`` behaves as on their own array; booleans and dtypes too
    narrow for max_value become :func:`storage_dtype`. The flat passes of
    the neighbor folds and the zero filter then never copy a grid's values.
    An array passed through :func:`adopt` that has that dtype and layout
    is set read-only in place instead. An unsigned dtype whose largest
    value is max_value holds nothing outside [0, max_value], so it is not
    scanned.
    """
    kept = isinstance(values, _Adopted)
    arr = values.array if kept else np.asarray(values)
    if arr.size == 0:
        raise ValueError("grid must contain at least one pixel")
    if arr.dtype.kind not in "iub":
        raise ValueError(f"intensities must be integers, got dtype {arr.dtype}")
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    if as_integer(max_value, "max_value") < 0:
        raise ValueError(f"max_value must be a nonnegative integer, got {max_value!r}")
    holds = arr.dtype.kind in "iu" and np.iinfo(arr.dtype).max >= max_value
    dtype = arr.dtype if holds else storage_dtype(max_value)
    if arr.dtype.kind != "u" or np.iinfo(arr.dtype).max != max_value:
        # an unsigned array holds no value below 0, so its minimum is read only for the message
        hi = int(arr.max())
        lo = int(arr.min()) if arr.dtype.kind == "i" or hi > max_value else 0
        if lo < 0 or hi > max_value:
            raise ValueError(f"intensities must lie in [0, {max_value}], found range [{lo}, {hi}]")
        if hi > np.iinfo(dtype).max:  # a max_value beyond int64 with values that int64 cannot hold
            raise ValueError(f"intensities must lie in [0, {np.iinfo(dtype).max}] to be stored as {dtype}, found {hi}")
    arr = arr.astype(dtype, order="C", copy=not kept)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class _FrozenRaster:
    """The body IntensityGrid and FrameStack share: a frozen array of _NDIM axes.

    Coordinates are the reversed array index, so x is the last axis, y the
    one before it and t, on a stack, the leading one.
    """

    values: np.ndarray
    max_value: int = 255
    _NDIM = 2

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze_values(self.values, self.max_value, self._NDIM))
        object.__setattr__(self, "max_value", int(self.max_value))

    @property
    def width(self) -> int:
        return self.values.shape[-1]

    @property
    def height(self) -> int:
        return self.values.shape[-2]

    def value_at(self, p) -> int:
        return int(self.values[array_index(p, self._NDIM)])


@dataclass(frozen=True, eq=False)
class IntensityGrid(_FrozenRaster):
    """A height x width raster of exact integer intensities in [0, max_value].

    ``values`` is a read-only C-contiguous copy of the caller's array; an
    array the library builds is frozen in place instead. It keeps the
    input's integer dtype when that holds max_value, else it is the
    smallest one that does (uint8, uint16, or int64 above 65535). Images read from
    files arrive as uint8 or uint16, and unsigned differences wrap
    silently: do arithmetic on ``values`` only after ``astype(np.int64)``.
    """


@dataclass(frozen=True, eq=False)
class FrameStack(_FrozenRaster):
    """Frames stacked along a leading time axis; values has shape (frames, height, width).

    ``values`` follows IntensityGrid's dtype rule. N4T topology additionally
    links (x, y, t) to (x, y, t-1) and (x, y, t+1), so the detector treats
    time exactly like another spatial direction.
    """

    _NDIM = 3

    def __post_init__(self):
        _FrozenRaster.__post_init__(self)
        if self.values.shape[0] < 2:
            raise ValueError("a frame stack needs at least two frames")

    @property
    def frames(self) -> int:
        return self.values.shape[0]


def frame_stack(frames: Sequence[IntensityGrid]) -> FrameStack:
    """Stack 2D grids into a FrameStack; all frames must agree in shape and max_value."""
    if len(frames) < 2:
        raise ValueError("need at least two frames to stack")
    first = frames[0]
    for i, f in enumerate(frames[1:], start=1):
        if (f.width, f.height) != (first.width, first.height):
            raise ValueError(
                f"frame {i} is {f.width}x{f.height}, frame 0 is {first.width}x{first.height}"
            )
        if f.max_value != first.max_value:
            raise ValueError(f"frame {i} has max_value {f.max_value}, frame 0 has {first.max_value}")
    return FrameStack(adopt(np.stack([f.values for f in frames])), first.max_value)


Grid = Union[IntensityGrid, FrameStack]


def neighbors(p, grid: Grid, topology: Topology):
    """In-grid neighbors of p, in a fixed documented order.

    Order: N, W, E, S (N4); NW, N, NE, W, E, SW, S, SE (N8);
    N, W, E, S, previous frame, next frame (N4T on a stack).
    Out-of-grid targets are dropped, never padded, and p itself is
    never included.
    """
    topology.check_grid(grid)
    shape = grid.values.shape
    index = array_index(p, len(shape))
    if not _inside(index, shape):
        size = "x".join(map(str, reversed(shape)))
        raise ValueError(f"{p!r} lies outside a {size} {_COORDS[len(shape)][2]}")
    out = []
    for delta in _trailing_offsets(topology, len(shape)):
        q = tuple(i + d for i, d in zip(index, (0,) * (len(shape) - len(delta)) + delta))
        if _inside(q, shape):
            out.append(coordinate(q))
    return out


def _inside(index: tuple, shape: tuple) -> bool:
    return all(0 <= i < n for i, n in zip(index, shape))


def _trailing_offsets(topology: Topology, ndim: int):
    """Neighbor offsets expressed over the trailing axes of an array.

    Spatial offsets act on the last two axes (row, column); N4T adds
    offsets on the third-from-last (frame) axis. Leading axes are left
    alone, so each index along them is folded on its own.
    """
    if topology.temporal:
        if ndim < 3:
            raise ValueError("N4T topology requires arrays with a frame axis")
        offs = [(0, dy, dx) for dx, dy in topology.spatial_offsets]
        offs += [(-1, 0, 0), (1, 0, 0)]
        return offs
    if ndim < 2:
        raise ValueError("need at least two spatial axes")
    return [(dy, dx) for dx, dy in topology.spatial_offsets]


def _fold_neighbors(values: np.ndarray, topology: Topology, fill, op, dtype) -> np.ndarray:
    """Fold op over every topology-neighbor's value; fill where a pixel has none.

    Every pass runs over contiguous memory, never over a view offset by a
    column, which numpy would run through its buffered iterator. The fold
    starts from the neighbors along the last axis longer than 1 (the row,
    unless the width is 1): the axes after it have length 1, so those are
    the values one before and one after in the flat array, and one flat
    pass takes op of the two. It pairs the first and last pixel of each
    line along that axis with the adjacent line, so those pixels are then
    set to their one neighbor. The rows above and below, and N4T's frames
    before and after, fold in as whole-row and whole-frame slices. N8
    takes its diagonals with the rows above and below, from the 1x3 fold
    of each pixel and its row neighbors. values that are not C-contiguous
    or not of dtype are copied once.
    """
    _trailing_offsets(topology, values.ndim)  # refuses arrays without the axes topology needs
    v = np.ascontiguousarray(values, dtype=dtype)
    out = np.empty(v.shape, dtype=dtype)
    axes = [axis for axis in (-1, -2, -3)[: 2 + topology.temporal] if v.shape[axis] > 1]
    if not axes:  # no pixel has a neighbor
        out.fill(fill)
        return out
    flat, n = v.reshape(-1), v.shape[axes[0]]
    op(flat[2:], flat[:-2], out=out.reshape(-1)[1:-1])
    pairs, into = v.reshape(-1, n), out.reshape(-1, n)
    into[:, 0] = pairs[:, 1]
    into[:, -1] = pairs[:, -2]
    rows = op(out, v) if topology is Topology.N8 else v
    for axis in axes[1:]:
        by = rows if axis == -2 else v
        tail = (slice(None),) * (-1 - axis)
        after, before = (..., slice(1, None), *tail), (..., slice(None, -1), *tail)
        op(out[after], by[before], out=out[after])
        op(out[before], by[after], out=out[before])
    return out


def neighbor_any(mask: np.ndarray, topology: Topology) -> np.ndarray:
    """True where at least one topology-neighbor is True (vectorized dilation).

    Agrees pixel-for-pixel with :func:`neighbors`: out-of-grid targets
    contribute nothing. mask may also hold unsigned integer words: the
    neighbors are ORed bitwise, so each bit plane is dilated on its own.
    """
    return _fold_neighbors(mask, topology, 0, np.bitwise_or, mask.dtype)


def neighbor_min(values: np.ndarray, topology: Topology, fill: int) -> np.ndarray:
    """Per-pixel minimum over topology-neighbors; fill where a pixel has none.

    fill enters no other pixel's minimum. The result keeps the dtype of
    values when that holds fill, else the narrowest one that holds both.
    """
    dtype = values.dtype
    if fill > np.iinfo(dtype).max:
        dtype = np.promote_types(dtype, signed_dtype(fill))
    return _fold_neighbors(values, topology, fill, np.minimum, dtype)
