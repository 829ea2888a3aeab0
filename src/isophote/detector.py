"""Discontinuity and occlusion detection via level-set boundaries.

The central object is the level curve set at threshold c: the boundary of
the sublevel set {p : I(p) < c}, realized discretely as the pixels at or
above c that touch a pixel below c. A pixel lying on the level curve sets
of two distinct thresholds is flagged: the intensity, the viewed surface,
or the visibility must change non-smoothly there.

Two detectors produce the same mask by construction of the theory and are
kept as independent code paths so each can check the other:

* :func:`detect_multilevel` enumerates a threshold schedule and builds
  each boundary from its sublevel set, one bit per threshold in a word
  per pixel that holds up to 64 of them, counted from the schedule's
  arithmetic.
* :func:`detect_pointwise` characterizes, per pixel, exactly which
  thresholds capture it (an integer interval) and counts schedule
  members inside that interval in closed form.

Both run one strip loop, :func:`_row_strips`, which lays out each row
strip, its halo and its scratch; they differ only in how they count.

Everything here uses integer arithmetic only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .raster import (
    Grid,
    Topology,
    array_index,
    as_integer,
    neighbor_any,
    neighbor_min,
    neighbors,
    signed_dtype,
    storage_dtype,
)

__all__ = [
    "ThresholdSchedule",
    "LevelCurveSet",
    "DetectionMask",
    "sublevel",
    "level_curve_set",
    "detect_multilevel",
    "membership_interval",
    "detect_pointwise",
    "check_necessary_condition",
]

# detect_multilevel packs a chunk of up to 64 levels into one unsigned word
# per pixel, one bit per level, in the narrowest of these that holds them.
_WORD_DTYPES = tuple(map(np.dtype, (np.uint8, np.uint16, np.uint32, np.uint64)))

# Both routes run on row strips of every frame of about this many bytes of
# their widest scratch dtype (at least one row each): detect_pointwise's
# closed form, and every 64-level chunk of detect_multilevel in turn on
# each strip. The scratch buffers the steps pass between them stay in L2
# cache; only the mask a route returns is image-sized.
_STRIP_BUDGET = 256 << 10


@dataclass(frozen=True)
class ThresholdSchedule:
    """Arithmetic sequence of integer thresholds: offset + k * increment, k >= 0.

    The sequence is evaluated against a grid and stops at max_value + 1
    (larger thresholds have empty level curve sets). ``ceiling`` optionally
    truncates it earlier, e.g. ``ThresholdSchedule(1, offset=1, ceiling=2)``
    is exactly {1, 2}. When ``offset`` is omitted it defaults to the
    increment, so the schedule starts one increment up from zero.
    """

    increment: int
    offset: Optional[int] = None
    ceiling: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "increment", as_integer(self.increment, "increment"))
        object.__setattr__(self, "offset", as_integer(self.increment if self.offset is None else self.offset, "offset"))
        if self.ceiling is not None:
            object.__setattr__(self, "ceiling", as_integer(self.ceiling, "ceiling"))
        if self.increment < 1:
            raise ValueError(f"increment must be a positive integer, got {self.increment!r}")

    def cap(self, max_value: int) -> int:
        """Largest threshold value admitted against a grid with this max_value."""
        cap = max_value + 1
        if self.ceiling is not None:
            cap = min(cap, self.ceiling)
        return cap

    def size(self, max_value: int) -> int:
        """Number of schedule members for a grid with the given max_value."""
        return max((self.cap(max_value) - self.offset) // self.increment + 1, 0)

    def levels(self, max_value: int) -> np.ndarray:
        """All schedule members for a grid with the given max_value, ascending."""
        return self.offset + self.increment * np.arange(self.size(max_value), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class LevelCurveSet:
    """The discrete boundary of {p : I(p) < c}: pixels at or above c with a neighbor below."""

    c: int
    mask: np.ndarray

    def __post_init__(self):
        self.mask.setflags(write=False)

    def __contains__(self, p) -> bool:
        return bool(self.mask[array_index(p, self.mask.ndim)])


@dataclass(frozen=True, eq=False)
class DetectionMask:
    """Per-pixel count of schedule thresholds whose level curve set contains the pixel.

    A pixel is flagged when the count is at least two. The mask stores only
    level_count, in the narrowest unsigned dtype that holds the schedule's
    number of levels, with the grid and the schedule it was computed from.
    A pixel's members are the schedule levels in its membership interval
    (min neighbor, I(p)], which are consecutive, so the witness pair of a
    flagged pixel is the two largest schedule levels at or below
    min(I(p), cap): a function of I(p) and the schedule, derived when read.
    """

    level_count: np.ndarray
    grid: Grid
    schedule: ThresholdSchedule

    def __post_init__(self):
        self.level_count.setflags(write=False)

    @property
    def flagged(self) -> np.ndarray:
        return self.level_count >= 2

    def _witness(self, places: int) -> np.ndarray:
        """The member places levels below the largest at flagged pixels, 0 elsewhere, read-only.

        The largest is level L(I) - 1 (see _levels_at_or_below), so this is
        offset + (L(I) - 1 - places) * increment, worked in the routes' signed
        dtype and returned in the grid's storage dtype, which holds it: a
        member lies in [1, max_value]. Multiplying by the flag zeroes
        unflagged pixels branch-free, unlike a masked copy, whose cost grows
        with how unpredictably flags alternate.
        """
        grid, schedule = self.grid, self.schedule
        level = np.empty(grid.values.shape, dtype=signed_dtype(_check_range(grid, schedule)))
        _levels_at_or_below(grid.values, schedule, grid.max_value, out=level)
        level *= schedule.increment
        level += schedule.offset - (1 + places) * schedule.increment
        level *= self.flagged
        witness = level.astype(storage_dtype(grid.max_value))
        witness.setflags(write=False)
        return witness

    @property
    def witness_hi(self) -> np.ndarray:
        """The largest member threshold at flagged pixels, 0 elsewhere, read-only."""
        return self._witness(0)

    @property
    def witness_lo(self) -> np.ndarray:
        """The member one level below witness_hi at flagged pixels, 0 elsewhere, read-only."""
        return self._witness(1)

    def count_at(self, p) -> int:
        return int(self.level_count[array_index(p, self.level_count.ndim)])

    def witnesses_at(self, p) -> Optional[tuple[int, int]]:
        """(c, c') with c < c' for a flagged pixel, None otherwise."""
        idx = array_index(p, self.level_count.ndim)
        if self.level_count[idx] < 2:
            return None
        schedule, inc = self.schedule, self.schedule.increment
        top = min(int(self.grid.values[idx]), schedule.cap(self.grid.max_value))
        hi = schedule.offset + (top - schedule.offset) // inc * inc
        return hi - inc, hi

    def __eq__(self, other) -> bool:
        if not isinstance(other, DetectionMask):
            return NotImplemented
        return (
            np.array_equal(self.level_count, other.level_count)
            and np.array_equal(self.witness_hi, other.witness_hi)
            and np.array_equal(self.witness_lo, other.witness_lo)
        )

    __hash__ = None  # type: ignore[assignment]


def sublevel(grid: Grid, c: int) -> np.ndarray:
    """Boolean mask of {p : I(p) < c}. Monotone in c; c must be an integer."""
    return grid.values < as_integer(c, "threshold")


def level_curve_set(grid: Grid, c: int, topology: Topology) -> LevelCurveSet:
    """Boundary of the sublevel set at c: pixels with I(p) >= c next to some I(q) < c."""
    topology.check_grid(grid)
    below = sublevel(grid, c)  # refuses a c that is not an integer
    mask = neighbor_any(below, topology) & ~below
    return LevelCurveSet(int(c), mask)


def _check_range(grid: Grid, schedule: ThresholdSchedule) -> int:
    """A bound on every intermediate of either route; ValueError unless it fits int64.

    Both routes call this before any work, so they reject the same grid
    and schedule with the same error.
    """
    inc, offset = schedule.increment, schedule.offset
    bound = 4 * max(grid.max_value + 2, abs(schedule.cap(grid.max_value)), abs(offset) + inc) + 2
    if bound > np.iinfo(np.int64).max:
        raise ValueError(
            f"max_value {grid.max_value} with offset {offset} and increment {inc} is out of range: "
            "4 * max(max_value + 2, |cap|, |offset| + increment) + 2 must fit in int64"
        )
    return bound


def _levels_at_or_below(values: np.ndarray, schedule: ThresholdSchedule, max_value: int, out: np.ndarray) -> np.ndarray:
    """L(v) = (min(v, cap) - offset) // increment + 1 at each value v, into out.

    That is the number of schedule levels at or below v where it is
    positive. Adding the increment before dividing adds the 1, and the cap
    then clamps at cap - offset + increment. out is a signed dtype that
    holds every intermediate (see _check_range).
    """
    inc, offset, cap = schedule.increment, schedule.offset, schedule.cap(max_value)
    np.subtract(values, offset - inc, out=out, dtype=out.dtype, casting="unsafe")
    if cap <= max_value:
        np.minimum(out, cap - offset + inc, out=out)
    out //= inc
    return out


def _row_strips(values: np.ndarray, itemsize: int, *dtypes) -> Iterator[tuple]:
    """Split the rows of every frame of values into strips, each with its halo and scratch.

    A strip holds about _STRIP_BUDGET bytes at itemsize bytes a pixel, and
    at least one row. Yields per strip the slice of its rows, the view of
    values over them widened by one halo row on each side the frame has,
    the strip's rows within that view, and one scratch array of the view's
    shape per dtype, allocated zeroed once and reused by every strip. The
    halo gives each pixel of the strip all its neighbors.
    """
    *frames, height, width = values.shape
    step = max(_STRIP_BUDGET // (math.prod(frames) * width * itemsize), 1)
    buffers = [np.zeros(values[..., : step + 2, :].size, dtype) for dtype in dtypes]
    for top in range(0, height, step):
        end, first = min(top + step, height), max(top - 1, 0)
        block = values[..., first : end + 1, :]
        scratch = (b[: block.size].reshape(block.shape) for b in buffers)
        yield (slice(top, end), block, slice(top - first, end - first), *scratch)


def _sublevel_words(values: np.ndarray, levels: range, k: np.ndarray, zeros: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sublevel sets of the n <= 64 levels at each value, one bit per level, into out.

    Bit j stands for levels[n - 1 - j], so the highest level is the lowest
    bit. k = clip((v - levels.start) // levels.step + 1, 0, n) counts the
    levels at or below v, np.searchsorted(levels, v, "right"); adding the
    step before dividing adds the 1. v lies below the levels of the low
    n - k bits: (2**n - 1) >> k. numpy shifts by the word width or more to
    0, so k needs no cap at n unless out's words are too narrow to hold it.
    k is scratch in a signed dtype that holds every intermediate, and zeros
    is zero in that dtype, since numpy's SIMD max loop takes two arrays.
    """
    n = len(levels)
    np.subtract(values, levels.start - levels.step, out=k, dtype=k.dtype, casting="unsafe")
    k //= levels.step
    np.maximum(k, zeros, out=k)
    if out.itemsize < k.itemsize:
        np.minimum(k, n, out=k)
    np.copyto(out, k, casting="unsafe")
    return np.right_shift(out.dtype.type((1 << n) - 1), out, out=out)


def detect_multilevel(grid: Grid, schedule: ThresholdSchedule, topology: Topology) -> DetectionMask:
    """Enumerate the schedule, build every level curve set, and count memberships.

    Time grows as levels x pixels. One word per pixel holds the sublevel
    sets of a chunk of up to 64 levels, one bit each. Every chunk runs in
    turn on each row strip of every frame at once, so transient memory is
    a few times _STRIP_BUDGET beyond the mask whatever the schedule length.
    """
    topology.check_grid(grid)
    # every intermediate of the sublevel counts lies within this bound of zero
    dtype = signed_dtype(_check_range(grid, schedule))
    values = grid.values
    size = schedule.size(grid.max_value)
    count = np.zeros(values.shape, dtype=np.min_scalar_type(size))  # see DetectionMask
    inc, offset = schedule.increment, schedule.offset
    step = max(min(size, 8 * _WORD_DTYPES[-1].itemsize), 1)
    word = next(w for w in _WORD_DTYPES if 8 * w.itemsize >= step)
    strips = _row_strips(values, max(word.itemsize, dtype.itemsize), dtype, dtype, word, np.uint8)
    for rows, block, inner, zeros, k, below, bits in strips:
        total = count[..., rows, :]
        bits = bits.reshape(-1)[: total.size].reshape(total.shape)  # contiguous, unlike bits[..., inner, :]
        for start in range(0, size, step):
            levels = range(offset + start * inc, offset + min(start + step, size) * inc, inc)
            _sublevel_words(block, levels, k, zeros, out=below)
            members = neighbor_any(below, topology)[..., inner, :]
            members &= np.invert(below, out=below)[..., inner, :]  # neighbor_any(below) & ~below
            total += np.bitwise_count(members, out=bits)
            del members  # before the next chunk's neighbor_any allocates
    return DetectionMask(count, grid, schedule)


def membership_interval(grid: Grid, p, topology: Topology) -> Optional[tuple[int, int]]:
    """The thresholds c that put p on a level curve set, as a half-open interval.

    Returns (m, I(p)) meaning m < c <= I(p), where m is the minimum
    neighbor intensity, or None when no threshold captures p (no neighbor
    is darker, or p has no neighbors at all).
    """
    qs = neighbors(p, grid, topology)
    if not qs:
        return None
    m = min(grid.value_at(q) for q in qs)
    v = grid.value_at(p)
    if m >= v:
        return None
    return m, v


def detect_pointwise(
    grid: Grid,
    schedule: ThresholdSchedule,
    topology: Topology,
) -> DetectionMask:
    """Flag pixels whose membership interval contains two schedule thresholds.

    Counts schedule members inside (min neighbor, I(p)] with integer
    closed-form arithmetic; agrees with :func:`detect_multilevel` on
    every input. The work runs on row strips of every frame at once, so
    transient memory is a few times _STRIP_BUDGET beyond the mask.
    """
    topology.check_grid(grid)
    # every intermediate below lies within this bound of zero
    dtype = signed_dtype(_check_range(grid, schedule))
    values = grid.values
    count = np.empty(values.shape, dtype=np.min_scalar_type(schedule.size(grid.max_value)))  # see DetectionMask
    # numpy's SIMD min/max loops take two arrays, so a max against 0 reads
    # an array of zeros, not a scalar
    for rows, block, inner, zero, k in _row_strips(values, dtype.itemsize, dtype, dtype):
        # K(v) = max(L(v), 0), the schedule levels at or below v, once per pixel;
        # L(0) >= 0 unless the offset lies past one increment
        _levels_at_or_below(block, schedule, grid.max_value, out=k)
        if schedule.offset > schedule.increment:
            np.maximum(k, zero, out=k)
        # K is monotone, so the fewest at a neighbor is K(min neighbor), and the
        # members in (m, I(p)] number K(I(p)) - K(m), at least 0. A pixel
        # without neighbors gets every level, which no K exceeds: an empty
        # interval. The fill fits k's dtype, so the minimum keeps it.
        low = neighbor_min(k, topology, schedule.size(grid.max_value))[..., inner, :]
        np.subtract(k[..., inner, :], low, out=low)
        np.maximum(low, zero[..., inner, :], out=count[..., rows, :], casting="unsafe")
    return DetectionMask(count, grid, schedule)


def check_necessary_condition(grid: Grid, p, c: int, c_prime: int, topology: Topology) -> bool:
    """True iff some neighbor q has I(p) - I(q) > |c - c'|.

    This must hold whenever p lies on the level curve sets of both c and
    c'; the converse fails, so a single large step never suffices as
    evidence on its own.
    """
    c, c_prime = as_integer(c, "threshold"), as_integer(c_prime, "threshold")
    if c == c_prime:
        raise ValueError("thresholds must differ")
    v = grid.value_at(p)
    gap = abs(c - c_prime)
    return any(v - grid.value_at(q) > gap for q in neighbors(p, grid, topology))
