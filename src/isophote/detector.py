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
  arithmetic on row strips of the image.
* :func:`detect_pointwise` characterizes, per pixel, exactly which
  thresholds capture it (an integer interval) and counts schedule
  members inside that interval in closed form.

Everything here uses integer arithmetic only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .raster import (
    Grid,
    Topology,
    _integer,
    array_index,
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
# closed form, and each 64-level chunk of detect_multilevel. The scratch
# buffers the steps pass between them stay in L2 cache; only the mask a
# route returns is image-sized.
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
        offset = self.increment if self.offset is None else self.offset
        for name, value in (("increment", self.increment), ("offset", offset), ("ceiling", self.ceiling)):
            if value is None and name == "ceiling":
                continue
            object.__setattr__(self, name, _integer(value, name))
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

    def contains(self, c: int, max_value: int) -> bool:
        return self.offset <= c <= self.cap(max_value) and (c - self.offset) % self.increment == 0


@dataclass(frozen=True, eq=False)
class LevelCurveSet:
    """The discrete boundary of {p : I(p) < c}: pixels at or above c with a neighbor below."""

    c: int
    mask: np.ndarray

    def __post_init__(self):
        self.mask.setflags(write=False)

    def __contains__(self, p) -> bool:
        return bool(self.mask[array_index(p, self.mask.ndim)])

    def __len__(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True, eq=False)
class DetectionMask:
    """Per-pixel count of schedule thresholds whose level curve set contains the pixel.

    A pixel is flagged when the count is at least two. witness_hi holds the
    largest such threshold at flagged pixels and is zero elsewhere, which
    makes masks comparable bit-for-bit. The members are the schedule levels
    in the pixel's membership interval, which are consecutive, so the second
    largest is one increment below: witness_lo is derived from witness_hi
    and the schedule's increment rather than stored. Both routes store the
    same dtypes: level_count the narrowest unsigned one that holds the
    schedule's number of levels, and witness_hi the grid's storage dtype,
    since a member threshold lies in [1, max_value].
    """

    level_count: np.ndarray
    witness_hi: np.ndarray
    increment: int

    def __post_init__(self):
        for a in (self.level_count, self.witness_hi):
            a.setflags(write=False)

    @property
    def flagged(self) -> np.ndarray:
        return self.level_count >= 2

    @property
    def witness_lo(self) -> np.ndarray:
        """(witness_hi - increment) * flagged in witness_hi's dtype, read-only.

        Multiplying by the flag zeroes unflagged pixels branch-free, unlike a
        masked copy, whose cost grows with how unpredictably flags alternate.
        An increment too wide for the dtype (256 on uint8) wraps, but then
        no pixel is flagged.
        """
        hi = self.witness_hi
        lo = np.subtract(hi, np.asarray(self.increment).astype(hi.dtype))
        lo *= self.flagged
        lo.setflags(write=False)
        return lo

    def count_at(self, p) -> int:
        return int(self.level_count[array_index(p, self.level_count.ndim)])

    def witnesses_at(self, p) -> Optional[tuple[int, int]]:
        """(c, c') with c < c' for a flagged pixel, None otherwise."""
        idx = array_index(p, self.level_count.ndim)
        if self.level_count[idx] < 2:
            return None
        hi = int(self.witness_hi[idx])
        return hi - self.increment, hi

    def __eq__(self, other) -> bool:
        if not isinstance(other, DetectionMask):
            return NotImplemented
        return (
            self.level_count.shape == other.level_count.shape
            and np.array_equal(self.level_count, other.level_count)
            and np.array_equal(self.witness_hi, other.witness_hi)
            # witness_lo is witness_hi - increment at flagged pixels and 0 elsewhere
            and (self.increment == other.increment or not self.flagged.any())
        )

    __hash__ = None  # type: ignore[assignment]


def sublevel(grid: Grid, c: int) -> np.ndarray:
    """Boolean mask of {p : I(p) < c}. Monotone in c; c must be an integer."""
    return grid.values < _integer(c, "threshold")


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


def _mask_dtypes(grid: Grid, schedule: ThresholdSchedule) -> tuple[np.dtype, np.dtype]:
    """The dtypes of DetectionMask's level_count and witnesses; see its docstring.

    Call it after _check_range, which bounds the number of levels.
    """
    return np.min_scalar_type(schedule.size(grid.max_value)), storage_dtype(grid.max_value)


def _row_strips(shape: tuple, itemsize: int) -> tuple[int, list[tuple[slice, slice, slice]]]:
    """Split the rows of every frame of an array of this shape into strips.

    A strip holds about _STRIP_BUDGET bytes at itemsize bytes a pixel, and
    at least one row. Returns the most rows a strip has, and per strip the
    slice of its rows, that slice widened by one halo row on each side the
    frame has, and the strip's rows within the halo. The halo gives each
    pixel of the strip all its neighbors.
    """
    *frames, height, width = shape
    step = max(_STRIP_BUDGET // (math.prod(frames) * width * itemsize), 1)
    strips = []
    for top in range(0, height, step):
        end = min(top + step, height)
        first = max(top - 1, 0)
        strips.append((slice(top, end), slice(first, end + 1), slice(top - first, end - first)))
    return step, strips


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

    The witness pair at a flagged pixel is the two largest member
    thresholds. Only the largest is searched for: the members are
    consecutive schedule levels, so the other is one increment below it.
    Time grows as levels x pixels. One word per pixel holds the sublevel
    sets of a chunk of up to 64 levels, one bit each, and each chunk runs
    on row strips of every frame at once, so transient memory is a few
    times _STRIP_BUDGET beyond the mask whatever the schedule length.
    """
    topology.check_grid(grid)
    # every intermediate of the sublevel counts lies within this bound of zero
    dtype = signed_dtype(_check_range(grid, schedule))
    count_dtype, witness_dtype = _mask_dtypes(grid, schedule)
    values = grid.values
    count = np.zeros(values.shape, dtype=count_dtype)
    hi = np.zeros(values.shape, dtype=witness_dtype)
    inc, offset = schedule.increment, schedule.offset
    size = schedule.size(grid.max_value)
    step = max(min(size, 8 * _WORD_DTYPES[-1].itemsize), 1)
    word = next(w for w in _WORD_DTYPES if 8 * w.itemsize >= step)
    rows, strips = _row_strips(values.shape, max(word.itemsize, dtype.itemsize))
    halo_size = values[..., : rows + 2, :].size  # the most pixels a strip and its halo hold
    # scratch reused by every strip of every chunk
    zero = np.zeros(halo_size, dtype=dtype)
    k_buf = np.empty(halo_size, dtype=dtype)
    below_buf = np.empty(halo_size, dtype=word)
    bits_buf = np.empty(halo_size, dtype=np.uint8)
    flag_buf = np.empty(halo_size, dtype=bool)
    top_buf = np.empty(halo_size, dtype=witness_dtype)
    for start in range(0, size, step):
        n = min(step, size - start)
        levels = range(offset + start * inc, offset + (start + n) * inc, inc)
        # arithmetic in the witness dtype wraps, but a member level lies in
        # [1, max_value], which the dtype holds
        past = np.asarray(levels.stop).astype(witness_dtype)
        step_up = np.asarray(inc).astype(witness_dtype)
        for strip, halo, inner in strips:
            block = values[..., halo, :]
            zeros, k, below = (b[: block.size].reshape(block.shape) for b in (zero, k_buf, below_buf))
            _sublevel_words(block, levels, k, zeros, out=below)
            members = neighbor_any(below, topology)[..., inner, :]
            below = below[..., inner, :]
            members &= np.invert(below, out=below)  # neighbor_any(below) & ~below
            bits, has, top = (b[: members.size].reshape(members.shape) for b in (bits_buf, flag_buf, top_buf))
            count_strip, hi_strip = count[..., strip, :], hi[..., strip, :]
            count_strip += np.bitwise_count(members, out=bits)
            # The lowest member bit j is the highest member level: m ^ (m - 1)
            # sets the bits up to it, j + 1 of them. Every member of this
            # chunk lies above all earlier ones, so it replaces the witness;
            # a pixel without one keeps it, its top zeroed by the flag.
            np.not_equal(bits, 0, out=has)
            low = np.subtract(members, 1, out=below)
            low ^= members
            np.multiply(np.bitwise_count(low, out=bits), step_up, out=top)
            np.subtract(past, top, out=top)  # levels[n - 1 - j]
            top *= has
            np.maximum(hi_strip, top, out=hi_strip)
            if start + step >= size:
                # multiplying by the flag zeroes unflagged pixels branch-free,
                # as in DetectionMask.witness_lo
                hi_strip *= np.greater_equal(count_strip, 2, out=has)
            del members  # before the next strip's neighbor_any allocates
    return DetectionMask(count, hi, schedule.increment)


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
    count_dtype, witness_dtype = _mask_dtypes(grid, schedule)
    values = grid.values
    count = np.empty(values.shape, dtype=count_dtype)
    hi = np.empty(values.shape, dtype=witness_dtype)
    inc, offset = schedule.increment, schedule.offset
    cap = schedule.cap(grid.max_value)
    rows, strips = _row_strips(values.shape, dtype.itemsize)
    size = values[..., :rows, :].size  # the most pixels a strip holds
    # scratch reused by every strip; numpy's SIMD min/max loops take two
    # arrays, so a max against 0 reads an array of zeros, not a scalar
    scratch = np.zeros((3, size), dtype=dtype)
    flags = np.empty(size, dtype=bool)
    for strip, halo, inner in strips:
        pixels = values[..., strip, :]
        zero, k_lo, k_end, flagged = (b[: pixels.size].reshape(pixels.shape) for b in (*scratch, flags))
        # a pixel without neighbors gets m = max_value >= I(p), an empty
        # interval, and the fill fits the grid's dtype, so m keeps it
        m = neighbor_min(values[..., halo, :], topology, grid.max_value)[..., inner, :]
        # The members in (m, I(p)] are offset + k * inc for k_lo <= k < k_end:
        # k_lo = max((m - offset) // inc + 1, 0) is the first above m and
        # k_end = (min(I(p), cap) - offset) // inc + 1 is one past the last at
        # or below I(p). Adding inc before dividing adds the 1.
        np.subtract(m, offset - inc, out=k_lo, dtype=dtype)
        k_lo //= inc
        np.maximum(k_lo, zero, out=k_lo)
        np.copyto(k_end, pixels, casting="unsafe")  # the bound holds every value
        if cap <= grid.max_value:
            np.minimum(k_end, cap, out=k_end)
        k_end -= offset - inc
        k_end //= inc
        members = np.subtract(k_end, k_lo, out=k_lo)  # k_lo is not needed again
        np.maximum(members, zero, out=members)
        count[..., strip, :] = members
        np.greater_equal(members, 2, out=flagged)
        # witness_hi is the last member, offset + (k_end - 1) * inc, zeroed
        # by the flag as in detect_multilevel
        k_end *= inc
        k_end += offset - inc
        k_end *= flagged
        hi[..., strip, :] = k_end
    return DetectionMask(count, hi, inc)


def check_necessary_condition(grid: Grid, p, c: int, c_prime: int, topology: Topology) -> bool:
    """True iff some neighbor q has I(p) - I(q) > |c - c'|.

    This must hold whenever p lies on the level curve sets of both c and
    c'; the converse fails, so a single large step never suffices as
    evidence on its own.
    """
    c, c_prime = _integer(c, "threshold"), _integer(c_prime, "threshold")
    if c == c_prime:
        raise ValueError("thresholds must differ")
    v = grid.value_at(p)
    gap = abs(c - c_prime)
    return any(v - grid.value_at(q) > gap for q in neighbors(p, grid, topology))
