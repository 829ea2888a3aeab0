"""Discontinuity and occlusion detection via level-set boundaries.

The central object is the level curve set at threshold c: the boundary of
the sublevel set {p : I(p) < c}, realized discretely as the pixels at or
above c that touch a pixel below c. A pixel lying on the level curve sets
of two distinct thresholds is flagged: the intensity, the viewed surface,
or the visibility must change non-smoothly there.

Two detectors produce the same mask by construction of the theory and are
kept as independent code paths so each can check the other:

* :func:`detect_multilevel` enumerates a threshold schedule and builds
  each boundary from its sublevel set.
* :func:`detect_pointwise` characterizes, per pixel, exactly which
  thresholds capture it (an integer interval) and counts schedule
  members inside that interval in closed form.

Everything here uses integer arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .raster import (
    Grid,
    PixelCoord,
    StackCoord,
    Topology,
    neighbor_any,
    neighbor_min,
    neighbors,
    signed_dtype,
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

# Levels are processed in batches to bound the (levels, height, width)
# boolean stack while keeping per-level Python overhead negligible.
_LEVEL_CHUNK = 64


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
        if not isinstance(self.increment, (int, np.integer)) or self.increment < 1:
            raise ValueError(f"increment must be a positive integer, got {self.increment!r}")
        object.__setattr__(self, "increment", int(self.increment))
        offset = self.increment if self.offset is None else int(self.offset)
        object.__setattr__(self, "offset", offset)
        if self.ceiling is not None:
            object.__setattr__(self, "ceiling", int(self.ceiling))

    def cap(self, max_value: int) -> int:
        """Largest threshold value admitted against a grid with this max_value."""
        cap = max_value + 1
        if self.ceiling is not None:
            cap = min(cap, self.ceiling)
        return cap

    def levels(self, max_value: int) -> np.ndarray:
        """All schedule members for a grid with the given max_value, ascending."""
        cap = self.cap(max_value)
        if cap < self.offset:
            return np.empty(0, dtype=np.int64)
        n = (cap - self.offset) // self.increment + 1
        return self.offset + self.increment * np.arange(n, dtype=np.int64)

    def contains(self, c: int, max_value: int) -> bool:
        return self.offset <= c <= self.cap(max_value) and (c - self.offset) % self.increment == 0


@dataclass(frozen=True, eq=False)
class LevelCurveSet:
    """The discrete boundary of {p : I(p) < c}: pixels at or above c with a neighbor below."""

    c: int
    mask: np.ndarray

    def __post_init__(self):
        self.mask.setflags(write=False)

    @property
    def members(self) -> frozenset:
        """Member coordinates as PixelCoord (grids) or StackCoord (stacks)."""
        if self.mask.ndim == 3:
            return frozenset(StackCoord(int(x), int(y), int(t)) for t, y, x in np.argwhere(self.mask))
        return frozenset(PixelCoord(int(x), int(y)) for y, x in np.argwhere(self.mask))

    def __contains__(self, p) -> bool:
        if self.mask.ndim == 3:
            x, y, t = p
            return bool(self.mask[t, y, x])
        x, y = p
        return bool(self.mask[y, x])

    def __len__(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True, eq=False)
class DetectionMask:
    """Per-pixel count of schedule thresholds whose level curve set contains the pixel.

    A pixel is flagged when the count is at least two. witness_hi/witness_lo
    hold the two largest such thresholds at flagged pixels and are zero
    elsewhere, which makes masks comparable bit-for-bit. The arrays are
    signed integers whose width depends on the route and the grid;
    equality and every accessor compare values, not dtypes.
    """

    level_count: np.ndarray
    witness_hi: np.ndarray
    witness_lo: np.ndarray

    def __post_init__(self):
        for a in (self.level_count, self.witness_hi, self.witness_lo):
            a.setflags(write=False)

    @property
    def flagged(self) -> np.ndarray:
        return self.level_count >= 2

    @property
    def shape(self) -> tuple[int, ...]:
        return self.level_count.shape

    @property
    def width(self) -> int:
        return self.level_count.shape[-1]

    @property
    def height(self) -> int:
        return self.level_count.shape[-2]

    def count_at(self, p) -> int:
        return int(self.level_count[tuple(reversed(p))])

    def witnesses_at(self, p) -> Optional[tuple[int, int]]:
        """(c, c') with c < c' for a flagged pixel, None otherwise."""
        idx = tuple(reversed(p))
        if self.level_count[idx] < 2:
            return None
        return int(self.witness_lo[idx]), int(self.witness_hi[idx])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DetectionMask):
            return NotImplemented
        return (
            self.level_count.shape == other.level_count.shape
            and np.array_equal(self.level_count, other.level_count)
            and np.array_equal(self.witness_hi, other.witness_hi)
            and np.array_equal(self.witness_lo, other.witness_lo)
        )

    __hash__ = None  # type: ignore[assignment]


def sublevel(grid: Grid, c: int) -> np.ndarray:
    """Boolean mask of {p : I(p) < c}. Monotone in c."""
    return grid.values < c


def level_curve_set(grid: Grid, c: int, topology: Topology) -> LevelCurveSet:
    """Boundary of the sublevel set at c: pixels with I(p) >= c next to some I(q) < c."""
    topology.check_grid(grid)
    below = sublevel(grid, c)
    mask = neighbor_any(below, topology) & ~below
    return LevelCurveSet(int(c), mask)


def _merge_top_two(count, hi, lo, chunk_count, chunk_hi, chunk_lo):
    """Fold one ascending chunk's member statistics into the running totals."""
    two = chunk_count >= 2
    one = chunk_count == 1
    lo = np.where(two, chunk_lo, np.where(one, hi, lo))
    hi = np.where(two | one, chunk_hi, hi)
    return count + chunk_count, hi, lo


def _finalize_mask(count, hi, lo) -> DetectionMask:
    """Zero the witnesses of unflagged pixels in place; the arrays must be the caller's own.

    Multiplying by the flag is branch-free, unlike a masked copy, whose
    cost grows with how unpredictably flags alternate.
    """
    flagged = count >= 2
    np.multiply(hi, flagged, out=hi)
    np.multiply(lo, flagged, out=lo)
    return DetectionMask(count, hi, lo)


def detect_multilevel(grid: Grid, schedule: ThresholdSchedule, topology: Topology) -> DetectionMask:
    """Enumerate the schedule, build every level curve set, and count memberships.

    The witness pair at a flagged pixel is the two largest member
    thresholds, so output is deterministic regardless of evaluation order.
    """
    topology.check_grid(grid)
    values = grid.values
    levels = schedule.levels(grid.max_value)
    count = np.zeros(values.shape, dtype=np.int64)
    hi = np.zeros(values.shape, dtype=np.int64)
    lo = np.zeros(values.shape, dtype=np.int64)
    shape = (-1,) + (1,) * values.ndim
    for start in range(0, levels.size, _LEVEL_CHUNK):
        ls = levels[start : start + _LEVEL_CHUNK]
        below = values[None, ...] < ls.reshape(shape)
        members = neighbor_any(below, topology) & ~below
        chunk_count = members.sum(axis=0)
        # indices of the two largest member levels within this chunk
        rev = members[::-1]
        first = np.argmax(rev, axis=0)
        rest = rev.copy()
        np.put_along_axis(rest, first[None, ...], False, axis=0)
        second = np.argmax(rest, axis=0)
        chunk_hi = ls[ls.size - 1 - first]
        chunk_lo = ls[ls.size - 1 - second]
        count, hi, lo = _merge_top_two(count, hi, lo, chunk_count, chunk_hi, chunk_lo)
    return _finalize_mask(count, hi, lo)


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
    every input.
    """
    topology.check_grid(grid)
    values = grid.values
    fill = grid.max_value + 2  # beyond every admissible threshold
    m = neighbor_min(values, topology, fill)
    inc, offset = schedule.increment, schedule.offset
    cap = schedule.cap(grid.max_value)
    # with b = max(fill, |cap|, |offset| + inc), every intermediate below
    # lies within 4 * b + 2 of zero
    dtype = signed_dtype(4 * max(fill, abs(cap), abs(offset) + inc) + 2)
    # k_hi: largest k with offset + k * inc <= min(I(p), cap)
    k_hi = np.minimum(values, cap, dtype=dtype)
    k_hi -= offset
    k_hi //= inc
    # k_lo = max(0, q + 1), q the largest k with offset + k * inc <= m, and
    # count = max(k_hi - k_lo + 1, 0) = max(k_hi - max(q, -1), 0)
    count = np.subtract(m, offset, dtype=dtype)
    del m  # release it before the next full-size allocation
    count //= inc
    np.maximum(count, -1, out=count)
    np.subtract(k_hi, count, out=count)
    np.maximum(count, 0, out=count)
    hi = k_hi
    hi *= inc
    hi += offset
    lo = np.subtract(hi, inc)
    return _finalize_mask(count, hi, lo)


def check_necessary_condition(grid: Grid, p, c: int, c_prime: int, topology: Topology) -> bool:
    """True iff some neighbor q has I(p) - I(q) > |c - c'|.

    This must hold whenever p lies on the level curve sets of both c and
    c'; the converse fails, so a single large step never suffices as
    evidence on its own.
    """
    if c == c_prime:
        raise ValueError("thresholds must differ")
    v = grid.value_at(p)
    gap = abs(c - c_prime)
    return any(v - grid.value_at(q) > gap for q in neighbors(p, grid, topology))
