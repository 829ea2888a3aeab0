"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[criterion N] name: PASS/FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to see them as they execute.
"""

import contextlib
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from conftest import brute_neighbors, cheb_dilate

from isophote import (
    IntensityGrid,
    SceneSpec,
    Sphere,
    ThresholdSchedule,
    Topology,
    check_necessary_condition,
    detect_multilevel,
    detect_pointwise,
    differential,
    discrete_gradient,
    hamiltonian,
    level_curve_set,
    render,
    trace_level_contours,
    write_pbm,
    zero_mask,
)

N4, N8 = Topology.N4, Topology.N8


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


def random_grids(seed, count, max_side=32, max_value=255):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = int(rng.integers(1, max_side + 1))
        h = int(rng.integers(1, max_side + 1))
        out.append(IntensityGrid(rng.integers(0, max_value + 1, size=(h, w)), max_value))
    return out


def test_criterion_1_detector_equivalence():
    """detect_pointwise == detect_multilevel over 1000 grids, all schedules, both topologies."""
    with criterion(1, "detector routes agree on 1000 random grids"):
        start = time.perf_counter()
        for grid in random_grids(seed=715, count=1000):
            for increment in (1, 2, 5, 17):
                for offset in sorted({0, 1, increment}):
                    schedule = ThresholdSchedule(increment, offset)
                    for topology in (N4, N8):
                        multi = detect_multilevel(grid, schedule, topology)
                        point = detect_pointwise(grid, schedule, topology)
                        assert multi == point
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"equivalence suite took {elapsed:.1f}s"


def test_criterion_2_necessary_condition():
    """Every witness pair has a neighbor with I(p) - I(q) > |c - c'|; zero violations."""
    with criterion(2, "necessary condition on every witness pair"):
        checked = 0
        for grid in random_grids(seed=716, count=150, max_side=20):
            rows = grid.values.tolist()
            for increment in (1, 5):
                schedule = ThresholdSchedule(increment)
                for topology in (N4, N8):
                    mask = detect_pointwise(grid, schedule, topology)
                    for y, x in np.argwhere(mask.flagged):
                        lo, hi = mask.witnesses_at((x, y))
                        assert lo != hi
                        gap = abs(hi - lo)
                        qs = brute_neighbors((x, y), grid.width, grid.height, topology)
                        assert any(rows[y][x] - rows[qy][qx] > gap for qx, qy in qs)
                        checked += 1
        assert checked > 10000


def test_criterion_3_threshold_counterexample(ring_grid):
    """Centre 5 / ring 3: the 2-vs-1 threshold test passes yet no flag; unit schedule flags via 4, 5."""
    with criterion(3, "threshold counterexample grid"):
        p = (1, 1)
        assert check_necessary_condition(ring_grid, p, 2, 1, N4)
        assert p not in level_curve_set(ring_grid, 2, N4)
        assert p not in level_curve_set(ring_grid, 1, N4)
        low = ThresholdSchedule(1, offset=1, ceiling=2)  # exactly {1, 2}
        assert not detect_multilevel(ring_grid, low, N4).flagged.any()
        assert not detect_pointwise(ring_grid, low, N4).flagged.any()

        full = ThresholdSchedule(1, offset=1)
        for mask in (detect_multilevel(ring_grid, full, N4), detect_pointwise(ring_grid, full, N4)):
            assert mask.count_at(p) == 2
            assert mask.witnesses_at(p) == (4, 5)
            assert mask.flagged.sum() == 1


def test_criterion_4_projection_differential():
    """The grazing-circle example is exactly zero; kernel is the viewing ray on 10^4 samples."""
    with criterion(4, "projection differential and its kernel"):
        du, dv = differential((0.5, 0.0, 0.5), (0.5, 0.0, 0.5))
        assert math.hypot(du, dv) <= 1e-12

        rng = np.random.default_rng(717)
        for trial in range(10_000):
            p = rng.uniform(-3.0, 3.0, 3)
            while abs(p[2]) < 0.2:
                p[2] = rng.uniform(-3.0, 3.0)
            scale_p = float(np.linalg.norm(p))
            if trial % 2 == 0:
                lam = float(rng.uniform(0.1, 2.0)) * (-1.0 if trial % 4 else 1.0)
                v = lam * p
            else:
                v = rng.uniform(-3.0, 3.0, 3)
                while np.linalg.norm(np.cross(v, p)) <= 1e-3 * np.linalg.norm(v) * scale_p:
                    v = rng.uniform(-3.0, 3.0, 3)
            mag = math.hypot(*differential(p, v))
            scale = (np.linalg.norm(v) / abs(p[2])) * (1.0 + scale_p / abs(p[2]))
            if trial % 2 == 0:
                assert mag <= 1e-9 * scale
            else:
                assert mag > 1e-9 * scale


def acceptance_scene():
    return SceneSpec(
        width=128,
        height=128,
        objects=(Sphere(center=(0.0, 0.0, 5.0), radius=2.0, albedo=0.8),),
        light_direction=(0.0, 0.0, -1.0),
        ambient=0.5,
        fov=0.7,
    )


def test_criterion_5_end_to_end_scene():
    """Flags hug the rendered sphere's contour: precision >= 0.9, recall >= 0.8 at 2 px."""
    with criterion(5, "end-to-end sphere scene at increment 8"):
        start = time.perf_counter()
        grid, truth = render(acceptance_scene())
        mask = detect_multilevel(grid, ThresholdSchedule(8), N4)
        flagged = mask.flagged
        target = truth.discontinuity_mask | truth.occluding_mask
        assert flagged.any() and target.any()
        precision = (flagged & cheb_dilate(target, 2)).sum() / flagged.sum()
        recall = (
            truth.discontinuity_mask & cheb_dilate(flagged, 2)
        ).sum() / truth.discontinuity_mask.sum()
        elapsed = time.perf_counter() - start
        assert precision >= 0.90, f"precision {precision:.3f}"
        assert recall >= 0.80, f"recall {recall:.3f}"
        assert elapsed < 5.0, f"scene test took {elapsed:.1f}s"


def test_criterion_6_increment_regimes():
    """Unit increments flood a noisy ramp (>= 70% of interior); large increments go quiet (<= 5%)."""
    with criterion(6, "increment regime change on noisy ramp"):
        rng = np.random.default_rng(718)
        size = 100
        yy, xx = np.mgrid[0:size, 0:size]
        values = 20 + 2 * xx + 2 * yy + rng.integers(-8, 9, size=(size, size))
        grid = IntensityGrid(values, int(values.max()) + 8)
        interior = np.zeros((size, size), dtype=bool)
        interior[1:-1, 1:-1] = True

        dense = detect_multilevel(grid, ThresholdSchedule(1), N4).flagged
        sparse = detect_multilevel(grid, ThresholdSchedule(32), N4).flagged
        dense_frac = dense[interior].mean()
        sparse_frac = sparse[interior].mean()
        assert dense_frac >= 0.70, f"unit increment flagged only {dense_frac:.3f}"
        assert sparse_frac <= 0.05, f"increment 32 flagged {sparse_frac:.3f}"


def test_criterion_7_integer_exactness(tmp_path):
    """Scaling by 3 or shifting by 10 preserves the mask; repeated/parallel runs are byte-identical."""
    with criterion(7, "integer exactness and determinism"):
        rng = np.random.default_rng(719)
        values = rng.integers(0, 86, size=(24, 24))
        grid = IntensityGrid(values, 85)
        schedule = ThresholdSchedule(4, offset=2)
        for topology in (N4, N8):
            base = detect_multilevel(grid, schedule, topology)

            tripled = detect_multilevel(
                IntensityGrid(values * 3, 255), ThresholdSchedule(12, offset=6), topology
            )
            assert np.array_equal(base.level_count, tripled.level_count)
            assert np.array_equal(tripled.witness_hi, base.witness_hi * 3)
            assert np.array_equal(tripled.witness_lo, base.witness_lo * 3)

            shifted = detect_multilevel(
                IntensityGrid(values + 10, 95), ThresholdSchedule(4, offset=12), topology
            )
            assert np.array_equal(base.level_count, shifted.level_count)
            assert np.array_equal(shifted.witness_hi, np.where(base.flagged, base.witness_hi + 10, 0))
            assert np.array_equal(shifted.witness_lo, np.where(base.flagged, base.witness_lo + 10, 0))

        run = lambda: detect_multilevel(grid, schedule, N4)
        with ThreadPoolExecutor(max_workers=2) as pool:
            parallel = list(pool.map(lambda _: run(), range(4)))
        serial = [run(), run()]
        reference = serial[0]
        blobs = set()
        for i, mask in enumerate(parallel + serial):
            assert mask == reference
            path = tmp_path / f"mask{i}.pbm"
            write_pbm(path, mask.flagged)
            blobs.add(path.read_bytes())
        assert len(blobs) == 1


def test_criterion_8_field_module():
    """Field orthogonality is exact, contours partition the level sets, filtering only removes."""
    with criterion(8, "field module invariants"):
        rng = np.random.default_rng(720)
        for _ in range(100):
            w = int(rng.integers(2, 17))
            h = int(rng.integers(2, 17))
            grid = IntensityGrid(rng.integers(0, 256, size=(h, w)), 255)
            gx, gy = discrete_gradient(grid)
            field = hamiltonian(grid)
            assert not (field.hx * gx + field.hy * gy).any()

        for _ in range(30):
            grid = IntensityGrid(rng.integers(0, 12, size=(8, 8)), 11)
            for c in (3, 7):
                for topology in (N4, N8):
                    expected = level_curve_set(grid, c, topology).mask
                    chains = trace_level_contours(grid, c, topology)
                    seen = np.zeros_like(expected)
                    seen[chains.y, chains.x] = True
                    assert chains.x.size == expected.sum()  # chains are disjoint
                    assert np.array_equal(seen, expected)

        grid, _ = render(acceptance_scene())
        flagged = detect_multilevel(grid, ThresholdSchedule(8), N4).flagged
        zeros = zero_mask(hamiltonian(grid), 0)
        filtered = flagged & ~zeros
        assert not (filtered & ~flagged).any()
        assert filtered.sum() <= flagged.sum()
