import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import reference_scene
from conftest import BRUTE_OFFSETS, cheb_dilate
from hypothesis import example, given, settings

import isophote
from isophote import (
    Plane,
    SceneError,
    SceneSpec,
    Sphere,
    ThresholdSchedule,
    Topology,
    detect_multilevel,
    differential,
    frame_stack,
    is_occluding,
    load_scene,
    project,
    render,
    render_sequence,
)
from isophote import scene
from isophote.scene import MAX_PIXELS, _difference, _identity_changes, _sphere_box

N4 = Topology.N4


def sphere_scene(width=128, height=128, albedo=0.8, radius=2.0, z=5.0, fov=0.7, ambient=0.5):
    return SceneSpec(
        width=width,
        height=height,
        objects=(Sphere(center=(0.0, 0.0, z), radius=radius, albedo=albedo),),
        light_direction=(0.0, 0.0, -1.0),
        ambient=ambient,
        fov=fov,
    )


class TestProject:
    def test_optical_axis(self):
        assert project((0.0, 0.0, 5.0)) == (0.0, 0.0)

    def test_direct_substitution(self):
        assert project((1.0, 2.0, 2.0)) == (0.5, 1.0)

    def test_ray_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.uniform(-4, 4, 3)
            p[2] = p[2] if abs(p[2]) > 0.5 else 1.5
            lam = float(rng.uniform(0.1, 3.0)) * (-1 if rng.integers(2) else 1)
            a = project(p)
            b = project(lam * p)
            assert math.isclose(a[0], b[0], rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(a[1], b[1], rel_tol=1e-12, abs_tol=1e-12)

    def test_focal_plane_rejected(self):
        with pytest.raises(ValueError, match="focal plane"):
            project((1.0, 1.0, 0.0))


class TestDifferential:
    def test_circle_tangent_maps_to_zero(self):
        # tangent at the grazing point of the circle (z-1)^2 + x^2 = 1/2
        du, dv = differential((0.5, 0.0, 0.5), (0.5, 0.0, 0.5))
        assert du == 0.0 and dv == 0.0

    def test_radial_vectors_map_to_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.uniform(-3, 3, 3)
            p[2] = p[2] if abs(p[2]) > 0.3 else 0.7
            lam = float(rng.uniform(-2, 2)) or 1.0
            du, dv = differential(p, lam * p)
            assert abs(du) < 1e-12 and abs(dv) < 1e-12

    def test_axis_point_unit_tangent(self):
        assert differential((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)) == (1.0, 0.0)

    def test_focal_plane_rejected(self):
        with pytest.raises(ValueError, match="focal plane"):
            differential((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))


class TestIsOccluding:
    def test_circle_grazing_point(self):
        # normal of the circle at (1/2, 0, 1/2) points along (x, 0, z-1)
        assert is_occluding((0.5, 0.0, 0.5), (0.5, 0.0, -0.5), tolerance=1e-12)

    def test_sphere_front_pole_is_not(self):
        assert not is_occluding((0.0, 0.0, 3.0), (0.0, 0.0, -1.0), tolerance=1e-6)

    def test_any_perpendicular_normal_is(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform(-3, 3, 3)
            p[2] = p[2] if abs(p[2]) > 0.3 else 0.9
            helper = rng.uniform(-1, 1, 3)
            n = np.cross(p, helper)
            if np.linalg.norm(n) < 1e-6:
                continue
            assert is_occluding(p, n, tolerance=1e-9)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            is_occluding((1.0, 0.0, 2.0), (0.0, 0.0, 0.0))

    def test_focal_plane_rejected(self):
        with pytest.raises(ValueError, match="focal plane"):
            is_occluding((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


class TestValidation:
    def test_sphere_radius_positive(self):
        with pytest.raises(SceneError):
            Sphere(center=(0, 0, 5), radius=0.0)

    def test_sphere_in_front_of_camera(self):
        with pytest.raises(SceneError):
            Sphere(center=(0, 0, 1.0), radius=2.0)

    def test_plane_normal_nonzero(self):
        with pytest.raises(SceneError):
            Plane(point=(0, 0, 5), normal=(0, 0, 0))

    def test_light_normalized(self):
        spec = SceneSpec(width=4, height=4, light_direction=(0.0, 0.0, -4.0))
        assert np.allclose(spec.light_direction, (0.0, 0.0, -1.0))

    def test_zero_light_rejected(self):
        with pytest.raises(SceneError):
            SceneSpec(width=4, height=4, light_direction=(0.0, 0.0, 0.0))

    def test_bad_ambient_and_fov(self):
        with pytest.raises(SceneError):
            SceneSpec(width=4, height=4, ambient=1.5)
        with pytest.raises(SceneError):
            SceneSpec(width=4, height=4, fov=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda v: Sphere(center=(v, 0.0, 5.0), radius=1.0), "sphere center"),
            (lambda v: Sphere(center=(0.0, v, 5.0), radius=1.0), "sphere center"),
            (lambda v: Sphere(center=(0.0, 0.0, v), radius=1.0), "sphere center"),
            (lambda v: Sphere(center=(0.0, 0.0, 5.0), radius=v), "sphere radius"),
            (lambda v: Sphere(center=(0.0, 0.0, 5.0), radius=1.0, albedo=v), "albedo"),
            (lambda v: Plane(point=(0.0, v, 5.0), normal=(0.0, 0.0, 1.0)), "plane point"),
            (lambda v: Plane(point=(0.0, 0.0, 5.0), normal=(v, 0.0, 1.0)), "plane normal"),
            (lambda v: Plane(point=(0.0, 0.0, 5.0), normal=(0.0, 0.0, 1.0), albedo=v), "albedo"),
            (lambda v: SceneSpec(4, 3, light_direction=(0.0, v, -1.0)), "light direction"),
            (lambda v: SceneSpec(4, 3, ambient=v), "ambient"),
            (lambda v: SceneSpec(4, 3, fov=v), "fov"),
            (lambda v: SceneSpec(4, 3, principal=(v, 1.0)), "principal point"),
            (lambda v: SceneSpec(4, 3, principal=(1.0, v)), "principal point"),
        ],
    )
    def test_non_finite_values_rejected(self, build, field, bad):
        with pytest.raises(SceneError, match=field):
            build(bad)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda v: Sphere(center=(v, 0.0, 5.0), radius=1.0), "sphere center"),
            (lambda v: Sphere(center=(0.0, 0.0, v), radius=1.0), "sphere center"),
            (lambda v: Plane(point=(0.0, 0.0, v), normal=(0.0, 0.0, 1.0)), "plane point"),
            (lambda v: Plane(point=(0.0, 0.0, 5.0), normal=(v, 0.0, 1.0)), "plane normal"),
            (lambda v: SceneSpec(4, 3, light_direction=(v, 0.0, -1.0)), "light direction"),
            (lambda v: SceneSpec(4, 3, fov=v), "fov"),
            (lambda v: SceneSpec(4, 3, principal=(v, 1.0)), "principal point"),
        ],
    )
    def test_magnitudes_are_bounded(self, build, field):
        build(1e30)  # the bound itself is admitted
        for bad in (1.0000001e30, 1e154, 1e308):
            with pytest.raises(SceneError, match=field):
                build(bad)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda v: Sphere(center=(0.0, 0.0, 5.0), radius=v), "sphere radius"),
            (lambda v: SceneSpec(4, 3, fov=v), "fov"),
        ],
    )
    def test_divisors_are_bounded_below(self, build, field):
        build(1e-30)
        for bad in (0.9999999e-30, 1e-320, 5e-324, 0.0, -1.0, 1e308):
            with pytest.raises(SceneError, match=field):
                build(bad)

    def test_motion_is_bounded(self):
        spec = SceneSpec(8, 8, objects=(Sphere(center=(0.0, 0.0, 5.0), radius=1.0),))
        with pytest.raises(SceneError, match="motion"):
            render_sequence(spec, (1e308, 0.0, 0.0), 2)

    def test_principal_defaults_to_center(self):
        spec = SceneSpec(width=10, height=6)
        assert spec.principal == (5.0, 3.0)

    @pytest.mark.parametrize("bad", [8.0, True, "8", None], ids=["float", "bool", "str", "none"])
    @pytest.mark.parametrize("field", ["width", "height", "max_value"])
    def test_integer_fields_refuse_other_types(self, field, bad):
        with pytest.raises(SceneError, match=f"{field} must be an integer"):
            SceneSpec(**{"width": 8, "height": 6, field: bad})

    def test_numpy_integers_become_ints(self):
        spec = SceneSpec(np.int64(8), np.int32(6), max_value=np.uint16(255))
        assert [type(v) for v in (spec.width, spec.height, spec.max_value)] == [int] * 3

    def test_max_value_is_bounded(self):
        # up to 2**53 every intensity is a float, so the shading rounds to it exactly
        floor = Plane((0.0, 0.0, 5.0), (0.0, 0.0, -1.0), albedo=0.0)
        grid, _ = render(SceneSpec(3, 2, (floor,), ambient=0.5, max_value=2**53))
        assert (grid.values == 2**52).all()
        for bad in (0, 2**53 + 1, 2**63):
            with pytest.raises(SceneError, match="max_value"):
                SceneSpec(3, 2, max_value=bad)

    @pytest.mark.parametrize("width, height", [(0, 4), (4, 0), (-1, 4)])
    def test_image_must_be_at_least_one_pixel(self, width, height):
        with pytest.raises(SceneError, match="at least 1x1"):
            SceneSpec(width, height)

    @pytest.mark.parametrize("objects", [("x",), (None,), 5, "sphere", (Sphere((0.0, 0.0, 5.0), 1.0), 1)],
                             ids=["str", "none", "int", "string", "mixed"])
    def test_objects_must_be_spheres_and_planes(self, objects):
        # "x" was accepted, and rendering it raised AttributeError
        with pytest.raises(SceneError, match="objects must be a list of spheres and planes"):
            SceneSpec(4, 4, objects=objects)

    @pytest.mark.parametrize("build", [
        lambda: SceneSpec(4, 4, fov=10**400),
        lambda: SceneSpec("8" * 1000, 4),
        lambda: scene.scene_from_dict({"image": {"width": 4, "height": 4}, "objects": [{"type": "x" * 1000}]}),
    ], ids=["fov", "width", "type"])
    def test_a_refused_value_is_quoted_shortly(self, build):
        # fov=10**400 was quoted with all 401 digits
        with pytest.raises(SceneError) as err:
            build()
        assert len(str(err.value)) < 100

    def test_numbers_are_stored_as_floats(self):
        # principal ("1", "2") was accepted, and rendering it raised a numpy error
        sphere = Sphere(np.array([0, 0, 5], dtype=np.int32), np.float32(1.5), albedo=1)
        spec = SceneSpec(8, 6, (sphere,), ambient=np.int64(0), fov=1, principal=[np.uint8(3), 2])
        assert spec.principal == (3.0, 2.0)
        values = (sphere.radius, sphere.albedo, spec.ambient, spec.fov, *spec.principal)
        assert [type(v) for v in values] == [float] * 6
        assert sphere.center.dtype == np.float64 and not sphere.center.flags.writeable

    def test_a_bool_is_not_a_number(self):
        # True was accepted as a radius of 1
        with pytest.raises(SceneError, match="sphere radius"):
            Sphere((0.0, 0.0, 5.0), True)
        with pytest.raises(SceneError, match="plane normal"):
            Plane((0.0, 0.0, 5.0), np.array([False, False, True]))

    def test_frames_must_be_an_integer(self):
        spec = SceneSpec(8, 6)
        for bad in (2.0, "3", True):
            with pytest.raises(SceneError, match="frames must be an integer"):
                render_sequence(spec, (0.0, 0.0, 0.0), bad)

    def test_pixel_count_is_bounded(self):
        SceneSpec(width=MAX_PIXELS, height=1)
        with pytest.raises(SceneError, match="exceeds the limit"):
            SceneSpec(width=MAX_PIXELS + 1, height=1)
        with pytest.raises(SceneError, match="exceeds the limit"):
            SceneSpec(width=100000, height=100000)


class TestRender:
    def test_empty_scene(self):
        grid, truth = render(SceneSpec(width=8, height=6))
        assert not grid.values.any()
        assert not truth.occluding_mask.any()
        assert not truth.discontinuity_mask.any()
        assert np.isinf(truth.depth_map).all()
        assert (truth.object_ids == -1).all()

    def test_intensities_in_range(self):
        grid, _ = render(sphere_scene())
        assert grid.values.min() >= 0
        assert grid.values.max() <= grid.max_value

    def test_brightest_pixels_face_the_light(self):
        # rounding flattens the top into a plateau; its centroid must sit
        # where the normal lines up with the light, i.e. the image center
        spec = sphere_scene()
        grid, _ = render(spec)
        ys, xs = np.nonzero(grid.values == grid.values.max())
        cx, cy = spec.principal
        assert math.hypot(xs.mean() + 0.5 - cx, ys.mean() + 0.5 - cy) <= 1.5

    def test_depth_at_center_is_front_of_sphere(self):
        _, truth = render(sphere_scene())
        assert abs(truth.depth_map[64, 64] - 3.0) < 0.01
        assert np.isinf(truth.depth_map[0, 0])

    def test_occluding_ring_matches_analytic_tangency_circle(self):
        spec = sphere_scene()
        _, truth = render(spec)
        ys, xs = np.nonzero(truth.occluding_mask)
        assert len(xs) > 40
        cx, cy = spec.principal
        radii = np.hypot(xs + 0.5 - cx, ys + 0.5 - cy)
        pitch = 2 * spec.fov / spec.width
        d, r = 5.0, 2.0
        analytic = (r / math.sqrt(d * d - r * r)) / pitch
        assert np.all(np.abs(radii - analytic) <= 1.5)

    def test_occluding_pixels_hit_the_sphere(self):
        _, truth = render(sphere_scene())
        assert not (truth.occluding_mask & (truth.object_ids < 0)).any()

    def test_occluding_hits_satisfy_the_tangency_test(self):
        spec = sphere_scene()
        _, truth = render(spec)
        dirs = spec.pixel_rays()
        sphere = spec.objects[0]
        for y, x in np.argwhere(truth.occluding_mask):
            point = dirs[y, x] * truth.depth_map[y, x]
            normal = (point - sphere.center) / sphere.radius
            assert is_occluding(point, normal, tolerance=0.15)

    def test_discontinuity_matches_identity_change_oracle(self):
        spec = sphere_scene(width=48, height=48)
        _, truth = render(spec)
        ids = truth.object_ids
        h, w = ids.shape
        expect = np.zeros_like(truth.discontinuity_mask)
        for y in range(h):
            for x in range(w):
                for dx, dy in BRUTE_OFFSETS[N4]:
                    qx, qy = x + dx, y + dy
                    if 0 <= qx < w and 0 <= qy < h and ids[qy, qx] != ids[y, x]:
                        expect[y, x] = True
                        break
        assert np.array_equal(truth.discontinuity_mask, expect)

    def test_discontinuity_symmetric_under_neighbors(self):
        _, truth = render(sphere_scene(width=48, height=48))
        ids = truth.object_ids
        mask = truth.discontinuity_mask
        for y, x in np.argwhere(mask):
            others = [
                ids[y + dy, x + dx]
                for dx, dy in BRUTE_OFFSETS[N4]
                if 0 <= x + dx < ids.shape[1] and 0 <= y + dy < ids.shape[0]
            ]
            assert any(o != ids[y, x] for o in others)

    def test_two_spheres_share_a_flagged_border(self):
        spec = SceneSpec(
            width=96,
            height=96,
            objects=(
                Sphere(center=(-0.5, 0.0, 5.0), radius=1.3, albedo=0.8),
                Sphere(center=(0.9, 0.0, 7.0), radius=1.8, albedo=0.8),
            ),
            light_direction=(0.0, 0.0, -1.0),
            ambient=0.5,
            fov=0.7,
        )
        _, truth = render(spec)
        ids = truth.object_ids
        pairs = (ids[:, :-1] == 0) & (ids[:, 1:] == 1) | (ids[:, :-1] == 1) & (ids[:, 1:] == 0)
        assert pairs.any()  # the spheres do overlap in the image
        ys, xs = np.nonzero(pairs)
        assert truth.discontinuity_mask[ys, xs].all()
        assert truth.discontinuity_mask[ys, xs + 1].all()

    def test_plane_fills_the_image(self):
        spec = SceneSpec(
            width=16,
            height=16,
            objects=(Plane(point=(0.0, 0.0, 10.0), normal=(0.0, 0.0, -1.0), albedo=1.0),),
            light_direction=(0.0, 0.0, -1.0),
            ambient=0.2,
        )
        grid, truth = render(spec)
        assert (truth.object_ids == 0).all()
        assert (grid.values == 255).all()
        assert abs(truth.depth_map[8, 8] - 10.0) < 0.05

    def test_render_is_deterministic(self):
        a, _ = render(sphere_scene())
        b, _ = render(sphere_scene())
        assert np.array_equal(a.values, b.values)


def assert_same_render(got, want):
    """Image values, both masks, depth and ids equal, with equal dtypes."""
    (grid, truth), (ref_grid, ref_truth) = got, want
    assert grid.max_value == ref_grid.max_value
    pairs = [(grid.values, ref_grid.values)]
    pairs += [(getattr(truth, f), getattr(ref_truth, f)) for f in ("occluding_mask", "discontinuity_mask",
                                                                   "depth_map", "object_ids")]
    for a, b in pairs:
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def nonzero(v):
    return math.hypot(*v) > 1e-3


@st.composite
def scenes(draw):
    """Scene configs from 2x2 up: spheres from sub-pixel size up, some 0-5 px outside the
    view or duplicated (exact depth ties), planes including edge-on ones through the camera,
    fov 0.05-2, principal points up to ten image sizes off center, max_value 1/255/65535."""
    w, h = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    fov = draw(st.floats(0.05, 2.0))
    off = st.tuples(st.floats(-10.0 * w, 11.0 * w), st.floats(-10.0 * h, 11.0 * h))
    principal = draw(st.one_of(st.none(), st.tuples(st.floats(0, w), st.floats(0, h)), off))
    cx, cy = principal if principal is not None else (w / 2.0, h / 2.0)
    pitch = 2.0 * fov / w
    coord = st.floats(-3.0, 3.0)
    objects = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["sphere", "sphere", "outside", "copy", "plane", "edge-on"]))
        albedo = draw(st.floats(0.0, 1.0))
        if kind == "copy" and objects:
            objects.append(dataclasses.replace(draw(st.sampled_from(objects)), albedo=albedo))
        elif kind in ("sphere", "outside", "copy"):
            z = draw(st.floats(1.0, 20.0))
            radius = draw(st.one_of(st.floats(0.001, 0.01), st.floats(0.001, 0.9 * z)))
            x, y = draw(st.floats(-5.0, w + 5.0)), draw(st.floats(-5.0, h + 5.0))
            if kind == "outside":  # the silhouette ends 0-5 px left of or above the view
                gap = draw(st.floats(0.0, 5.0)) + radius / math.sqrt(z * z - radius * radius) / pitch
                x, y = draw(st.sampled_from([(-0.5 - gap, y), (x, -0.5 - gap)]))
            center = ((x + 0.5 - cx) * pitch * z, (y + 0.5 - cy) * pitch * z, z)
            objects.append(Sphere(center=center, radius=radius, albedo=albedo))
        else:
            normal = draw(st.tuples(coord, coord, st.one_of(st.just(0.0), coord)).filter(nonzero))
            point = (0.0, 0.0, 0.0) if kind == "edge-on" else draw(st.tuples(coord, coord, coord))
            objects.append(Plane(point=point, normal=normal, albedo=albedo))
    light = draw(st.tuples(coord, coord, coord).filter(nonzero))
    ambient = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    max_value = draw(st.sampled_from([1, 255, 65535]))
    return SceneSpec(w, h, tuple(objects), light, ambient, fov, max_value, principal)


# On this wide-angle view `near` holds up to 26 px past the sphere's silhouette.
WIDE_ANGLE = SceneSpec(
    5, 38,
    (Sphere((-68.54278283519734, 488.8629972217323, 8.457343744239067), 0.03403408162719329),
     Plane((-137.08556567039468, 977.7259944434646, 16.914687488478134),
           (68.54278283519734, -488.8629972217323, -8.457343744239067))),
    (0.0, 0.0, -1.0), 0.2, 1.8469983706337296, 255, (8.339761526842583, -40.313298912561024),
)
# Rint-tie cases, found by search when `@` rounded by the width of the view it was given. A plane
# nearest in one column of two, with n.l exactly -0.5 at max_value 1 and ambient 0: the side shaded
# with -n sits on rint's tie at 0.5, so one ulp of the dot product decides the pixel.
ONE_COLUMN = SceneSpec(
    2, 3,
    (Plane((0.9942201753498913, 0.10573810701203151, -0.018592892533001504),
           (0.9942201753498913, 0.10573810701203151, -0.018592892533001504)),),
    (-0.4290312480189637, -0.7759408668529136, -0.4624369788099126), 0.0, 1.0, 1,
)
# Rint-tie cases: spheres nearest in one column, at the right edge and inside, with n.l within a few
# ulps of 0.5 at max_value 1 and ambient 0, so the rounding of n.l decides which side of rint's tie
# a pixel lands on.
SPHERE_RIGHT_COLUMN = SceneSpec(
    3, 3, (Sphere((1.8861457834152853, 1.3524658700185395, 7.040032957672692), 0.7099382111663295),),
    (-0.6211694719437235, 0.7790726249367126, 0.08481940933168652), 0.0, 0.4147434184746459, 1,
)
SPHERE_INNER_COLUMN = SceneSpec(
    8, 2, (Sphere((3.0729230254159163, -1.0997040825115676, 6.20748407284478), 0.6414887972908644),),
    (-0.8802821061814378, -0.4738653459196315, -0.023559445520633337), 0.0, 1.1797767404999986, 1,
)
# The last sphere lies wholly behind the first, so it is nearest nowhere, and a wall lies behind both.
HIDDEN_SPHERE = SceneSpec(
    24, 20,
    (Sphere((0.2, -0.1, 4.0), 1.0, 0.7), Plane((0.0, 0.0, 20.0), (0.1, 0.0, -1.0), 0.4),
     Sphere((0.5, -0.25, 10.0), 2.0)),
    (0.3, -0.5, -1.0), 0.2, 0.5, 255, (10.0, 9.0),
)
# Sphere boxes of rows [0, 1) and [11, 12), one row tall at the view's edges (their spheres lie just
# outside it), and of rows [1, 10) and [2, 11), which start and end inside strips of two or three
# rows; the two inner spheres overlap in front of a wall.
STRIP_EDGES = SceneSpec(
    24, 12,
    (Sphere((-0.875, -2.625, 6.0), 0.5, 0.9), Sphere((0.875, 2.625, 6.0), 0.5, 0.6),
     Sphere((-1.15, -0.1, 5.0), 0.25, 0.8), Sphere((-0.833333, 0.166667, 8.0), 0.6, 0.7),
     Plane((0.0, 0.0, 12.0), (0.1, 0.0, -1.0), 0.4)),
    (0.3, -0.5, -1.0), 0.2, 0.5, 255,
)



@st.composite
def ray_specs(draw):
    """Empty scenes from 1x1 to 64x64, fov 0.05-2, principal points up to ten image sizes off."""
    w, h = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    off = st.tuples(st.floats(-10.0 * w, 11.0 * w), st.floats(-10.0 * h, 11.0 * h))
    return SceneSpec(w, h, fov=draw(st.floats(0.05, 2.0)), principal=draw(st.one_of(st.none(), off)))


def two_planes(width, height, front, back, light, fov):
    """Planes through (0, 0, 5), one facing the camera and one seen from its back, each nearest
    somewhere, with n.l within an ulp or two of +-0.5 at max_value 1 and ambient 0: rint-tie cases,
    where the rounding of n.l decides each side's shade."""
    return SceneSpec(width, height, (Plane((0.0, 0.0, 5.0), front), Plane((0.0, 0.0, 5.0), back)),
                     light, 0.0, fov, 1)


# Found by search, one per shape of view (1xN, Nx1, 2xN and wide), when `@` rounded by its width.
PLANES_1xN = two_planes(
    1, 7, (0.7455233029790733, -0.44368907275300035, -0.4973278711622301),
    (0.9311093592596903, 0.3037634892709334, 0.20189874612031766),
    (-0.21286877913474544, -0.5591749709035018, -0.9432376166582426), 0.9436823373477532)
PLANES_Nx1 = two_planes(
    9, 1, (-0.1145334882264018, -0.9605425784845816, -0.25345617963049105),
    (0.5718994395439037, -0.6597565354871426, 0.4874959947849534),
    (-1.0852644166679513, -0.3895404695722252, -0.5760091942247645), 1.2826925035402905)
PLANES_2xN = two_planes(
    2, 6, (0.21003838668853514, -0.9395141524623423, -0.27054950275364387),
    (-0.3053599191593658, 0.18299300737307717, 0.9344885654857111),
    (-0.7908127299229528, -0.6358620862662755, -0.838065759597058), 1.436500244856092)
PLANES_WIDE = two_planes(
    40, 3, (-0.16085078184472867, 0.42495347753073787, -0.8908095014729424),
    (-0.7256306108515231, 0.3925979357975424, 0.565090326764451),
    (0.9454720863210502, 0.8067115564954996, -0.5483718876422244), 0.37420986217542207)
# The floor y = 1 and an edge-on plane through the camera, both with normal (0, 1, 0): on the middle
# row s = 0 exactly, so denom is exactly 0 (1/0 and 0/0), and a back wall is nearest there.
EDGE_ON_ROW = SceneSpec(
    5, 7,
    (Plane((0.0, 1.0, 0.0), (0.0, 1.0, 0.0)), Plane((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
     Plane((0.0, 0.0, 10.0), (0.0, 0.0, -1.0), 0.5)),
    (0.3, -0.5, -1.0), 0.2, 1.0, 255,
)


class TestRenderIdentity:
    """render and render_sequence against the whole-image renderer they replaced."""

    @given(scenes())
    @example(WIDE_ANGLE)
    @example(ONE_COLUMN)
    @example(PLANES_1xN)
    @example(PLANES_Nx1)
    @example(PLANES_2xN)
    @example(PLANES_WIDE)
    @example(EDGE_ON_ROW)
    @example(SPHERE_RIGHT_COLUMN)
    @example(SPHERE_INNER_COLUMN)
    @example(HIDDEN_SPHERE)
    @example(STRIP_EDGES)
    @settings(max_examples=300, deadline=None)
    def test_render_matches_reference(self, spec):
        assert_same_render(render(spec), reference_scene.render(spec))

    def test_sphere_examples_show_their_shapes(self):
        for spec, column in ((SPHERE_RIGHT_COLUMN, 2), (SPHERE_INNER_COLUMN, 5)):
            _, truth = render(spec)
            assert np.flatnonzero((truth.object_ids == 0).any(axis=0)).tolist() == [column]
        _, truth = render(HIDDEN_SPHERE)
        assert [(truth.object_ids == i).any() for i in range(3)] == [True, True, False]

    def test_plane_examples_show_both_sides(self):
        for spec in (PLANES_1xN, PLANES_Nx1, PLANES_2xN, PLANES_WIDE):
            _, truth = render(spec)
            rays = spec.pixel_rays()
            facing = [reference_scene.dot(rays[truth.object_ids == i], p.normal) for i, p in enumerate(spec.objects)]
            assert (facing[0] < 0).all() and (facing[1] > 0).all()
            assert facing[0].size and facing[1].size
        _, truth = render(EDGE_ON_ROW)
        assert (EDGE_ON_ROW.pixel_rays()[3, :, 1] == 0).all()
        assert (truth.object_ids[3] == 2).all() and (truth.object_ids[4:] == 0).all()

    @given(ray_specs())
    @example(SceneSpec(1, 1))
    @example(SceneSpec(1, 64, fov=2.0, principal=(-10.0, 700.0)))
    @example(SceneSpec(64, 1, fov=0.05))
    @settings(max_examples=300, deadline=None)
    def test_pixel_rays_match_reference(self, spec):
        got, want = spec.pixel_rays(), reference_scene.pixel_rays(spec)
        assert got.dtype == want.dtype and got.shape == want.shape == (spec.height, spec.width, 3)
        assert got.tobytes() == want.tobytes()

    @given(hnp.arrays(np.intp, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
                      elements=st.one_of(st.integers(-1, 3), st.integers(-1, 2**40))))
    @settings(max_examples=300, deadline=None)
    def test_identity_changes_match_reference(self, ids):
        got = _identity_changes(ids)
        assert got.dtype == bool
        assert np.array_equal(got, reference_scene._identity_changes(ids))

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
                      elements=st.one_of(st.floats(-1e30, 1e30), st.floats(-1e-300, 1e-300))),
           st.integers(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_difference_is_np_gradient_bit_for_bit(self, values, axis):
        got = _difference(values, axis)
        assert got.dtype == values.dtype and got.shape == values.shape
        if values.shape[axis] == 1:  # np.gradient refuses an axis of length 1; the difference there is 0
            assert (got == 0).all()
        else:
            assert got.tobytes() == np.gradient(values, axis=axis).tobytes()

    @given(scenes(), st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
           st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_render_sequence_matches_reference(self, spec, motion, frames):
        try:
            want = reference_scene.render_sequence(spec, motion, frames)
        except SceneError:  # a moved sphere reached the camera
            with pytest.raises(SceneError):
                render_sequence(spec, motion, frames)
            return
        got = render_sequence(spec, motion, frames)
        for pair in zip(zip(*got), zip(*want)):
            assert_same_render(*pair)


class TestThinImages:
    """1x1, 1xN and Nx1 views of a sphere; the derivative along an axis of length 1 is 0."""

    @pytest.mark.parametrize("width, height", [(1, 1), (40, 1), (1, 40), (2, 1), (1, 2)])
    def test_sphere_masks_follow_the_definition(self, width, height, monkeypatch):
        # a pitch of 1/80 retina units: the 40-px axis shows the whole silhouette and some background
        spec = SceneSpec(width, height, (Sphere((0.05, -0.02, 5.0), 1.0),), fov=width / 160)
        c = spec.objects[0].center
        b = reference_scene.dot(spec.pixel_rays(), c)
        disc = b * b - (reference_scene.dot(c, c) - 1.0)
        grads = [np.gradient(disc, axis=k) if disc.shape[k] > 1 else np.zeros_like(disc) for k in (0, 1)]
        hit = disc >= 0
        assert hit.any()
        if max(width, height) == 40:
            assert not hit.all()
        # one strip, then strips of one row, against the definition and the whole-image reference
        want = reference_scene.render(spec)
        for strip in (scene._STRIP_PIXELS, width):
            monkeypatch.setattr(scene, "_STRIP_PIXELS", strip)
            grid, truth = render(spec)
            assert_same_render((grid, truth), want)
            assert np.array_equal(truth.object_ids, np.where(hit, 0, -1))
            assert np.array_equal(truth.occluding_mask, hit & (np.abs(disc) <= 0.5 * np.hypot(*grads)))
            assert (grid.values[hit] > 0).all() and not grid.values[~hit].any()


NAMED_EXAMPLES = {
    "WIDE_ANGLE": WIDE_ANGLE, "ONE_COLUMN": ONE_COLUMN, "PLANES_1xN": PLANES_1xN, "PLANES_Nx1": PLANES_Nx1,
    "PLANES_2xN": PLANES_2xN, "PLANES_WIDE": PLANES_WIDE, "EDGE_ON_ROW": EDGE_ON_ROW,
    "SPHERE_RIGHT_COLUMN": SPHERE_RIGHT_COLUMN, "SPHERE_INNER_COLUMN": SPHERE_INNER_COLUMN,
    "HIDDEN_SPHERE": HIDDEN_SPHERE, "STRIP_EDGES": STRIP_EDGES,
}


def strip_examples(test):
    """Every named example in 1-row strips, and STRIP_EDGES in strips of 1, 2 and 3 rows, each
    given as width * rows + extra pixels."""
    cases = [(spec, 1, 0) for spec in NAMED_EXAMPLES.values()]
    cases += [(STRIP_EDGES, rows, extra) for rows, extra in ((2, 0), (2, 23), (3, 5))]
    for case in cases:
        test = example(*case, (0.05, -0.02, 0.1))(test)
    return test


class TestRenderStrips:
    """render and render_sequence in strips of 1-3 rows, so most sphere boxes begin, end or take a
    gradient's neighbor row in another strip, against the whole-image reference."""

    @given(scenes(), st.integers(1, 3), st.integers(0, 39),
           st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)))
    @strip_examples
    @settings(max_examples=200, deadline=None)
    def test_strip_boundaries_match_reference(self, spec, rows, extra, motion):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scene, "_STRIP_PIXELS", rows * spec.width + extra % spec.width)
            assert_same_render(render(spec), reference_scene.render(spec))
            try:
                want = reference_scene.render_sequence(spec, motion, 2)
            except SceneError:  # a moved sphere reached the camera
                with pytest.raises(SceneError):
                    render_sequence(spec, motion, 2)
                return
            got = render_sequence(spec, motion, 2)
        for pair in zip(zip(*got), zip(*want)):
            assert_same_render(*pair)

    def test_strip_edges_show_their_boxes(self):
        rows = [_sphere_box(STRIP_EDGES, s)[0] for s in STRIP_EDGES.objects[:4]]
        assert [(r.start, r.stop) for r in rows] == [(0, 1), (11, 12), (1, 10), (2, 11)]
        _, truth = render(STRIP_EDGES)
        assert [(truth.object_ids == i).any() for i in range(5)] == [False, False, True, True, True]
        assert (truth.occluding_mask & (truth.object_ids == 3)).any()

    def test_memory_is_the_outputs_and_the_rays_plus_a_few_strips(self):
        spec = SceneSpec(
            1024, 1024,
            (Plane((0.0, 1.5, 0.0), (0.0, -1.0, 0.1), 0.7), Plane((0.0, 0.0, 14.0), (0.1, 0.0, -1.0), 0.5),
             Sphere((-1.0, 0.2, 6.0), 1.0, 0.8), Sphere((0.8, -0.3, 5.0), 0.7, 0.9),
             Sphere((0.3, 0.4, 8.0), 1.1, 0.6)),
            (0.3, -0.5, -1.0), 0.2, 0.35, 255,
        )
        tracemalloc.start()
        try:
            _, truth = render(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all((truth.object_ids == i).any() for i in range(5))
        # image-sized: the outputs (depth, ids and image at 8 B/px, both masks at 1), the rays and
        # _identity_changes' two bool temporaries; all else is four strips of floats
        outputs, rays, identity_changes = 8 + 8 + 8 + 1 + 1, 24, 2
        assert peak < (outputs + rays + identity_changes) * spec.width * spec.height + 4 * 8 * scene._STRIP_PIXELS


_WALL = Plane((0.0, 0.0, 12.0), (0.1, 0.0, -1.0), 0.4)
_LIT = dict(light_direction=(0.3, -0.5, -1.0), ambient=0.2, fov=0.5)
# Scenes for the first object to meet a strip, which fills the depth directly, and for the plane
# work every frame of a sequence shares; each with the motion its sequence takes.
FILL_EXAMPLES = {
    # the sphere is the first object in the strips its box meets, the wall in the last row
    "SPHERE_FIRST": (SceneSpec(16, 12, (Sphere((0.0, -0.3, 5.0), 1.0, 0.8), _WALL), **_LIT), (0.05, -0.02, 0.1)),
    # a floor first in every strip, with a sphere after it
    "PLANE_FIRST": (SceneSpec(16, 12, (Plane((0.0, 1.0, 0.0), (0.0, -1.0, 0.2), 0.6),
                                       Sphere((0.3, 0.1, 6.0), 1.2, 0.9)), **_LIT), (0.05, -0.02, 0.1)),
    # an edge-on plane through the camera first: on row 3, s = 0, so d.n = 0 and 0/0 there
    "EDGE_ON_FIRST": (SceneSpec(9, 7, (Plane((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)), Sphere((0.0, 0.0, 6.0), 1.0, 0.7),
                                       _WALL), **{**_LIT, "fov": 1.0}), (0.05, 0.0, 0.1)),
    # one small sphere near the top: the strips below row 7 meet no object
    "MISSED_STRIPS": (SceneSpec(12, 12, (Sphere((0.0, -1.6, 5.0), 0.6, 0.8),), **_LIT), (0.02, 0.01, 0.0)),
    # exact depth ties: the twin is nearest nowhere, but as `second` it blocks the inner ring
    "TWIN_SPHERES": (SceneSpec(16, 12, (Sphere((0.2, -0.1, 5.0), 1.0, 0.8), Sphere((0.2, -0.1, 5.0), 1.0, 0.3),
                                        _WALL), **_LIT), (0.05, -0.02, 0.1)),
    "TWIN_PLANES": (SceneSpec(16, 12, (_WALL, Plane((0.0, 0.0, 12.0), (0.1, 0.0, -1.0), 0.9),
                                       Sphere((0.2, -0.1, 5.0), 1.0, 0.8)), **_LIT), (0.05, -0.02, 0.1)),
    # the wall moves along its normal: each frame's tau differs while d.n is the same
    "ALONG_THE_NORMAL": (SceneSpec(16, 12, (_WALL, Sphere((0.2, -0.1, 5.0), 1.0, 0.8)), **_LIT),
                         tuple((0.5 * _WALL.normal).tolist())),
}


class TestFirstObjectAndSharedPlanes:
    """The first object's direct fill and the plane work shared by a sequence's frames, in strips of
    one and three rows, against the whole-image reference."""

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("name", FILL_EXAMPLES)
    def test_fill_examples_match_reference(self, name, rows, monkeypatch):
        spec, motion = FILL_EXAMPLES[name]
        monkeypatch.setattr(scene, "_STRIP_PIXELS", rows * spec.width)
        assert_same_render(render(spec), reference_scene.render(spec))
        got, want = render_sequence(spec, motion, 3), reference_scene.render_sequence(spec, motion, 3)
        for pair in zip(zip(*got), zip(*want)):
            assert_same_render(*pair)

    def test_fill_examples_show_their_cases(self):
        spec = FILL_EXAMPLES["SPHERE_FIRST"][0]
        rows, _ = _sphere_box(spec, spec.objects[0])
        assert (rows.start, rows.stop) == (0, 11)
        _, truth = render(FILL_EXAMPLES["PLANE_FIRST"][0])
        assert (truth.object_ids == 0).any() and (truth.object_ids == 1).any()
        spec = FILL_EXAMPLES["EDGE_ON_FIRST"][0]
        assert (reference_scene.dot(spec.pixel_rays()[3], spec.objects[0].normal) == 0).all()
        _, truth = render(spec)
        assert (truth.object_ids[3] >= 1).all() and not (truth.object_ids == 0).any()
        _, truth = render(FILL_EXAMPLES["MISSED_STRIPS"][0])
        assert (truth.object_ids[7:] == -1).all() and (truth.object_ids[:7] == 0).any()
        for name in ("TWIN_SPHERES", "TWIN_PLANES"):
            spec = FILL_EXAMPLES[name][0]
            _, truth = render(spec)
            assert not (truth.object_ids == 1).any()
        twins = FILL_EXAMPLES["TWIN_SPHERES"][0]
        alone = dataclasses.replace(twins, objects=twins.objects[::2])
        assert (render(alone)[1].occluding_mask & ~render(twins)[1].occluding_mask).any()
        spec, motion = FILL_EXAMPLES["ALONG_THE_NORMAL"]
        _, truths = render_sequence(spec, motion, 3)
        wall = np.logical_and.reduce([t.object_ids == 0 for t in truths])
        assert wall.any()
        depths = [t.depth_map[wall] for t in truths]
        assert (depths[0] > depths[1]).all() and (depths[1] > depths[2]).all()


def seeded_scenes(count: int, seed: int):
    """count scenes from a numpy generator: 2-40 px, up to five spheres and planes (some edge-on
    through the camera), any light, ambient 0 or drawn, max_value 1, 255 or 65535."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        w, h = (int(n) for n in rng.integers(2, 41, 2))
        fov = float(rng.uniform(0.05, 2.0))
        objects = []
        for _ in range(int(rng.integers(0, 6))):
            albedo = float(rng.uniform())
            if rng.random() < 0.6:  # a sphere about a point of the view, or up to a fifth of it outside
                z = float(rng.uniform(1.0, 20.0))
                center = (float(rng.uniform(-1.2, 1.2)) * fov * z, float(rng.uniform(-1.2, 1.2)) * fov * z * h / w, z)
                objects.append(Sphere(center, float(rng.uniform(0.001, 0.9 * z)), albedo))
            else:
                point = (0.0, 0.0, 0.0) if rng.random() < 0.25 else rng.uniform(-3.0, 3.0, 3)
                objects.append(Plane(point, rng.uniform(-3.0, 3.0, 3), albedo))
        ambient = 0.0 if rng.random() < 0.3 else float(rng.uniform())
        max_value = int(rng.choice([1, 255, 65535]))
        yield SceneSpec(w, h, tuple(objects), rng.uniform(-3.0, 3.0, 3), ambient, fov, max_value)


def save_kernel_renders(path) -> None:
    """Write every output of the named examples, 240 seeded scenes and one 3-frame sequence to an .npz."""
    renders = [(name, render(spec)) for name, spec in NAMED_EXAMPLES.items()]
    renders += [(f"seeded{k}", render(spec)) for k, spec in enumerate(seeded_scenes(240, seed=20))]
    moving = SceneSpec(
        96, 64, (Sphere((0.2, -0.1, 4.0), 1.0, 0.7), Plane((0.0, 1.0, 0.0), (0.0, -1.0, 0.2), 0.6),
                 Sphere((-0.6, 0.3, 6.0), 1.5, 0.9)), (0.3, -0.5, -1.0), 0.2, 0.7, 255)
    renders += [(f"frame{t}", pair) for t, pair in enumerate(zip(*render_sequence(moving, (0.05, -0.02, 0.1), 3)))]
    arrays = {}
    for name, (grid, truth) in renders:
        arrays[f"{name}.image"] = grid.values
        for field in ("occluding_mask", "discontinuity_mask", "depth_map", "object_ids"):
            arrays[f"{name}.{field}"] = getattr(truth, field)
    np.savez(path, **arrays)


def dynamic_openblas() -> bool:
    """True when numpy's BLAS is an OpenBLAS built for several CPUs, whose kernel OPENBLAS_CORETYPE picks."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, whose kernel "
                    "OPENBLAS_CORETYPE could switch")
def test_render_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    """One process renders under the default kernel and one under Sandybridge's; every output is equal."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    path = os.pathsep.join([str(Path(__file__).parent), str(Path(isophote.__file__).parents[1]),
                            base.get("PYTHONPATH", "")])
    script = "import sys, test_scene; test_scene.save_kernel_renders(sys.argv[1])"
    kernels = {"default": {}, "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"}}
    procs = [subprocess.Popen([sys.executable, "-c", script, str(tmp_path / f"{name}.npz")],
                              env={**base, **extra, "PYTHONPATH": path}) for name, extra in kernels.items()]
    assert [proc.wait(timeout=300) for proc in procs] == [0, 0]
    with np.load(tmp_path / "default.npz") as want, np.load(tmp_path / "sandybridge.npz") as got:
        assert sorted(got.files) == sorted(want.files)
        differ = [k for k in want.files if got[k].dtype != want[k].dtype or got[k].tobytes() != want[k].tobytes()]
    assert differ == []


class TestRenderSequence:
    def flat_disk_scene(self, width=64):
        # zero albedo renders the sphere as a flat disk, so frames differ
        # only where the silhouette sweeps
        return SceneSpec(
            width=width,
            height=width,
            objects=(Sphere(center=(-0.3, 0.0, 5.0), radius=1.5, albedo=0.0),),
            light_direction=(0.0, 0.0, -1.0),
            ambient=0.5,
            fov=0.7,
        )

    def test_zero_motion_gives_identical_frames(self):
        grids, truths = render_sequence(self.flat_disk_scene(), (0.0, 0.0, 0.0), 3)
        assert len(grids) == len(truths) == 3
        for g in grids[1:]:
            assert np.array_equal(g.values, grids[0].values)

    @pytest.mark.parametrize("spec", [*NAMED_EXAMPLES.values(), *seeded_scenes(40, seed=34)],
                             ids=[*NAMED_EXAMPLES, *(f"seeded{k}" for k in range(40))])
    def test_zero_motion_frames_are_render_byte_for_byte(self, spec):
        want = render(spec)
        grids, truths = render_sequence(spec, (0.0, 0.0, 0.0), 3)
        for got in zip(grids, truths):
            assert_same_render(got, want)
            for field in ("occluding_mask", "discontinuity_mask", "depth_map", "object_ids"):
                assert getattr(got[1], field).tobytes() == getattr(want[1], field).tobytes()
            assert got[0].values.tobytes() == want[0].values.tobytes()

    def test_frames_reuse_the_validated_spec(self, monkeypatch):
        built, check = [], SceneSpec.__post_init__

        def counted(spec):
            built.append(spec)
            check(spec)

        monkeypatch.setattr(SceneSpec, "__post_init__", counted)
        render_sequence(HIDDEN_SPHERE, (0.05, -0.02, 0.1), 3)
        assert built == [] and not hasattr(scene, "dataclasses")

    def test_a_moved_plane_keeps_its_unit_normal(self):
        rng = np.random.default_rng(34)
        planes = [Plane(rng.uniform(-3.0, 3.0, 3), rng.uniform(-3.0, 3.0, 3)) for _ in range(200)]
        # normalizing again moves the last bit of some of these normals, so the test can fail
        assert any(Plane(p.point, p.normal).normal.tobytes() != p.normal.tobytes() for p in planes)
        for plane in planes:
            moved = scene._displace(plane, np.array([0.5, -0.25, 1.0]))
            assert moved.normal.tobytes() == plane.normal.tobytes() and not moved.normal.flags.writeable
            assert moved.point.tolist() == (plane.point + [0.5, -0.25, 1.0]).tolist()

    def test_a_sphere_reaching_the_camera_is_refused_before_any_frame_is_rendered(self, monkeypatch):
        rendered = []
        monkeypatch.setattr(scene, "_render", lambda *args: rendered.append(args))
        # the disk's sphere (z = 5, radius 1.5) reaches the camera in the fifth frame: z = 5 - 4 * 0.9
        with pytest.raises(SceneError, match="in front of the camera"):
            render_sequence(self.flat_disk_scene(), (0.0, 0.0, -0.9), 5)
        assert rendered == []

    def test_needs_two_frames(self):
        with pytest.raises(SceneError):
            render_sequence(self.flat_disk_scene(), (0.0, 0.0, 0.0), 1)

    def test_frame_pixels_are_bounded_before_any_frame_is_built(self):
        # 2^14 + 1 frames of 64 x 64 are 2^26 + 2^12 pixels, one frame over MAX_PIXELS;
        # 2^62 frames would wrap to 0 pixels if counted in int64
        spec = SceneSpec(64, 64, objects=(Sphere((0.0, 0.0, 5.0), 1.0),))
        tracemalloc.start()
        try:
            with pytest.raises(SceneError, match=f"16385 frames of 64x64 exceed the limit of {MAX_PIXELS} pixels"):
                render_sequence(spec, (0.0, 0.0, 0.0), 2**14 + 1)
            with pytest.raises(SceneError, match=f"{2**62} frames of 64x64 exceed the limit"):
                render_sequence(spec, (0.0, 0.0, 0.0), np.int64(2**62))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_motion_shape_checked(self):
        with pytest.raises(SceneError):
            render_sequence(self.flat_disk_scene(), (1.0, 2.0), 2)

    def test_frames_differ_only_near_the_moving_contour(self):
        spec = self.flat_disk_scene()
        step = 5.0 * (2 * spec.fov / spec.width)  # about one pixel per frame
        grids, truths = render_sequence(spec, (step, 0.0, 0.0), 2)
        changed = grids[0].values != grids[1].values
        near_contour = cheb_dilate(
            truths[0].discontinuity_mask | truths[1].discontinuity_mask, 2
        )
        assert changed.any()
        assert not (changed & ~near_contour).any()

    def test_stacked_detection_tracks_the_motion_boundary(self):
        spec = self.flat_disk_scene()
        step = 5.0 * (2 * spec.fov / spec.width)
        grids, truths = render_sequence(spec, (step, 0.0, 0.0), 3)
        mask = detect_multilevel(frame_stack(grids), ThresholdSchedule(8), Topology.N4T)
        for t in range(3):
            lo = max(0, t - 1)
            hi = min(2, t + 1)
            allowed = np.zeros_like(truths[0].discontinuity_mask)
            for u in range(lo, hi + 1):
                allowed |= truths[u].discontinuity_mask
            allowed = cheb_dilate(allowed, 2)
            flagged = mask.flagged[t]
            assert flagged.any()
            assert not (flagged & ~allowed).any()
            # the per-frame contour stays detected inside the stack
            near_flagged = cheb_dilate(flagged, 2)
            assert (truths[t].discontinuity_mask & ~near_flagged).sum() == 0


_GONE = object()


def _edited(config, edits):
    """config with each (path, value) edit made in turn: value set at path (the whole config
    when path is empty), or the key removed when value is _GONE."""
    for path, value in edits:
        if not path:
            config = value
            continue
        container = config
        for key in path[:-1]:
            container = container[key]
        if value is _GONE:
            del container[path[-1]]
        else:
            container[path[-1]] = value
    return config


# Every structural fault of a scene config with the loader's exact message; the
# last group holds two faults each, and the message names the one found first.
_STRUCTURE_FAULTS = [
    pytest.param([((), [])], "scene config must be a JSON object, got []", id="config-list"),
    pytest.param([((), "x")], "scene config must be a JSON object, got 'x'", id="config-string"),
    pytest.param([((), None)], "scene config must be a JSON object, got None", id="config-null"),
    pytest.param([((), 5)], "scene config must be a JSON object, got 5", id="config-number"),
    pytest.param([(("image",), _GONE)], "missing 'image' in scene config", id="no-image"),
    pytest.param([(("image",), 5)], "'image' in scene config must be a JSON object, got 5", id="image-number"),
    pytest.param([(("image",), [1])], "'image' in scene config must be a JSON object, got [1]", id="image-list"),
    pytest.param([(("light",), [1])], "'light' in scene config must be a JSON object, got [1]", id="light-list"),
    pytest.param([(("light",), None)], "'light' in scene config must be a JSON object, got None", id="light-null"),
    pytest.param([(("objects",), 5)], "'objects' in scene config must be a list, got 5", id="objects-number"),
    pytest.param([(("objects",), {})], "'objects' in scene config must be a list, got {}", id="objects-object"),
    pytest.param([(("objects", 1), 5)], "objects[1] must be a JSON object, got 5", id="entry-number"),
    pytest.param([(("objects", 0), [])], "objects[0] must be a JSON object, got []", id="entry-list"),
    pytest.param([(("objects", 0, "type"), _GONE)], "missing 'type' in objects[0]", id="no-type"),
    pytest.param([(("objects", 0, "type"), 5)], "'type' in objects[0] must be a string, got 5", id="type-number"),
    pytest.param([(("objects", 1, "type"), None)], "'type' in objects[1] must be a string, got None", id="type-null"),
    pytest.param([(("objects", 0, "type"), "torus")], "objects[0] has unknown type 'torus'", id="type-torus"),
    pytest.param([(("objects", 0, "type"), "x" * 1000)], "objects[0] has unknown type 'xxxxxxxxxxxx...xxxxxxxxxxxxx'",
                 id="type-long"),
    pytest.param([(("objects", 0, "center"), _GONE)], "missing 'center' in objects[0]", id="no-center"),
    pytest.param([(("objects", 0, "radius"), _GONE)], "missing 'radius' in objects[0]", id="no-radius"),
    pytest.param([(("objects", 1, "point"), _GONE)], "missing 'point' in objects[1]", id="no-point"),
    pytest.param([(("objects", 1, "normal"), _GONE)], "missing 'normal' in objects[1]", id="no-normal"),
    pytest.param([(("image", "width"), _GONE)], "missing 'width' in image", id="no-width"),
    pytest.param([(("image", "height"), _GONE)], "missing 'height' in image", id="no-height"),
    pytest.param([(("objects", 1, "albedo"), "1")], "objects[1]: albedo must be finite and lie in [0, 1], got '1'",
                 id="object-value"),
    pytest.param([(("objects", 0, "radius"), -1)],
                 "objects[0]: sphere radius must be finite and lie in [1e-30, 1e+30], got -1", id="sphere-value"),
    pytest.param([(("image",), _GONE), (("objects",), 5)], "missing 'image' in scene config",
                 id="image-before-objects"),
    pytest.param([(("image",), 5), (("light",), 5)], "'image' in scene config must be a JSON object, got 5",
                 id="image-before-light"),
    pytest.param([(("light",), 5), (("objects",), 5)], "'light' in scene config must be a JSON object, got 5",
                 id="light-before-objects"),
    pytest.param([(("image", "width"), _GONE), (("objects", 1), 5)], "objects[1] must be a JSON object, got 5",
                 id="entry-before-width"),
    pytest.param([(("objects", 0, "type"), 5), (("objects", 0, "radius"), _GONE)],
                 "'type' in objects[0] must be a string, got 5", id="type-before-keys"),
    pytest.param([(("objects", 0, "center"), _GONE), (("objects", 0, "radius"), _GONE)],
                 "missing 'center' in objects[0]", id="center-before-radius"),
    pytest.param([(("objects", 0, "radius"), _GONE), (("objects", 1, "point"), _GONE)],
                 "missing 'radius' in objects[0]", id="first-object-first"),
    pytest.param([(("objects", 0, "center"), _GONE), (("objects", 0, "radius"), -1)],
                 "missing 'center' in objects[0]", id="missing-key-before-value"),
    pytest.param([(("image", "width"), _GONE), (("objects", 0, "radius"), -1)],
                 "objects[0]: sphere radius must be finite and lie in [1e-30, 1e+30], got -1",
                 id="object-value-before-width"),
    pytest.param([(("image", "width"), _GONE), (("image", "height"), _GONE)], "missing 'width' in image",
                 id="width-before-height"),
    pytest.param([(("image", "width"), _GONE), (("image", "fov"), -1)], "missing 'width' in image",
                 id="width-before-fov"),
]


class TestSceneConfig:
    def config(self):
        return {
            "image": {"width": 32, "height": 24, "fov": 0.8, "max_value": 255},
            "light": {"direction": [0, 0, -1], "ambient": 0.3},
            "objects": [
                {"type": "sphere", "center": [0, 0, 5], "radius": 1.5, "albedo": 0.7},
                {"type": "plane", "point": [0, 2, 0], "normal": [0, -1, 0]},
            ],
        }

    def test_load_scene_roundtrip(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(self.config()))
        spec = load_scene(path)
        assert (spec.width, spec.height) == (32, 24)
        assert spec.fov == 0.8
        assert spec.ambient == 0.3
        assert isinstance(spec.objects[0], Sphere)
        assert isinstance(spec.objects[1], Plane)

    def test_missing_keys_are_named(self, tmp_path):
        cfg = self.config()
        del cfg["objects"][0]["radius"]
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SceneError, match="radius"):
            load_scene(path)

    def test_an_object_error_names_its_place(self):
        cfg = self.config()
        cfg["objects"][1]["albedo"] = "1"
        with pytest.raises(SceneError, match=r"^objects\[1\]: albedo must be finite and lie in \[0, 1\], got '1'$"):
            scene.scene_from_dict(cfg)

    def test_unknown_object_type(self, tmp_path):
        cfg = self.config()
        cfg["objects"][0]["type"] = "torus"
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SceneError, match="torus"):
            load_scene(path)

    @pytest.mark.parametrize("edits, message", _STRUCTURE_FAULTS)
    def test_structural_faults_have_their_messages(self, edits, message):
        with pytest.raises(SceneError) as err:
            scene.scene_from_dict(_edited(self.config(), edits))
        assert str(err.value) == message

    @pytest.mark.parametrize("path, where", [
        (("objets",), "scene config"),
        (("image", "max_valeu"), "image"),
        (("light", "directoin"), "light"),
        (("objects", 0, "albdeo"), "objects[0]"),
        (("objects", 1, "radius"), "objects[1]"),
    ], ids=["top", "image", "light", "object", "other-shape"])
    def test_an_unknown_key_is_refused_where_it_is(self, path, where):
        # each was ignored: a sphere's "albdeo" rendered with albedo 1.0
        with pytest.raises(SceneError) as err:
            scene.scene_from_dict(_edited(self.config(), [(path, 0.3)]))
        assert str(err.value) == f"unknown key '{path[-1]}' in {where}"

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{not json")
        with pytest.raises(SceneError, match="JSON"):
            load_scene(path)
