import dataclasses
import json
import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import reference_scene
from conftest import BRUTE_OFFSETS, cheb_dilate
from hypothesis import example, given, settings

from isophote import (
    FocalPlaneError,
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
from isophote.scene import MAX_PIXELS, _identity_changes

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
        with pytest.raises(FocalPlaneError):
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
        with pytest.raises(FocalPlaneError):
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
# A plane nearest in one column of two, with n.l within an ulp of 0.5 at max_value 1: shaded from a
# 1-column view, `normals @ light` can round to the other side of rint's tie.
ONE_COLUMN = SceneSpec(
    2, 3,
    (Plane((0.9942201753498913, 0.10573810701203151, -0.018592892533001504),
           (0.9942201753498913, 0.10573810701203151, -0.018592892533001504)),),
    (-0.4290312480189637, -0.7759408668529136, -0.4624369788099126), 0.0, 1.0, 1,
)



@st.composite
def ray_specs(draw):
    """Empty scenes from 1x1 to 64x64, fov 0.05-2, principal points up to ten image sizes off."""
    w, h = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    off = st.tuples(st.floats(-10.0 * w, 11.0 * w), st.floats(-10.0 * h, 11.0 * h))
    return SceneSpec(w, h, fov=draw(st.floats(0.05, 2.0)), principal=draw(st.one_of(st.none(), off)))


def two_planes(width, height, front, back, light, fov):
    """Planes through (0, 0, 5), one facing the camera and one seen from its back, each nearest
    somewhere, with n.l within an ulp of rint's tie at max_value 1: the shading table must round
    n.l as the image's own `@` does."""
    return SceneSpec(width, height, (Plane((0.0, 0.0, 5.0), front), Plane((0.0, 0.0, 5.0), back)),
                     light, 0.0, fov, 1)


# Found by search; each fails when the table is 2 columns wide on a 1-wide image or 1 column on a
# wider one.
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
    @settings(max_examples=300, deadline=None)
    def test_render_matches_reference(self, spec):
        assert_same_render(render(spec), reference_scene.render(spec))

    def test_plane_examples_show_both_sides(self):
        for spec in (PLANES_1xN, PLANES_Nx1, PLANES_2xN, PLANES_WIDE):
            _, truth = render(spec)
            facing = [spec.pixel_rays()[truth.object_ids == i] @ p.normal for i, p in enumerate(spec.objects)]
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
    def test_sphere_masks_follow_the_definition(self, width, height):
        # a pitch of 1/80 retina units: the 40-px axis shows the whole silhouette and some background
        spec = SceneSpec(width, height, (Sphere((0.05, -0.02, 5.0), 1.0),), fov=width / 160)
        grid, truth = render(spec)
        c = spec.objects[0].center
        b = spec.pixel_rays() @ c
        disc = b * b - (c @ c - 1.0)
        grads = [np.gradient(disc, axis=k) if disc.shape[k] > 1 else np.zeros_like(disc) for k in (0, 1)]
        hit = disc >= 0
        assert np.array_equal(truth.object_ids, np.where(hit, 0, -1))
        assert np.array_equal(truth.occluding_mask, hit & (np.abs(disc) <= 0.5 * np.hypot(*grads)))
        assert (grid.values[hit] > 0).all() and not grid.values[~hit].any()
        assert hit.any()
        if max(width, height) == 40:
            assert not hit.all()


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

    def test_needs_two_frames(self):
        with pytest.raises(SceneError):
            render_sequence(self.flat_disk_scene(), (0.0, 0.0, 0.0), 1)

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

    def test_unknown_object_type(self, tmp_path):
        cfg = self.config()
        cfg["objects"][0]["type"] = "torus"
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SceneError, match="torus"):
            load_scene(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{not json")
        with pytest.raises(SceneError, match="JSON"):
            load_scene(path)
