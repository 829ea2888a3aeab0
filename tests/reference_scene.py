"""The whole-image renderer that isophote.scene.render replaced.

Kept as a test-only oracle: the rays are built as a meshgrid normalized
by `np.linalg.norm`, every object is intersected and shaded over the
whole ray array, and every dot product is summed in `dot`'s fixed order,
never with `@`, whose rounding depends on the BLAS kernel. The hit
distances are stacked into one (objects + 1, h, w) array, each sphere's
occlusion test takes the minimum of that stack without the sphere's own
row, and identity changes come from two `neighbor_min` passes. It shares
no code with the renderer it checks beyond the scene types. The
production renderer must match it exactly: rays, image values, both
masks, depth and ids, with their dtypes.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from isophote import GroundTruth, IntensityGrid, SceneSpec, Sphere, Topology, neighbor_min

_RAY_EPS = 1e-9


def pixel_rays(spec: SceneSpec) -> np.ndarray:
    """Unit ray directions through every pixel center, shape (height, width, 3)."""
    pitch = 2.0 * spec.fov / spec.width
    cx, cy = spec.principal
    ts = (np.arange(spec.width) + 0.5 - cx) * pitch
    ss = (np.arange(spec.height) + 0.5 - cy) * pitch
    t, s = np.meshgrid(ts, ss)
    dirs = np.stack([t, s, np.ones_like(t)], axis=-1)
    return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)


def dot(a: np.ndarray, v) -> np.ndarray:
    """a . v over a's last axis, as (a0 v0 + a1 v1) + a2 v2: the order render promises on any BLAS kernel."""
    return (a[..., 0] * v[0] + a[..., 1] * v[1]) + a[..., 2] * v[2]


def _sphere_quadratic(dirs: np.ndarray, sphere: Sphere) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel (b, disc) for |tau*d - c|^2 = r^2 with unit d: tau^2 - 2 b tau + (c.c - r^2)."""
    b = dot(dirs, sphere.center)
    disc = b * b - (dot(sphere.center, sphere.center) - sphere.radius**2)
    return b, disc


def _hit_distances(dirs: np.ndarray, obj) -> np.ndarray:
    """Distance to the nearest intersection along each ray, +inf where none."""
    if isinstance(obj, Sphere):
        b, disc = _sphere_quadratic(dirs, obj)
        root = np.sqrt(np.maximum(disc, 0.0))
        near = b - root
        far = b + root
        tau = np.where(near > _RAY_EPS, near, np.where(far > _RAY_EPS, far, np.inf))
        return np.where(disc >= 0.0, tau, np.inf)
    denom = dot(dirs, obj.normal)
    offset = float(dot(obj.point, obj.normal))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # masked out below
        tau = offset / denom
    return np.where(np.abs(denom) > _RAY_EPS, np.where(tau > _RAY_EPS, tau, np.inf), np.inf)


def _identity_changes(ids: np.ndarray) -> np.ndarray:
    """True where some N4 neighbor's id is smaller or larger than the pixel's own."""
    darker = neighbor_min(ids, Topology.N4, int(ids.max()) + 1) < ids
    return darker | (neighbor_min(-ids, Topology.N4, int(-ids.min()) + 1) < -ids)


def render(spec: SceneSpec) -> tuple[IntensityGrid, GroundTruth]:
    dirs = pixel_rays(spec)
    shape = (spec.height, spec.width)
    # row 0 is the background: a miss everywhere, which argmin picks only where every object misses
    taus = np.stack([np.full(shape, np.inf)] + [_hit_distances(dirs, obj) for obj in spec.objects])
    ids = np.argmin(taus, axis=0) - 1
    depth = taus.min(axis=0)

    image = np.zeros(shape, dtype=np.int64)
    light = spec.light_direction
    reach = np.where(np.isfinite(depth), depth, 0.0)
    for i, obj in enumerate(spec.objects):
        sel = ids == i
        if not sel.any():
            continue
        if isinstance(obj, Sphere):  # the normal at the hit point reach * d is (reach * d - c) / r
            lam = (dot(dirs, light) * reach - dot(obj.center, light)) / obj.radius
        else:
            flip = -np.sign(dot(dirs, obj.normal))
            lam = dot(flip[..., None] * obj.normal, light)
        lam = np.maximum(0.0, lam)
        value = spec.ambient + (1.0 - spec.ambient) * obj.albedo * lam
        shade = np.rint(spec.max_value * np.clip(value, 0.0, 1.0)).astype(np.int64)
        image[sel] = shade[sel]

    occluding = np.zeros(shape, dtype=bool)
    hit_any = ids >= 0
    for i, obj in enumerate(spec.objects):
        if not isinstance(obj, Sphere):
            continue
        b, disc = _sphere_quadratic(dirs, obj)
        # no difference along an axis of length 1, which np.gradient refuses
        gy, gx = (np.gradient(disc, axis=k) if disc.shape[k] > 1 else np.zeros_like(disc) for k in (0, 1))
        near = np.abs(disc) <= 0.5 * np.hypot(gx, gy)  # within ~half a pixel of tangency
        blocked = np.delete(taus, i + 1, axis=0).min(axis=0) < b - _RAY_EPS
        occluding |= near & (b > 0) & hit_any & ~blocked

    truth = GroundTruth(
        occluding_mask=occluding,
        discontinuity_mask=_identity_changes(ids),
        depth_map=depth,
        object_ids=ids,
    )
    return IntensityGrid(image, spec.max_value), truth


def _displace(obj, shift: np.ndarray):
    if isinstance(obj, Sphere):
        return dataclasses.replace(obj, center=obj.center + shift)
    moved = dataclasses.replace(obj, point=obj.point + shift)
    object.__setattr__(moved, "normal", obj.normal)  # the plane's checked unit normal, not renormalized
    return moved


def render_sequence(spec: SceneSpec, motion: Sequence[float], frames: int):
    """Every frame rendered from spec with its objects moved; the light and plane normals stay spec's."""
    shift = np.asarray(motion, dtype=float)
    grids, truths = [], []
    for i in range(frames):
        moved = dataclasses.replace(spec, objects=tuple(_displace(o, i * shift) for o in spec.objects))
        object.__setattr__(moved, "light_direction", spec.light_direction)
        grid, truth = render(moved)
        grids.append(grid)
        truths.append(truth)
    return grids, truths
