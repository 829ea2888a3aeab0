"""Synthetic pinhole scenes with analytic ground truth.

The camera sits at the origin looking down +z with its retina at z = 1,
so a scene point (x, y, z) lands at (x/z, y/z). Where a surface's tangent
plane passes through the origin the projection's differential loses rank
and the point is occluding; for spheres that locus is a circle we can
rasterize exactly, which gives an independent oracle for the detector.

Scene math runs in floating point; quantization to integer intensities
happens once, when the rendered image is produced.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .raster import IntensityGrid, Topology, neighbor_min

__all__ = [
    "FocalPlaneError",
    "SceneError",
    "Sphere",
    "Plane",
    "SceneSpec",
    "GroundTruth",
    "project",
    "differential",
    "is_occluding",
    "render",
    "render_sequence",
    "load_scene",
]

_RAY_EPS = 1e-9


class FocalPlaneError(ValueError):
    """Raised for geometry on the focal plane z = 0, where projection is undefined."""


class SceneError(ValueError):
    """Raised for an invalid scene description."""


def project(p: Sequence[float]) -> tuple[float, float]:
    """Pinhole projection (x, y, z) -> (x/z, y/z); constant along rays through the origin."""
    x, y, z = p
    if z == 0:
        raise FocalPlaneError("cannot project a point on the focal plane z = 0")
    return x / z, y / z


def differential(p: Sequence[float], v: Sequence[float]) -> tuple[float, float]:
    """Push a tangent vector at p through the projection.

    Returns (v1/z - v3*x/z^2, v2/z - v3*y/z^2); zero exactly when v is a
    scalar multiple of p, i.e. when v points along the viewing ray.
    """
    x, y, z = p
    if z == 0:
        raise FocalPlaneError("differential undefined on the focal plane z = 0")
    v1, v2, v3 = v
    return v1 / z - v3 * x / (z * z), v2 / z - v3 * y / (z * z)


def is_occluding(surface_point: Sequence[float], normal: Sequence[float], tolerance: float = 1e-9) -> bool:
    """True when the tangent plane at surface_point passes through the camera.

    Tested as |p . n| <= tolerance * |p| * |n|; the viewing ray then lies
    in the tangent plane and the projected surface vector field vanishes.
    """
    p = np.asarray(surface_point, dtype=float)
    n = np.asarray(normal, dtype=float)
    nn = float(np.linalg.norm(n))
    if nn == 0.0:
        raise ValueError("normal must be nonzero")
    if p[2] == 0:
        raise FocalPlaneError("surface point lies on the focal plane z = 0")
    return abs(float(p @ n)) <= tolerance * float(np.linalg.norm(p)) * nn


@dataclass(frozen=True, eq=False)
class Sphere:
    center: np.ndarray
    radius: float
    albedo: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.shape != (3,):
            raise SceneError(f"sphere center must have 3 components, got {self.center!r}")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        if not self.radius > 0:
            raise SceneError(f"sphere radius must be positive, got {self.radius!r}")
        if not c[2] > self.radius:
            raise SceneError("sphere must lie strictly in front of the camera (center z > radius)")
        if not 0.0 <= self.albedo <= 1.0:
            raise SceneError(f"albedo must lie in [0, 1], got {self.albedo!r}")


@dataclass(frozen=True, eq=False)
class Plane:
    point: np.ndarray
    normal: np.ndarray
    albedo: float = 1.0

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float)
        n = np.asarray(self.normal, dtype=float)
        if p.shape != (3,) or n.shape != (3,):
            raise SceneError("plane point and normal must have 3 components")
        if np.linalg.norm(n) == 0:
            raise SceneError("plane normal must be nonzero")
        n = n / np.linalg.norm(n)
        p.setflags(write=False)
        n.setflags(write=False)
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "normal", n)
        if not 0.0 <= self.albedo <= 1.0:
            raise SceneError(f"albedo must lie in [0, 1], got {self.albedo!r}")


SceneObject = Union[Sphere, Plane]


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """A renderable scene: image geometry, one light, and a list of objects.

    fov is the retina half-width at z = 1; a pixel spans 2*fov/width
    retina units. The principal point defaults to the image center and is
    given in pixel coordinates when overridden.
    """

    width: int
    height: int
    objects: tuple[SceneObject, ...] = ()
    light_direction: np.ndarray = (0.0, 0.0, -1.0)
    ambient: float = 0.2
    fov: float = 1.0
    max_value: int = 255
    principal: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise SceneError("image must be at least 1x1")
        object.__setattr__(self, "objects", tuple(self.objects))
        light = np.asarray(self.light_direction, dtype=float)
        if light.shape != (3,):
            raise SceneError("light direction must have 3 components")
        norm = np.linalg.norm(light)
        if norm == 0:
            raise SceneError("light direction must be nonzero")
        light = light / norm
        light.setflags(write=False)
        object.__setattr__(self, "light_direction", light)
        if not 0.0 <= self.ambient <= 1.0:
            raise SceneError(f"ambient must lie in [0, 1], got {self.ambient!r}")
        if not self.fov > 0:
            raise SceneError(f"fov must be positive, got {self.fov!r}")
        if self.max_value < 1:
            raise SceneError("max_value must be at least 1")
        if self.principal is None:
            object.__setattr__(self, "principal", (self.width / 2.0, self.height / 2.0))

    def pixel_rays(self) -> np.ndarray:
        """Unit ray directions through every pixel center, shape (height, width, 3)."""
        pitch = 2.0 * self.fov / self.width
        cx, cy = self.principal
        ts = (np.arange(self.width) + 0.5 - cx) * pitch
        ss = (np.arange(self.height) + 0.5 - cy) * pitch
        t, s = np.meshgrid(ts, ss)
        dirs = np.stack([t, s, np.ones_like(t)], axis=-1)
        return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Analytic per-pixel truth accompanying a rendered image.

    occluding_mask marks pixels whose ray grazes a sphere within about
    half a pixel; discontinuity_mask marks pixels whose nearest-hit
    object differs from an N4 neighbor's (background counts as an object
    of its own); depth_map holds nearest hit distances, +inf where the ray
    escapes; object_ids holds the nearest object index, -1 for background.
    """

    occluding_mask: np.ndarray
    discontinuity_mask: np.ndarray
    depth_map: np.ndarray
    object_ids: np.ndarray

    def __post_init__(self):
        for a in (self.occluding_mask, self.discontinuity_mask, self.depth_map, self.object_ids):
            a.setflags(write=False)


def _sphere_quadratic(dirs: np.ndarray, sphere: Sphere) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel (b, disc) for |tau*d - c|^2 = r^2 with unit d: tau^2 - 2 b tau + (c.c - r^2)."""
    b = dirs @ sphere.center
    disc = b * b - (sphere.center @ sphere.center - sphere.radius**2)
    return b, disc


def _hit_distances(dirs: np.ndarray, obj: SceneObject) -> np.ndarray:
    """Distance to the nearest intersection along each ray, +inf where none."""
    if isinstance(obj, Sphere):
        b, disc = _sphere_quadratic(dirs, obj)
        root = np.sqrt(np.maximum(disc, 0.0))
        near = b - root
        far = b + root
        tau = np.where(near > _RAY_EPS, near, np.where(far > _RAY_EPS, far, np.inf))
        return np.where(disc >= 0.0, tau, np.inf)
    denom = dirs @ obj.normal
    offset = float(obj.point @ obj.normal)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = offset / denom
    return np.where(np.abs(denom) > _RAY_EPS, np.where(tau > _RAY_EPS, tau, np.inf), np.inf)


def _identity_changes(ids: np.ndarray) -> np.ndarray:
    """True where some N4 neighbor's id is smaller or larger than the pixel's own."""
    darker = neighbor_min(ids, Topology.N4, int(ids.max()) + 1) < ids
    return darker | (neighbor_min(-ids, Topology.N4, int(-ids.min()) + 1) < -ids)


def render(spec: SceneSpec) -> tuple[IntensityGrid, GroundTruth]:
    """Ray-cast the scene onto an integer image plus analytic ground truth.

    Each pixel's ray is intersected with every object; the nearest hit is
    shaded as round(max_value * clamp(ambient + (1-ambient) * albedo *
    max(0, n.l))) and misses render 0. The ground truth masks come from
    the tangency condition and nearest-object identity changes, not from
    the image, so they can grade any detector.
    """
    dirs = spec.pixel_rays()
    shape = (spec.height, spec.width)
    # row 0 is the background: a miss everywhere, which argmin picks only where every object misses
    taus = np.stack([np.full(shape, np.inf)] + [_hit_distances(dirs, obj) for obj in spec.objects])
    ids = np.argmin(taus, axis=0) - 1
    depth = taus.min(axis=0)

    image = np.zeros(shape, dtype=np.int64)
    light = spec.light_direction
    points = dirs * np.where(np.isfinite(depth), depth, 0.0)[..., None]
    for i, obj in enumerate(spec.objects):
        sel = ids == i
        if not sel.any():
            continue
        if isinstance(obj, Sphere):
            normals = (points - obj.center) / obj.radius
        else:
            flip = -np.sign(dirs @ obj.normal)
            normals = flip[..., None] * obj.normal
        lam = np.maximum(0.0, normals @ light)
        value = spec.ambient + (1.0 - spec.ambient) * obj.albedo * lam
        shade = np.rint(spec.max_value * np.clip(value, 0.0, 1.0)).astype(np.int64)
        image[sel] = shade[sel]

    occluding = np.zeros(shape, dtype=bool)
    hit_any = ids >= 0
    for i, obj in enumerate(spec.objects):
        if not isinstance(obj, Sphere):
            continue
        b, disc = _sphere_quadratic(dirs, obj)
        gy, gx = np.gradient(disc)
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


def _displace(obj: SceneObject, shift: np.ndarray) -> SceneObject:
    if isinstance(obj, Sphere):
        return dataclasses.replace(obj, center=obj.center + shift)
    return dataclasses.replace(obj, point=obj.point + shift)


def render_sequence(
    spec: SceneSpec, motion: Sequence[float], frames: int
) -> tuple[list[IntensityGrid], list[GroundTruth]]:
    """Render `frames` images, translating every object by `motion` per frame."""
    if frames < 2:
        raise SceneError("a sequence needs at least two frames")
    shift = np.asarray(motion, dtype=float)
    if shift.shape != (3,):
        raise SceneError("motion must have 3 components")
    grids, truths = [], []
    for i in range(frames):
        moved = dataclasses.replace(spec, objects=tuple(_displace(o, i * shift) for o in spec.objects))
        grid, truth = render(moved)
        grids.append(grid)
        truths.append(truth)
    return grids, truths


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SceneError(f"missing '{key}' in {where}")
    return mapping[key]


def scene_from_dict(data: dict) -> SceneSpec:
    """Build a SceneSpec from the documented JSON schema."""
    if not isinstance(data, dict):
        raise SceneError("scene config must be a JSON object")
    image = _require(data, "image", "scene config")
    light = data.get("light", {})
    objects = []
    for idx, entry in enumerate(data.get("objects", [])):
        kind = _require(entry, "type", f"objects[{idx}]")
        if kind == "sphere":
            objects.append(
                Sphere(
                    center=_require(entry, "center", f"objects[{idx}]"),
                    radius=_require(entry, "radius", f"objects[{idx}]"),
                    albedo=entry.get("albedo", 1.0),
                )
            )
        elif kind == "plane":
            objects.append(
                Plane(
                    point=_require(entry, "point", f"objects[{idx}]"),
                    normal=_require(entry, "normal", f"objects[{idx}]"),
                    albedo=entry.get("albedo", 1.0),
                )
            )
        else:
            raise SceneError(f"objects[{idx}] has unknown type {kind!r}")
    principal = image.get("principal")
    return SceneSpec(
        width=_require(image, "width", "image"),
        height=_require(image, "height", "image"),
        objects=tuple(objects),
        light_direction=light.get("direction", (0.0, 0.0, -1.0)),
        ambient=light.get("ambient", 0.2),
        fov=image.get("fov", 1.0),
        max_value=image.get("max_value", 255),
        principal=tuple(principal) if principal is not None else None,
    )


def load_scene(path) -> SceneSpec:
    """Load a scene config from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SceneError(f"{path}: invalid JSON: {exc}") from exc
    return scene_from_dict(data)
