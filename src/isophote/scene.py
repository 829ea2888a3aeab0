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

import json
import math
import reprlib
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .raster import IntensityGrid, adopt, as_integer

__all__ = [
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
# The largest width * height a scene may declare (8192 x 8192). Past a few
# hundred thousand pixels render peaks near 58 bytes per pixel: the outputs (26),
# the rays (24) and the grid's frozen copy of the image (8).
MAX_PIXELS = 1 << 26
# render works through the image in row strips of about this many pixels (at
# least one row each), so each object's temporaries stay cache-sized; only the
# outputs and the one ray array are image-sized.
_STRIP_PIXELS = 1 << 16


class SceneError(ValueError):
    """Raised for an invalid scene description."""


# Every coordinate, length and direction component lies within _MAX_MAGNITUDE,
# and the sphere radius and fov, which the geometry divides by, are at least
# _MIN_SCALE. Squares, products and quotients of a few such numbers then stay
# far inside float range, so rendering never overflows.
_MAX_MAGNITUDE = 1e30
_MIN_SCALE = 1e-30


def _bounded(value, what: str, low: float = -_MAX_MAGNITUDE, high: float = _MAX_MAGNITUDE) -> float:
    """value as a float; SceneError unless it is an int, float or numpy number in [low, high].

    A bool is refused, NaN fails the comparison, and an int is compared
    exactly, however large, before float() sees it.
    """
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (number and low <= value <= high):
        raise SceneError(f"{what} must be finite and lie in [{low:g}, {high:g}], got {reprlib.repr(value)}")
    return float(value)


def _bounded_vector(value, n: int, what: str) -> np.ndarray:
    """value, a list, tuple or array of n numbers each within _MAX_MAGNITUDE, as a read-only float array."""
    items = value.tolist() if isinstance(value, np.ndarray) else value
    if not isinstance(items, (list, tuple)) or len(items) != n:
        raise SceneError(f"{what} must be a list of {n} numbers, got {reprlib.repr(value)}")
    vector = np.array([_bounded(v, what) for v in items])
    vector.setflags(write=False)
    return vector


def _unit(value, what: str) -> np.ndarray:
    """value, 3 numbers as _bounded_vector takes them and not all 0, as a read-only unit vector."""
    vector = _bounded_vector(value, 3, what)
    norm = math.sqrt(_dot(vector, vector))
    if norm == 0:
        raise SceneError(f"{what} must be nonzero")
    unit = vector / norm
    unit.setflags(write=False)
    return unit


def _dot(a, v):
    """a . v over a's last axis, summed as (a0 v0 + a1 v1) + a2 v2 whatever the BLAS kernel."""
    out = a[..., 0] * v[0]
    out += a[..., 1] * v[1]
    out += a[..., 2] * v[2]
    return out


def project(p: Sequence[float]) -> tuple[float, float]:
    """Pinhole projection (x, y, z) -> (x/z, y/z); constant along rays through the origin."""
    x, y, z = p
    if z == 0:
        raise ValueError("cannot project a point on the focal plane z = 0")
    return x / z, y / z


def differential(p: Sequence[float], v: Sequence[float]) -> tuple[float, float]:
    """Push a tangent vector at p through the projection.

    Returns (v1/z - v3*x/z^2, v2/z - v3*y/z^2); zero exactly when v is a
    scalar multiple of p, i.e. when v points along the viewing ray.
    """
    x, y, z = p
    if z == 0:
        raise ValueError("differential undefined on the focal plane z = 0")
    v1, v2, v3 = v
    return v1 / z - v3 * x / (z * z), v2 / z - v3 * y / (z * z)


def is_occluding(surface_point: Sequence[float], normal: Sequence[float], tolerance: float = 1e-9) -> bool:
    """True when the tangent plane at surface_point passes through the camera.

    Tested as |p . n| <= tolerance * |p| * |n|; the viewing ray then lies
    in the tangent plane and the projected surface vector field vanishes.
    """
    p = np.asarray(surface_point, dtype=float)
    n = np.asarray(normal, dtype=float)
    nn = math.sqrt(_dot(n, n))
    if nn == 0.0:
        raise ValueError("normal must be nonzero")
    if p[2] == 0:
        raise ValueError("surface point lies on the focal plane z = 0")
    return abs(float(_dot(p, n))) <= tolerance * math.sqrt(_dot(p, p)) * nn


@dataclass(frozen=True, eq=False)
class Sphere:
    center: np.ndarray
    radius: float
    albedo: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", _bounded_vector(self.center, 3, "sphere center"))
        object.__setattr__(self, "radius", _bounded(self.radius, "sphere radius", _MIN_SCALE))
        object.__setattr__(self, "albedo", _bounded(self.albedo, "albedo", 0, 1))
        if not self.center[2] > self.radius:
            raise SceneError("sphere must lie strictly in front of the camera (center z > radius)")


@dataclass(frozen=True, eq=False)
class Plane:
    point: np.ndarray
    normal: np.ndarray
    albedo: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "point", _bounded_vector(self.point, 3, "plane point"))
        object.__setattr__(self, "normal", _unit(self.normal, "plane normal"))
        object.__setattr__(self, "albedo", _bounded(self.albedo, "albedo", 0, 1))


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
        for name in ("width", "height", "max_value"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, SceneError))
        if self.width < 1 or self.height < 1:
            raise SceneError("image must be at least 1x1")
        if self.width * self.height > MAX_PIXELS:
            raise SceneError(f"a {self.width}x{self.height} image exceeds the limit of {MAX_PIXELS} pixels")
        if not isinstance(self.objects, (list, tuple)) or not all(isinstance(o, (Sphere, Plane)) for o in self.objects):
            raise SceneError(f"objects must be a list of spheres and planes, got {reprlib.repr(self.objects)}")
        if not 1 <= self.max_value <= 1 << 53:  # so shading rounds to an exact integer
            raise SceneError(f"max_value must lie in [1, 2**53], got {self.max_value!r}")
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "light_direction", _unit(self.light_direction, "light direction"))
        object.__setattr__(self, "ambient", _bounded(self.ambient, "ambient", 0, 1))
        object.__setattr__(self, "fov", _bounded(self.fov, "fov", _MIN_SCALE))
        principal = (self.width / 2.0, self.height / 2.0) if self.principal is None else self.principal
        object.__setattr__(self, "principal", tuple(_bounded_vector(principal, 2, "principal point").tolist()))

    def pixel_rays(self) -> np.ndarray:
        """Unit ray directions through every pixel center, shape (height, width, 3), each component contiguous."""
        pitch = 2.0 * self.fov / self.width
        cx, cy = self.principal
        ts = (np.arange(self.width) + 0.5 - cx) * pitch
        ss = (np.arange(self.height) + 0.5 - cy) * pitch
        # the rays (t, s, 1) are separable; (s^2 + t^2) + 1 rounds as a norm's (t^2 + s^2) + 1 does
        norm = np.sqrt(np.add.outer(ss * ss, ts * ts) + 1.0)
        dirs = np.empty((3, self.height, self.width))
        np.divide(ts, norm, out=dirs[0])
        np.divide(ss[:, None], norm, out=dirs[1])
        np.divide(1.0, norm, out=dirs[2])
        return np.moveaxis(dirs, 0, -1)


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


def _sphere_box(spec: SceneSpec, sphere: Sphere) -> tuple[slice, slice]:
    """(rows, cols) of a box, maybe empty, holding every pixel where the sphere is hit or `near` holds.

    It bounds the cone about c whose half-angle exceeds the silhouette's by x,
    sin x = 2 pitch + 1e-6. Adjacent rays are at most a pitch apart in angle
    and -disc = |c|^2 sin^2(angle to c) - r^2, so past the cone the neighbors
    of a pixel miss with at most 2.25 times its -disc, and central or one-sided
    differences give |disc| > 0.5 |grad disc| (the 1e-6 outweighs rounding).
    Per axis the tangent planes through the camera meet the retina at the
    roots of t^2 (cz^2 - R^2) - 2 t cu cz + cu^2 - R^2, R = |c| sin(half-angle).
    """
    c, pitch = sphere.center, 2.0 * spec.fov / spec.width
    sin0, sinx = sphere.radius / np.sqrt(_dot(c, c)), min(2.0 * pitch + 1e-6, 1.0)
    cos0, cosx = np.sqrt(1.0 - sin0 * sin0), np.sqrt(1.0 - sinx * sinx)
    radius = np.sqrt(_dot(c, c)) * (sin0 * cosx + cos0 * sinx)
    a = c[2] * c[2] - radius * radius
    if cos0 * cosx <= sin0 * sinx or a <= 0:  # the cone reaches 90 degrees from c or the focal plane
        return slice(0, spec.height), slice(0, spec.width)
    q = c[:2] * c[2] + np.copysign(radius * np.sqrt(c[:2] ** 2 + a), c[:2])  # roots q/a, product/q
    roots = np.array([q / a, (c[:2] ** 2 - radius * radius) / q]) / pitch - 0.5 + spec.principal
    lo = np.clip(np.floor(roots.min(axis=0)), 0, (spec.width, spec.height)).astype(int)
    hi = np.clip(np.ceil(roots.max(axis=0)) + 1, lo, (spec.width, spec.height)).astype(int)
    return slice(lo[1], hi[1]), slice(lo[0], hi[0])


def _identity_changes(ids: np.ndarray) -> np.ndarray:
    """True where some N4 neighbor's id differs from the pixel's own."""
    changes = np.zeros(ids.shape, dtype=bool)
    down, right = ids[1:] != ids[:-1], ids[:, 1:] != ids[:, :-1]
    changes[1:] |= down
    changes[:-1] |= down
    changes[:, 1:] |= right
    changes[:, :-1] |= right
    return changes


def _sphere_rows(dirs: np.ndarray, sphere: Sphere, box: tuple[slice, slice], rows: slice):
    """b, disc and disc's gradient (gx, gy) over `rows` of the sphere's box.

    The hit solves tau^2 - 2 b tau + c.c - r^2 = 0, disc = b^2 - (c.c - r^2).
    disc is built one row past `rows` each way where the box has that row, so
    np.gradient takes central differences inside the box and one-sided ones at
    its edges, as over the whole box. The box's border lies outside the cone,
    where central, one-sided or (along an axis of length 1) zero differences
    all leave `near` false.
    """
    grown = slice(max(rows.start - 1, box[0].start), min(rows.stop + 1, box[0].stop))
    b = _dot(dirs[grown, box[1]], sphere.center)
    disc = b * b - (_dot(sphere.center, sphere.center) - sphere.radius**2)
    gy, gx = (np.gradient(disc, axis=k) if disc.shape[k] > 1 else 0 * disc for k in (0, 1))
    crop = slice(rows.start - grown.start, rows.stop - grown.start)
    return b[crop], disc[crop], gx[crop], gy[crop]


def _shade(spec: SceneSpec, obj: SceneObject, lam):
    """round(max_value * clamp(ambient + (1 - ambient) * albedo * max(0, lam))) per lam = n.l."""
    value = spec.ambient + (1.0 - spec.ambient) * obj.albedo * np.maximum(0.0, lam)
    return np.rint(spec.max_value * np.clip(value, 0.0, 1.0)).astype(np.int64)


def render(spec: SceneSpec) -> tuple[IntensityGrid, GroundTruth]:
    """Ray-cast the scene onto an integer image plus analytic ground truth.

    Each pixel's ray is intersected with every object; the nearest hit is
    shaded as round(max_value * clamp(ambient + (1-ambient) * albedo *
    max(0, n.l))) and misses render 0. The ground truth masks come from
    the tangency condition and nearest-object identity changes, not from
    the image, so they can grade any detector.
    """
    return _render(spec, spec.pixel_rays(), spec.objects)


def _render(spec: SceneSpec, dirs: np.ndarray, objects: tuple) -> tuple[IntensityGrid, GroundTruth]:
    """render of `objects` with the rays given, one row strip of about _STRIP_PIXELS pixels at a time.

    Only the outputs and the rays are image-sized; each strip's temporaries
    are freed before the next strip. Every value is computed per pixel, as
    over the whole image, so the strip size changes no byte.
    """
    shape = (spec.height, spec.width)
    depth, ids = np.full(shape, np.inf), np.full(shape, -1, dtype=np.intp)
    image, occluding = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=bool)
    whole = (slice(0, spec.height), slice(0, spec.width))
    boxes = [_sphere_box(spec, obj) if isinstance(obj, Sphere) else whole for obj in objects]
    step = max(_STRIP_PIXELS // spec.width, 1)
    for top in range(0, spec.height, step):
        _render_strip(spec, dirs, objects, boxes, top, min(top + step, spec.height), depth, ids, image, occluding)
    truth = GroundTruth(
        occluding_mask=occluding,
        discontinuity_mask=_identity_changes(ids),
        depth_map=depth,
        object_ids=ids,
    )
    return IntensityGrid(adopt(image), spec.max_value), truth


def _render_strip(spec: SceneSpec, dirs: np.ndarray, objects: tuple, boxes: list, top: int, bottom: int,
                  depth: np.ndarray, ids: np.ndarray, image: np.ndarray, occluding: np.ndarray) -> None:
    """Hit-test, shade and test for occlusion rows [top, bottom), writing into the four outputs."""
    second = np.full((bottom - top, spec.width), np.inf)  # counts ties
    # per object meeting the strip: its box there, in image and in strip rows, and per sphere its
    # b and near, per plane where it faces away
    kept = {}
    for i, (obj, (rows, cols)) in enumerate(zip(objects, boxes)):
        rows = slice(max(rows.start, top), min(rows.stop, bottom))
        if rows.start >= rows.stop or cols.start >= cols.stop:
            continue
        box, local = (rows, cols), (slice(rows.start - top, rows.stop - top), cols)
        if isinstance(obj, Sphere):
            b, disc, gx, gy = _sphere_rows(dirs, obj, boxes[i], rows)
            near = np.abs(disc) <= 0.5 * np.hypot(gx, gy)  # within ~half a pixel of tangency
            kept[i] = box, local, (b, near)
            root = np.sqrt(np.maximum(disc, 0.0))
            tau = np.where(b - root > _RAY_EPS, b - root, np.where(b + root > _RAY_EPS, b + root, np.inf))
            tau = np.where(disc >= 0.0, tau, np.inf)
        else:
            denom = _dot(dirs[box], obj.normal)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # masked out below
                tau = float(_dot(obj.point, obj.normal)) / denom
            hit = tau > _RAY_EPS
            hit &= (denom > _RAY_EPS) | (denom < -_RAY_EPS)
            np.copyto(tau, np.inf, where=~hit)
            # where the plane is nearest, |denom| > eps, so its shading normal -sign(denom) n is -n or n
            kept[i] = box, local, denom > 0
        # a strict < keeps the first minimum, as argmin does; min never rounds, so depth is exact
        near_depth, near_second = depth[box], second[local]
        closer = tau < near_depth
        np.minimum(near_second, tau, out=near_second)
        np.copyto(near_second, near_depth, where=closer)
        np.minimum(near_depth, tau, out=near_depth)
        np.copyto(ids[box], i, where=closer)

    light = spec.light_direction
    for i, (box, local, fact) in kept.items():
        obj = objects[i]
        mine = ids[box] == i
        if isinstance(obj, Plane):
            nl = _dot(obj.normal, light)
            np.copyto(image[box], _shade(spec, obj, nl), where=mine)
            np.copyto(image[box], _shade(spec, obj, -nl), where=mine & fact)
            continue
        b, near = fact
        if mine.any():
            lam = _dot(dirs[box], light) * np.where(mine, depth[box], 0.0)  # n.l = (tau d.l - c.l) / r
            lam -= _dot(obj.center, light)
            lam /= obj.radius
            np.copyto(image[box], _shade(spec, obj, lam), where=mine)
        others = np.where(mine, second[local], depth[box])  # the nearest hit of another object
        occluding[box] |= near & (b > 0) & (ids[box] >= 0) & ~(others < b - _RAY_EPS)


def _displace(obj: SceneObject, shift: np.ndarray) -> SceneObject:
    if isinstance(obj, Sphere):
        return Sphere(obj.center + shift, obj.radius, obj.albedo)
    moved = Plane(obj.point + shift, obj.normal, obj.albedo)
    object.__setattr__(moved, "normal", obj.normal)  # normalizing a unit normal again may change its last bit
    return moved


def render_sequence(
    spec: SceneSpec, motion: Sequence[float], frames: int
) -> tuple[list[IntensityGrid], list[GroundTruth]]:
    """Render `frames` images, translating every object by `motion` per frame.

    Every frame's objects are built, and so checked, before any is rendered;
    each frame keeps spec's light and plane normals, so frame 0 is render(spec).
    """
    frames = as_integer(frames, "frames", SceneError)
    if frames < 2:
        raise SceneError("a sequence needs at least two frames")
    if frames * spec.width * spec.height > MAX_PIXELS:
        raise SceneError(f"{frames} frames of {spec.width}x{spec.height} exceed the limit of {MAX_PIXELS} pixels")
    shift = _bounded_vector(motion, 3, "motion")
    moved = [tuple(_displace(o, i * shift) for o in spec.objects) for i in range(frames)]
    dirs = spec.pixel_rays()  # motion moves objects, not the image geometry the rays depend on
    renders = [_render(spec, dirs, objects) for objects in moved]
    return [grid for grid, _ in renders], [truth for _, truth in renders]


def _typed(value, kind: type, name: str):
    """value, if it is a kind (dict, list or str); else a SceneError naming it."""
    if not isinstance(value, kind):
        noun = {dict: "a JSON object", list: "a list", str: "a string"}[kind]
        raise SceneError(f"{name} must be {noun}, got {reprlib.repr(value)}")
    return value


def _pick(mapping: dict, where: str, required: tuple, optional: tuple) -> dict:
    """The required keys' values and those of the optional keys present, by key.

    A SceneError names the first required key missing, else the first key that is neither.
    """
    for key in required:
        if key not in mapping:
            raise SceneError(f"missing '{key}' in {where}")
    keys = required + optional
    for key in mapping:
        if key not in keys:
            raise SceneError(f"unknown key {reprlib.repr(key)} in {where}")
    return {key: mapping[key] for key in keys if key in mapping}


# Per object type: its class and the keys it requires; "albedo" is optional for both.
_SHAPES = {"sphere": (Sphere, ("center", "radius")), "plane": (Plane, ("point", "normal"))}


def scene_from_dict(data: dict) -> SceneSpec:
    """Build a SceneSpec from the documented JSON schema.

    Only the JSON structure is checked here: the objects and lists, the
    type strings, the required keys and that no other key is given. Every
    value goes as it is to the constructors, which check it as they check
    one given in Python, so a malformed config raises SceneError naming
    the key at fault; an object's error starts with its place in the list.
    """
    top = _pick(_typed(data, dict, "scene config"), "scene config", ("image",), ("light", "objects"))
    image = _typed(top["image"], dict, "'image' in scene config")
    light = _pick(_typed(top.get("light", {}), dict, "'light' in scene config"), "light", (), ("direction", "ambient"))
    if "direction" in light:
        light["light_direction"] = light.pop("direction")
    objects = []
    for idx, entry in enumerate(_typed(top.get("objects", []), list, "'objects' in scene config")):
        where = f"objects[{idx}]"
        _typed(entry, dict, where)
        kind = _pick(entry, where, ("type",), tuple(entry))["type"]  # its other keys depend on the type
        if _typed(kind, str, f"'type' in {where}") not in _SHAPES:
            raise SceneError(f"{where} has unknown type {reprlib.repr(kind)}")
        shape, required = _SHAPES[kind]
        values = _pick(entry, where, required, ("type", "albedo"))
        values.pop("type")
        try:
            objects.append(shape(**values))
        except SceneError as exc:
            raise SceneError(f"{where}: {exc}") from exc
    values = _pick(image, "image", ("width", "height"), ("fov", "max_value", "principal"))
    return SceneSpec(objects=tuple(objects), **values, **light)


def load_scene(path) -> SceneSpec:
    """Load a scene config from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise SceneError(f"{path}: invalid JSON: {exc}") from exc
    return scene_from_dict(data)
