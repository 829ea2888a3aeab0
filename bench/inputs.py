"""Seeded inputs for the benchmark: scene configs, noise and colour images, Netpbm files.

Every function here is a pure function of its arguments and of a numpy
``Generator``, so one seed gives the same files byte for byte. The
encoders are the benchmark's own: the program under test only ever sees
the files they write.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

FOV = 0.6


def _round(values) -> list[float]:
    return [round(float(v), 6) for v in values]


def scene_config(rng: np.random.Generator, size: int, n_objects: int, max_value: int = 255) -> dict:
    """A scene in the README's JSON schema: a floor plane, a back wall from five objects on, spheres.

    Spheres sit 4 to 9 units in front of the camera, inside the view and
    above the floor, so every object is valid and visible: render cost then
    depends on the object count, not on the seed.
    """
    floor_y, slope = rng.uniform(1.0, 2.0), rng.uniform(0.02, 0.15)  # floor at y = floor_y + slope z
    objects = [{
        "type": "plane",
        "point": _round([0.0, floor_y, 0.0]),
        "normal": _round([0.0, -1.0, slope]),
        "albedo": round(float(rng.uniform(0.5, 0.9)), 6),
    }]
    if n_objects >= 5:
        objects.append({
            "type": "plane",
            "point": _round([0.0, 0.0, rng.uniform(12.0, 16.0)]),
            "normal": _round([rng.uniform(-0.2, 0.2), 0.0, -1.0]),
            "albedo": round(float(rng.uniform(0.3, 0.6)), 6),
        })
    while len(objects) < n_objects:
        z, radius = rng.uniform(4.0, 9.0), rng.uniform(0.4, 1.1)
        half = 0.45 * FOV * z
        x = rng.uniform(-half, half)
        y = rng.uniform(-half, min(half, floor_y + slope * z - radius - 0.1))
        objects.append({
            "type": "sphere",
            "center": _round([x, y, z]),
            "radius": round(float(radius), 6),
            "albedo": round(float(rng.uniform(0.4, 1.0)), 6),
        })
    return {
        "image": {"width": size, "height": size, "fov": FOV, "max_value": max_value},
        "light": {
            "direction": _round([*rng.uniform(-0.6, 0.6, 2), -1.0]),
            "ambient": round(float(rng.uniform(0.15, 0.35)), 6),
        },
        "objects": objects,
    }


def relit(config: dict, rng: np.random.Generator) -> dict:
    """The same scene under another light, used to make the planes of a colour image."""
    out = copy.deepcopy(config)
    out["light"]["direction"] = _round([*rng.uniform(-0.8, 0.8, 2), -1.0])
    return out


def motion(rng: np.random.Generator) -> str:
    """A per-frame displacement dx,dy,dz for render-seq, small enough to keep objects in view."""
    dx, dy = rng.uniform(-0.08, 0.08, 2)
    return f"{dx:.4f},{dy:.4f},0"


def noise(rng: np.random.Generator, size: int, max_value: int = 255) -> np.ndarray:
    """Uniform integer noise: every pixel an independent level, the tracer's worst case."""
    return rng.integers(0, max_value + 1, (size, size), dtype=np.int64)


def upsample(values: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-neighbour enlargement of the last two axes."""
    return np.repeat(np.repeat(values, factor, axis=-2), factor, axis=-1)


def encode_pnm(values: np.ndarray, max_value: int, ascii: bool = False) -> bytes:
    """PGM (2-D values) or PPM ((h, w, 3) values); binary P5/P6 or ASCII P2/P3."""
    values = np.asarray(values)
    color = values.ndim == 3
    h, w = values.shape[:2]
    magic = ("P3" if color else "P2") if ascii else ("P6" if color else "P5")
    header = f"{magic}\n{w} {h}\n{max_value}\n".encode("ascii")
    if ascii:
        rows = values.reshape(h, -1).tolist()
        return header + "".join(" ".join(map(str, row)) + "\n" for row in rows).encode("ascii")
    dtype = np.uint8 if max_value < 256 else np.dtype(">u2")
    return header + values.astype(dtype).tobytes()


def write_pnm(path, values: np.ndarray, max_value: int, ascii: bool = False) -> str:
    Path(path).write_bytes(encode_pnm(values, max_value, ascii))
    return str(path)


def write_json(path, data: dict) -> str:
    Path(path).write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    return str(path)
