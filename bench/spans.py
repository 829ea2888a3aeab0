"""Spans for the traced run, and the per-layer metrics computed from them.

The traced run wraps the functions the CLI calls, as they appear in the
``isophote.cli`` namespace (including its route table), and the grid
freeze of ``isophote.raster``. Each wrapper records one span: name, start,
end, parent span and CLI call id. Counts are taken after the span ends,
inside a ``bench.count`` span of their own, so counting is neither timed as
the layer's work nor as the CLI's. Spans stay in memory until the run ends.

A layer's self time is its spans' duration minus the part of that interval
its child spans cover. The self times of all layers plus ``cli.self_s``
sum to ``cli.call_s``, the traced call time without counting.
"""

from __future__ import annotations

import itertools
import os
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

CALL = "cli"
COUNT = "bench.count"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    call: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for functions wrapped with :meth:`wrap` and calls made with :meth:`call`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._call = -1
        self.flagged = None  # flags of the last detection in the current call, for the zero filter

    def _record(self, name, fn, args, kwargs, count=None):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self._call))
        if count is not None:
            counts = self.spans[-1].counts
            self._record(COUNT, lambda: counts.update(count(self, args, kwargs, result)), (), {})
        return result

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs, count)

        return traced

    def call(self, fn, *args):
        """Run one CLI call as the root span of a new call id."""
        self._call += 1
        self.flagged = None
        return self._record(CALL, fn, args, {})


# --- counts taken at each boundary ------------------------------------------------


def _read_counts(tracer, args, kwargs, grid):
    return {"bytes": os.path.getsize(args[0]), "px": grid.values.size}


def _write_counts(tracer, args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _freeze_counts(tracer, args, kwargs, result):
    values = args[0].values
    return {"px": values.size, "nbytes": values.nbytes}


def _detect_counts(tracer, args, kwargs, mask):
    grid, schedule = args[0], args[1]
    tracer.flagged = mask.flagged
    px, levels = grid.values.size, len(schedule.levels(grid.max_value))
    return {
        "px": px,
        "flagged": int(tracer.flagged.sum()),
        "mask_nbytes": mask.level_count.nbytes + mask.witness_hi.nbytes + mask.witness_lo.nbytes,
        "level_px": px * levels,
        "levels": levels,
        "members": int(mask.level_count.sum()),
    }


def _zero_counts(tracer, args, kwargs, zero):
    if tracer.flagged is None:
        return {}
    return {"flagged": int(tracer.flagged.sum()), "dropped": int((tracer.flagged & zero).sum())}


def _trace_counts(tracer, args, kwargs, contours):
    return {"contours": len(contours), "px": sum(len(c.pixels) for c in contours)}


def _render_counts(tracer, args, kwargs, result):
    spec = args[0]
    frames = len(result[0]) if isinstance(result[0], list) else 1
    px = spec.width * spec.height * frames
    return {"px": px, "ray_tests": px * len(spec.objects)}


# Names in isophote.cli's namespace, the span each call records, and its counts.
CLI_FUNCTIONS = {
    "read_grid": ("netpbm.read", _read_counts),
    "write_pbm": ("netpbm.write", _write_counts),
    "write_pgm": ("netpbm.write", _write_counts),
    "frame_stack": ("raster.freeze", None),
    "detect_pointwise": ("detector.pointwise", _detect_counts),
    "detect_multilevel": ("detector.multilevel", _detect_counts),
    "apply_operator": ("field.apply_operator", None),
    "hamiltonian": ("field.zero_filter", None),
    "zero_mask": ("field.zero_filter", _zero_counts),
    "trace_level_contours": ("field.trace", _trace_counts),
    "contours_to_svg": ("field.export", None),
    "contours_to_text": ("field.export", None),
    "render": ("scene.render", _render_counts),
    "render_sequence": ("scene.render", _render_counts),
}
# Grid classes whose __post_init__ validates and freezes the pixel array.
FROZEN_CLASSES = ("IntensityGrid", "FrameStack")


def install(tracer: Tracer, cli, raster):
    """Wrap every traced name; raise if one is missing. Returns a function that undoes it."""
    missing = [n for n in CLI_FUNCTIONS if not hasattr(cli, n)]
    missing += [f"raster.{n}" for n in FROZEN_CLASSES if not hasattr(raster, n)]
    if missing:
        raise LookupError(f"traced names no longer exist: {', '.join(missing)}")
    undo = []
    wrapped = {}
    for name, (span, count) in CLI_FUNCTIONS.items():
        original = getattr(cli, name)
        wrapped[original] = tracer.wrap(span, original, count)
        setattr(cli, name, wrapped[original])
        undo.append((cli, name, original))
    routes = getattr(cli, "_DETECTORS", {})
    for mode, fn in list(routes.items()):
        if fn in wrapped:
            routes[mode] = wrapped[fn]
            undo.append((routes, mode, fn))
    for name in FROZEN_CLASSES:
        cls = getattr(raster, name)
        original = cls.__post_init__
        cls.__post_init__ = tracer.wrap("raster.freeze", original, _freeze_counts)
        undo.append((cls, "__post_init__", original))

    def uninstall():
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    return uninstall


# --- self times and per-layer metrics -----------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals, clipped to it."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children[s.sid], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


LAYERS = (
    "netpbm.read", "netpbm.write", "raster.freeze", "detector.pointwise", "detector.multilevel",
    "field.apply_operator", "field.zero_filter", "field.trace", "field.export", "scene.render",
)

UNITS = {
    "netpbm.read_s": "s", "netpbm.read_mb_s": "MB/s", "netpbm.write_s": "s",
    "netpbm.write_mb_s": "MB/s", "netpbm.bytes_in": "B", "netpbm.bytes_out": "B",
    "raster.freeze_s": "s", "raster.grid_bytes_per_px": "B/px",
    "detector.pointwise_s": "s", "detector.pointwise_mpix_s": "Mpx/s",
    "detector.mask_bytes_per_px": "B/px", "detector.flag_ratio": "ratio",
    "detector.multilevel_s": "s", "detector.level_mpix_s": "Mpx/s",
    "detector.levels_evaluated": "count", "detector.member_ratio": "ratio",
    "field.apply_operator_s": "s", "field.zero_filter_s": "s", "field.zero_dropped_ratio": "ratio",
    "field.trace_s": "s", "field.trace_px_s": "px/s", "field.contours": "count", "field.export_s": "s",
    "scene.render_s": "s", "scene.render_mpix_s": "Mpx/s", "scene.ray_tests_per_s": "1/s",
    "cli.self_s": "s", "cli.call_s": "s", "bench.tracing_overhead": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; untraced_s is the same calls' untraced time."""
    own = self_times(spans)
    time = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    for s in spans:
        time[s.name] += own[s.sid]
        group = "detector" if s.name.startswith("detector.") else s.name
        for key, value in s.counts.items():
            counts[group][key] += value
            if group == "detector":
                counts[s.name][key] += value
    call_total = sum(s.end - s.start for s in spans if s.name == CALL)
    m = {f"{layer}_s": time[layer] for layer in LAYERS}
    read, write, freeze = counts["netpbm.read"], counts["netpbm.write"], counts["raster.freeze"]
    det, ml = counts["detector"], counts["detector.multilevel"]
    zero, trace, scene = counts["field.zero_filter"], counts["field.trace"], counts["scene.render"]
    m.update({
        "netpbm.read_mb_s": _ratio(read["bytes"] / 1e6, time["netpbm.read"]),
        "netpbm.write_mb_s": _ratio(write["bytes"] / 1e6, time["netpbm.write"]),
        "netpbm.bytes_in": read["bytes"],
        "netpbm.bytes_out": write["bytes"],
        "raster.grid_bytes_per_px": _ratio(freeze["nbytes"], freeze["px"]),
        "detector.pointwise_mpix_s": _ratio(counts["detector.pointwise"]["px"] / 1e6,
                                            time["detector.pointwise"]),
        "detector.mask_bytes_per_px": _ratio(det["mask_nbytes"], det["px"]),
        "detector.flag_ratio": _ratio(det["flagged"], det["px"]),
        "detector.level_mpix_s": _ratio(ml["level_px"] / 1e6, time["detector.multilevel"]),
        "detector.levels_evaluated": ml["levels"],
        "detector.member_ratio": _ratio(ml["members"], ml["level_px"]),
        "field.zero_dropped_ratio": _ratio(zero["dropped"], zero["flagged"]),
        "field.trace_px_s": _ratio(trace["px"], time["field.trace"]),
        "field.contours": trace["contours"],
        "scene.render_mpix_s": _ratio(scene["px"] / 1e6, time["scene.render"]),
        "scene.ray_tests_per_s": _ratio(scene["ray_tests"], time["scene.render"]),
        "cli.self_s": time[CALL],
        "cli.call_s": call_total - time[COUNT],
        "bench.tracing_overhead": _ratio(call_total, untraced_s),
    })
    return m
