"""The four workloads: seeded inputs, the command mix, and the check of every call.

Each builder writes its inputs into a work directory and fills a plan:
the ops (CLI argv, input megapixels, check, expected spans, outputs) and
the rounds they run in. Every detector call passes ``--mode`` and
``--increment`` explicitly, so a change of the CLI defaults does not change
what is measured. Scenes come from the package's renderer at set-up, so a
renderer change moves ``setup_s`` on every workload.

Each workload runs whole rounds, and the number of rounds is fixed by
``--seconds`` and the workload's round time at the seed commit (``round_s``),
not by the clock: a faster program then does the same calls, and medians
and the tail percentile stay comparable across commits.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from checks import array_digest, contour_members, file_digest, pixel_expectations
from isophote import FrameStack, IntensityGrid, Topology, cli, load_scene, render, render_sequence

TOPOLOGIES = {"4": Topology.N4, "8": Topology.N8}
MIN_CALLS = 21  # so the tail, ten calls from the top, is at or above the median


class Plan:
    """Collects a workload's files, ops and rounds in its work directory."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.ops: dict[str, dict] = {}
        self.rounds: list[list[str]] = []

    def path(self, name: str) -> str:
        return str(self.work / name)

    def image(self, name: str, values, max_value: int, ascii: bool = False) -> str:
        return inputs.write_pnm(self.path(name), values, max_value, ascii)

    def scene(self, name: str, config: dict):
        """Write a scene config and render it in-process: (path, grid, truth)."""
        path = inputs.write_json(self.path(name), config)
        return (path, *render(load_scene(path)))

    def sequence(self, name: str, config: dict, frames: int):
        """Write a scene config and render a moving sequence: (path, motion, grids, truths)."""
        path = inputs.write_json(self.path(name), config)
        move = inputs.motion(self.rng)
        grids, truths = render_sequence(load_scene(path), tuple(map(float, move.split(","))), frames)
        return path, move, grids, truths

    def add(self, op_id: str, argv: list[str], mpx: float, check: dict, outputs: list[str]):
        self.ops[op_id] = {
            "id": op_id, "argv": argv, "mpx": mpx, "check": check,
            "outputs": outputs, "spans": sorted(expected_spans(argv)),
        }

    def warmup(self) -> list[list[str]]:
        """One call of each subcommand on tiny inputs, so lazy set-up is done before timing."""
        tiny = self.image("tiny.pgm", inputs.noise(self.rng, 16), 255)
        scene = inputs.write_json(self.path("tiny.json"), inputs.scene_config(self.rng, 16, 2))
        out = self.path("tiny-out")
        return [
            ["detect", "--mode", "pointwise", "--filter-occluding", tiny, out + ".pbm"],
            ["detect", "--mode", "multilevel", tiny, out + ".pbm"],
            ["detect-temporal", "--mode", "pointwise", "--out-pattern", out + "{i}.pbm", tiny, tiny],
            ["trace", "--threshold", "128", tiny, out + ".svg"],
            ["render", "--scene", scene, "--out", out + ".pgm", "--truth", out + ".pbm"],
            ["render-seq", "--scene", scene, "--frames", "2", "--motion", "0.01,0,0",
             "--out-pattern", out + "{i}.pgm"],
        ]

    def to_json(self) -> dict:
        return {"ops": self.ops, "rounds": self.rounds, "warmup": self.warmup()}


def expected_spans(argv: list[str]) -> set[str]:
    """Spans a traced call must record; a missing one means the tracer lost a boundary."""
    command = argv[0]
    if command in ("render", "render-seq"):
        return {"scene.render", "raster.freeze", "netpbm.write"}
    spans = {"netpbm.read", "raster.freeze"}
    if command == "trace":
        return spans | {"field.trace", "field.export"}
    spans |= {f"detector.{argv[argv.index('--mode') + 1]}", "netpbm.write"}
    if "--filter-occluding" in argv:
        spans.add("field.zero_filter")
    if "--preprocess" in argv and argv[argv.index("--preprocess") + 1] != "none":
        spans.add("field.apply_operator")
    return spans


def difference_x(values: np.ndarray, max_value: int) -> tuple[np.ndarray, int]:
    """The documented ``--preprocess dx``: forward difference, backward at the last column, plus max."""
    raw = np.zeros_like(values)
    raw[:, :-1] = values[:, 1:] - values[:, :-1]
    raw[:, -1] = values[:, -1] - values[:, -2]
    return raw + max_value, 2 * max_value


def luma(rgb: np.ndarray) -> np.ndarray:
    """The documented grayscale of colour input: (77 R + 150 G + 29 B) >> 8."""
    return (77 * rgb[..., 0] + 150 * rgb[..., 1] + 29 * rgb[..., 2]) >> 8


def pixel_check(plan: Plan, op_id: str, grid, topology: str, increment: int, masks: list[str],
                 levels: str | None = None, zero_filter: bool = False) -> dict:
    topo = Topology.N4T if isinstance(grid, FrameStack) else TOPOLOGIES[topology]
    samples = plan.path(f"{op_id}.samples.npy")
    np.save(samples, pixel_expectations(plan.rng, grid, topo, increment, zero_filter))
    return {"kind": "pixels", "masks": masks, "levels": levels, "samples": samples,
            "shape": list(grid.values.shape[-2:])}


# --- detect-binary -------------------------------------------------------------------


def detect_binary(plan: Plan) -> None:
    """Closed form with filter and level counts on P5 2048^2 8-bit and 4096^2 16-bit; temporal 3x2048^2."""
    upsample = inputs.upsample
    _, scene, _ = plan.scene("scene16.json", inputs.scene_config(plan.rng, 512, 4, 65535))
    images = {"s8": upsample(scene.values >> 8, 4), "s16": upsample(scene.values, 8)}
    sources = {name: plan.image(f"{name}.pgm", values, 255 if name == "s8" else 65535)
               for name, values in images.items()}
    for name, pre, topo in (("s8", "none", "4"), ("s8", "dx", "8"), ("s16", "none", "4"), ("s16", "none", "8")):
        values, max_value = images[name], 255 if name == "s8" else 65535
        pre_values, pre_max = difference_x(values, max_value) if pre == "dx" else (values, max_value)
        op_id = f"{name}-{pre}-n{topo}"
        out, lv = plan.path(f"{op_id}.pbm"), plan.path(f"{op_id}.levels.pgm")
        argv = ["detect", "--mode", "pointwise", "--increment", "8", "--topology", topo,
                "--preprocess", pre, "--filter-occluding", "--levels-out", lv, sources[name], out]
        grid = IntensityGrid(pre_values, pre_max)
        check = pixel_check(plan, op_id, grid, topo, 8, [out], lv, zero_filter=True)
        plan.add(op_id, argv, values.size / 1e6, check, [out, lv])
    _, _, grids, _ = plan.sequence("seq.json", inputs.scene_config(plan.rng, 512, 3), 3)
    frames = [upsample(g.values, 4) for g in grids]
    paths = [plan.image(f"frame{i}.pgm", f, 255) for i, f in enumerate(frames)]
    pattern = plan.path("temporal{i}.pbm")
    masks = [pattern.format(i=i) for i in range(len(frames))]
    argv = ["detect-temporal", "--mode", "pointwise", "--increment", "8", "--out-pattern", pattern, *paths]
    check = pixel_check(plan, "temporal", FrameStack(np.stack(frames), 255), "4", 8, masks)
    plan.add("temporal", argv, sum(f.size for f in frames) / 1e6, check, masks)
    # Most calls are one kind (2048^2 N4), so the median and the tail are calls of that kind.
    light = ["s8-none-n4"] * 5 + ["s8-dx-n8"]
    plan.rounds = [light + [heavy] for heavy in ("s16-none-n4", "s16-none-n8", "temporal")]


# --- detect-oracle -------------------------------------------------------------------


def _add_oracle(plan: Plan, op_id: str, argv: list[str], mpx: float, frames: int = 0) -> None:
    """Add a multilevel call whose masks must be byte-equal to the pointwise route's, run here."""

    def call(mode: str, out: str) -> list[str]:
        if frames:
            return [argv[0], "--mode", mode, "--out-pattern", out, *argv[1:]]
        return [argv[0], "--mode", mode, *argv[1:], out]

    def paths(pattern: str) -> list[str]:
        return [pattern.format(i=i) for i in range(frames)] if frames else [pattern]

    out = plan.path(f"{op_id}{{i}}.pbm" if frames else f"{op_id}.pbm")
    ref = plan.path(f"{op_id}.ref{{i}}.pbm" if frames else f"{op_id}.ref.pbm")
    if cli.main(call("pointwise", ref)) != 0:
        raise RuntimeError(f"{op_id}: the pointwise reference call failed")
    check = {"kind": "bytes", "files": [[o, file_digest(r)] for o, r in zip(paths(out), paths(ref))]}
    plan.add(op_id, call("multilevel", out), mpx, check, paths(out))


def detect_oracle(plan: Plan) -> None:
    """Multilevel on 1024^2 at 32 and 128 levels, 16-bit at 128 levels, temporal 3x512^2.

    Each output must be byte-equal to the pointwise route's output for the
    same arguments, written here at set-up.
    """
    _, scene, _ = plan.scene("scene16.json", inputs.scene_config(plan.rng, 512, 4, 65535))
    values = inputs.upsample(scene.values, 2)
    o8 = plan.image("o8.pgm", values >> 8, 255)
    o16 = plan.image("o16.pgm", values, 65535)
    for op_id, src, increment, topo in (
        ("ml32-n4", o8, 8, "4"), ("ml32-n8", o8, 8, "8"),
        ("ml128-n4", o8, 2, "4"), ("ml128x16-n8", o16, 512, "8"),
    ):
        argv = ["detect", "--increment", str(increment), "--topology", topo, src]
        _add_oracle(plan, op_id, argv, values.size / 1e6)
    _, _, grids, _ = plan.sequence("seq.json", inputs.scene_config(plan.rng, 512, 3), 3)
    frames = [plan.image(f"frame{i}.pgm", g.values, 255) for i, g in enumerate(grids)]
    argv = ["detect-temporal", "--increment", "8", *frames]
    _add_oracle(plan, "temporal", argv, sum(g.values.size for g in grids) / 1e6, len(frames))
    # Most calls are one kind (32 levels, N4), so the median and the tail are calls of that kind;
    # one 128-level call every other round keeps a run near --seconds.
    light = ["ml32-n4", "ml32-n8", "ml32-n4", "ml32-n4", "temporal"]
    plan.rounds = [light + ["ml128-n4"], light, light + ["ml128x16-n8"], light]


# --- text-trace ----------------------------------------------------------------------


def _level_with_pixels(grid, target: int) -> int:
    """The multiple of 16 whose N4 level curve set is closest to target pixels, so every seed traces alike."""
    levels = range(16, grid.max_value + 1, 16)
    return min(levels, key=lambda c: abs(contour_members(grid, c, Topology.N4).size - target))


def text_trace(plan: Plan) -> None:
    """ASCII detect on P2 1024^2 and P3 512^2 colour; trace to SVG and text on 512^2 noise and a 2048^2 scene."""
    rng = plan.rng
    _, scene, _ = plan.scene("scene.json", inputs.scene_config(rng, 512, 4))
    values = inputs.upsample(scene.values, 2)
    p2 = plan.image("scene.p2.pgm", values, 255, ascii=True)
    colour_config = inputs.scene_config(rng, 512, 4)
    rgb = np.stack([render(load_scene(inputs.write_json(plan.path(f"colour{i}.json"),
                                                        inputs.relit(colour_config, rng))))[0].values
                    for i in range(3)], axis=-1)
    p3 = plan.image("colour.p3.ppm", rgb, 255, ascii=True)

    for op_id, src, gray, channel, topo in (
        ("p2-n4", p2, values, "gray", "4"), ("p2-n8", p2, values, "gray", "8"),
        ("p3-gray", p3, luma(rgb), "gray", "4"), ("p3-g", p3, rgb[..., 1], "g", "8"),
    ):
        out = plan.path(f"{op_id}.pbm")
        argv = ["detect", "--mode", "pointwise", "--increment", "8", "--topology", topo,
                "--channel", channel, "--ascii", src, out]
        check = pixel_check(plan, op_id, IntensityGrid(gray, 255), topo, 8, [out])
        plan.add(op_id, argv, gray.size / 1e6, check, [out])

    noise = inputs.noise(rng, 512)
    big = inputs.upsample(scene.values, 4)
    images = {
        "noise": (plan.image("noise.pgm", noise, 255), noise, 128),
        "scene": (plan.image("scene2048.pgm", big, 255), big, _level_with_pixels(scene, 1000)),
    }
    for name, (src, values, c) in images.items():
        grid = IntensityGrid(values, 255)
        # N8 joins noise into one component whose chain starts cost quadratic time; N4 only there
        for fmt, topo in (("svg", "4"), ("text", "4" if name == "noise" else "8")):
            op_id = f"{name}-{fmt}"
            out = plan.path(f"{op_id}.{'svg' if fmt == 'svg' else 'txt'}")
            members = plan.path(f"{op_id}.members.npy")
            np.save(members, contour_members(grid, c, TOPOLOGIES[topo]))
            argv = ["trace", "--threshold", str(c), "--topology", topo, "--format", fmt, src, out]
            check = {"kind": "contours", "path": out, "format": fmt, "members": members,
                     "width": int(values.shape[1]), "topology": topo}
            plan.add(op_id, argv, values.size / 1e6, check, [out])
    # Most calls are one kind (P3 decode), so the median and the tail are calls of that kind.
    colour = ["p3-gray", "p3-g"] * 2
    plan.rounds = [colour + ["scene-svg", "noise-svg", "p2-n4"], colour + ["scene-text", "noise-text", "p2-n8"],
                   colour + ["p3-gray", "scene-svg", "scene-text"]]


# --- render-truth --------------------------------------------------------------------


def render_truth(plan: Plan) -> None:
    """render --truth --occluding on 1024^2 scenes of 3 to 6 objects; render-seq, 3 frames at 512^2."""
    for n in (3, 4, 5, 6):
        op_id = f"scene{n}"
        src, grid, truth = plan.scene(f"{op_id}.json", inputs.scene_config(plan.rng, 1024, n))
        img, disc, occ = (plan.path(f"{op_id}{suffix}") for suffix in (".pgm", ".truth.pbm", ".occ.pbm"))
        argv = ["render", "--scene", src, "--out", img, "--truth", disc, "--occluding", occ]
        check = {"kind": "render", "files": [
            [img, array_digest(grid.values), grid.max_value],
            [disc, array_digest(truth.discontinuity_mask), 1],
            [occ, array_digest(truth.occluding_mask), 1],
        ]}
        plan.add(op_id, argv, grid.values.size / 1e6, check, [img, disc, occ])
    frames = 3
    src, move, grids, truths = plan.sequence("seq.json", inputs.scene_config(plan.rng, 512, 4), frames)
    out, tru = plan.path("seq{i}.pgm"), plan.path("seq{i}.truth.pbm")
    argv = ["render-seq", "--scene", src, "--frames", str(frames), f"--motion={move}",
            "--out-pattern", out, "--truth-pattern", tru]
    files = [[out.format(i=i), array_digest(g.values), g.max_value] for i, g in enumerate(grids)]
    files += [[tru.format(i=i), array_digest(t.discontinuity_mask), 1] for i, t in enumerate(truths)]
    plan.add("sequence", argv, sum(g.values.size for g in grids) / 1e6, {"kind": "render", "files": files},
             [f[0] for f in files])
    # Most calls are one kind (render-seq), so the median and the tail are calls of that kind.
    plan.rounds = [["scene3", "scene4"] + ["sequence"] * 5, ["scene5", "scene6"] + ["sequence"] * 5,
                   ["scene3", "scene4", "scene5", "scene6"] + ["sequence"] * 4]


@dataclass(frozen=True)
class Workload:
    build: Callable[[Plan], None]
    round_s: float  # mean seconds of CLI calls per round at the seed commit (see baseline.json)


WORKLOADS = {
    "detect-binary": Workload(detect_binary, 6.3),
    "detect-oracle": Workload(detect_oracle, 4.9),
    "text-trace": Workload(text_trace, 7.7),
    "render-truth": Workload(render_truth, 4.3),
}


def build(name: str, work: Path, seed: int) -> dict:
    plan = Plan(work, seed)
    WORKLOADS[name].build(plan)
    return plan.to_json()


def sequence(name: str, rounds: list[list[str]], seconds: int) -> list[str]:
    """Whole rounds, cycling: as many as --seconds buys at the seed commit, and MIN_CALLS calls at least."""
    want = max(1, round(seconds / WORKLOADS[name].round_s))
    ops: list[str] = []
    r = 0
    while r < want or len(ops) < MIN_CALLS:
        ops += rounds[r % len(rounds)]
        r += 1
    return ops
