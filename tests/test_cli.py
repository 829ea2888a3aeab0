import json
import math
import os
import re
import reprlib
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import LONG_TOKEN_FILES
from hypothesis import HealthCheck, example, given, settings
from reference_trace import (
    reference_contours_to_svg,
    reference_contours_to_text,
    reference_trace_level_contours,
)

import isophote
from isophote import (
    IntensityGrid,
    Plane,
    SceneError,
    SceneSpec,
    Sphere,
    ThresholdSchedule,
    Topology,
    apply_operator,
    detect_multilevel,
    frame_stack,
    hamiltonian,
    load_scene,
    read_grid,
    read_image,
    render,
    render_sequence,
    write_pbm,
    write_pgm,
    write_ppm,
    zero_mask,
)
from isophote import cli, detector
from isophote.cli import build_parser, main
from isophote.scene import scene_from_dict


@pytest.fixture
def step_image(tmp_path):
    vals = np.zeros((8, 12), dtype=np.int64)
    vals[:, 6:] = 200
    path = tmp_path / "step.pgm"
    write_pgm(path, IntensityGrid(vals, 255))
    return path

INTEGER_FORMAT = "{i} takes an integer format (type b, d, n, o, x, X or none) and no conversion, got "


def read_mask(path):
    """A PBM file's bits as a boolean array."""
    return read_image(path)[0].astype(bool)


def scene_file(tmp_path):
    cfg = {
        "image": {"width": 64, "height": 64, "fov": 0.7},
        "light": {"direction": [0, 0, -1], "ambient": 0.5},
        "objects": [{"type": "sphere", "center": [0, 0, 5], "radius": 2.0, "albedo": 0.8}],
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg))
    return path


class TestDetect:
    def test_matches_library_result(self, tmp_path, step_image):
        out = tmp_path / "mask.pbm"
        assert main(["detect", "--increment", "8", "--topology", "4", str(step_image), str(out)]) == 0
        grid = read_grid(step_image)
        expect = detect_multilevel(grid, ThresholdSchedule(8), Topology.N4).flagged
        assert np.array_equal(read_mask(out), expect)

    def test_modes_write_identical_bytes(self, tmp_path, step_image):
        a, a_levels = tmp_path / "a.pbm", tmp_path / "a.pgm"
        b, b_levels = tmp_path / "b.pbm", tmp_path / "b.pgm"
        for mode, out, levels in (("multilevel", a, a_levels), ("pointwise", b, b_levels)):
            argv = ["detect", "--mode", mode, "--levels-out", str(levels), str(step_image), str(out)]
            assert main(argv) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a_levels.read_bytes() == b_levels.read_bytes()

    def test_levels_out(self, tmp_path, step_image):
        out = tmp_path / "mask.pbm"
        levels = tmp_path / "levels.pgm"
        assert main(["detect", str(step_image), str(out), "--levels-out", str(levels)]) == 0
        grid = read_grid(step_image)
        expect = detect_multilevel(grid, ThresholdSchedule(8), Topology.N4).level_count
        assert np.array_equal(read_grid(levels).values, expect)

    def test_repeat_runs_byte_identical(self, tmp_path, step_image):
        a = tmp_path / "a.pbm"
        b = tmp_path / "b.pbm"
        argv = ["detect", "--increment", "4", str(step_image)]
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_preprocess_matches_library_pipeline(self, tmp_path, step_image):
        out = tmp_path / "mask.pbm"
        assert main(["detect", "--preprocess", "dx", "--increment", "16", str(step_image), str(out)]) == 0
        grid = apply_operator(read_grid(step_image), "dx")
        expect = detect_multilevel(grid, ThresholdSchedule(16), Topology.N4).flagged
        assert np.array_equal(read_mask(out), expect)

    def test_channel_extraction(self, tmp_path):
        rgb = np.zeros((6, 6, 3), dtype=np.int64)
        rgb[:, 3:, 1] = 250
        src = tmp_path / "color.ppm"
        write_ppm(src, rgb)
        out = tmp_path / "mask.pbm"
        assert main(["detect", "--channel", "g", "--increment", "8", str(src), str(out)]) == 0
        grid = read_grid(src, channel="g")
        expect = detect_multilevel(grid, ThresholdSchedule(8), Topology.N4).flagged
        assert np.array_equal(read_mask(out), expect)

    def test_filter_occluding_never_adds_flags(self, tmp_path, step_image):
        plain = tmp_path / "plain.pbm"
        filt = tmp_path / "filtered.pbm"
        assert main(["detect", str(step_image), str(plain)]) == 0
        assert main(["detect", "--filter-occluding", str(step_image), str(filt)]) == 0
        assert not (read_mask(filt) & ~read_mask(plain)).any()

    @pytest.mark.parametrize("tolerance", [0, 3])
    @pytest.mark.parametrize("flag, topology", [("4", Topology.N4), ("8", Topology.N8)])
    def test_filter_occluding_equals_the_whole_image_filter(self, tmp_path, tolerance, flag, topology):
        rng = np.random.default_rng(11)
        vals = rng.choice([0, 100, 200], size=(23, 31)) + rng.integers(0, 2, size=(23, 31))
        src = tmp_path / "in.pgm"
        write_pgm(src, IntensityGrid(vals, 255))
        out = tmp_path / "mask.pbm"
        argv = ["detect", str(src), str(out), "--topology", flag, "--increment", "16",
                "--filter-occluding", "--filter-tolerance", str(tolerance)]
        assert main(argv) == 0
        grid = read_grid(src)
        flagged = detect_multilevel(grid, ThresholdSchedule(16), topology).flagged
        kept = flagged & ~zero_mask(hamiltonian(grid), tolerance)
        assert kept.any() and (flagged & ~kept).any()  # the filter keeps some flags and drops some
        expect = tmp_path / "expect.pbm"
        write_pbm(expect, kept)
        assert out.read_bytes() == expect.read_bytes()

    @pytest.mark.parametrize("ascii", [False, True])
    @pytest.mark.parametrize("rows, max_value, ceiling", [
        ([[7, 7], [7, 7]], 255, 1),  # no pixel is counted at all
        ([[0, 1, 1]], 255, 1),
        ([[0, 255], [255, 3]], 255, 255),  # P5 8-bit
        ([[0, 256], [256, 9]], 300, 256),  # P5 16-bit
    ])
    def test_levels_out_bytes_at_ceilings(self, tmp_path, ascii, rows, max_value, ceiling):
        src = tmp_path / "in.pgm"
        write_pgm(src, IntensityGrid(rows, max_value))
        levels = tmp_path / "levels.pgm"
        argv = ["detect", str(src), str(tmp_path / "mask.pbm"), "--increment", "1",
                "--levels-out", str(levels)] + (["--ascii"] if ascii else [])
        assert main(argv) == 0
        counts = detect_multilevel(read_grid(src), ThresholdSchedule(1), Topology.N4).level_count
        assert max(1, int(counts.max())) == ceiling
        expect = tmp_path / "expect.pgm"
        write_pgm(expect, IntensityGrid(counts, ceiling), binary=not ascii)
        assert levels.read_bytes() == expect.read_bytes()

    def test_levels_out_above_pgm_range_exits_2(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        write_pgm(src, IntensityGrid([[0, 65535, 0]], 65535))
        argv = ["detect", str(src), str(tmp_path / "mask.pbm"), "--increment", "1",
                "--preprocess", "dx", "--levels-out", str(tmp_path / "levels.pgm")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "isophote: error: PGM maxval limit is 65535, grid has 131070\n"

    def test_levels_out_above_pgm_range_writes_neither_file(self, tmp_path, capsys):
        src = tmp_path / "noise.pgm"
        write_pgm(src, IntensityGrid(np.random.default_rng(11).integers(0, 65536, (37, 53)), 65535))
        mask, levels = tmp_path / "mask.pbm", tmp_path / "levels.pgm"
        argv = ["detect", str(src), str(mask), "--preprocess", "dx", "--increment", "1",
                "--levels-out", str(levels)]
        assert main(argv) == 2
        assert "PGM maxval limit is 65535" in capsys.readouterr().err
        assert not mask.exists() and not levels.exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["detect", str(tmp_path / "nope.pgm"), str(tmp_path / "out.pbm")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_input_exits_2_naming_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\nxx")
        code = main(["detect", str(bad), str(tmp_path / "out.pbm")])
        assert code == 2
        assert "byte" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [b"P1\n65536 65536\n0 1\n", b"P2\n65536 65536\n255\n0 0\n", b"P3\n65536 65536\n255\n0 0 0\n"],
    )
    def test_hostile_ascii_header_exits_2_naming_offset(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.pnm"
        bad.write_bytes(data)
        assert main(["detect", str(bad), str(tmp_path / "out.pbm")]) == 2
        assert "at byte" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, channel",
        [(b"P5\n2 1\n9\n\x05\xc8", "gray"), (b"P5\n2 1\n300\n\x00\x05\x01\x2d", "gray"),
         (b"P6\n1 1\n9\n\x01\x02\xff", "r")],
        ids=["p5-8bit", "p5-16bit", "p6-red"],
    )
    def test_binary_sample_above_maxval_exits_2_naming_offset(self, tmp_path, capsys, data, channel):
        bad = tmp_path / "bad.pnm"
        bad.write_bytes(data)
        assert main(["detect", "--channel", channel, str(bad), str(tmp_path / "out.pbm")]) == 2
        assert "at byte" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(LONG_TOKEN_FILES))
    def test_token_too_long_for_int_exits_2_naming_offset(self, tmp_path, capsys, case):
        data, message, offset = LONG_TOKEN_FILES[case]
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(data)
        assert main(["detect", str(bad), str(tmp_path / "out.pbm")]) == 2
        assert f"{message} at byte {offset}" in capsys.readouterr().err

    def test_pointwise_is_the_default_mode(self):
        parser = build_parser()
        assert parser.parse_args(["detect", "in.pgm", "out.pbm"]).mode == "pointwise"
        argv = ["detect-temporal", "--out-pattern", "m{i}.pbm", "a.pgm", "b.pgm"]
        assert parser.parse_args(argv).mode == "pointwise"

    def test_consecutive_calls_each_get_their_own_arguments(self, tmp_path, step_image):
        # main reuses one parser, so nothing of one call may carry into the next
        levels = tmp_path / "levels.pgm"
        calls = [
            ["detect", "--mode", "multilevel", "--increment", "64", "--topology", "8",
             "--levels-out", str(levels), str(step_image), str(tmp_path / "first.pbm")],
            ["trace", "--threshold", "100", str(step_image), str(tmp_path / "curves.svg")],
            ["detect", str(step_image), str(tmp_path / "last.pbm")],
        ]
        for argv in calls:
            assert main(argv) == 0
            assert vars(cli._parser().parse_args(argv)) == vars(build_parser().parse_args(argv))
            if levels.exists():  # only the first call writes it
                assert argv is calls[0]
                levels.unlink()
        assert cli._parser() is cli._parser()
        assert read_mask(tmp_path / "last.pbm").tobytes() == detect_multilevel(
            read_grid(step_image), ThresholdSchedule(8), Topology.N4
        ).flagged.tobytes()


def encode_netpbm(magic: int, w: int, h: int, maxval: int, samples: list[int]) -> bytes:
    header = f"P{magic}\n{w} {h}\n" + ("" if magic in (1, 4) else f"{maxval}\n")
    if magic in (1, 2, 3):
        body = " ".join(map(str, samples)).encode() + b"\n"
    elif magic == 4:
        body = np.packbits(np.array(samples, dtype=np.uint8).reshape(h, w), axis=1).tobytes()
    else:
        body = np.array(samples).astype(np.uint8 if maxval < 256 else ">u2").tobytes()
    return header.encode() + body


@st.composite
def netpbm_files(draw):
    """Small valid P1-P6 files."""
    magic = draw(st.integers(1, 6))
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    maxval = 1 if magic in (1, 4) else draw(st.sampled_from([1, 9, 255, 256, 65535]))
    n = w * h * (3 if magic in (3, 6) else 1)
    samples = draw(st.lists(st.integers(0, maxval), min_size=n, max_size=n))
    return encode_netpbm(magic, w, h, maxval, samples)


@st.composite
def hostile_netpbm_files(draw):
    """A valid file up to twice truncated, with bytes overwritten or
    inserted, or with a header number replaced by a large or zero one."""
    data = bytearray(draw(netpbm_files()))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["truncate", "overwrite", "insert", "inflate"]))
        at = draw(st.integers(0, len(data)))
        if kind == "truncate":
            del data[at:]
        elif kind == "overwrite" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif kind == "inflate":
            numbers = list(re.finditer(rb"[0-9]+", bytes(data[:16])))
            if numbers:
                m = draw(st.sampled_from(numbers))
                big = draw(st.sampled_from([b"0", b"65536", b"1073741824", b"99999999999"]))
                data[m.start() : m.end()] = big
    return bytes(data)


@given(hostile_netpbm_files(), st.sampled_from(["gray", "gray", "r"]), st.booleans())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_hostile_netpbm_never_exits_1(tmp_path, data, channel, ascii):
    src = tmp_path / "in.pnm"
    src.write_bytes(data)
    argv = ["detect", "--channel", channel, "--levels-out", str(tmp_path / "levels.pgm")]
    argv += ["--ascii"] * ascii + [str(src), str(tmp_path / "out.pbm")]
    assert main(argv) in (0, 2)


class TestTrace:
    def test_svg_output(self, tmp_path, step_image):
        out = tmp_path / "curves.svg"
        assert main(["trace", "--threshold", "100", str(step_image), str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_text_output_lists_level_curve_pixels(self, tmp_path, step_image):
        out = tmp_path / "curves.txt"
        assert main(["trace", "--threshold", "100", str(step_image), str(out)]) == 0
        pixels = set()
        for line in out.read_text().splitlines():
            parts = line.split()
            pixels.update(tuple(map(int, p.split(","))) for p in parts if p != "Z")
        assert pixels == {(6, y) for y in range(8)}

    # The reference tracer is quadratic in a component's size, and at 128 N8
    # joins this noise into one component of tens of thousands of pixels; at
    # 160 the N8 level curve set still holds about 5000 chains, 2000 closed.
    @pytest.mark.parametrize("topology, threshold", [("4", 128), ("8", 160)])
    @pytest.mark.parametrize("fmt", ["svg", "text"])
    def test_noise_bytes_equal_the_reference_exporters(self, tmp_path, topology, threshold, fmt):
        grid = IntensityGrid(np.random.default_rng(11).integers(0, 256, size=(256, 256)), 255)
        src, out = tmp_path / "noise.pgm", tmp_path / f"curves.{fmt}"
        write_pgm(src, grid)
        argv = ["trace", "--threshold", str(threshold), "--topology", topology, "--format", fmt, str(src), str(out)]
        assert main(argv) == 0
        contours = reference_trace_level_contours(grid, threshold, Topology(topology))
        if fmt == "svg":
            expected = reference_contours_to_svg(contours, grid.width, grid.height)
        else:
            expected = reference_contours_to_text(contours)
        assert len(contours) > 1000
        assert out.read_bytes() == expected.encode("ascii")


# Values at the edges of what a scene admits: zeros, subnormals, the magnitude
# bounds and just past them, overflowing floats, non-finite floats, an int
# beyond float range, and values of the wrong JSON kind.
_EDGE_NUMBERS = [0, -0.0, 1, -1, 5e-324, 1e-320, 1e-30, 0.9e-30, 1e30, 1.1e30, -1e30, 1e154,
                 1e308, -1e308, math.inf, -math.inf, math.nan, 10**400, True, "1", None]


def _floats(lo: float, hi: float, n: int = 0):
    """A float in [lo, hi], or a list of n of them."""
    one = st.floats(lo, hi)
    return st.lists(one, min_size=n, max_size=n) if n else one


@st.composite
def scene_configs(draw):
    """Plausible scene JSON on 8 to 32 px images with up to 3 objects, then
    up to 3 of its numbers replaced by edge values."""
    image = draw(st.fixed_dictionaries(
        {"width": st.integers(8, 32), "height": st.integers(8, 32)},
        optional={"fov": _floats(0.05, 2.0), "principal": _floats(-10.0, 40.0, 2),
                  "max_value": st.sampled_from([1, 255, 65535, 65536])},
    ))
    light = draw(st.fixed_dictionaries(
        {}, optional={"direction": _floats(-1.0, 1.0, 3), "ambient": _floats(0.0, 1.0)}
    ))
    sphere = st.fixed_dictionaries(
        {"type": st.just("sphere"), "center": _floats(-3.0, 20.0, 3), "radius": _floats(0.05, 3.0)},
        optional={"albedo": _floats(0.0, 1.0)},
    )
    plane = st.fixed_dictionaries(
        {"type": st.just("plane"), "point": _floats(-5.0, 20.0, 3), "normal": _floats(-1.0, 1.0, 3)},
        optional={"albedo": _floats(0.0, 1.0)},
    )
    objects = draw(st.lists(st.one_of(sphere, plane), max_size=3))
    slots = [(d, k) for d in (image, light, *objects) for k, v in d.items() if isinstance(v, float)]
    slots += [(v, i) for d in (image, light, *objects) for v in d.values() if isinstance(v, list)
              for i in range(len(v))]
    if slots:
        for _ in range(draw(st.integers(0, 3))):
            container, key = draw(st.sampled_from(slots))
            container[key] = draw(st.sampled_from(_EDGE_NUMBERS))
    return {"image": image, "light": light, "objects": objects}


_SPHERE = {"type": "sphere", "center": [0.0, 0.0, 5.0], "radius": 1.0}


@given(scene_configs())
# c.c overflows; the pixel pitch is subnormal; a tiny radius divides a hit's offset
@example({"image": {"width": 16, "height": 16}, "light": {},
          "objects": [{"type": "sphere", "center": [1e308, 0.0, 1e308], "radius": 1.0}]})
@example({"image": {"width": 16, "height": 16, "fov": 1e-320}, "light": {}, "objects": [_SPHERE]})
@example({"image": {"width": 16, "height": 16}, "light": {}, "objects": [{**_SPHERE, "radius": 5e-324}]})
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_scene_configs_exit_0_or_2_without_overflow(tmp_path, config):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(config))
    outputs = [tmp_path / name for name in ("img.pgm", "truth.pbm", "occ.pbm")]
    for path in outputs:
        path.unlink(missing_ok=True)  # tmp_path is shared by the examples
    argv = ["render", "--scene", str(scene), "--out", str(outputs[0]),
            "--truth", str(outputs[1]), "--occluding", str(outputs[2])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2)
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert [path.exists() for path in outputs] == [code == 0] * 3


def _scene_config():
    return {"image": {"width": 8, "height": 6, "fov": 0.5, "principal": [4.0, 3.0]},
            "light": {"direction": [0.0, 0.0, -1.0], "ambient": 0.2},
            "objects": [{"type": "sphere", "center": [0.0, 0.0, 5.0], "radius": 1.0, "albedo": 1.0},
                        {"type": "plane", "point": [0.0, 0.0, 5.0], "normal": [1.0, 0.0, -1.0], "albedo": 1.0}]}


def _edited(path, value):
    config = _scene_config()
    container = config
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = value
    return config


# Per numeric slot of a scene: where it sits in the JSON config, the Python call that
# takes it alone, and the interval a number there must lie in (with the sphere's
# center at z = 5, a radius of 5 or more is refused too, which 4 stands for).
_SLOTS = {
    "sphere center": (("objects", 0, "center", 0), lambda v: Sphere((v, 0.0, 5.0), 1.0), (-1e30, 1e30)),
    "sphere radius": (("objects", 0, "radius"), lambda v: Sphere((0.0, 0.0, 5.0), v), (1e-30, 4.0)),
    "sphere albedo": (("objects", 0, "albedo"), lambda v: Sphere((0.0, 0.0, 5.0), 1.0, v), (0.0, 1.0)),
    "plane point": (("objects", 1, "point", 1), lambda v: Plane((0.0, v, 5.0), (1.0, 0.0, -1.0)), (-1e30, 1e30)),
    "plane normal": (("objects", 1, "normal", 1), lambda v: Plane((0.0, 0.0, 5.0), (1.0, v, -1.0)), (-1e30, 1e30)),
    "plane albedo": (("objects", 1, "albedo"), lambda v: Plane((0.0, 0.0, 5.0), (1.0, 0.0, -1.0), v), (0.0, 1.0)),
    "light direction": (("light", "direction", 0), lambda v: SceneSpec(8, 6, light_direction=(v, 0.0, -1.0)),
                        (-1e30, 1e30)),
    "ambient": (("light", "ambient"), lambda v: SceneSpec(8, 6, ambient=v), (0.0, 1.0)),
    "fov": (("image", "fov"), lambda v: SceneSpec(8, 6, fov=v), (1e-30, 1e30)),
    "principal": (("image", "principal", 0), lambda v: SceneSpec(8, 6, principal=(v, 3.0)), (-1e30, 1e30)),
}
# Vector slots given a value in place of the whole vector: no value tried is a list of
# numbers of the right length, and a principal point of None is the default.
_VECTORS = {
    "sphere center": (("objects", 0, "center"), lambda v: Sphere(v, 1.0)),
    "plane point": (("objects", 1, "point"), lambda v: Plane(v, (1.0, 0.0, -1.0))),
    "plane normal": (("objects", 1, "normal"), lambda v: Plane((0.0, 0.0, 5.0), v)),
    "light direction": (("light", "direction"), lambda v: SceneSpec(8, 6, light_direction=v)),
    "principal": (("image", "principal"), lambda v: SceneSpec(8, 6, principal=v)),
}
_SLOT_VALUES = [*_EDGE_NUMBERS, [1]]


def _admits(value, low, high) -> bool:
    """Whether value is a number, not a bool, in [low, high]."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and low <= value <= high


def _refuses(build, value) -> bool:
    """Whether build(value) raises SceneError; any other exception fails the test."""
    try:
        build(value)
    except SceneError:
        return True
    return False


@pytest.mark.parametrize("value", _SLOT_VALUES, ids=reprlib.repr)
@pytest.mark.parametrize("slot", _SLOTS)
def test_json_and_python_refuse_the_same_values(slot, value):
    path, build, bounds = _SLOTS[slot]
    expected = not _admits(value, *bounds)
    assert _refuses(lambda v: scene_from_dict(_edited(path, v)), value) is expected
    assert _refuses(build, value) is expected


@pytest.mark.parametrize("value", [*_SLOT_VALUES, [1, 2, 3, 4], "1,2,3"], ids=reprlib.repr)
@pytest.mark.parametrize("slot", _VECTORS)
def test_json_and_python_refuse_a_vector_that_is_not_a_list_of_numbers(slot, value):
    path, build = _VECTORS[slot]
    if slot == "principal" and value is None:  # the default: the image center
        assert scene_from_dict(_edited(path, value)).principal == build(value).principal == (4.0, 3.0)
        return
    assert _refuses(lambda v: scene_from_dict(_edited(path, v)), value)
    assert _refuses(build, value)


@pytest.mark.parametrize("value", [*_SLOT_VALUES, [1, 2, 3, 4], "1,2,3"], ids=reprlib.repr)
def test_motion_is_refused_as_a_position_is(value):
    spec = SceneSpec(8, 6)
    expected = not _admits(value, *_SLOTS["plane point"][2])
    assert _refuses(lambda v: render_sequence(spec, (v, 0.0, 0.0), 2), value) is expected
    assert _refuses(lambda v: render_sequence(spec, v, 2), value)


class TestRender:
    def test_outputs_match_library(self, tmp_path):
        scene = scene_file(tmp_path)
        out = tmp_path / "img.pgm"
        truth = tmp_path / "truth.pbm"
        occ = tmp_path / "occ.pbm"
        code = main(["render", "--scene", str(scene), "--out", str(out),
                     "--truth", str(truth), "--occluding", str(occ)])
        assert code == 0
        from isophote import load_scene

        grid, gt = render(load_scene(scene))
        assert np.array_equal(read_grid(out).values, grid.values)
        assert np.array_equal(read_mask(truth), gt.discontinuity_mask)
        assert np.array_equal(read_mask(occ), gt.occluding_mask)

    @pytest.mark.parametrize("width, height", [(40, 1), (1, 40), (1, 1)])
    def test_thin_image_with_a_sphere(self, tmp_path, width, height):
        cfg = {"image": {"width": width, "height": height, "fov": 0.25},
               "objects": [{"type": "sphere", "center": [0, 0, 5], "radius": 1}]}
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(cfg))
        out, truth, occ = tmp_path / "img.pgm", tmp_path / "truth.pbm", tmp_path / "occ.pbm"
        assert main(["render", "--scene", str(scene), "--out", str(out),
                     "--truth", str(truth), "--occluding", str(occ)]) == 0
        grid, gt = render(load_scene(scene))
        assert np.array_equal(read_grid(out).values, grid.values)
        assert np.array_equal(read_mask(truth), gt.discontinuity_mask)
        assert np.array_equal(read_mask(occ), gt.occluding_mask)

    def test_golden_determinism(self, tmp_path):
        scene = scene_file(tmp_path)
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        assert main(["render", "--scene", str(scene), "--out", str(a)]) == 0
        assert main(["render", "--scene", str(scene), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_scene_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "scene.json"
        bad.write_text("{}")
        code = main(["render", "--scene", str(bad), "--out", str(tmp_path / "x.pgm")])
        assert code == 2
        assert "image" in capsys.readouterr().err

    @pytest.mark.parametrize("wrap", ["{}", '{{"image": {}}}'], ids=["top", "image"])
    def test_deeply_nested_scene_exits_2(self, tmp_path, capsys, wrap):
        # json.load recurses once per open bracket
        deep = tmp_path / "deep.json"
        deep.write_text(wrap.format("[" * 200000 + "]" * 200000))
        code = main(["render", "--scene", str(deep), "--out", str(tmp_path / "x.pgm")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"isophote: error: {deep}: invalid JSON")
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("key, edit", [
        ("image", lambda cfg: cfg.update(image=5)),
        ("objects", lambda cfg: cfg.update(objects=5)),
        ("objects", lambda cfg: cfg.update(objects=[5])),
        ("light", lambda cfg: cfg.update(light=[1])),
        ("width", lambda cfg: cfg["image"].update(width="8")),
        ("width", lambda cfg: cfg["image"].update(width=8.5)),
        ("radius", lambda cfg: cfg["objects"][0].update(radius="x")),
        ("principal", lambda cfg: cfg["image"].update(principal=3)),
        ("fov", lambda cfg: cfg["image"].update(fov="a")),
    ], ids=["image", "objects", "object-entry", "light", "width-str", "width-float",
            "radius", "principal", "fov"])
    def test_mistyped_scene_value_exits_2_naming_its_key(self, tmp_path, capsys, key, edit):
        scene = scene_file(tmp_path)
        cfg = json.loads(scene.read_text())
        edit(cfg)
        scene.write_text(json.dumps(cfg))
        code = main(["render", "--scene", str(scene), "--out", str(tmp_path / "x.pgm")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("isophote: error:")
        assert key in err

    @pytest.mark.parametrize("key, edit", [
        ("principal", lambda cfg: cfg["image"].update(principal=[math.nan, 0])),
        ("fov", lambda cfg: cfg["image"].update(fov=math.inf)),
        ("center", lambda cfg: cfg["objects"][0].update(center=[0, 0, math.inf])),
        ("center", lambda cfg: cfg["objects"][0].update(center=[10**400, 0, 5])),
        ("radius", lambda cfg: cfg["objects"][0].update(radius=-math.inf)),
        ("point", lambda cfg: cfg["objects"].append({"type": "plane", "point": [0, math.nan, 0],
                                                     "normal": [0, 1, 0]})),
        ("ambient", lambda cfg: cfg["light"].update(ambient=math.nan)),
        ("limit", lambda cfg: cfg["image"].update(width=100000, height=100000)),
        ("limit", lambda cfg: cfg["image"].update(width=10**12, height=1)),
        ("max_value", lambda cfg: cfg["image"].update(max_value=10**20)),
        ("maxval", lambda cfg: cfg["image"].update(max_value=65536)),
        ("unknown key 'objets' in scene config", lambda cfg: cfg.update(objets=[])),
        ("unknown key 'fvo' in image", lambda cfg: cfg["image"].update(fvo=0.7)),
        ("unknown key 'directoin' in light", lambda cfg: cfg["light"].update(directoin=[0, 0, -1])),
        ("unknown key 'albdeo' in objects[0]", lambda cfg: cfg["objects"][0].update(albdeo=0.3)),
    ], ids=["principal-nan", "fov-inf", "center-inf", "center-huge-int", "radius-inf", "point-nan",
            "ambient-nan", "size", "width", "max_value", "max_value-pgm", "unknown-top", "unknown-image",
            "unknown-light", "unknown-object"])
    def test_unrenderable_scene_exits_2_writing_nothing(self, tmp_path, capsys, key, edit):
        scene = scene_file(tmp_path)
        cfg = json.loads(scene.read_text())
        edit(cfg)
        scene.write_text(json.dumps(cfg))
        outs = [tmp_path / name for name in ("x.pgm", "t.pbm", "o.pbm")]
        code = main(["render", "--scene", str(scene), "--out", str(outs[0]), "--truth", str(outs[1]),
                     "--occluding", str(outs[2])])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err
        assert not any(path.exists() for path in outs)

    def test_huge_image_is_refused_before_allocating(self, tmp_path, capsys):
        # rendering this 10^5 x 10^5 scene would try to allocate 74.5 GiB for its rays alone
        scene = scene_file(tmp_path)
        cfg = json.loads(scene.read_text())
        cfg["image"].update(width=100000, height=100000)
        scene.write_text(json.dumps(cfg))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(["render", "--scene", str(scene), "--out", str(tmp_path / "x.pgm")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "exceeds the limit" in capsys.readouterr().err
        assert peak < 1 << 20
        assert time.perf_counter() - start < 5.0

    def test_detect_on_rendered_scene_flags_near_truth(self, tmp_path):
        from conftest import cheb_dilate

        scene = scene_file(tmp_path)
        img = tmp_path / "img.pgm"
        truth = tmp_path / "truth.pbm"
        occ = tmp_path / "occ.pbm"
        mask = tmp_path / "mask.pbm"
        assert main(["render", "--scene", str(scene), "--out", str(img),
                     "--truth", str(truth), "--occluding", str(occ)]) == 0
        assert main(["detect", "--increment", "8", "--topology", "4", str(img), str(mask)]) == 0
        flagged = read_mask(mask)
        target = read_mask(truth) | read_mask(occ)
        assert flagged.any()
        assert not (flagged & ~cheb_dilate(target, 2)).any()


class TestRenderSeq:
    def test_writes_all_frames(self, tmp_path):
        scene = scene_file(tmp_path)
        pattern = str(tmp_path / "frame{i}.pgm")
        code = main(["render-seq", "--scene", str(scene), "--frames", "3",
                     "--motion", "0.1,0,0", "--out-pattern", pattern])
        assert code == 0
        frames = [read_grid(tmp_path / f"frame{i}.pgm") for i in range(3)]
        assert not np.array_equal(frames[0].values, frames[2].values)

    def test_pattern_without_placeholder_exits_2(self, tmp_path, capsys):
        scene = scene_file(tmp_path)
        code = main(["render-seq", "--scene", str(scene), "--frames", "2",
                     "--motion", "0,0,0", "--out-pattern", str(tmp_path / "frame.pgm")])
        assert code == 2
        assert "placeholder" in capsys.readouterr().err

    def test_truth_pattern_writes_each_frames_truth(self, tmp_path):
        scene = scene_file(tmp_path)
        code = main(["render-seq", "--scene", str(scene), "--frames", "3", "--motion", "0.1,0,0.2",
                     "--out-pattern", str(tmp_path / "f{i}.pgm"), "--truth-pattern", str(tmp_path / "t{i}.pbm")])
        assert code == 0
        grids, truths = render_sequence(load_scene(scene), (0.1, 0.0, 0.2), 3)
        for i in range(3):
            assert np.array_equal(read_grid(tmp_path / f"f{i}.pgm").values, grids[i].values)
            assert np.array_equal(read_mask(tmp_path / f"t{i}.pbm"), truths[i].discontinuity_mask)
        assert not np.array_equal(truths[0].discontinuity_mask, truths[2].discontinuity_mask)

    @pytest.mark.parametrize("placeholder, reason", [
        ("{j}", "'j'"),
        ("{i.x}", "'int' object has no attribute 'x'"),
        ("{i[0]}", "'int' object is not subscriptable"),
        ("{i", "expected '}' before end of string"),
        ("}{i}", "Single '}' encountered in format string"),
        ("{i:.0}", "Precision not allowed in integer format specifier"),
        ("{i:s}", "Unknown format code 's' for object of type 'int'"),
        # chr(i) and floats pass the format, but name no integer: chr(47) is a '/'
        ("{i:c}", f"{INTEGER_FORMAT}':c'"),
        ("{i:e}", f"{INTEGER_FORMAT}':e'"),
        ("{i!r}", f"{INTEGER_FORMAT}'!r'"),
    ], ids=["unknown", "attribute", "index", "unclosed", "single-brace", "precision", "format-code",
            "character", "float", "conversion"])
    @pytest.mark.parametrize("flag", ["--out-pattern", "--truth-pattern"])
    def test_pattern_with_an_unknown_placeholder_exits_2(self, tmp_path, capsys, flag, placeholder, reason):
        scene = scene_file(tmp_path)
        patterns = {"--out-pattern": str(tmp_path / "f{i}.pgm"), flag: str(tmp_path / f"f{placeholder}.pgm")}
        code = main(["render-seq", "--scene", str(scene), "--frames", "2", "--motion", "0,0,0",
                     *(arg for item in patterns.items() for arg in item)])
        assert code == 2
        assert f"{flag} has an invalid placeholder: {reason}" in capsys.readouterr().err
        assert not list(tmp_path.glob("f*.pgm"))

    @pytest.mark.parametrize("pattern", ["f{i:03d}.pgm", "f{i:>99}.pgm", "f{i:099}.pgm"])
    def test_pattern_with_a_width_up_to_99_is_kept(self, tmp_path, pattern):
        code = main(["render-seq", "--scene", str(scene_file(tmp_path)), "--frames", "2", "--motion", "0,0,0",
                     "--out-pattern", str(tmp_path / pattern)])
        assert code == 0
        assert [path.name for path in sorted(tmp_path.glob("f*.pgm"))] == [pattern.format(i=i) for i in range(2)]

    @pytest.mark.parametrize("motion, message", [
        ("1,2", "motion must be a list of 3 numbers"),
        ("1,a,0", "--motion takes three numbers dx,dy,dz, got '1,a,0'"),
        (",", "--motion takes three numbers dx,dy,dz, got ','"),
    ], ids=["length", "letter", "empty"])
    def test_bad_motion_exits_2(self, tmp_path, capsys, motion, message):
        scene = scene_file(tmp_path)
        code = main(["render-seq", "--scene", str(scene), "--frames", "2",
                     "--motion", motion, "--out-pattern", str(tmp_path / "f{i}.pgm")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("f*.pgm"))

    @pytest.mark.parametrize("motion", ["nan,0,0", "0,inf,0", "0,0,-inf", "0,0,NaN"])
    def test_non_finite_motion_exits_2_writing_nothing(self, tmp_path, capsys, motion):
        scene = scene_file(tmp_path)
        code = main(["render-seq", "--scene", str(scene), "--frames", "2", "--motion", motion,
                     "--out-pattern", str(tmp_path / "f{i}.pgm")])
        assert code == 2
        assert "motion must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("f*.pgm"))

    def test_a_frame_left_invalid_by_the_motion_exits_2_writing_nothing(self, tmp_path, capsys):
        # the sphere (z = 5, radius 2) reaches the camera in the last of four frames: z = 5 - 3 = 2
        scene = scene_file(tmp_path)
        code = main(["render-seq", "--scene", str(scene), "--frames", "4", "--motion", "0,0,-1",
                     "--out-pattern", str(tmp_path / "f{i}.pgm"),
                     "--truth-pattern", str(tmp_path / "t{i}.pbm")])
        assert code == 2
        assert "in front of the camera" in capsys.readouterr().err
        assert not list(tmp_path.glob("f*.pgm")) and not list(tmp_path.glob("t*.pbm"))
        assert main(["render-seq", "--scene", str(scene), "--frames", "3", "--motion", "0,0,-1",
                     "--out-pattern", str(tmp_path / "f{i}.pgm")]) == 0


class TestDetectTemporal:
    def test_matches_library_stack(self, tmp_path):
        paths = []
        frames = []
        for t in range(3):
            vals = np.zeros((6, 10), dtype=np.int64)
            vals[:, 3 + t :] = 120
            grid = IntensityGrid(vals, 255)
            frames.append(grid)
            path = tmp_path / f"in{t}.pgm"
            write_pgm(path, grid)
            paths.append(str(path))
        pattern = str(tmp_path / "mask{i}.pbm")
        code = main(["detect-temporal", "--increment", "16", "--out-pattern", pattern] + paths)
        assert code == 0
        mask = detect_multilevel(frame_stack(frames), ThresholdSchedule(16), Topology.N4T)
        for t in range(3):
            assert np.array_equal(read_mask(tmp_path / f"mask{t}.pbm"), mask.flagged[t])

    def test_single_frame_exits_2(self, tmp_path, step_image, capsys):
        code = main(["detect-temporal", "--out-pattern", str(tmp_path / "m{i}.pbm"), str(step_image)])
        assert code == 2
        assert "need at least two frames" in capsys.readouterr().err
        assert not list(tmp_path.glob("m*.pbm"))

    @pytest.mark.parametrize("placeholder, reason", [
        ("{i", "expected '}' before end of string"),
        ("{i:e}", f"{INTEGER_FORMAT}':e'"),
    ], ids=["unclosed", "float"])
    def test_pattern_with_an_invalid_placeholder_exits_2(self, tmp_path, step_image, capsys, placeholder, reason):
        pattern = str(tmp_path / f"m{placeholder}.pbm")
        code = main(["detect-temporal", "--out-pattern", pattern, str(step_image), str(step_image)])
        assert code == 2
        assert capsys.readouterr().err == f"isophote: error: --out-pattern has an invalid placeholder: {reason}\n"
        assert not list(tmp_path.glob("m*.pbm"))


@pytest.mark.parametrize("pattern", ["f{i:100000000}.pgm", "f{i:>1000}.pgm", "f{i:0100}.pgm",
                                     "f{i:.100000000f}.pgm", "f{i:{i}}.pgm",
                                     pytest.param("f{i:" + "9" * 5000 + "}.pgm", id="f{i:<5000 digits>}.pgm")])
@pytest.mark.parametrize("command", ["render-seq", "detect-temporal"])
def test_pattern_with_a_huge_width_exits_2_before_formatting(tmp_path, step_image, capsys, command, pattern):
    if command == "render-seq":
        argv = [command, "--scene", str(scene_file(tmp_path)), "--frames", "2", "--motion", "0,0,0"]
    else:
        argv = [command, str(step_image), str(step_image)]
    before = sorted(tmp_path.iterdir())
    tracemalloc.start()
    try:
        code = main([*argv, "--out-pattern", str(tmp_path / pattern)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 20
    err = capsys.readouterr().err
    assert err.startswith("isophote: error: --out-pattern takes field widths of at most 99") and len(err) < 200
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", [
    ["detect", "--filter-occluding", "--levels-out", "{out}/levels.pgm", "{a}", "{out}/mask.pbm"],
    ["detect", "--mode", "multilevel", "--increment", "4", "{a}", "{out}/mask.pbm"],
    ["detect-temporal", "--increment", "4", "--out-pattern", "{out}/mask{{i}}.pbm", "{a}", "{b}"],
], ids=["detect-filter-levels", "detect-multilevel", "detect-temporal"])
def test_outputs_never_read_a_witness(tmp_path, monkeypatch, command):
    # the CLI writes only flags and level counts, so its bytes are the same
    # when reading either witness array or a pixel's witness pair raises
    rng = np.random.default_rng(12)
    inputs = {}
    for name in ("a", "b"):
        inputs[name] = tmp_path / f"{name}.pgm"
        write_pgm(inputs[name], IntensityGrid(rng.choice([0, 90, 200], size=(14, 17)), 255))

    def run(out):
        out.mkdir()
        assert main([arg.format(out=out, **inputs) for arg in command]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    expect = run(tmp_path / "plain")

    def unread(*args):
        raise AssertionError("a witness was read")

    for name in ("witness_hi", "witness_lo"):
        monkeypatch.setattr(isophote.DetectionMask, name, property(unread))
    monkeypatch.setattr(isophote.DetectionMask, "witnesses_at", unread)
    assert run(tmp_path / "unread") == expect


def test_detect_with_levels_out_holds_one_copy_of_each_raster(tmp_path):
    # the input is read into the grid, the level counts are written from the
    # mask, and the flags are the one other image-sized array; the closed
    # form's strips come on top. The parent read 9.4 MB here: the file's
    # bytes, their byteswapped copy, the grid's copy and the levels' copy
    rng = np.random.default_rng(15)
    source = tmp_path / "img.pgm"
    write_pgm(source, IntensityGrid(rng.integers(0, 65536, size=(1024, 1024), dtype=np.uint16), 65535))
    argv = ["detect", "--increment", "8", "--levels-out", str(tmp_path / "levels.pgm"), str(source),
            str(tmp_path / "mask.pbm")]
    assert main(argv) == 0  # the first call's imports and caches are not counted
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid, mask, flags = 2 * 1024**2, 1024**2, 1024**2  # uint16 samples, uint8 level counts, bool flags
    assert peak < grid + mask + flags + 6 * detector._STRIP_BUDGET


class TestStagedOutputs:
    """Each output is written beside its path and moved into place only once the command succeeds."""

    @pytest.mark.parametrize("argv", [
        ["detect", "{image}", "out.pbm", "--levels-out", "nodir/l.pgm"],
        ["render", "--scene", "{scene}", "--out", "x.pgm", "--truth", "nodir/t.pbm"],
    ], ids=["detect-levels-out", "render-truth"])
    def test_a_failed_later_output_leaves_the_directory_as_it_was(self, tmp_path, step_image, monkeypatch,
                                                                  capsys, argv):
        monkeypatch.chdir(tmp_path)
        scene = scene_file(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main([arg.format(image=step_image, scene=scene) for arg in argv]) == 2
        assert capsys.readouterr().err == f"isophote: error: [Errno 2] No such file or directory: '{argv[-1]}'\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("fault, code", [(None, 0), (ValueError("bad"), 2), (RuntimeError("broken"), 1)],
                             ids=["success", "input-error", "internal-error"])
    def test_no_temporary_file_survives_any_exit(self, tmp_path, step_image, monkeypatch, fault, code):
        write_pgm = cli.write_pgm

        def write_then_fail(path, *args, **kwargs):  # the level counts come after the mask
            write_pgm(path, *args, **kwargs)
            if fault is not None:
                raise fault

        monkeypatch.setattr(cli, "write_pgm", write_then_fail)
        out, levels = tmp_path / "out.pbm", tmp_path / "l.pgm"
        assert main(["detect", str(step_image), str(out), "--levels-out", str(levels)]) == code
        written = [out, levels] if fault is None else []
        assert sorted(tmp_path.iterdir()) == sorted([step_image, *written])

    def test_outputs_get_the_mode_that_open_gives(self, tmp_path, step_image):
        new, old = tmp_path / "new.pbm", tmp_path / "old.pgm"
        old.write_bytes(b"")
        old.chmod(0o600)
        umask = os.umask(0o027)
        try:
            assert main(["detect", str(step_image), str(new), "--levels-out", str(old)]) == 0
        finally:
            os.umask(umask)
        assert (new.stat().st_mode & 0o777, old.stat().st_mode & 0o777) == (0o640, 0o600)
        assert old.read_bytes().startswith(b"P5")

    def test_outputs_go_where_open_puts_them(self, tmp_path, step_image, capsys):
        # through a symlink to its target; a path given twice keeps the last write; a directory is refused
        (tmp_path / "sub").mkdir()
        link = tmp_path / "link.pbm"
        link.symlink_to(tmp_path / "sub" / "mask.pbm")
        assert main(["detect", str(step_image), str(link), "--levels-out", str(tmp_path / "twice.pbm")]) == 0
        assert link.is_symlink() and read_mask(link).any()
        assert main(["detect", str(step_image), str(tmp_path / "twice.pbm"), "--levels-out",
                     str(tmp_path / "twice.pbm")]) == 0
        assert read_grid(tmp_path / "twice.pbm").max_value > 1
        assert main(["detect", str(step_image), str(tmp_path / "sub")]) == 2
        assert capsys.readouterr().err == f"isophote: error: [Errno 21] Is a directory: '{tmp_path / 'sub'}'\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.pbm", "mask.pbm", "step.pgm", "sub", "twice.pbm"]


def run_module(*argv) -> subprocess.CompletedProcess:
    """python -m isophote with argv; the child imports the same package as this process, however it was found."""
    src = str(Path(isophote.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "isophote", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_module_entrypoint_smoke():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "detect" in proc.stdout


def test_an_unexpected_exception_is_an_internal_error(tmp_path, step_image, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(cli, "read_grid", broken)
    assert main(["detect", str(step_image), str(tmp_path / "out.pbm")]) == 1
    assert capsys.readouterr().err == "isophote: internal error: invariant broken\n"
    assert not (tmp_path / "out.pbm").exists()


def test_module_entrypoint_exits_2_on_a_missing_file(tmp_path):
    proc = run_module("detect", str(tmp_path / "nope.pgm"), str(tmp_path / "out.pbm"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("isophote: error:") and "nope.pgm" in proc.stderr
    assert not (tmp_path / "out.pbm").exists()
