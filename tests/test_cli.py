import json
import os
import re
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import isophote
from isophote import (
    IntensityGrid,
    ThresholdSchedule,
    Topology,
    apply_operator,
    detect_multilevel,
    frame_stack,
    read_grid,
    read_pbm,
    render,
    write_pgm,
    write_ppm,
)
from isophote.cli import build_parser, main


@pytest.fixture
def step_image(tmp_path):
    vals = np.zeros((8, 12), dtype=np.int64)
    vals[:, 6:] = 200
    path = tmp_path / "step.pgm"
    write_pgm(path, IntensityGrid(vals, 255))
    return path


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
        assert np.array_equal(read_pbm(out), expect)

    def test_modes_write_identical_bytes(self, tmp_path, step_image):
        a = tmp_path / "a.pbm"
        b = tmp_path / "b.pbm"
        assert main(["detect", "--mode", "multilevel", str(step_image), str(a)]) == 0
        assert main(["detect", "--mode", "pointwise", str(step_image), str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

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
        assert np.array_equal(read_pbm(out), expect)

    def test_channel_extraction(self, tmp_path):
        rgb = np.zeros((6, 6, 3), dtype=np.int64)
        rgb[:, 3:, 1] = 250
        src = tmp_path / "color.ppm"
        write_ppm(src, rgb)
        out = tmp_path / "mask.pbm"
        assert main(["detect", "--channel", "g", "--increment", "8", str(src), str(out)]) == 0
        grid = read_grid(src, channel="g")
        expect = detect_multilevel(grid, ThresholdSchedule(8), Topology.N4).flagged
        assert np.array_equal(read_pbm(out), expect)

    def test_filter_occluding_never_adds_flags(self, tmp_path, step_image):
        plain = tmp_path / "plain.pbm"
        filt = tmp_path / "filtered.pbm"
        assert main(["detect", str(step_image), str(plain)]) == 0
        assert main(["detect", "--filter-occluding", str(step_image), str(filt)]) == 0
        assert not (read_pbm(filt) & ~read_pbm(plain)).any()

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

    def test_pointwise_is_the_default_mode(self):
        parser = build_parser()
        assert parser.parse_args(["detect", "in.pgm", "out.pbm"]).mode == "pointwise"
        argv = ["detect-temporal", "--out-pattern", "m{i}.pbm", "a.pgm", "b.pgm"]
        assert parser.parse_args(argv).mode == "pointwise"


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
        assert np.array_equal(read_pbm(truth), gt.discontinuity_mask)
        assert np.array_equal(read_pbm(occ), gt.occluding_mask)

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
        flagged = read_pbm(mask)
        target = read_pbm(truth) | read_pbm(occ)
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

    def test_bad_motion_exits_2(self, tmp_path):
        scene = scene_file(tmp_path)
        code = main(["render-seq", "--scene", str(scene), "--frames", "2",
                     "--motion", "1,2", "--out-pattern", str(tmp_path / "f{i}.pgm")])
        assert code == 2


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
            assert np.array_equal(read_pbm(tmp_path / f"mask{t}.pbm"), mask.flagged[t])

    def test_single_frame_exits_2(self, tmp_path, step_image):
        code = main(["detect-temporal", "--out-pattern", str(tmp_path / "m{i}.pbm"), str(step_image)])
        assert code == 2


def test_module_entrypoint_smoke():
    # the child imports the same package as this process, however it was found
    src = str(Path(isophote.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "isophote", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "detect" in proc.stdout
