"""Golden digests: the sha256 of every file that a fixed table of CLI calls writes.

A corpus of small seeded inputs is written by the library's own writers,
and ``tests/golden.json`` pins the digest of each input and, per call, of
each output. The calls cover every subcommand of ``build_parser()``, every
option of each and every value of each option with choices, so a change
to any output byte, or to a writer, fails here. A change that means to
alter bytes regenerates the table with ``python tests/regen_golden.py``
and names each row that changed and why.

In a call, ``in/NAME`` is an input of the corpus and ``out/NAME`` an
output, written to a directory of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from isophote import IntensityGrid
from isophote.cli import build_parser, main
from isophote.netpbm import write_pbm, write_pgm, write_ppm

TABLE = Path(__file__).with_name("golden.json")

_DETECT = "detect in/gray.pgm out/mask.pbm"
_TEMPORAL = "detect-temporal in/f0.pgm in/f1.pgm in/f2.pgm --out-pattern out/t{i}.pbm"
_COLOR_TEMPORAL = "detect-temporal in/c0.ppm in/c1.ppm in/c2.ppm --out-pattern out/t{i:02d}.pbm"
_RENDER = "render --scene in/scene8.json --out out/image.pgm"
_SEQUENCE = "render-seq --scene in/scene8.json --frames 3 --motion 0.5,0,0.25 --out-pattern out/s{i}.pgm"
CALLS = [
    # detect: both routes under N4 and N8, each input format, and each option
    _DETECT,
    f"{_DETECT} --mode multilevel",
    f"{_DETECT} --mode pointwise --topology 8",
    f"{_DETECT} --mode multilevel --topology 8",
    f"{_DETECT} --topology 4 --ascii",
    f"{_DETECT} --filter-occluding",
    f"{_DETECT} --filter-occluding --filter-tolerance 3 --topology 8",
    f"{_DETECT} --levels-out out/levels.pgm",
    f"{_DETECT} --levels-out out/levels.pgm --ascii --mode multilevel",
    f"{_DETECT} --increment 5 --offset 3",
    f"{_DETECT} -d 16 --offset 0 --levels-out out/levels.pgm",
    f"{_DETECT} --preprocess none",
    f"{_DETECT} --preprocess dx",
    f"{_DETECT} --preprocess dy --mode multilevel --levels-out out/levels.pgm",
    "detect in/gray-plain.pgm out/mask.pbm",
    "detect in/deep.pgm out/mask.pbm --increment 1024 --levels-out out/levels.pgm",
    "detect in/deep-plain.pgm out/mask.pbm --increment 1024 --ascii --levels-out out/levels.pgm",
    "detect in/deep.pgm out/mask.pbm --increment 97 --preprocess dx --filter-occluding",
    "detect in/color.ppm out/mask.pbm --channel gray",
    "detect in/color.ppm out/mask.pbm --channel r",
    "detect in/color.ppm out/mask.pbm --channel g --mode multilevel",
    "detect in/color.ppm out/mask.pbm --channel b --topology 8",
    "detect in/color-plain.ppm out/mask.pbm --increment 40 --levels-out out/levels.pgm",
    "detect in/mask.pbm out/mask.pbm --increment 1 --offset 1",
    "detect in/mask-plain.pbm out/mask.pbm --increment 1 --offset 1 --ascii",
    # detect-temporal
    _TEMPORAL,
    f"{_TEMPORAL} --mode multilevel --ascii",
    f"{_TEMPORAL} --mode pointwise --increment 4 --offset 2",
    f"{_TEMPORAL} -d 32 --preprocess dx",
    f"{_TEMPORAL} --preprocess dy",
    f"{_TEMPORAL} --preprocess none --channel gray",
    f"{_COLOR_TEMPORAL} --channel gray",
    f"{_COLOR_TEMPORAL} --channel r",
    f"{_COLOR_TEMPORAL} --channel g --mode multilevel",
    f"{_COLOR_TEMPORAL} --channel b",
    # trace: to SVG and to text, by suffix and by --format
    "trace in/gray.pgm out/curves.svg --threshold 128",
    "trace in/gray.pgm out/curves.txt --threshold 128",
    "trace in/gray.pgm out/curves.svg -c 100 --topology 8",
    "trace in/gray.pgm out/curves.txt -c 100 --topology 4 --format svg",
    "trace in/gray.pgm out/curves.svg -c 201 --format text",
    "trace in/deep.pgm out/curves.svg -c 30000",
    "trace in/color.ppm out/curves.txt -c 128 --channel gray",
    "trace in/color.ppm out/curves.txt -c 128 --channel r",
    "trace in/color.ppm out/curves.txt -c 128 --channel g --topology 8",
    "trace in/color.ppm out/curves.svg -c 128 --channel b",
    # coordinates of six digits: a 100003x1 image
    "trace in/wide.pgm out/curves.svg -c 5",
    "trace in/wide.pgm out/curves.txt -c 5",
    # render: truth and occluding masks, at 8 and at 16 bits
    _RENDER,
    f"{_RENDER} --truth out/truth.pbm --occluding out/occluding.pbm",
    f"{_RENDER} --truth out/truth.pbm --ascii",
    "render --scene in/scene16.json --out out/image.pgm --truth out/truth.pbm --occluding out/occluding.pbm",
    "render --scene in/scene16.json --out out/image.pgm --occluding out/occluding.pbm --ascii",
    # render-seq
    _SEQUENCE,
    f"{_SEQUENCE} --truth-pattern out/s{{i:03d}}.pbm",
    "render-seq --scene in/scene16.json --frames 2 --motion 0,0.5,0 --out-pattern out/s{i}.pgm "
    "--truth-pattern out/t{i}.pbm --ascii",
]


def _scene(max_value: int, objects: list) -> dict:
    return {
        "image": {"width": 61, "height": 46, "fov": 0.6, "max_value": max_value},
        "light": {"direction": [0.3, -0.4, -1.0], "ambient": 0.15},
        "objects": objects,
    }


def write_corpus(root: Path) -> None:
    """The seeded inputs of the calls: 8- and 16-bit, binary and plain P1-P6, frames, scenes."""
    rng = np.random.default_rng(24)
    y, x = np.mgrid[:40, :45]  # widths that are no multiple of 8 pad the rows of a P4
    gray = (3 * x + 2 * y) % 256  # ramps that wrap, so steps
    gray[8:24, 10:30] = 200  # a flat square, where the field vanishes
    gray[[12, 16, 20], [14, 20, 26]] = (255, 90, 201)  # flagged spikes in it, where the field vanishes too
    gray[28:] = np.minimum(gray[28:] + rng.integers(0, 12, size=(12, 45)), 255)  # a noisy band
    write_pgm(root / "gray.pgm", IntensityGrid(gray, 255))
    write_pgm(root / "gray-plain.pgm", IntensityGrid(gray, 255), binary=False)
    deep = gray * 256 + rng.integers(0, 256, size=gray.shape)
    write_pgm(root / "deep.pgm", IntensityGrid(deep, 65535))
    write_pgm(root / "deep-plain.pgm", IntensityGrid(deep, 65535), binary=False)
    color = np.stack([255 - gray, gray[::-1], rng.integers(0, 256, size=gray.shape)], axis=-1)
    write_ppm(root / "color.ppm", color)
    write_ppm(root / "color-plain.ppm", color * 1000 // 255, 1000, binary=False)
    write_pbm(root / "mask.pbm", gray > 128)
    write_pbm(root / "mask-plain.pbm", gray > 128, binary=False)
    for t in range(3):
        frame = np.where(x[:24, :29] < 10 + 3 * t, 40, 180) + rng.integers(0, 3, size=(24, 29))
        write_pgm(root / f"f{t}.pgm", IntensityGrid(frame, 255))
        write_ppm(root / f"c{t}.ppm", np.stack([frame, frame[::-1], frame[:, ::-1]], axis=-1))
    wide = np.zeros((1, 100003), dtype=np.uint8)
    wide[0, [0, 7, 50000, 99999, 100001, 100002]] = 9
    write_pgm(root / "wide.pgm", IntensityGrid(wide, 9))
    sphere = {"type": "sphere", "center": [0.0, 0.0, 6.0], "radius": 1.5, "albedo": 0.9}
    scenes = {
        "scene8.json": _scene(255, [
            sphere,
            {"type": "sphere", "center": [1.2, 0.6, 4.5], "radius": 0.8},
            {"type": "plane", "point": [0.0, 2.0, 0.0], "normal": [0.0, -1.0, -0.2], "albedo": 0.6},
        ]),
        "scene16.json": _scene(65535, [
            sphere,
            {"type": "plane", "point": [0.0, 0.0, 9.0], "normal": [0.2, 0.1, -1.0]},
        ]),
    }
    for name, scene in scenes.items():
        (root / name).write_text(json.dumps(scene, indent=1))


def digests(root: Path) -> dict[str, str]:
    """The sha256 of each file in root, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.iterdir())}


def run_call(call: str, corpus: Path, out: Path) -> dict[str, str]:
    """Run one call of CALLS on the corpus, writing into the empty directory out; the digests of its outputs."""
    argv = [str(corpus / a[3:]) if a.startswith("in/") else str(out / a[4:]) if a.startswith("out/") else a
            for a in call.split()]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return digests(out)


def _table() -> dict:
    return json.loads(TABLE.read_text())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(root)
    return root


def test_inputs_match_their_digests(corpus):
    assert digests(corpus) == _table()["inputs"]


def test_the_table_has_one_row_per_call():
    assert len(set(CALLS)) == len(CALLS)
    assert sorted(_table()["calls"]) == sorted(CALLS)


@pytest.mark.parametrize("call", CALLS)
def test_call_writes_the_pinned_bytes(corpus, tmp_path, call):
    assert run_call(call, corpus, tmp_path) == _table()["calls"][call]


def test_every_option_and_choice_has_a_row():
    (commands,) = (a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = []
    for name, parser in commands.items():
        calls = [call.split() for call in CALLS if call.split()[0] == name]
        if not calls:
            missing.append(name)
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction) or not action.option_strings:
                continue
            given = [argv[i + 1] for argv in calls for i, a in enumerate(argv[:-1]) if a in action.option_strings]
            if not given and not any(argv[-1] in action.option_strings for argv in calls):
                missing.append(f"{name} {action.option_strings[0]}")
            if action.choices:
                missing += [f"{name} {action.option_strings[0]} {c}" for c in action.choices if c not in given]
    assert not missing, f"options with no row in CALLS: {missing}"
