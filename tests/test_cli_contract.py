"""The CLI's contract, on argv drawn from the parser's own actions and a pool of files.

Every subcommand and option comes from build_parser(), and every value
from its choices or from pools of numbers, patterns and paths: valid,
truncated, empty, missing and hostile images and scene configs. Whatever
the argv, a call exits 0 or 2; an exit 2 names the error (or is
argparse's usage) and leaves every file as it was; and the same argv run
again on the same files gives the same exit, messages and files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import LONG_TOKEN_FILES
from hypothesis import event, given, settings

from isophote import IntensityGrid
from isophote.cli import build_parser, main
from isophote.netpbm import write_pbm, write_pgm, write_ppm


_DIRECTORY = "sub"
# per kind of value: the values a call should accept, then the ones it should refuse
_IMAGES = (["gray.pgm", "plain.pgm", "deep.pgm", "color.ppm", "plain.ppm", "mask.pbm", "plain.pbm"],
           ["cut.pgm", "cut-header.pgm", "empty.pgm", "huge.pgm", "above.pgm", "magic.pgm", "long.pgm",
            "missing.pgm", _DIRECTORY])
_SCENES = (["scene.json"], ["huge.json", "unknown.json", "nested.json", "broken.json", "missing.json", _DIRECTORY])
_OUTPUTS = (["out.pbm", "out.pgm", "out.svg", "out.txt", "gray.pgm"], ["nodir/out.pbm", _DIRECTORY])
_PATTERNS = (["f{i}.pgm", "t{i:03d}.pbm"],
             ["same.pbm", "{i:c}.pbm", "{j}.pbm", "{i.x}.pbm", "{i:999}.pbm", "f{i!r}.pbm", "f{.pbm",
              "nodir/f{i}.pbm"])
_VALUES = {
    "increment": ([8, 1, 2, 64], [0, -1, 10**30, 1.5]),
    "offset": ([0, 1, 3, -5, 300], [2**70, "x"]),
    "threshold": ([128, 1, 0, -1], [2**64, "x"]),
    "frames": ([2, 3], [1, 0, -1, 10**9, 1.5]),
    "filter_tolerance": ([0, 3], [-1, 10**20]),
    "motion": (["0.5,0,0", "0,0,0"], ["x", "1,2", "nan,0,0", "1e308,0,0"]),
}
# paths by the option or positional that takes them
_PATHS = {
    "input": _IMAGES, "frames": _IMAGES, "scene": _SCENES,
    "output": _OUTPUTS, "levels_out": _OUTPUTS, "out": _OUTPUTS, "truth": _OUTPUTS, "occluding": _OUTPUTS,
    "out_pattern": _PATTERNS, "truth_pattern": _PATTERNS,
}


(_SUBCOMMANDS,) = (a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))


def _one_in(n: int):
    """True one time in about n."""
    return st.integers(1, n).map(lambda k: k == 1)


def _value(action: argparse.Action, root: str):
    """A strategy for one value of action, mostly one a call should accept; paths joined to root."""
    if action.choices:
        accepted, refused = list(action.choices), ["bogus"]
    elif action.type is int or action.dest == "motion":
        accepted, refused = ([str(v) for v in values] for values in _VALUES[action.dest])
    else:
        accepted, refused = ([os.path.join(root, name) for name in names] for names in _PATHS[action.dest])
    return _one_in(10).flatmap(lambda refuse: st.sampled_from(refused if refuse else accepted))


@st.composite
def argvs(draw, root: str) -> list[str]:
    """A subcommand and its arguments in the parser's order: each required one almost
    always, each optional one half the time; now and then an unknown option."""
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [name]
    for action in _SUBCOMMANDS[name]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.required or not action.option_strings:
            if draw(_one_in(20)):
                continue
        elif draw(st.booleans()):
            continue
        if action.nargs == 0:  # a flag
            argv.append(action.option_strings[0])
            continue
        count = draw(st.integers(1, 3)) if action.nargs == "+" else 1
        values = [draw(_value(action, root)) for _ in range(count)]
        argv += [draw(st.sampled_from(action.option_strings)), *values] if action.option_strings else values
    if draw(_one_in(20)):
        argv.append("--bogus")
    return argv


def _files(root: str) -> dict[str, tuple[int, bytes]]:
    """Every file under root: its mode and bytes, by path relative to root."""
    found = {}
    for top, _, names in os.walk(root):
        for name in names:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = (os.stat(path).st_mode, fh.read())
    return found


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pool(tmp_path_factory) -> str:
    """A directory of the pool's files: valid images of every kind, broken ones, and scene configs."""
    d = tmp_path_factory.mktemp("pool")
    rng = np.random.default_rng(21)
    gray = rng.integers(0, 256, size=(5, 7))
    gray[:, 4:] += 200 * (gray[:, 4:] < 56)  # a step, so that some pixels are flagged
    write_pgm(d / "gray.pgm", IntensityGrid(gray, 255))
    write_pgm(d / "plain.pgm", IntensityGrid(gray, 255), binary=False)
    write_pgm(d / "deep.pgm", IntensityGrid(gray * 257, 65535))
    write_ppm(d / "color.ppm", rng.integers(0, 256, size=(5, 7, 3)))
    write_ppm(d / "plain.ppm", rng.integers(0, 1000, size=(4, 3, 3)), 1000, binary=False)
    write_pbm(d / "mask.pbm", gray > 128)
    write_pbm(d / "plain.pbm", gray > 128, binary=False)
    image = (d / "gray.pgm").read_bytes()
    scene = {
        "image": {"width": 8, "height": 6, "fov": 0.5},
        "light": {"direction": [0.0, 0.0, -1.0], "ambient": 0.2},
        "objects": [{"type": "sphere", "center": [0.0, 0.0, 5.0], "radius": 1.0}],
    }
    files = {
        "cut.pgm": image[:-9],
        "cut-header.pgm": image[:6],
        "empty.pgm": b"",
        "huge.pgm": b"P5\n1073741824 1073741824\n255\n" + bytes(8),
        "above.pgm": b"P5\n2 1\n9\n\x05\x0a",
        "magic.pgm": b"P7\n2 1\n255\n\x00\x00",
        "long.pgm": LONG_TOKEN_FILES["sample"][0],
        "scene.json": json.dumps(scene).encode(),
        "huge.json": json.dumps({**scene, "image": {"width": 1 << 20, "height": 1 << 20}}).encode(),
        "unknown.json": json.dumps({**scene, "colour": 1}).encode(),
        "nested.json": b"[" * 100_000 + b"]" * 100_000,
        "broken.json": b'{"image": {"width": 8,',
    }
    for name, data in files.items():
        (d / name).write_bytes(data)
    (d / _DIRECTORY).mkdir()
    return str(d)


@pytest.fixture(scope="module")
def root(tmp_path_factory) -> str:
    """Where each call runs, on a fresh copy of the pool."""
    return str(tmp_path_factory.mktemp("contract") / "calls")


@given(data=st.data())
@settings(deadline=None)
def test_any_argv_exits_0_or_2_and_an_exit_2_changes_no_file(pool, root, data):
    argv = data.draw(argvs(root), label="argv")
    outcomes = []
    for _ in range(2):
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(pool, root)
        before = _files(root)
        code, out, err = _run(argv)
        after = _files(root)
        assert code in (0, 2), err
        assert not [path for path in after if ".isophote-" in path]  # no staged output is left
        if code == 2:
            assert err.startswith(("isophote: error: ", "usage: isophote ")), err
            assert after == before
        outcomes.append((code, out, err, after))
    event(f"{argv[0]} exits {code}")
    assert outcomes[0] == outcomes[1]
