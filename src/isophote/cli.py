"""Command-line interface: detect, trace, render, render-seq, detect-temporal.

Exit codes: 0 success, 2 bad input (unreadable or malformed files, invalid
configuration), 1 internal error. Identical inputs always produce
byte-identical outputs. A command writes each output to a new file beside
it, and main moves them into place only once the command has succeeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import reprlib
import stat
import string
import sys

from .detector import ThresholdSchedule, detect_multilevel, detect_pointwise
from .field import (
    apply_operator,
    contours_to_svg,
    contours_to_text,
    hamiltonian,
    trace_level_contours,
    zero_mask,
)
from .netpbm import pgm_maxval, read_grid, write_pbm, write_pgm
from .raster import IntensityGrid, Topology, frame_stack
from .scene import load_scene, render, render_sequence

_DETECTORS = {"multilevel": detect_multilevel, "pointwise": detect_pointwise}
# format types that {i} could take but that do not write it as an integer
_NOT_INTEGER_TYPES = set("ceEfFgG%")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isophote",
        description="Detect intensity discontinuities and occluding contours "
        "by intersecting level-set boundaries at multiple thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_schedule_flags(p):
        p.add_argument("--increment", "-d", type=int, default=8,
                       help="threshold spacing (default 8)")
        p.add_argument("--offset", type=int, default=None,
                       help="first threshold (default: one increment)")
        p.add_argument("--mode", choices=tuple(_DETECTORS), default="pointwise",
                       help="detector route: the pointwise closed form (default) or the "
                       "multilevel enumeration; both produce identical masks")
        p.add_argument("--preprocess", choices=("none", "dx", "dy"), default="none",
                       help="finite-difference operator applied before detection")
        p.add_argument("--channel", choices=("gray", "r", "g", "b"), default="gray",
                       help="channel to extract from color input")
        p.add_argument("--ascii", action="store_true", help="write ASCII Netpbm variants")

    p = sub.add_parser("detect", help="flag discontinuity/occlusion pixels in one image")
    p.add_argument("input", help="PGM/PPM/PBM image")
    p.add_argument("output", help="PBM mask of flagged pixels")
    add_schedule_flags(p)
    p.add_argument("--topology", choices=("4", "8"), default="4")
    p.add_argument("--filter-occluding", action="store_true",
                   help="drop flags where the rotated-gradient field vanishes")
    p.add_argument("--filter-tolerance", type=int, default=0,
                   help="integer |hx|+|hy| threshold for the zero filter (default 0)")
    p.add_argument("--levels-out", default=None, help="also write per-pixel level counts as PGM")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("trace", help="trace level curves at one threshold")
    p.add_argument("input")
    p.add_argument("output", help="SVG or plain-text coordinate list")
    p.add_argument("--threshold", "-c", type=int, required=True)
    p.add_argument("--topology", choices=("4", "8"), default="4")
    p.add_argument("--channel", choices=("gray", "r", "g", "b"), default="gray")
    p.add_argument("--format", choices=("svg", "text"), default=None,
                   help="default: svg when output ends in .svg, else text")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("render", help="render a scene config to an image plus ground truth")
    p.add_argument("--scene", required=True, help="JSON scene config")
    p.add_argument("--out", required=True, help="output PGM image")
    p.add_argument("--truth", default=None, help="PBM of ground-truth discontinuity pixels")
    p.add_argument("--occluding", default=None, help="PBM of ground-truth occluding pixels")
    p.add_argument("--ascii", action="store_true")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("render-seq", help="render a moving scene to numbered frames")
    p.add_argument("--scene", required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--motion", required=True, help="per-frame displacement dx,dy,dz")
    p.add_argument("--out-pattern", required=True,
                   help="output path pattern containing {i}, e.g. frame{i:03d}.pgm")
    p.add_argument("--truth-pattern", default=None)
    p.add_argument("--ascii", action="store_true")
    p.set_defaults(func=cmd_render_seq)

    p = sub.add_parser("detect-temporal",
                       help="detect across stacked video frames (spatial N4 plus time neighbors)")
    p.add_argument("frames", nargs="+", help="two or more frame images, in order")
    p.add_argument("--out-pattern", required=True,
                   help="per-frame mask path pattern containing {i}")
    add_schedule_flags(p)
    p.set_defaults(func=cmd_detect_temporal)

    return parser


def _check_pattern(pattern: str, flag: str) -> None:
    """ValueError naming flag unless each field is {i} in an integer format, at most 99 wide
    (read unformatted), and {i} changes the name."""
    try:  # a number over 99 has a nonzero digit and two more; int() would refuse 4300 digits
        fields = [(field, spec, conversion) for _, field, spec, conversion in string.Formatter().parse(pattern)
                  if field is not None]
        wide = [spec for _, spec, _ in fields if "{" in spec or re.search(r"[1-9]\d\d", spec)]
        other = [f"!{conversion}" if conversion else f":{spec}" for field, spec, conversion in fields
                 if field == "i" and (conversion or spec[-1:] in _NOT_INTEGER_TYPES)]
        if other and not wide:
            raise ValueError("{i} takes an integer format (type b, d, n, o, x, X or none) and no "
                             f"conversion, got {reprlib.repr(other[0])}")
        same = not wide and pattern.format(i=0) == pattern.format(i=1)
    except (KeyError, IndexError, AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{flag} has an invalid placeholder: {exc}") from exc
    if wide:
        raise ValueError(f"{flag} takes field widths of at most 99, got {reprlib.repr(wide[0])}")
    if same:
        raise ValueError(f"{flag} must contain an {{i}} placeholder, got {pattern!r}")


def _load_preprocessed(path, channel: str, preprocess: str) -> IntensityGrid:
    grid = read_grid(path, channel=channel)
    return apply_operator(grid, preprocess) if preprocess != "none" else grid


def cmd_detect(args, out) -> int:
    grid = _load_preprocessed(args.input, args.channel, args.preprocess)
    schedule = ThresholdSchedule(args.increment, args.offset)
    mask = _DETECTORS[args.mode](grid, schedule, Topology(args.topology))
    flagged = mask.flagged
    if args.filter_occluding:
        flagged &= ~zero_mask(hamiltonian(grid), args.filter_tolerance)
    write_pbm(out(args.output), flagged, binary=not args.ascii)
    if args.levels_out:
        counts = IntensityGrid(mask.level_count, int(mask.level_count.max()))
        write_pgm(out(args.levels_out), counts, binary=not args.ascii)
    return 0


def cmd_trace(args, out) -> int:
    grid = read_grid(args.input, channel=args.channel)
    contours = trace_level_contours(grid, args.threshold, Topology(args.topology))
    fmt = args.format or ("svg" if str(args.output).lower().endswith(".svg") else "text")
    if fmt == "svg":
        text = contours_to_svg(contours, grid.width, grid.height)
    else:
        text = contours_to_text(contours)
    with open(out(args.output), "w", encoding="ascii") as fh:
        fh.write(text)
    return 0


def cmd_render(args, out) -> int:
    spec = load_scene(args.scene)
    pgm_maxval(spec.max_value)  # fail before rendering, not at the writer
    grid, truth = render(spec)
    write_pgm(out(args.out), grid, binary=not args.ascii)
    if args.truth:
        write_pbm(out(args.truth), truth.discontinuity_mask, binary=not args.ascii)
    if args.occluding:
        write_pbm(out(args.occluding), truth.occluding_mask, binary=not args.ascii)
    return 0


def cmd_render_seq(args, out) -> int:
    _check_pattern(args.out_pattern, "--out-pattern")
    if args.truth_pattern:
        _check_pattern(args.truth_pattern, "--truth-pattern")
    try:
        motion = [float(v) for v in args.motion.split(",")]
    except ValueError:
        raise ValueError(f"--motion takes three numbers dx,dy,dz, got {reprlib.repr(args.motion)}") from None
    spec = load_scene(args.scene)
    pgm_maxval(spec.max_value)
    grids, truths = render_sequence(spec, motion, args.frames)
    for i, grid in enumerate(grids):
        write_pgm(out(args.out_pattern.format(i=i)), grid, binary=not args.ascii)
    if args.truth_pattern:
        for i, truth in enumerate(truths):
            write_pbm(out(args.truth_pattern.format(i=i)), truth.discontinuity_mask,
                      binary=not args.ascii)
    return 0


def cmd_detect_temporal(args, out) -> int:
    _check_pattern(args.out_pattern, "--out-pattern")
    grids = [_load_preprocessed(p, args.channel, args.preprocess) for p in args.frames]
    stack = frame_stack(grids)
    schedule = ThresholdSchedule(args.increment, args.offset)
    flagged = _DETECTORS[args.mode](stack, schedule, Topology.N4T).flagged
    for t in range(stack.frames):
        write_pbm(out(args.out_pattern.format(i=t)), flagged[t], binary=not args.ascii)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call reuses: parsing leaves it unchanged, and
    building one costs about twenty parses."""
    return build_parser()


def _stage(staged: dict, path: str) -> str:
    """The new file, beside path, that a command writes in place of path.

    It is made as open would make path: mode 0666 less the umask, or the
    mode of the file it will replace. A symlink is followed. A path that
    exists but is no regular file, such as a device or a directory, is
    returned as it is, since a rename cannot replace it.
    """
    final = os.path.realpath(path) if os.path.islink(path) else path
    try:
        mode = os.stat(final).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        return path
    if final not in staged:
        temporary = os.path.join(os.path.dirname(final), f".isophote-{os.urandom(8).hex()}")
        try:
            os.close(os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        except OSError as exc:  # name the output, not its temporary file
            raise OSError(exc.errno, exc.strerror, path) from None
        staged[final] = temporary
        if mode is not None:
            os.chmod(temporary, stat.S_IMODE(mode))
    return staged[final]


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    staged = {}  # each output path, or its symlink's target -> the file the command wrote in its place
    try:
        code = args.func(args, functools.partial(_stage, staged))
        for final, temporary in list(staged.items()):
            os.replace(temporary, final)
            del staged[final]
        return code
    except (OSError, ValueError) as exc:
        print(f"isophote: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violation, not an input problem
        print(f"isophote: internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        for temporary in staged.values():
            with contextlib.suppress(OSError):
                os.remove(temporary)


def entrypoint() -> None:
    sys.exit(main())
