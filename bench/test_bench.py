"""Tests of the benchmark itself: seeded inputs, output checks and span arithmetic."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import check_output  # noqa: E402
from isophote import IntensityGrid, cli, raster  # noqa: E402
from spans import CALL, COUNT, Span, Tracer, layer_metrics, self_times  # noqa: E402
from worker import run_ops  # noqa: E402


def _generate(seed: int) -> list[bytes]:
    rng = np.random.default_rng(seed)
    config = inputs.scene_config(rng, 64, 6, 65535)
    return [
        inputs.encode_pnm(inputs.noise(rng, 32), 255),
        inputs.encode_pnm(inputs.noise(rng, 16, 65535), 65535, ascii=True),
        inputs.encode_pnm(np.stack([inputs.noise(rng, 8)] * 3, axis=-1), 255, ascii=True),
        repr(config).encode(),
        repr(inputs.relit(config, rng)).encode(),
        inputs.motion(rng).encode(),
    ]


def test_generator_is_deterministic_for_a_seed():
    assert _generate(7) == _generate(7)
    assert all(a != b for a, b in zip(_generate(7), _generate(8)))


def test_encoded_inputs_decode_to_the_generated_values(tmp_path):
    from checks import read_netpbm

    rng = np.random.default_rng(3)
    for values, max_value, ascii in (
        (inputs.noise(rng, 9), 255, False),
        (inputs.noise(rng, 9, 65535), 65535, False),
        (inputs.noise(rng, 9), 255, True),
        (np.stack([inputs.noise(rng, 5)] * 3, axis=-1), 255, True),
    ):
        path = inputs.write_pnm(tmp_path / "img", values, max_value, ascii)
        decoded, maxval = read_netpbm(path)
        assert maxval == max_value and np.array_equal(decoded, values)


def _detect_ops(tmp_path) -> dict:
    """One seeded detect op with the filter and level counts, checked on sample pixels."""
    plan = workloads.Plan(tmp_path, seed=5)
    values = inputs.upsample(inputs.noise(plan.rng, 8), 4)
    src = plan.image("in.pgm", values, 255)
    out, levels = plan.path("out.pbm"), plan.path("levels.pgm")
    argv = ["detect", "--mode", "pointwise", "--increment", "8", "--topology", "4",
            "--filter-occluding", "--levels-out", levels, src, out]
    check = workloads.pixel_check(plan, "op", IntensityGrid(values, 255), "4", 8, [out], levels, True)
    plan.add("op", argv, values.size / 1e6, check, [out, levels])
    return plan.ops


def _flip_bit(path: str, x: int, y: int) -> None:
    """Flip pixel (x, y) of a P4 file written by the CLI (header 'P4\\nW H\\n')."""
    data = bytearray(Path(path).read_bytes())
    header = data.index(b"\n", data.index(b"\n") + 1) + 1
    width = int(data[3:header].split()[0])
    data[header + y * ((width + 7) // 8) + x // 8] ^= 0x80 >> (x % 8)
    Path(path).write_bytes(bytes(data))


def _fail_ratio(ops: dict, records: list) -> float:
    failed = sum(problem is not None for *_, problem in records)
    plan = {"ops": ops}
    result = {"calls": records, "peak_rss_kib": 1}
    metrics = run.end_to_end(plan, result, 1.0, failed, len(records))
    return 1 - metrics["success_ratio"]


def test_correct_outputs_pass(tmp_path):
    ops = _detect_ops(tmp_path)
    records = run_ops(["op"] * 11, ops, cli.main, {})
    assert [problem for *_, problem in records] == [None] * 11
    assert _fail_ratio(ops, records) == 0


def test_flipped_sampled_bit_is_a_failure(tmp_path):
    ops = _detect_ops(tmp_path)
    _, x, y, _, _ = np.load(ops["op"]["check"]["samples"])[0]

    def corrupting_main(argv):
        code = cli.main(argv)
        _flip_bit(argv[-1], int(x), int(y))
        return code

    records = run_ops(["op"] * 11, ops, corrupting_main, {})
    assert all(problem and "expected" in problem for *_, problem in records)
    assert _fail_ratio(ops, records) > 0


def test_flipped_bit_in_a_repeated_call_is_a_failure(tmp_path):
    ops = _detect_ops(tmp_path)
    calls = []

    def main_corrupting_second_call(argv):
        code = cli.main(argv)
        calls.append(argv)
        if len(calls) == 2:
            _flip_bit(argv[-1], 31, 31)
        return code

    records = run_ops(["op"] * 11, ops, main_corrupting_second_call, {})
    assert records[1][2] is not None and records[0][2] is None
    assert _fail_ratio(ops, records) > 0


def test_contour_check_catches_a_missing_pixel(tmp_path):
    from checks import contour_members
    from isophote import Topology

    rng = np.random.default_rng(2)
    values = inputs.noise(rng, 24)
    src = inputs.write_pnm(tmp_path / "noise.pgm", values, 255)
    np.save(tmp_path / "members.npy", contour_members(IntensityGrid(values, 255), 128, Topology.N8))
    for fmt in ("svg", "text"):
        out = str(tmp_path / f"out.{fmt}")
        assert cli.main(["trace", "--threshold", "128", "--topology", "8", "--format", fmt, src, out]) == 0
        check = {"kind": "contours", "path": out, "format": fmt, "members": str(tmp_path / "members.npy"),
                 "width": 24, "topology": "8"}
        assert check_output(check) is None
        text = Path(out).read_text()
        cut = text.index("1", text.index("points=") if fmt == "svg" else 0)
        Path(out).write_text(text[:cut] + "2" + text[cut + 1:])
        assert check_output(check) is not None


def _span(sid, name, start, end, parent, counts=None):
    return Span(sid, name, start, end, parent, 0, counts or {})


def test_self_times_subtract_the_union_of_children_clipped_to_the_parent():
    tree = [
        _span(0, "a", 0.0, 10.0, None),
        _span(1, "b", 1.0, 4.0, 0),
        _span(2, "c", 3.0, 6.0, 0),  # overlaps b: the union covers 1..6
        _span(3, "d", 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
        _span(4, "e", 2.0, 2.5, 1),
    ]
    assert self_times(tree) == pytest.approx({0: 4.0, 1: 2.5, 2: 3.0, 3: 3.0, 4: 0.5})


def test_layer_self_times_and_cli_self_sum_to_the_call_time():
    tree = [
        _span(0, CALL, 0.0, 10.0, None),
        _span(1, "netpbm.read", 1.0, 3.0, 0, {"bytes": 3_000_000, "px": 1_000_000}),
        _span(2, "raster.freeze", 2.0, 2.5, 1, {"px": 1_000_000, "nbytes": 8_000_000}),
        _span(3, "detector.pointwise", 3.0, 8.0, 0),
        _span(4, COUNT, 8.0, 8.5, 0),
        _span(5, "netpbm.write", 8.5, 9.5, 0, {"bytes": 500_000}),
    ]
    m = layer_metrics(tree, untraced_s=8.0)
    assert m["netpbm.read_s"] == pytest.approx(1.5)
    assert m["raster.freeze_s"] == pytest.approx(0.5)
    assert m["detector.pointwise_s"] == pytest.approx(5.0)
    assert m["netpbm.write_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["cli.call_s"] == pytest.approx(9.5)
    layers = sum(m[f"{layer}_s"] for layer in spans.LAYERS)
    assert layers + m["cli.self_s"] == pytest.approx(m["cli.call_s"])
    assert m["netpbm.read_mb_s"] == pytest.approx(2.0)
    assert m["raster.grid_bytes_per_px"] == pytest.approx(8.0)
    assert m["bench.tracing_overhead"] == pytest.approx(10.0 / 8.0)
    assert set(m) == set(spans.UNITS)


def test_traced_cli_call_records_every_boundary_and_restores_the_namespace(tmp_path):
    ops = _detect_ops(tmp_path)
    originals = {name: getattr(cli, name) for name in spans.CLI_FUNCTIONS}
    tracer = Tracer()
    uninstall = spans.install(tracer, cli, raster)
    try:
        records = run_ops(["op"], ops, cli.main, {}, tracer)
    finally:
        uninstall()
    assert records[0][2] is None
    assert set(ops["op"]["spans"]) <= {s.name for s in tracer.spans}
    assert {name: getattr(cli, name) for name in spans.CLI_FUNCTIONS} == originals
    m = layer_metrics(tracer.spans, untraced_s=1.0)
    layers = sum(m[f"{layer}_s"] for layer in spans.LAYERS)
    assert layers + m["cli.self_s"] == pytest.approx(m["cli.call_s"])
    assert m["detector.flag_ratio"] > 0


def test_install_fails_loudly_when_a_traced_name_is_gone():
    class Namespace:
        pass

    partial = Namespace()
    for name in list(spans.CLI_FUNCTIONS)[1:]:
        setattr(partial, name, getattr(cli, name))
    with pytest.raises(LookupError, match="read_grid"):
        spans.install(Tracer(), partial, raster)
