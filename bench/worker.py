"""The timed process: warm up, call the CLI closed-loop, check each output, trace each op once.

run.py starts it fresh as ``python3 worker.py PLAN RESULT`` once the inputs
are written, so set-up allocations never count toward its peak resident
memory. One caller, no threads: each call starts when the previous one and
its check are done. Only the ``isophote.cli.main`` call is timed.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up time counts the package import, which the next lines do

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_output, file_digest  # noqa: E402
from spans import Tracer, install  # noqa: E402


def check_call(op: dict, code, first_outputs: dict) -> str | None:
    """None when the call exited 0 and its outputs pass the op's check.

    The check runs on the first call of an op; a later call passes when its
    output bytes equal the first call's and the first call passed.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        digests = [file_digest(path) for path in op["outputs"]]
    except OSError as exc:
        return f"unreadable output: {exc}"
    if op["id"] not in first_outputs:
        first_outputs[op["id"]] = (digests, check_output(op["check"]))
    first, problem = first_outputs[op["id"]]
    if digests != first:
        return "outputs differ from the first call of the same op"
    return problem


def run_ops(sequence: list[str], ops: dict, main, first_outputs: dict, tracer: Tracer | None = None):
    """Call main on each op in order; return [op id, seconds, problem or None] per call."""
    records = []
    for op_id in sequence:
        op = ops[op_id]
        start = perf_counter()
        try:
            code = main(op["argv"]) if tracer is None else tracer.call(main, op["argv"])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        seconds = perf_counter() - start
        records.append([op_id, seconds, check_call(op, code, first_outputs)])
    return records


def traced_calls(sequence: list[str], ops: dict, cli, raster, first_outputs: dict):
    """Run the ops with spans; fail if a call lost a span it must record."""
    tracer = Tracer()
    uninstall = install(tracer, cli, raster)
    try:
        records = run_ops(sequence, ops, cli.main, first_outputs, tracer)
    finally:
        uninstall()
    for call, op_id in enumerate(sequence):
        seen = {s.name for s in tracer.spans if s.call == call}
        missing = set(ops[op_id]["spans"]) - seen
        if missing:
            raise RuntimeError(f"traced call {op_id} recorded no span for {', '.join(sorted(missing))}")
    return records, tracer.spans


def main(plan_path: str, result_path: str) -> None:
    from isophote import cli, raster

    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    for argv in plan["warmup"]:
        if cli.main(argv) != 0:  # the timed calls of the same command will count the failure
            print(f"warm-up call failed: {argv}", file=sys.stderr)
    result = {"setup_s": perf_counter() - STARTED}
    first_outputs: dict = {}
    result["calls"] = run_ops(plan["sequence"], plan["ops"], cli.main, first_outputs)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if plan["trace"]:
        records, spans = traced_calls(list(plan["ops"]), plan["ops"], cli, raster, first_outputs)
        result["traced"] = records
        result["spans"] = [asdict(s) for s in spans]
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
