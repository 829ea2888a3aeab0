"""Benchmark of the isophote CLI: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1.

Run from anywhere inside a checkout; it imports the package from the
checkout's ``src/``. Set-up writes the seeded inputs and the expected
results under ``.bench_work/`` in the checkout, three times over for a
median set-up time; a fresh worker process then warms up and calls
``isophote.cli.main`` closed-loop, checking every output. The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of one traced call of each
op, set against one untraced call of each. The work directory is removed on
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TIME_LIMIT_S = 170
END_TO_END_UNITS = {
    "throughput_mpix_s": "Mpx/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "setup_s": "s",
}


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest percentile with at least ten calls beyond it."""
    if n < 11:
        raise ValueError(f"{n} calls leave no percentile with ten calls beyond it")
    return n - 11


def end_to_end(plan: dict, result: dict, setup_s: float, failed: int, attempted: int) -> dict:
    calls = result["calls"]
    by_op: dict[str, list[float]] = {}
    for op, seconds, _ in calls:
        by_op.setdefault(op, []).append(seconds)
    # Each op's median call time, weighted by its calls: one call slowed by another tenant
    # of the machine does not move the rate.
    work = sum(plan["ops"][op]["mpx"] * len(times) for op, times in by_op.items())
    busy = sum(statistics.median(times) * len(times) for times in by_op.values())
    ms = sorted(1000 * s for _, s, _ in calls)
    return {
        "throughput_mpix_s": work / busy,
        "call_ms_p50": statistics.median(ms),
        "call_ms_tail": ms[tail_index(len(ms))],
        "peak_rss_mb": result["peak_rss_kib"] * 1024 / 1e6,
        "success_ratio": 1 - failed / attempted,
        "setup_s": setup_s,
    }


def per_layer(result: dict) -> dict:
    from spans import Span, layer_metrics

    by_op: dict[str, list[float]] = {}
    for op, seconds, _ in result["calls"]:
        by_op.setdefault(op, []).append(seconds)
    untraced = sum(statistics.mean(by_op[op]) for op, _, _ in result["traced"])
    return layer_metrics([Span(**s) for s in result["spans"]], untraced)


def run(args, work: Path) -> int:
    import workloads

    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = perf_counter()
        plan = workloads.build(args.workload, work, args.seed)
        setup_times.append(perf_counter() - start)
    # A traced run needs only each op's untraced time to set its traced time against.
    plan["sequence"] = list(plan["ops"]) if args.trace else workloads.sequence(
        args.workload, plan["rounds"], args.seconds)
    plan["trace"] = bool(args.trace)
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    worker = [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path), str(result_path)]
    budget = TIME_LIMIT_S - (perf_counter() - args.started)
    try:
        proc = subprocess.run(worker, env=env, stdout=sys.stderr, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"bench: worker still running after {budget:.0f} s; stopped", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"bench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))

    records = result["calls"] + result.get("traced", [])
    problems = [problem for _, _, problem in records if problem]
    for problem in problems:
        print(f"bench: failed call: {problem}", file=sys.stderr)
    attempted, failed = len(records), len(problems)
    if args.trace:
        from spans import UNITS as units

        metrics = per_layer(result)
    else:
        units = END_TO_END_UNITS
        setup_s = statistics.median(setup_times) + result["setup_s"]
        metrics = end_to_end(plan, result, setup_s, failed, attempted)
    n = len(result["calls"])
    tail = "" if args.trace else f", call_ms_tail is p{100 * (n - 10) / n:.0f}"
    print(f"{args.workload}, seed {args.seed}: {n} untraced calls{tail}; "
          f"fail_ratio {failed / attempted:g} ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    started = perf_counter()
    if not (SRC / "isophote" / "__init__.py").is_file():
        print(f"bench: no isophote package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.started = started
    # On SIGTERM, unwind: subprocess.run kills and reaps the worker, finally removes the work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
