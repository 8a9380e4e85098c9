#!/usr/bin/env python3
"""The opactrl benchmark: one workload per process, one caller, closed loop.

    python3 perfbench/run.py --workload synth-random --seed 1 --seconds 50 --trace 0

Set-up generates the workload's inputs from the seed in a scratch
directory of the checkout.  The run drives ``opactrl.cli.main``
in-process, one operation at a time, over whole passes of the
seed-ordered operation list for about ``--seconds``, and checks every
output.  Set-up is repeated between passes, to time it by its median.
With ``--trace 1`` the untraced passes are followed by exactly one traced
pass, which gives the per-layer figures.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SETUP_REPEATS = 9
MIN_SAMPLES = 100  # so that p90 has ten samples beyond it


def _require_program() -> None:
    if not (REPO / "src" / "opactrl" / "cli.py").is_file():
        raise SystemExit(f"error: opactrl sources not found under {REPO / 'src'}")
    sys.path.insert(0, str(REPO / "src"))


def invoke(cli, op, tracer, op_id: int):
    """Run one CLI operation in-process; return its outcome and latency."""
    from workloads import Outcome

    # A file left by an earlier pass must not stand in for one this call
    # failed to write.
    for path in op.artifacts:
        Path(path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    if tracer is not None:
        tracer.begin_op(op_id)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception:  # a traceback is a failed operation, not the end of the run
            code, error = None, traceback.format_exc()
        latency = perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    digests = {}
    for path in op.artifacts:
        try:
            digests[path] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        except OSError:
            digests[path] = "missing"
    return Outcome(code, out.getvalue(), error, digests), latency


def run_pass(cli, ops, checker, tracer=None):
    """One pass over ``ops``; returns latencies and failure reasons.  Checks
    run after the pass, so that none of their calls reach the tracer."""
    outcomes = [invoke(cli, op, tracer, i) for i, op in enumerate(ops)]
    if tracer is not None:
        tracer.uninstall()
    failures = []
    for op, (outcome, _) in zip(ops, outcomes):
        problem = checker.check(op, outcome)
        if problem is not None:
            failures.append(problem)
    return [latency for _, latency in outcomes], failures


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale=None,
                 pins: dict | None = None) -> dict:
    from opactrl import cli
    from spans import Tracer
    from workloads import FULL, WORKLOADS, Checker

    scale = scale or FULL
    if pins is None:
        pins = json.loads((BENCH_DIR / "pins.json").read_text())
    setup = WORKLOADS[name]
    work = REPO / ".perfbench-work" / f"{name}-{os.getpid()}"
    cwd = os.getcwd()
    setup_times: list[float] = []

    def set_up():
        """Write the inputs afresh and time it; return the seed-ordered ops."""
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = perf_counter()
        ops = setup(work, seed, scale, REPO)
        setup_times.append(perf_counter() - start)
        random.Random(f"order-{seed}").shuffle(ops)
        os.chdir(work)
        return ops

    try:
        checker = Checker(pins)
        ops = set_up()
        gc.collect()
        latencies, failures, passes = [], [], 0
        min_passes = math.ceil(MIN_SAMPLES / len(ops))
        wall = perf_counter()
        # Whole passes only, so that every run times the same operation mix;
        # the run ends at the pass boundary nearest the deadline.  Set-ups are
        # spread over the run, so that their median sees the same host as
        # the operations do.
        while True:
            elapsed = perf_counter() - wall
            if passes >= min_passes and elapsed + elapsed / passes / 2 >= seconds:
                break
            while (len(setup_times) < SETUP_REPEATS
                   and elapsed >= len(setup_times) * seconds / SETUP_REPEATS):
                ops = set_up()
            lat, fail = run_pass(cli, ops, checker)
            latencies += lat
            failures += fail
            passes += 1
        while len(setup_times) < SETUP_REPEATS:
            ops = set_up()
        if trace:
            tracer = Tracer().install()
            traced_lat, fail = run_pass(cli, ops, checker, tracer)
            failures += fail
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(latencies) + (len(ops) if trace else 0)
    timed_s = sum(latencies)
    print(f"{name}: seed {seed}, {len(ops)} ops per pass, {passes} untraced passes, "
          f"{len(latencies)} latency samples, {len(failures)} failed "
          f"(failed_ratio {len(failures) / attempted:.4f})")
    for problem in failures[:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    if trace:
        trace_dir = REPO / ".perfbench-traces"
        tracer.write(trace_dir / f"{name}-seed{seed}-{os.getpid()}.json")
        metrics = {k: (v, unit) for k, (v, unit) in tracer.layer_metrics().items()}
        metrics["trace.overhead_ratio"] = (
            sum(traced_lat) / (timed_s / passes), "ratio")
    else:
        metrics = {
            "ops_per_s": ((len(latencies) - len(failures)) / timed_s, "1/s"),
            "latency_p50_ms": (1000 * percentile(latencies, 50), "ms"),
            "latency_p90_ms": (1000 * percentile(latencies, 90), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["synth-random", "prune-chain", "verify-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _require_program()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
