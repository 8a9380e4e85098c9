#!/usr/bin/env python3
"""Regenerate ``pins.json``: the exit code, verdict digest and artifact
digests of every pinned benchmark operation, at full and toy scale.

    python3 perfbench/pin.py

Run it only when a change is meant to alter verdicts or artifacts; the
pins exist so that every other change keeps them byte-identical.  Each
operation must also pass its cross-check before it is pinned.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH_DIR, REPO, _require_program, invoke


def main() -> int:
    _require_program()
    from opactrl import cli
    from workloads import FULL, TOY, WORKLOADS, Checker, fingerprint

    pins: dict[str, dict] = {}
    problems = []
    work = REPO / ".perfbench-work" / f"pin-{os.getpid()}"
    cwd = os.getcwd()
    try:
        for scale in (FULL, TOY):
            for name, setup in WORKLOADS.items():
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                ops = setup(work, 0, scale, REPO)
                os.chdir(work)
                try:
                    for op in ops:
                        outcome, _ = invoke(cli, op, None, 0)
                        problem = (
                            f"{op.key}: raised\n{outcome.error}"
                            if outcome.error is not None
                            else Checker({}).cross_check(op, outcome)
                        )
                        if problem is not None:
                            problems.append(problem)
                        elif op.pinned:
                            pins[op.key] = fingerprint(outcome)
                finally:
                    os.chdir(cwd)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"not pinned: {problem}", file=sys.stderr)
    if problems:
        return 1
    (BENCH_DIR / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
