#!/usr/bin/env python3
"""Sanity check of the tracer's counters on randgen seed 10, draw 0.

    python3 perfbench/count_seed10.py

This is the 12-state, 5-event, 4-controllable instance that the timed
corpus leaves out (about 11 s per mode).  The script runs ``opactrl
synthesize`` on it under the tracer, in each issuance mode, and prints
how many times ``estimator_step`` was called and on how many distinct
inputs: the reuse that a memoised successor kernel would remove.
"""

from __future__ import annotations

import os
import random
import shutil

from run import REPO, _require_program, invoke


def main() -> None:
    _require_program()
    from opactrl import cli
    from opactrl.randgen import random_model
    from spans import Tracer
    from workloads import CORPUS_CONFIG, CORPUS_SEED, MODES, Op, write_json

    model = random_model(random.Random(CORPUS_SEED), CORPUS_CONFIG)
    work = REPO / ".perfbench-work" / f"seed10-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        write_json(work / "model.json", model.to_dict())
        for mode in MODES:
            op = Op(f"seed10/{mode}", ["synthesize", str(work / "model.json"), "--mode", mode])
            tracer = Tracer().install()
            try:
                outcome, latency = invoke(cli, op, tracer, 0)
            finally:
                tracer.uninstall()
            calls = tracer.calls["estimator.step"]
            distinct = tracer.counters["estimator.step.distinct"]
            print(f"{mode}: exit {outcome.code}, {latency:.1f} s traced, "
                  f"estimator_step {calls} calls on {distinct} distinct inputs "
                  f"({calls / distinct:.1f} calls per input), "
                  f"arena {tracer.counters['synthesis.arena_states']} states")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
