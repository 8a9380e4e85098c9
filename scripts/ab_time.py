#!/usr/bin/env python3
"""Time two source trees of opactrl against each other in one process.

    python3 scripts/ab_time.py OLD_TREE NEW_TREE [--rounds 20]

Each tree's ``src/opactrl`` is imported under a name of its own
(``opactrl_old``, ``opactrl_new``), so both run in the same interpreter,
on the same heap and in the same phase of the host.  A host whose speed
drifts moves whole processes, and so separate runs of each tree, by up
to 1.5x; alternating inside one process cancels that drift.

The operations are the benchmark's own: the op lists that
``perfbench/workloads.py`` sets up for synth-random and verify-mixed
(seed 1, at ``workloads.FULL`` scale) in a temporary directory, each run through
``perfbench/run.py``'s ``invoke`` on one tree's ``cli`` module.
perfbench's set-up and checks import the old tree as ``opactrl``.

One untimed pass runs every op on both trees.  Each tree must pass the
benchmark's ``Checker`` against ``perfbench/pins.json``, and the two must
give equal fingerprints (exit code, verdict text and artifact digests)
and equal ``.manifest.json`` sidecars.  So must ``export-dot MODEL
--estimator --supervisor TABLE --mode M``, which must also exit 0, for
every table that verify-mixed verifies.  The script stops with exit 1
otherwise.

Then it times rounds.  Every call runs on both trees back to back, the
tree that goes first alternating from one call to the next, so that even
a change in the host's speed within a round hits both trees alike.  The
garbage collector stays on, as in the benchmark.  A round times, in this
order:

- "synthesize": ``synthesize`` in process on each synth-random op's model
  and mode;
- "cli.main": the synth-random ops.  The trees write their ``--out`` and
  ``--dot`` files into ``out0`` and ``out1``, one each, and swap them from
  one round to the next, so that a cost that differs between the
  directories falls on both trees alike;
- "verify": each verify-mixed op that verifies a synthesized structure,
  in process: reading the structure and verifying it;
- "mixed": the verify-mixed ops;
- "search": each verify-mixed op that verifies a table, in process,
  without reading the documents;
- "load": reading each document that the verify-mixed ops read, once.

Per metric it prints each tree's median and quartiles over the rounds, the
new tree's median as a ratio of the old tree's, and the number of rounds
the new tree won.  "cli p50", "cli p90", "mixed p50" and "mixed p90" are
the median and 90th percentile of a round's latencies.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import json
import os
import statistics
import sys
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parent.parent
# The seed of the benchmark's op lists; the corpus is fixed, and the seed
# draws verify-mixed's tables.
SEED = 1
ROWS = ("synthesize", "cli.main", "cli p50", "cli p90", "verify",
        "mixed", "mixed p50", "mixed p90", "search", "load")
# The rows that a round times, in the order it times them; the others are
# percentiles of "cli.main" and "mixed".
TIMED = ("synthesize", "cli.main", "verify", "mixed", "search", "load")


def load_tree(tree: Path, name: str):
    """The ``opactrl`` package of the checkout ``tree``, imported as
    ``name``."""
    init = tree / "src" / "opactrl" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no opactrl sources under {tree / 'src'}")
    for module in [m for m in sys.modules if m == name or m.startswith(f"{name}.")]:
        del sys.modules[module]
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("cli", "serialize"):
        importlib.import_module(f"{name}.{sub}")
    return package


def load_perfbench(old: Path):
    """perfbench's ``run`` and ``workloads`` modules, which import the old
    tree as ``opactrl``."""
    sys.path[:0] = [str(old / "src"), str(REPO / "perfbench")]
    opactrl = importlib.import_module("opactrl")
    if Path(opactrl.__file__).resolve().parent != old / "src" / "opactrl":
        raise SystemExit(f"error: opactrl is already imported from {opactrl.__file__}")
    return importlib.import_module("run"), importlib.import_module("workloads")


def moved(op, d: int):
    """``op`` with its artifacts in ``out{d}`` in place of ``out``."""
    def at(arg: str) -> str:
        return f"out{d}/{arg[4:]}" if arg.startswith("out/") else arg

    return dataclasses.replace(op, argv=[at(a) for a in op.argv],
                               artifacts=tuple(map(at, op.artifacts)))


def option(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def checked(run, workloads, checker, clis: dict, ops: list) -> str | None:
    """Run every op on both trees; the first problem found, or None."""
    for op in ops:
        results = {}
        for side, cli in clis.items():
            sidecars = [Path(f"{path}.manifest.json") for path in op.artifacts]
            for path in sidecars:
                path.unlink(missing_ok=True)
            outcome, _ = run.invoke(cli, op, None, 0)
            problem = checker.check(op, outcome)
            if problem is not None:
                return f"{side} tree: {problem}"
            results[side] = (workloads.fingerprint(outcome),
                             [p.read_bytes() if p.exists() else None for p in sidecars])
        if results["old"] != results["new"]:
            return f"{op.key}: the trees differ"
    return None


def exits_0(outcome) -> str | None:
    return None if outcome.code == 0 else f"exit {outcome.code}"


def cli_call(run, cli, op) -> float:
    return run.invoke(cli, op, None, 0)[1]


def timed(call, *args) -> float:
    begin = perf_counter()
    call(*args)
    return perf_counter() - begin


def verify_text(pkg, model, text: str, mode) -> None:
    """Read a structure document and verify it."""
    serialize = sys.modules[f"{pkg.__name__}.serialize"]
    pkg.verify_closed_loop_opacity(model, serialize.parse_supervisor_text(model, text), mode)


def alternate(r: int, calls: dict[str, list]) -> dict[str, list[float]]:
    """The latency of each call on each tree, the tree that goes first
    alternating from one call to the next."""
    out: dict[str, list[float]] = {side: [] for side in calls}
    for i in range(len(calls["old"])):
        for side in ("old", "new") if (r + i) % 2 == 0 else ("new", "old"):
            out[side].append(calls[side][i]())
    return out


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summary(name: str, old: list[float], new: list[float]) -> str:
    def quartiles(values):
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return f"{q2:8.2f} [{q1:.2f}, {q3:.2f}]"

    won = sum(n < o for o, n in zip(old, new))
    ratio = statistics.median(new) / statistics.median(old)
    return (
        f"{name:<13} ms  old {quartiles(old)}  new {quartiles(new)}  "
        f"new/old {ratio:.3f}  won {won}/{len(old)}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout of the old tree")
    parser.add_argument("new", type=Path, help="checkout of the new tree")
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds (at least 20)")
    args = parser.parse_args(argv)
    if args.rounds < 20:
        parser.error("--rounds must be at least 20")
    sides = {"old": load_tree(args.old.resolve(), "opactrl_old"),
             "new": load_tree(args.new.resolve(), "opactrl_new")}
    run, workloads = load_perfbench(args.old.resolve())
    clis = {side: sys.modules[f"{pkg.__name__}.cli"] for side, pkg in sides.items()}
    checker = workloads.Checker(json.loads((REPO / "perfbench" / "pins.json").read_text()))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            return measure(args.rounds, Path(tmp), sides, clis, run, workloads, checker)
        finally:
            os.chdir(cwd)


def measure(rounds: int, tmp: Path, sides, clis, run, workloads, checker) -> int:
    dirs = {name: tmp / name for name in ("synth-random", "verify-mixed")}
    ops = {}
    for name, work in dirs.items():
        work.mkdir()
        ops[name] = workloads.WORKLOADS[name](work, SEED, workloads.FULL, REPO)
    synth, mixed = ops["synth-random"], ops["verify-mixed"]
    # Each document that the verify-mixed ops read, once, in the order they
    # first read it: (None, model path) or (model path, policy path).
    documents = list(dict.fromkeys(
        doc for op in mixed
        for doc in ((None, op.argv[1]), (op.argv[1], option(op.argv, "--supervisor")))
        if doc[1] is not None))
    texts = {path: (dirs["verify-mixed"] / path).read_text() for _, path in documents}
    # (model path, policy path, mode) of each verify-mixed op that reads a
    # table, and of each that reads a structure.
    tables, structures = [], []
    for op in mixed:
        policy = option(op.argv, "--supervisor")
        if policy is not None:
            table = json.loads(texts[policy])["type"] == "supervisor-table"
            (tables if table else structures).append(
                (op.argv[1], policy, option(op.argv, "--mode")))
    slices = [workloads.Op(f"slice/{model}/{table}/{mode}",
                           ["export-dot", model, "--estimator", "--supervisor", table,
                            "--mode", mode], pinned=False, cross_check=exits_0)
              for model, table, mode in tables]
    for name, checks in (("synth-random", synth), ("verify-mixed", mixed + slices)):
        os.chdir(dirs[name])
        problem = checked(run, workloads, checker, clis, checks)
        if problem is not None:
            print(f"error: {name}: {problem}", file=sys.stderr)
            return 1
    print(f"{len(synth)} synth-random and {len(mixed)} verify-mixed ops pass their checks "
          f"on both trees; {len(slices)} estimator slices equal")

    models = {side: {path: pkg.PlantModel.from_json(texts[path])
                     for model, path in documents if model is None}
              for side, pkg in sides.items()}
    calls: dict[str, dict[str, list]] = {row: {} for row in TIMED}
    for side, pkg in sides.items():
        serialize, mode_of = sys.modules[f"{pkg.__name__}.serialize"], pkg.IssuanceMode
        calls["synthesize"][side] = [
            partial(timed, pkg.synthesize,
                    pkg.PlantModel.from_json((dirs["synth-random"] / op.argv[1]).read_text()),
                    pkg.SynthesisConfig(mode=mode_of(option(op.argv, "--mode"))))
            for op in synth]
        calls["verify"][side] = [
            partial(timed, verify_text, pkg, models[side][model], texts[policy], mode_of(mode))
            for model, policy, mode in structures]
        calls["search"][side] = [
            partial(timed, pkg.verify_closed_loop_opacity, models[side][model],
                    serialize.parse_supervisor_text(models[side][model], texts[table]),
                    mode_of(mode))
            for model, table, mode in tables]
        calls["mixed"][side] = [partial(cli_call, run, clis[side], op) for op in mixed]
        calls["load"][side] = [
            partial(timed, pkg.PlantModel.from_json, texts[path]) if model is None else
            partial(timed, serialize.parse_supervisor_text, models[side][model], texts[path])
            for model, path in documents]
    # Per output directory, the synth-random ops that write into it.
    (dirs["synth-random"] / "out0").mkdir()
    (dirs["synth-random"] / "out1").mkdir()
    outdirs = [[moved(op, d) for op in synth] for d in (0, 1)]
    print(f"{len(structures)} structure verifies, {len(tables)} table searches and "
          f"{len(calls['load']['old'])} document loads per round")

    results = {side: {row: [] for row in ROWS} for side in sides}
    for r in range(rounds):
        gc.collect()
        # In round r the old tree writes into out{r % 2}, the new one into
        # the other.
        calls["cli.main"] = {
            side: [partial(cli_call, run, clis[side], op) for op in outdirs[(r + k) % 2]]
            for k, side in enumerate(sides)}
        for row in TIMED:
            os.chdir(dirs["verify-mixed" if row == "mixed" else "synth-random"])
            for side, latencies in alternate(r, calls[row]).items():
                results[side][row].append(1e3 * sum(latencies))
                if row in ("cli.main", "mixed"):
                    prefix = row.split(".")[0]
                    results[side][f"{prefix} p50"].append(1e3 * statistics.median(latencies))
                    results[side][f"{prefix} p90"].append(1e3 * percentile(latencies, 90))
    print(f"{rounds} alternating rounds; medians with [quartiles] over rounds")
    for row in ROWS:
        print(summary(row, results["old"][row], results["new"][row]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
