#!/usr/bin/env python3
"""Time two source trees of opactrl against each other in one process.

    python3 scripts/ab_time.py OLD_TREE NEW_TREE [--rounds 20]

Each tree's ``src/opactrl`` is imported under a name of its own
(``opactrl_old``, ``opactrl_new``), so both run in the same interpreter,
on the same heap and in the same phase of the host.  A host whose speed
drifts moves whole processes, and so separate runs of each tree, by up
to 1.5x; alternating inside one process cancels that drift.

First the two trees must build the same thing: for the randgen seed-10
corpus (draws 1-25, the models of the benchmark's synth-random workload)
in both issuance modes, a digest of the arena sizes, the pruning
iterations and the bytes of every structure ``synthesize`` returns.  The
script stops with exit 1 when the digests differ.

Then it times rounds.  A round goes once through the operation list of
synth-random: ``cli.main(["synthesize", MODEL, "--mode", M, "--out", ...,
"--dot", ...])`` on the same models written to a temporary directory, both
modes, in a fixed order.  Each operation runs as a ``synthesize`` call on
both trees and then as a ``cli.main`` call on both trees, the tree that
goes first alternating from one operation to the next, so that even a
change in the host's speed within a round hits both trees alike.  The
garbage collector stays on, as in the benchmark.  Per metric it prints
each tree's median and quartiles over the rounds, the new tree's median
as a ratio of the old tree's, and the number of rounds the new tree won.
The metrics are the time of a round's ``synthesize`` calls, of its
``cli.main`` calls, and the median and 90th percentile of its
``cli.main`` latencies.

A round also verifies the structures that the benchmark's verify-mixed
workload synthesizes: ``locally_maximal`` in each own mode, for the
running example and the first 8 corpus models whose arenas stay within
500 states in both modes.  The old tree's structure documents are loaded
with ``serialize.parse_supervisor_text`` and checked with
``verify_closed_loop_opacity`` in both modes, the tree alternating per
call; the metric "verify" is the time of a round's verify calls.  Before
timing, both trees must give the same verdicts and counterexamples, or
the script stops with exit 1.

Last, a round goes once through a list like verify-mixed's, as
``cli.main(["verify", ...])`` calls on files in the temporary directory,
the tree alternating per call: the running example under its two tables,
3 random tables per corpus model (``randgen.random_supervisor``, seed 3)
and those structures, each in both modes, and the open loop of the
running example and of every corpus model.  The untimed pass must give
equal exit codes, 0 or 1, and equal stdout on both trees.  The metrics
"mixed", "mixed p50" and "mixed p90" are the time of a round's calls and
the median and 90th percentile of their latencies; they carry the fixed
cost of a call (arguments, reading and parsing its documents) that the
in-process metrics above leave out.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import random
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

CORPUS_DRAWS = 25
MODES = ("observation", "decision")
RUN_MODEL = Path(__file__).resolve().parent.parent / "models" / "run.json"
# verify-mixed verifies the structures of the first corpus models whose
# arena stays within this size guard in both modes.
STRUCTURE_MODELS = 8
STRUCTURE_ARENA_LIMIT = 500
# The random tables of the verify-mixed-like list: per corpus model, drawn
# from one seed.
TABLES_PER_MODEL = 3
TABLE_SEED = 3


def load_tree(tree: Path, name: str):
    """The ``opactrl`` package of the checkout ``tree``, imported as
    ``name``."""
    init = tree / "src" / "opactrl" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no opactrl sources under {tree / 'src'}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("cli", "serialize", "randgen"):
        importlib.import_module(f"{name}.{sub}")
    return package


def corpus_docs(pkg) -> list[dict]:
    """Model documents of the seed-10 corpus, draws 1-25."""
    randgen = sys.modules[f"{pkg.__name__}.randgen"]
    rng = random.Random(10)
    config = randgen.RandomModelConfig(
        min_states=8, max_states=12, min_events=5, max_events=6
    )
    draws = [randgen.random_model(rng, config) for _ in range(CORPUS_DRAWS + 1)]
    return [model.to_dict() for model in draws[1:]]


def synthesis_digest(pkg, docs: list[dict]) -> str:
    serialize = sys.modules[f"{pkg.__name__}.serialize"]
    h = hashlib.sha256()
    for doc in docs:
        model = pkg.PlantModel.from_dict(doc)
        for mode in MODES:
            outcome = pkg.synthesize(model, pkg.SynthesisConfig(mode=pkg.IssuanceMode(mode)))
            h.update(
                repr(
                    (
                        outcome.arena_states_before,
                        outcome.arena_states_after,
                        outcome.pruning_iterations,
                    )
                ).encode()
            )
            if outcome.solved:
                h.update(serialize.structure_to_json(outcome.structure).encode())
    return h.hexdigest()


def model_name(i: int) -> str:
    """The file stem of corpus draw ``i`` (from 1); "run" is the running
    example."""
    return f"r{i:02d}"


def structure_texts(pkg, docs: list[dict]) -> list[tuple[str, dict, str]]:
    """(model name, model document, structure document) for every
    structure that verify-mixed verifies, as ``pkg`` synthesizes them."""
    serialize = sys.modules[f"{pkg.__name__}.serialize"]
    out: list[tuple[str, dict, str]] = []

    def add(name: str, doc: dict) -> bool:
        """Add the structures of ``doc``; False when its arena exceeds the
        limit in some mode."""
        model = pkg.PlantModel.from_dict(doc)
        try:
            outcomes = [
                pkg.synthesize(model, pkg.SynthesisConfig(
                    pkg.IssuanceMode(own), "locally_maximal", STRUCTURE_ARENA_LIMIT))
                for own in MODES
            ]
        except pkg.SizeGuardExceeded:
            return False
        out.extend((name, doc, serialize.structure_to_json(outcome.structure))
                   for outcome in outcomes if outcome.solved)
        return True

    add("run", json.loads(RUN_MODEL.read_text()))
    models = 0
    for i, doc in enumerate(docs, start=1):
        if models == STRUCTURE_MODELS:
            break
        models += add(model_name(i), doc)
    return out


def verify_argvs(pkg, work: Path, docs: list[dict],
                 texts: list[tuple[str, dict, str]]) -> list[list[str]]:
    """The ``verify`` argvs of the verify-mixed-like list, over files that
    it writes to ``work``, where the corpus models already are."""
    randgen = sys.modules[f"{pkg.__name__}.randgen"]
    (work / "run.json").write_text(RUN_MODEL.read_text())
    policies = [("run", RUN_MODEL.with_name(f"{name}.json").read_text())
                for name in ("srun", "sprime")]
    rng = random.Random(TABLE_SEED)
    for i, doc in enumerate(docs, start=1):
        model = pkg.PlantModel.from_dict(doc)
        policies.extend(
            (model_name(i), json.dumps(randgen.random_supervisor(rng, model).to_dict()))
            for _ in range(TABLES_PER_MODEL)
        )
    policies.extend((name, text) for name, _, text in texts)
    argvs = [["verify", str(work / "run.json"), "--open-loop"]]
    argvs += [["verify", str(work / f"{model_name(i)}.json"), "--open-loop"]
              for i in range(1, len(docs) + 1)]
    for j, (name, text) in enumerate(policies):
        path = work / f"policy-{j:03d}.json"
        path.write_text(text)
        argvs += [["verify", str(work / f"{name}.json"), "--supervisor", str(path),
                   "--mode", mode] for mode in MODES]
    return argvs


def verify_call(pkg, model, text: str, mode) -> tuple[float, tuple]:
    """The latency of loading and verifying one structure document, and
    the verdict with its counterexample."""
    serialize = sys.modules[f"{pkg.__name__}.serialize"]
    begin = perf_counter()
    verdict = pkg.verify_closed_loop_opacity(
        model, serialize.parse_supervisor_text(model, text), mode)
    return perf_counter() - begin, (verdict.opaque, verdict.counterexample)


def cli_call(pkg, argv: list[str]) -> tuple[float, int, str]:
    """The latency, exit code and stdout of one ``cli.main`` call."""
    main = sys.modules[f"{pkg.__name__}.cli"].main
    with contextlib.redirect_stdout(io.StringIO()) as out:
        begin = perf_counter()
        code = main(argv)
        return perf_counter() - begin, code, out.getvalue()


def synthesize_call(pkg, model, cfg) -> float:
    begin = perf_counter()
    pkg.synthesize(model, cfg)
    return perf_counter() - begin


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
    docs = corpus_docs(sides["old"])
    digests = {side: synthesis_digest(pkg, docs) for side, pkg in sides.items()}
    for side, digest in digests.items():
        print(f"{side} synthesis digest: {digest}")
    if digests["old"] != digests["new"]:
        print("error: the trees synthesize different results", file=sys.stderr)
        return 1

    # Per side, the synthesize calls in operation order.
    jobs = {
        side: [
            (pkg.PlantModel.from_dict(doc), pkg.SynthesisConfig(mode=pkg.IssuanceMode(mode)))
            for doc in docs
            for mode in MODES
        ]
        for side, pkg in sides.items()
    }
    # Per side, the verify calls: (model, structure document, mode).
    texts = structure_texts(sides["old"], docs)
    checks = {
        side: [
            (pkg.PlantModel.from_dict(doc), text, pkg.IssuanceMode(mode))
            for _, doc, text in texts
            for mode in MODES
        ]
        for side, pkg in sides.items()
    }
    verdicts = {side: [verify_call(sides[side], *check)[1] for check in checks[side]]
                for side in sides}
    if verdicts["old"] != verdicts["new"]:
        print("error: the trees give different verdicts", file=sys.stderr)
        return 1
    print(f"{len(texts)} structures, {len(checks['old'])} verify calls per round")
    results: dict[str, dict[str, list[float]]] = {
        side: {"synthesize": [], "cli.main": [], "cli p50": [], "cli p90": [], "verify": [],
               "mixed": [], "mixed p50": [], "mixed p90": []}
        for side in sides
    }
    with tempfile.TemporaryDirectory() as work:
        argvs = []
        for i, doc in enumerate(docs, start=1):
            path = Path(work) / f"{model_name(i)}.json"
            path.write_text(json.dumps(doc))
            for mode in MODES:
                stem = Path(work) / f"{model_name(i)}-{mode}"
                argvs.append(["synthesize", str(path), "--mode", mode,
                              "--out", f"{stem}.json", "--dot", f"{stem}.dot"])
        # One untimed pass each, so that imports and lazy set-up are done;
        # the exit codes must agree (3 is "no supervisor exists").
        codes = {side: [cli_call(pkg, argv)[1] for argv in argvs]
                 for side, pkg in sides.items()}
        if codes["old"] != codes["new"] or not set(codes["old"]) <= {0, 3}:
            print(f"error: exit codes differ or fail: {codes}", file=sys.stderr)
            return 1
        mixed = verify_argvs(sides["old"], Path(work), docs, texts)
        outputs = {side: [cli_call(pkg, argv)[1:] for argv in mixed]
                   for side, pkg in sides.items()}
        if outputs["old"] != outputs["new"] or not {c for c, _ in outputs["old"]} <= {0, 1}:
            print("error: the verify calls differ or fail", file=sys.stderr)
            return 1
        print(f"{len(mixed)} verify calls through cli.main per round")
        for r in range(args.rounds):
            gc.collect()
            synthesized = {side: 0.0 for side in sides}
            latencies: dict[str, list[float]] = {side: [] for side in sides}
            # Each operation runs on both trees back to back, the first tree
            # alternating, so that a change in the host's speed hits both.
            for i, argv in enumerate(argvs):
                order = ("old", "new") if (r + i) % 2 == 0 else ("new", "old")
                for side in order:
                    synthesized[side] += synthesize_call(sides[side], *jobs[side][i])
                for side in order:
                    latencies[side].append(cli_call(sides[side], argv)[0])
            verified = {side: 0.0 for side in sides}
            for j in range(len(checks["old"])):
                order = ("old", "new") if (r + j) % 2 == 0 else ("new", "old")
                for side in order:
                    verified[side] += verify_call(sides[side], *checks[side][j])[0]
            mixed_latencies: dict[str, list[float]] = {side: [] for side in sides}
            for k, argv in enumerate(mixed):
                order = ("old", "new") if (r + k) % 2 == 0 else ("new", "old")
                for side in order:
                    mixed_latencies[side].append(cli_call(sides[side], argv)[0])
            for side in sides:
                results[side]["mixed"].append(1e3 * sum(mixed_latencies[side]))
                results[side]["mixed p50"].append(1e3 * statistics.median(mixed_latencies[side]))
                results[side]["mixed p90"].append(1e3 * percentile(mixed_latencies[side], 90))
                results[side]["synthesize"].append(1e3 * synthesized[side])
                results[side]["cli.main"].append(1e3 * sum(latencies[side]))
                results[side]["cli p50"].append(1e3 * statistics.median(latencies[side]))
                results[side]["cli p90"].append(1e3 * percentile(latencies[side], 90))
                results[side]["verify"].append(1e3 * verified[side])
    print(f"{args.rounds} alternating rounds; medians with [quartiles] over rounds")
    for metric in results["old"]:
        print(summary(metric, results["old"][metric], results["new"][metric]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
