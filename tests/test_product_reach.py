"""Product modules hold what a command runs: a fixed corpus of ``cli.main``
calls, run in process under a call recorder, calls every function that the
product modules define, apart from a declared list.  Each declared function
carries the reason it stays, and one that a command does call fails the
test too, so the list can only shrink."""

import ast
import contextlib
import io
import json
import os
import random
import sys

from conftest import MODELS
from opactrl import cli
from opactrl.randgen import RandomModelConfig, random_model
from test_oracles_module import PACKAGE, PRODUCT_MODULES

PERFBENCH = "perfbench reads it, until ROADMAP items 3 and 4 replace that read"
ARENA = "a reference over the arena's private ids, until ROADMAP item 10"
VALUE = "value protocol"

# Each product function that no command calls, by module and qualified
# name, with the reason it stays where it is.
UNREACHED = {
    "estimator.closed_loop_simulate": PERFBENCH,
    "estimator.estimator_trace": PERFBENCH,
    "model.PlantModel.__repr__": VALUE,
    "model.PlantModel.n_transitions": f"{VALUE}: only __repr__ reads it",
    "model.PlantModel.to_dict": PERFBENCH,
    "structure.ControlStructure.__eq__": VALUE,
    "structure.ControlStructure.__hash__": VALUE,
    "structure.ControlStructure.__repr__": VALUE,
    "structure.ControlStructure.canonical_form": f"{VALUE}: __eq__ and __hash__ read it",
    "structure.OpacityVerdict.__bool__": VALUE,
    "structure.Successors.intern": "it reads the kernel's private core table",
    "structure.make_info": f"{PERFBENCH}: nx_is and ur_is call it",
    "structure.nx_is": PERFBENCH,
    "structure.ur_is": PERFBENCH,
    "supervisors.Supervisor.decision": PERFBENCH,
    "supervisors.Supervisor.observation_signature": PERFBENCH,
    "supervisors.TabularSupervisor.to_dict": PERFBENCH,
    "synthesis.Arena.__repr__": VALUE,
    "synthesis.Arena._dict_views": ARENA,
    "synthesis.Arena.decision_edges": ARENA,
    "synthesis.Arena.observation_events": ARENA,
    "synthesis.Arena.pruning_trace": PERFBENCH,
}


def _product_functions() -> dict[tuple[str, int, str], str]:
    """Every function that the product modules define, nested ones included,
    keyed as a call's code object names it: (file, line, name), where the
    line is that of the ``def`` or of its first decorator.  The value is the
    qualified name, prefixed by the module."""
    out = {}
    for module in PRODUCT_MODULES:
        path = os.path.realpath(PACKAGE / f"{module}.py")

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}.{child.name}"
                    for line in {child.lineno, *(d.lineno for d in child.decorator_list[:1])}:
                        out[path, line, child.name] = name
                    visit(child, name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
                else:
                    visit(child, prefix)

        with open(path) as source:
            visit(ast.parse(source.read()), module)
    return out


def _write(path, text) -> str:
    path.write_text(text)
    return str(path)


def _corpus(tmp):
    """Yield the ``cli.main`` argument lists, each with the exit code it
    must give (None: any verdict, 0, 1 or 3).  Later calls read what earlier
    ones wrote."""
    run, srun, sprime = (str(MODELS / f) for f in ("run.json", "srun.json", "sprime.json"))
    yield [], 2
    yield ["-h"], 0
    structures = []
    for mode in ("observation", "decision"):
        for policy in ("first_feasible", "locally_maximal"):
            out = str(tmp / f"{mode}-{policy}.json")
            structures.append(out)
            yield ["synthesize", run, "--mode", mode, "--policy", policy,
                   "--out", out, "--dot", str(tmp / f"{mode}-{policy}.dot")], 0
            yield ["verify", run, "--supervisor", out, "--mode", mode], 0
    for table, mode, code in ((srun, "observation", 1), (srun, "decision", 0),
                              (sprime, "observation", 0)):
        yield ["verify", run, "--supervisor", table, "--mode", mode], code
    yield ["verify", run, "--open-loop"], 0
    yield ["verify", run, "--supervisor", srun, "--size-guard", "2"], 2
    yield ["synthesize", run, "--size-guard", "3"], 2
    yield ["synthesize", run, "--policy", "enumerate_all"], 2
    # A structure whose first observation state lists one member too few.
    doc = json.loads((tmp / "decision-locally_maximal.json").read_text())
    doc["observation_states"][0]["members"].pop()
    falsified = _write(tmp / "falsified.json", json.dumps(doc))
    yield ["verify", run, "--supervisor", falsified, "--mode", "decision"], 2
    yield ["export-dot", falsified, "--model", run], 2
    yield ["export-dot", run], 0
    yield ["export-dot", structures[0], "--model", run, "--out", str(tmp / "s.dot")], 0
    yield ["export-dot", run, "--estimator", "--supervisor", srun, "--depth", "3",
           "--out", str(tmp / "slice.dot")], 0
    yield ["estimate", run, "--flow", str(MODELS / "example2.flow")], 0
    yield ["estimate", run, "--flow", str(MODELS / "example9.flow"), "--mode", "decision"], 0
    # No decision hides the secret: u, which no decision disables, shows it.
    doomed = _write(tmp / "doomed.json", json.dumps({
        "states": ["s0", "s1"], "events": ["u"], "initial": "s0", "secret": ["s1"],
        "transitions": [["s0", "u", "s1"]], "observable_supervisor": ["u"],
        "observable_intruder": ["u"], "controllable": [],
    }))
    yield ["synthesize", doomed], 3
    # Malformed input reaches the readers that only an error calls.
    bad_transition = _write(tmp / "transition.json", json.dumps({
        "states": ["s"], "events": ["a"], "initial": "s", "transitions": [["s", "a"]],
    }))
    yield ["verify", _write(tmp / "bad.json", "{"), "--open-loop"], 2
    yield ["verify", bad_transition, "--open-loop"], 2
    yield ["verify", str(tmp / "missing.json"), "--open-loop"], 2
    rng = random.Random(3)
    config = RandomModelConfig(min_states=4, max_states=7, min_events=3, max_events=4)
    for i in range(6):
        model = _write(tmp / f"random{i}.json", json.dumps(random_model(rng, config).to_dict()))
        mode = ("observation", "decision")[i % 2]
        out = tmp / f"random{i}-structure.json"
        yield ["synthesize", model, "--mode", mode, "--out", str(out)], None
        if out.exists():
            yield ["verify", model, "--supervisor", str(out), "--mode", mode], 0


def _run_recorded(corpus) -> set[tuple[str, int, str]]:
    """Run each call of ``corpus``, checking its exit code, and return the
    (file, first line, name) of every code object called while one ran."""
    called = set()

    def record(frame, event, arg):
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))

    # The parser is built once per process: build it again under the recorder.
    cli.build_parser.cache_clear()
    previous = sys.gettrace()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv, expected in corpus:
            sys.settrace(record)
            try:
                code = cli.main(argv)
            finally:
                sys.settrace(previous)
            assert code in ((0, 1, 3) if expected is None else (expected,)), argv
    return {(os.path.realpath(f), line, name) for f, line, name in called}


def test_every_product_function_is_called_by_a_command_or_declared(tmp_path):
    called = _run_recorded(_corpus(tmp_path))
    functions = _product_functions()
    reached = {name for key, name in functions.items() if key in called}
    defined = set(functions.values())
    assert sorted(defined - reached - UNREACHED.keys()) == [], "uncalled and undeclared"
    assert sorted(reached & UNREACHED.keys()) == [], "declared, but a command calls it"
    assert sorted(UNREACHED.keys() - defined) == [], "declared, but not defined"
    assert all(reason.strip() for reason in UNREACHED.values())
