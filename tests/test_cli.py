"""Serialization round-trips, DOT rendering, the command-line surface, and
its exit-code contract."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEC, MODELS, OBS, REPO_ROOT, observer_blowup_model
from opactrl import PlantModel, information_flow, structure_from_policy
from opactrl import cli, dot, structure
from opactrl.cli import main
from opactrl.dot import estimator_slice_to_dot, model_to_dot, structure_to_dot
from opactrl.estimator import closed_loop_simulate, estimator_trace
from opactrl.model import ModelFormatError
from opactrl.randgen import RandomModelConfig, random_model, random_supervisor
from opactrl.oracles import format_flow, structure_to_dict
from opactrl.serialize import dump_json, parse_flow, structure_from_dict, structure_to_json
from opactrl.synthesis import EXTRACTION_POLICIES, SynthesisConfig, synthesize


def test_model_round_trip(run_model):
    doc = run_model.to_dict()
    again = PlantModel.from_dict(json.loads(dump_json(doc)))
    assert again.to_dict() == doc


def test_structure_round_trip(run_model, srun, sprime):
    for sup, mode in ((srun, OBS), (sprime, OBS), (srun, DEC)):
        structure = structure_from_policy(run_model, sup, mode)
        doc = json.loads(structure_to_json(structure))
        assert structure_from_dict(run_model, doc) == structure


def assert_laid_out_as_dump_json(structure):
    """The structure's document is the one ``json`` lays out with indent 2,
    and it reads back as the structure."""
    text = structure_to_json(structure)
    assert json.dumps(json.loads(text), indent=2) + "\n" == text
    assert structure_to_dict(structure) == json.loads(text)
    assert structure_from_dict(structure.model, json.loads(text)) == structure


@given(st.integers(0, 10**9), st.sampled_from(EXTRACTION_POLICIES), st.sampled_from([OBS, DEC]))
@settings(max_examples=60, deadline=None)
def test_structure_document_is_laid_out_as_dump_json(seed, policy, mode):
    model = random_model(random.Random(seed), RandomModelConfig(max_states=6, max_events=4))
    try:
        outcome = synthesize(model, SynthesisConfig(mode, policy, 20_000))
    except structure.SizeGuardExceeded:
        return
    if outcome.solved:
        assert_laid_out_as_dump_json(outcome.structure)


# Names that JSON must escape: a quote, a backslash, control characters and
# text outside ASCII.
ODD_STATES = ['q"0', "q\\1", "q\x07", "\u00e9\u6f22"]
ODD_EVENTS = ['a"', "b\\", "c\x01", "\u00fc"]


@pytest.mark.parametrize("mode", [OBS, DEC])
def test_structure_document_escapes_names_and_lays_out_empty_lists(mode):
    """With every event controllable, ``first_feasible`` commits the empty
    decision, so the structure has one observation state and no
    observation transition; ``locally_maximal`` enables every event and
    observes each.  Both documents are laid out as ``json`` lays them out."""
    q, e = ODD_STATES, ODD_EVENTS
    model = PlantModel.from_dict({
        "states": q,
        "events": e,
        "initial": q[0],
        "secret": [q[3]],
        "transitions": [[q[0], e[0], q[1]], [q[1], e[1], q[2]], [q[2], e[2], q[3]],
                        [q[3], e[3], q[0]], [q[0], e[3], q[2]]],
        "observable_supervisor": e,
        "observable_intruder": [e[0], e[3]],
        "controllable": e,
    })
    empty = synthesize(model, SynthesisConfig(mode, "first_feasible")).structure
    doc = json.loads(structure_to_json(empty))
    assert [d["decision"] for d in doc["decision_states"]] == [[]]
    assert doc["observation_transitions"] == []
    assert '"decision": [],' in structure_to_json(empty)
    assert '"observation_transitions": []\n}\n' in structure_to_json(empty)
    assert_laid_out_as_dump_json(empty)
    full = synthesize(model, SynthesisConfig(mode, "locally_maximal")).structure
    text = structure_to_json(full)
    assert json.loads(text)["decision_states"][0]["decision"] == e
    assert json.loads(text)["observation_transitions"]
    for escaped in ('"a\\""', '"b\\\\"', '"c\\u0001"', '"\\u00fc"', '"q\\u0007"',
                    '"\\u00e9\\u6f22"'):
        assert escaped in text
    assert_laid_out_as_dump_json(full)


# A DOT string: a quote, then characters other than a quote, a backslash or
# a line break, or a backslash and the character it escapes, then a quote.
DOT_STRING = re.compile(r'"((?:[^"\\\n]|\\.)*)"')


def dot_strings(text):
    """The quoted strings of a DOT text, unescaped.  Every string must close
    on its line, so no quote is left over once they are taken out."""
    for line in text.splitlines():
        assert '"' not in DOT_STRING.sub("", line), f"unclosed string in {line!r}"
    return [re.sub(r"\\(.)", r"\1", s) for s in DOT_STRING.findall(text)]


@pytest.mark.parametrize("mode", [OBS, DEC])
def test_dot_escapes_backslashes_and_quotes_in_names(mode):
    """A name may end in a backslash or hold a quote; each of the three
    renderers writes it as a DOT string that closes and reads back as the
    name."""
    q, e = [*ODD_STATES, "s1\\"], ODD_EVENTS
    model = PlantModel.from_dict({
        "states": q,
        "events": e,
        "initial": q[0],
        "secret": [q[3]],
        "transitions": [[q[0], e[0], q[1]], [q[1], e[1], q[4]], [q[4], e[2], q[3]],
                        [q[3], e[3], q[0]], [q[0], e[1], q[2]]],
        "observable_supervisor": e,
        "observable_intruder": [e[0], e[3]],
        "controllable": e,
    })
    assert set(dot_strings(model_to_dot(model))) == {*q, *e}
    full = synthesize(model, SynthesisConfig(mode, "locally_maximal")).structure
    labels = dot_strings(structure_to_dot(full))
    names = {name.strip() for label in labels for name in re.split(r"[(),{}]", label)}
    assert {"s1\\", "b\\"} <= names
    labels = dot_strings(estimator_slice_to_dot(model, full.decoded(), mode, 6))
    assert any(label.startswith("s1\\,") for label in labels)


def test_structure_dict_rejects_inconsistent_transitions(run_model, srun):
    structure = structure_from_policy(run_model, srun, OBS)
    doc = structure_to_dict(structure)
    doc["observation_transitions"][0][2] = (
        doc["observation_transitions"][-1][2]
    )
    with pytest.raises(ModelFormatError):
        structure_from_dict(run_model, doc)


def test_flow_round_trip(run_model, srun):
    flow = information_flow(run_model, run_model.word("a u1 u2 u2"), srun, OBS)
    text = format_flow(run_model, flow)
    assert parse_flow(run_model, text) == flow
    with pytest.raises(ModelFormatError, match="malformed flow line"):
        parse_flow(run_model, "event=a decision=-")
    with pytest.raises(ModelFormatError, match="uncontrollable"):
        parse_flow(run_model, "event=-, decision={u1}")
    with pytest.raises(ModelFormatError, match="empty"):
        parse_flow(run_model, "")


def test_model_dot_counts(run_model):
    dot = model_to_dot(run_model)
    assert len(re.findall(r"shape=circle", dot)) == 8
    transition_edges = [
        line for line in dot.splitlines() if "->" in line and "label=" in line
    ]
    assert len(transition_edges) == 10
    assert dot.count("fillcolor=red") == 1  # one secret state


def test_structure_dot_golden_shape(run_model, srun):
    structure = structure_from_policy(run_model, srun, OBS)
    dot = structure_to_dot(structure)
    assert len(re.findall(r"style=rounded", dot)) == len(structure.decisions)
    shape_boxes = len(re.findall(r"shape=box", dot))
    assert shape_boxes == len(structure.decisions) + len(structure.observations)
    edge_count = len([l for l in dot.splitlines() if "->" in l])
    expected_edges = len(structure.decisions) + sum(
        len(v) for v in structure.observations.values()
    )
    assert edge_count == expected_edges


def test_extracted_structure_dot_golden_counts(run_model, sprime):
    """Frozen shape of the structure of the reference policy: 7 decision and
    7 observation states, 13 edges (7 decisions plus 6 observation
    transitions)."""
    dot = structure_to_dot(structure_from_policy(run_model, sprime, OBS))
    assert len(re.findall(r"style=rounded", dot)) == 7
    assert len(re.findall(r"shape=box", dot)) == 14
    assert len([l for l in dot.splitlines() if "->" in l]) == 13


def test_estimator_slice_dot(run_model, srun):
    dot = estimator_slice_to_dot(run_model, srun, OBS, depth=4)
    assert "m0" in dot
    assert '(7,{7})' in dot.replace('"', "") or "7,{7}" in dot


def _state_label(model, m):
    return (
        f"{model.states[m.plant_state]},{model.format_state_set(m.estimate)},"
        f"{model.format_decision(m.decision)}"
    )


def slice_sets(dot: str):
    """The node and edge sets of an estimator slice, by label: a node's label
    names its estimator state, so the sets do not depend on the numbering."""
    labels = dict(re.findall(r'^  (n\d+) \[shape=box, label="(.*)"\];$', dot, re.M))
    labels["m0"] = "m0"
    edges = re.findall(r'^  (m0|n\d+) -> (n\d+) \[label="(.*)"\];$', dot, re.M)
    return set(labels.values()), {(labels[a], labels[b], e) for a, b, e in edges}


def recursive_slice_sets(model, sup, mode, depth):
    """The slice's node and edge sets by re-simulating every closed-loop
    string of at most ``depth`` events from scratch: the recursive slicer
    that the breadth-first one replaced, kept as its reference."""
    nodes, edges = {"m0"}, set()

    def explore(s):
        result = closed_loop_simulate(model, sup, s)
        if not result.accepted:
            return
        prev = "m0"
        for event, m in zip(result.trace, estimator_trace(model, result.trace, mode)):
            label = _state_label(model, m)
            name = "-" if event.event is None else model.events[event.event]
            nodes.add(label)
            edges.add((prev, label, f"{name},{model.format_decision(event.decision)}"))
            prev = label
        if len(s) < depth:
            for e in range(len(model.events)):
                explore(s + (e,))

    explore(())
    return nodes, edges


@given(st.integers(0, 10**9), st.sampled_from([OBS, DEC]), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_estimator_slice_matches_recursive_slicer(seed, mode, depth):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=5, max_events=3))
    sup = random_supervisor(rng, model)
    assert slice_sets(estimator_slice_to_dot(model, sup, mode, depth)) == (
        recursive_slice_sets(model, sup, mode, depth)
    )


@pytest.mark.parametrize("mode", [OBS, DEC])
def test_estimator_slice_stops_stepping_once_saturated(mode, monkeypatch):
    """Randgen seed-10 draw 11 under one seeded table: the slice stops
    growing by depth 8, where re-simulating every prefix took time growing
    about 2.5x per level.  Deeper slices take no more moves of the
    closed-loop search."""
    rng = random.Random(10)
    config = RandomModelConfig(min_states=8, max_states=12, min_events=5, max_events=6)
    model = [random_model(rng, config) for _ in range(12)][11]
    sup = random_supervisor(random.Random(4), model)
    moves = 0
    search = dot.closed_loop_search

    def counting_search(*args, **kwargs):
        nonlocal moves
        for move in search(*args, **kwargs):
            moves += 1
            yield move

    monkeypatch.setattr(dot, "closed_loop_search", counting_search)
    shallow = slice_sets(estimator_slice_to_dot(model, sup, mode, 8))
    moves_at_8, moves = moves, 0
    assert slice_sets(estimator_slice_to_dot(model, sup, mode, 30)) == shallow
    assert moves == moves_at_8


# Command-line interface ----------------------------------------------------

RUN = str(MODELS / "run.json")
SRUN = str(MODELS / "srun.json")
SPRIME = str(MODELS / "sprime.json")


def test_cli_verify_open_loop(capsys):
    assert main(["verify", RUN, "--open-loop"]) == 0
    assert "opaque" in capsys.readouterr().out


def test_cli_verify_open_loop_witness(tmp_path, capsys, run_model):
    doc = run_model.to_dict()
    doc["secret"] = ["5", "6", "7"]
    path = tmp_path / "leaky.json"
    path.write_text(dump_json(doc))
    assert main(["verify", str(path), "--open-loop"]) == 1
    assert "a b" in capsys.readouterr().out


@pytest.mark.parametrize("loop", [["--open-loop"], ["--supervisor", SRUN]],
                         ids=["open loop", "table"])
def test_cli_verify_has_no_bound(loop, capsys):
    """Every policy takes finitely many states, so every verdict is exact
    and ``verify`` takes no depth bound: ``--bound`` is an unknown option,
    refused while parsing, before anything is read or printed."""
    assert main(["verify", RUN, *loop, "--bound", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        "opactrl: error: unrecognized arguments: --bound 3"
    )
    assert captured.out == ""


# One state looping on u and v, both seen by both parties, nothing secret,
# and a table with the one key "u" that keeps the default decision.  Its
# closed loop has three policy states: the empty history, "u", and None
# for every history that no key extends ("v", "u u", "u v", ...).
TWO_LOOPS = {
    "states": ["0"],
    "events": ["u", "v"],
    "initial": "0",
    "secret": [],
    "transitions": [["0", "u", "0"], ["0", "v", "0"]],
    "observable_supervisor": ["u", "v"],
    "observable_intruder": ["u", "v"],
    "controllable": [],
}
TWO_LOOPS_TABLE = {"type": "supervisor-table", "table": {"u": ["u", "v"]}}


def two_loops_argv(tmp_path, *options):
    model, table = tmp_path / "loops.json", tmp_path / "table.json"
    model.write_text(dump_json(TWO_LOOPS))
    table.write_text(dump_json(TWO_LOOPS_TABLE))
    return ["verify", str(model), "--supervisor", str(table), *options]


def test_cli_verify_exhausts_the_collapsed_loop(tmp_path, capsys):
    """The table's three policy states make the search finite, though the
    plant loops forever: the verdict is exact, with no bound."""
    assert main(two_loops_argv(tmp_path)) == 0
    assert capsys.readouterr().out == "opaque (observation mode)\n"


def test_cli_verify_size_guard_counts_the_collapsed_nodes(tmp_path, capsys):
    """The table search visits its three policy states, not the four
    histories up to the longest key that it told apart before: a guard of
    3 holds, and one of 2 trips at the third."""
    assert main(two_loops_argv(tmp_path, "--size-guard", "3")) == 0
    assert capsys.readouterr().out == "opaque (observation mode)\n"
    assert main(two_loops_argv(tmp_path, "--size-guard", "2")) == 2
    assert capsys.readouterr().err == (
        "error: closed-loop search exceeded size guard of 2 states (3 visited so far)\n"
    )


def test_cli_verify_open_loop_size_guard(tmp_path, capsys):
    """The guard bounds the open-loop search, whose observer reaches every
    subset of this plant's chain: a trip exits 2 with no verdict."""
    path = tmp_path / "blowup.json"
    path.write_text(dump_json(observer_blowup_model(12).to_dict()))
    assert main(["verify", str(path), "--open-loop", "--size-guard", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: open-loop search exceeded size guard of 10 states (11 visited so far)\n"
    )
    assert "opaque" not in captured.out


def test_cli_verify_supervisor_observation(capsys):
    code = main(["verify", RUN, "--supervisor", SRUN, "--mode", "observation"])
    out = capsys.readouterr().out
    assert code == 1
    assert "a u1 u2 u2" in out


def test_cli_verify_supervisor_decision(capsys):
    assert main(["verify", RUN, "--supervisor", SRUN, "--mode", "decision"]) == 0
    assert "opaque" in capsys.readouterr().out


def test_cli_verify_repaired_policy(capsys):
    assert main(["verify", RUN, "--supervisor", SPRIME]) == 0


def test_cli_verify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad), "--open-loop"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_usage_error():
    assert main(["verify", RUN]) == 2  # neither --open-loop nor --supervisor


def test_cli_synthesize_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "structure.json"
    dot = tmp_path / "structure.dot"
    code = main(
        ["synthesize", RUN, "--out", str(out), "--dot", str(dot), "--policy",
         "locally_maximal"]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["type"] == "control-structure"
    manifest = json.loads((tmp_path / "structure.json.manifest.json").read_text())
    assert manifest["command"] == "synthesize"
    assert RUN in manifest["inputs"]
    assert re.fullmatch(r"[0-9a-f]{64}", manifest["inputs"][RUN])
    assert dot.read_text().startswith("digraph structure {")
    # the emitted structure is accepted back by verify
    assert main(["verify", RUN, "--supervisor", str(out)]) == 0


def test_cli_synthesize_reads_the_model_once_for_both_sidecars(tmp_path, monkeypatch):
    """With both --out and --dot, one manifest serves both artifacts, so the
    model file is read and hashed once and the sidecars are equal."""
    built = []
    manifest_for = cli.serialize.manifest_for

    def counting(*args):
        built.append(args)
        return manifest_for(*args)

    monkeypatch.setattr(cli.serialize, "manifest_for", counting)
    out, dot = tmp_path / "s.json", tmp_path / "s.dot"
    assert main(["synthesize", RUN, "--out", str(out), "--dot", str(dot)]) == 0
    assert len(built) == 1
    sidecars = [(tmp_path / f"s.{ext}.manifest.json").read_bytes() for ext in ("json", "dot")]
    assert sidecars[0] == sidecars[1]


def test_cli_synthesize_artifacts_are_reproducible(tmp_path):
    paths = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        assert main(["synthesize", RUN, "--out", str(target)]) == 0
        paths.append(target.read_bytes())
    assert paths[0] == paths[1]


def synthesize_into(out, dot):
    """``synthesize`` of the running example under ``locally_maximal``,
    writing to ``out`` and ``dot``."""
    argv = ["synthesize", RUN, "--policy", "locally_maximal", "--out", str(out), "--dot", str(dot)]
    assert main(argv) == 0


def artifact_bytes(*paths):
    """The bytes of each file and of its sidecar."""
    return [Path(f"{path}{ext}").read_bytes() for path in paths for ext in ("", ".manifest.json")]


def test_cli_rewrites_longer_stale_artifacts_to_exactly_the_new_bytes(tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    synthesize_into(fresh / "s.json", fresh / "s.dot")
    out, dot = tmp_path / "s.json", tmp_path / "s.dot"
    for path in (out, dot):
        for stale in (path, Path(f"{path}.manifest.json")):
            stale.write_bytes(b"stale\n" * 10_000)
    inodes = [path.stat().st_ino for path in (out, dot)]
    synthesize_into(out, dot)
    assert artifact_bytes(out, dot) == artifact_bytes(fresh / "s.json", fresh / "s.dot")
    assert [path.stat().st_ino for path in (out, dot)] == inodes


def test_cli_writes_through_a_symlinked_out_and_keeps_the_mode(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    dot = tmp_path / "s.dot"
    dot.write_text("old\n")
    dot.chmod(0o600)
    synthesize_into(link, dot)
    assert link.is_symlink() and link.resolve() == target
    assert json.loads(target.read_text())["type"] == "control-structure"
    assert (target.stat().st_mode & 0o777, dot.stat().st_mode & 0o777) == (0o640, 0o600)
    assert dot.read_text().startswith("digraph structure {")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_cli_writes_all_of_the_dot_into_a_fifo(tmp_path):
    """A FIFO is written to, not cut to length: ``ftruncate`` on it would
    fail."""
    expected = tmp_path / "expected.dot"
    synthesize_into(tmp_path / "a.json", expected)
    fifo = tmp_path / "pipe.dot"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        synthesize_into(tmp_path / "b.json", fifo)
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [expected.read_bytes()]
    assert fifo.is_fifo()


# Argvs that write an artifact to OUT, by what they write.
WRITING_ARGVS = {
    "synthesize --out": ["synthesize", RUN, "--out", "OUT"],
    "synthesize --dot": ["synthesize", RUN, "--dot", "OUT"],
    "export-dot": ["export-dot", RUN, "--out", "OUT"],
}


@pytest.mark.parametrize("argv", WRITING_ARGVS.values(), ids=WRITING_ARGVS)
@pytest.mark.parametrize("where, reason", [
    ("missing/x", "No such file or directory"),
    ("dir", "Is a directory"),
    ("sidecar", "Is a directory"),
])
def test_cli_reports_an_unwritable_output_as_the_users_error(
    argv, where, reason, tmp_path, capsys
):
    """An output path that cannot be written is reported with the file it
    names, the artifact or its sidecar, and exit 2, as an unreadable input
    is; it is not an internal error.  The sidecar is written first, so a
    missing directory is reported for the sidecar."""
    (tmp_path / "dir").mkdir()
    out = tmp_path / ("x" if where == "sidecar" else where)
    (tmp_path / "x.manifest.json").mkdir()
    failed = f"{out}.manifest.json" if where in ("sidecar", "missing/x") else str(out)
    assert main([str(out) if arg == "OUT" else arg for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: cannot write {failed}: {reason}\n"


@pytest.mark.parametrize("argv", WRITING_ARGVS.values(), ids=WRITING_ARGVS)
@pytest.mark.parametrize("before", [None, b"old artifact\n"], ids=["absent", "present"])
def test_cli_leaves_the_artifact_alone_when_its_sidecar_cannot_be_written(
    argv, before, tmp_path, capsys
):
    """The sidecar is written before the artifact, so an artifact is never
    left without the manifest of the run that wrote it: when the sidecar
    cannot be written, the artifact is neither created nor rewritten."""
    out = tmp_path / "x"
    if before is not None:
        out.write_bytes(before)
    (tmp_path / "x.manifest.json").mkdir()
    assert main([str(out) if arg == "OUT" else arg for arg in argv]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out}.manifest.json: Is a directory\n"
    )
    assert (out.read_bytes() if out.exists() else None) == before


@pytest.mark.parametrize("argv", WRITING_ARGVS.values(), ids=WRITING_ARGVS)
@pytest.mark.parametrize("before", [None, b"old manifest\n"], ids=["absent", "present"])
def test_cli_leaves_the_sidecar_alone_when_the_artifact_cannot_be_written(
    argv, before, tmp_path, capsys
):
    """Both files are opened before either is written, so an artifact path
    that is a directory neither leaves a fresh sidecar behind nor rewrites
    the manifest of an older artifact."""
    out = tmp_path / "x"
    out.mkdir()
    sidecar = tmp_path / "x.manifest.json"
    if before is not None:
        sidecar.write_bytes(before)
    assert main([str(out) if arg == "OUT" else arg for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"
    assert (sidecar.read_bytes() if sidecar.exists() else None) == before


def test_cli_synthesize_no_solution(tmp_path, capsys):
    doc = {
        "states": ["0", "1"],
        "events": ["e"],
        "initial": "0",
        "secret": ["1"],
        "transitions": [["0", "e", "1"]],
        "observable_supervisor": [],
        "observable_intruder": ["e"],
        "controllable": [],
    }
    path = tmp_path / "hopeless.json"
    path.write_text(dump_json(doc))
    assert main(["synthesize", str(path)]) == 3
    assert "no solution exists" in capsys.readouterr().out


def test_cli_synthesize_commits_one_structure_by_one_of_two_policies(tmp_path, capsys):
    """On a 1,500-state chain each policy reports and records one
    structure; extraction goes one decision state deeper per chain state,
    past the interpreter's recursion limit.  The retired ``enumerate_all``
    is refused as argparse refuses any invalid choice."""
    n = 1500
    doc = {
        "states": [str(i) for i in range(n)],
        "events": ["u"],
        "initial": "0",
        "secret": [],
        "transitions": [[str(i), "u", str(i + 1)] for i in range(n - 1)],
        "observable_supervisor": ["u"],
        "observable_intruder": ["u"],
        "controllable": [],
    }
    path = tmp_path / "chain.json"
    path.write_text(dump_json(doc))
    for policy in ("first_feasible", "locally_maximal"):
        out = tmp_path / f"{policy}.json"
        assert main(["synthesize", str(path), "--policy", policy, "--out", str(out)]) == 0
        assert "  outcome: 1 structure(s)\n" in capsys.readouterr().out
        manifest = json.loads((tmp_path / f"{policy}.json.manifest.json").read_text())
        assert manifest["outcome"]["structures"] == 1
    assert main(["synthesize", str(path), "--policy", "enumerate_all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "opactrl synthesize: error: argument --policy: invalid choice: 'enumerate_all' "
        "(choose from 'first_feasible', 'locally_maximal')"
    )


# Edits of a decision-mode structure of the running example that keep its
# decisions, and so its verdict, but make the document state an information
# state that its decisions do not derive: widening the first member's
# estimate, or dropping the last member of a state that has two.  Each with
# the members stated and those derived, as ``export-dot`` draws them.
FALSE_MEMBERS = pytest.mark.parametrize("policy, state, edit, stated, derived", [
    ("first_feasible", 0, "widen", "{(0,{0,1}),(1,{1})}", "{(0,{0}),(1,{1})}"),
    ("first_feasible", 0, "drop", "{(0,{0})}", "{(0,{0}),(1,{1})}"),
    ("locally_maximal", 1, "drop", "{(2,{1,2,3,4,5,6,7})}",
     "{(2,{1,2,3,4,5,6,7}),(6,{1,2,3,4,5,6,7})}"),
], ids=["widened estimate", "dropped member", "dropped member of a later state"])


def _falsified(tmp_path, policy, state, edit):
    """The structure that ``synthesize --mode decision --policy policy``
    writes, and a copy with ``edit`` made to observation state ``state``."""
    out, bad = tmp_path / "s.json", tmp_path / "bad.json"
    assert main(["synthesize", RUN, "--mode", "decision", "--policy", policy,
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    members = doc["observation_states"][state]["members"]
    assert len(members) == 2
    if edit == "widen":
        members[0][1] = ["0", "1"]
    else:
        members.pop()
    bad.write_text(dump_json(doc))
    return out, bad


@FALSE_MEMBERS
def test_cli_verify_refuses_a_structure_whose_members_are_false(
    tmp_path, capsys, policy, state, edit, stated, derived
):
    """Verified in its own mode, a structure that misstates a state is
    refused, naming the members stated and those derived.  In the other
    mode, where the members legitimately differ, it is read as before."""
    out, bad = _falsified(tmp_path, policy, state, edit)
    assert main(["verify", RUN, "--supervisor", str(out), "--mode", "decision"]) == 0
    capsys.readouterr()
    assert main(["verify", RUN, "--supervisor", str(bad), "--mode", "decision"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: structure misstates observation state {stated}: its decisions "
        f"derive {derived} under decision mode\n"
    )
    assert "opaque" not in captured.out
    assert main(["verify", RUN, "--supervisor", str(bad), "--mode", "observation"]) == 0


@FALSE_MEMBERS
def test_cli_export_dot_refuses_a_structure_whose_members_are_false(
    tmp_path, capsys, policy, state, edit, stated, derived
):
    """``export-dot`` runs verify's structure walk in the structure's own
    mode before it draws, so it refuses what verify refuses, with verify's
    line.  The dropped member used to be drawn as the false state
    {(0,{0})}, {a,b}, with exit 0."""
    out, bad = _falsified(tmp_path, policy, state, edit)
    capsys.readouterr()
    assert main(["export-dot", str(bad), "--model", RUN]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: structure misstates observation state {stated}: its decisions "
        f"derive {derived} under decision mode\n"
    )
    assert captured.out == ""
    assert main(["export-dot", str(out), "--model", RUN]) == 0
    assert capsys.readouterr().out.startswith("digraph structure {")


def test_cli_export_dot_draws_a_truthful_unsafe_structure(tmp_path, run_model, srun, capsys):
    """The members check refuses false states only: srun's structure in
    observation mode states what its decisions derive, but reveals the
    secret, and is drawn as it is."""
    structure = structure_from_policy(run_model, srun, OBS)
    path = tmp_path / "unsafe.json"
    path.write_text(structure_to_json(structure))
    assert main(["verify", RUN, "--supervisor", str(path)]) == 1
    capsys.readouterr()
    assert main(["export-dot", str(path), "--model", RUN]) == 0
    assert capsys.readouterr().out == structure_to_dot(structure)


def test_cli_synthesize_size_guard(capsys):
    assert main(["synthesize", RUN, "--size-guard", "4"]) == 2
    assert "size guard" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["observation", "decision"])
def test_cli_verify_size_guard(mode, tmp_path, run_model, srun, capsys):
    """The guard bounds both closed-loop searches of verify: the search over
    a tabular policy and the walk of a control structure."""
    structure = tmp_path / "structure.json"
    structure.write_text(structure_to_json(structure_from_policy(run_model, srun, OBS)))
    for sup in (SRUN, str(structure)):
        argv = ["verify", RUN, "--supervisor", sup, "--mode", mode]
        assert main(argv + ["--size-guard", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: closed-loop ")
        assert "exceeded size guard of 1 states" in captured.err
        assert "Traceback" not in captured.err
        assert main(argv + ["--size-guard", "100"]) in (0, 1)
        capsys.readouterr()


@pytest.mark.parametrize("mode", ["observation", "decision"])
def test_cli_verify_structure_walk_trips_past_an_exact_fit(mode, tmp_path, capsys):
    """Randgen seed-10 draw 3's ``first_feasible`` structure: its walk knows
    two states, so a guard of 2 verifies it and a guard of 1 trips at the
    second."""
    rng = random.Random(10)
    config = RandomModelConfig(min_states=8, max_states=12, min_events=5, max_events=6)
    model = [random_model(rng, config) for _ in range(4)][3]
    path, out = tmp_path / "draw3.json", tmp_path / "structure.json"
    path.write_text(dump_json(model.to_dict()))
    assert main(["synthesize", str(path), "--mode", mode, "--out", str(out)]) == 0
    capsys.readouterr()
    argv = ["verify", str(path), "--supervisor", str(out), "--mode", mode, "--size-guard"]
    assert main(argv + ["2"]) == 0
    assert capsys.readouterr().out.endswith(f"\nopaque ({mode} mode)\n")
    assert main(argv + ["1"]) == 2
    assert capsys.readouterr().err == (
        "error: closed-loop walk exceeded size guard of 1 states (2 visited so far)\n"
    )


def test_cli_estimate_flows(capsys):
    assert main(["estimate", RUN, "--flow", str(MODELS / "example2.flow")]) == 0
    assert capsys.readouterr().out.strip() == "{7}"
    assert main(
        ["estimate", RUN, "--flow", str(MODELS / "example9.flow"), "--mode", "decision"]
    ) == 0
    assert capsys.readouterr().out.strip() == "{5,6,7}"


def test_cli_estimate_initial_only(tmp_path, capsys):
    flow = tmp_path / "init.flow"
    flow.write_text("event=-, decision={a,u1,u2,u3,b}\n")
    assert main(["estimate", RUN, "--flow", str(flow)]) == 0
    assert capsys.readouterr().out.strip() == "{0}"


@pytest.mark.parametrize("mode", ["observation", "decision"])
def test_cli_estimate_of_a_flow_the_closed_loop_cannot_produce(tmp_path, capsys, mode):
    """The decision in force disables ``a``, so no closed-loop string shows
    it and the estimate is empty, as the brute-force oracle finds."""
    model = tmp_path / "loop.json"
    model.write_text(dump_json({
        "states": ["s"],
        "events": ["a"],
        "initial": "s",
        "transitions": [["s", "a", "s"]],
        "observable_supervisor": ["a"],
        "observable_intruder": ["a"],
        "controllable": ["a"],
    }))
    flow = tmp_path / "loop.flow"
    flow.write_text("event=-, decision={}\nevent=a, decision=-\n")
    assert main(["estimate", str(model), "--flow", str(flow), "--mode", mode]) == 0
    assert capsys.readouterr().out.strip() == "{}"


def test_cli_estimate_malformed_flow(tmp_path, capsys):
    flow = tmp_path / "bad.flow"
    flow.write_text("event=a decision=oops\n")
    assert main(["estimate", RUN, "--flow", str(flow)]) == 2


def test_cli_estimate_refuses_an_event_that_a_flow_cannot_name(tmp_path, capsys):
    """The flow below enables "a,b" and o, so the secret S is all the
    intruder can estimate.  Split at commas, its decision used to read as
    {a, b, o}, and ``estimate`` printed {s1,s2} with exit 0, hiding the
    secret; the model is refused instead."""
    model = tmp_path / "comma.json"
    model.write_text(dump_json({
        "states": ["s0", "s1", "s2", "S"],
        "events": ["a", "b", "a,b", "o"],
        "initial": "s0",
        "secret": ["S"],
        "transitions": [["s0", "a", "s1"], ["s0", "b", "s2"], ["s0", "a,b", "S"],
                        ["s1", "o", "s1"], ["s2", "o", "s2"], ["S", "o", "S"]],
        "observable_supervisor": ["o"],
        "observable_intruder": ["o"],
        "controllable": ["a", "b", "a,b"],
    }))
    flow = tmp_path / "comma.flow"
    flow.write_text("event=-, decision={a,b,o}\nevent=o, decision=-\n")
    assert main(["estimate", str(model), "--flow", str(flow)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: invalid model {model}: invalid event name 'a,b': it must hold no "
        "',', '{' or '}'\n"
    )


def test_cli_export_dot_model(tmp_path, capsys):
    out = tmp_path / "plant.dot"
    assert main(["export-dot", RUN, "--out", str(out)]) == 0
    text = out.read_text()
    assert len(re.findall(r"shape=circle", text)) == 8
    assert (tmp_path / "plant.dot.manifest.json").exists()


def test_cli_export_dot_structure(tmp_path):
    structure_path = tmp_path / "s.json"
    assert main(["synthesize", RUN, "--out", str(structure_path)]) == 0
    out = tmp_path / "s.dot"
    assert (
        main(["export-dot", str(structure_path), "--model", RUN, "--out", str(out)])
        == 0
    )
    assert out.read_text().startswith("digraph structure {")


def test_cli_export_dot_structure_requires_model(tmp_path, capsys):
    structure_path = tmp_path / "s.json"
    assert main(["synthesize", RUN, "--out", str(structure_path)]) == 0
    assert main(["export-dot", str(structure_path)]) == 2


def test_cli_export_dot_estimator_slice(tmp_path):
    out = tmp_path / "slice.dot"
    assert (
        main(
            ["export-dot", RUN, "--estimator", "--supervisor", SRUN,
             "--depth", "4", "--out", str(out)]
        )
        == 0
    )
    assert "m0" in out.read_text()


def test_cli_export_dot_estimator_size_guard(capsys):
    argv = ["export-dot", RUN, "--estimator", "--supervisor", SRUN]
    assert main(argv + ["--size-guard", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: estimator slice exceeded size guard of 1 states (2 visited so far)\n"
    )
    assert captured.out == ""
    assert main(argv + ["--size-guard", "100"]) == 0


def test_cli_export_dot_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("]]")
    assert main(["export-dot", str(bad)]) == 2


def test_cli_export_dot_estimator_missing_supervisor(capsys):
    code = main(["export-dot", RUN, "--estimator", "--supervisor", "missing.json"])
    assert code == 2
    assert "cannot read supervisor" in capsys.readouterr().err


# Options that export-dot reads only for the other kind of input, with the
# error line each one gives; S stands for the example policy.
UNREAD_EXPORT_DOT_OPTIONS = [
    (["--supervisor", "missing.json"], "--supervisor is read only with --estimator"),
    (["--depth", "3"], "--depth is read only with --estimator"),
    (["--mode", "observation"], "--mode is read only with --estimator"),
    (["--size-guard", "5"], "--size-guard is read only with --estimator"),
    (["--model", "missing-model.json"], "--model is read only with a structure input"),
    (
        ["--estimator", "--supervisor", "S", "--model", "missing-model.json"],
        "--model is read only with a structure input",
    ),
]


@pytest.mark.parametrize(
    "options, message",
    UNREAD_EXPORT_DOT_OPTIONS,
    ids=[" ".join(options) for options, _ in UNREAD_EXPORT_DOT_OPTIONS],
)
def test_cli_export_dot_refuses_an_option_it_would_not_read(options, message, capsys):
    """An option that ``export-dot`` reads only for the other kind of input
    is refused, not silently ignored."""
    assert main(["export-dot", RUN, *(SRUN if o == "S" else o for o in options)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["synthesize", RUN, "--size-guard", "0"],
        ["verify", RUN, "--open-loop", "--size-guard", "-1"],
        ["export-dot", RUN, "--estimator", "--supervisor", SRUN, "--depth", "-1"],
    ],
)
def test_cli_rejects_out_of_range_limits_at_parse_time(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "must be at least" in captured.err
    assert captured.out == ""


def test_cli_seed_flag_is_gone(capsys):
    assert main(["synthesize", RUN, "--seed", "1"]) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("error", [RuntimeError("boom"), RecursionError("too deep")])
def test_cli_unexpected_error_exits_2_without_traceback(error, monkeypatch, capsys):
    def fail(model, cfg):
        raise error

    monkeypatch.setattr(cli, "synthesize", fail)
    assert main(["synthesize", RUN]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: internal error: {type(error).__name__}: {error}\n"
    assert "Traceback" not in captured.out + captured.err


def test_cli_manifest_digests_the_model_bytes_synthesis_parsed(tmp_path, monkeypatch):
    """The model file changes while synthesis runs: the sidecar still
    records the bytes the structure was built from."""
    model = tmp_path / "model.json"
    original = (MODELS / "run.json").read_bytes()
    model.write_bytes(original)
    synthesize_ = cli.synthesize

    def rewriting(*args):
        outcome = synthesize_(*args)
        model.write_bytes(original + b"\n")
        return outcome

    monkeypatch.setattr(cli, "synthesize", rewriting)
    out = tmp_path / "s.json"
    assert main(["synthesize", str(model), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
    assert manifest["inputs"] == {str(model): hashlib.sha256(original).hexdigest()}


def test_cli_export_dot_estimator_digests_the_bytes_it_parsed(tmp_path, monkeypatch):
    model = tmp_path / "model.json"
    original = (MODELS / "run.json").read_bytes()
    model.write_bytes(original)
    slice_to_dot = cli.dotmod.estimator_slice_to_dot

    def rewriting(*args):
        model.write_bytes(original + b"\n")
        return slice_to_dot(*args)

    monkeypatch.setattr(cli.dotmod, "estimator_slice_to_dot", rewriting)
    out = tmp_path / "slice.dot"
    argv = ["export-dot", str(model), "--estimator", "--supervisor", SRUN, "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "slice.dot.manifest.json").read_text())
    assert manifest["inputs"] == {
        str(model): hashlib.sha256(original).hexdigest(),
        SRUN: hashlib.sha256(Path(SRUN).read_bytes()).hexdigest(),
    }


def test_cli_export_dot_manifest_records_every_file_and_option_it_read(tmp_path):
    """Two estimator slices under other supervisors, depths and modes get
    other manifests, and a structure input records the model it was read
    with.  The manifest used to hold the positional input and the
    ``--estimator`` flag only."""
    manifests = {}
    for name, options in (
        ("a", ["--supervisor", SRUN, "--depth", "2"]),
        ("b", ["--supervisor", SPRIME, "--depth", "6", "--mode", "decision"]),
    ):
        out = tmp_path / f"{name}.dot"
        assert main(["export-dot", RUN, "--estimator", *options, "--out", str(out)]) == 0
        manifests[name] = json.loads((tmp_path / f"{name}.dot.manifest.json").read_text())
    assert manifests["a"]["inputs"].keys() == {RUN, SRUN}
    assert manifests["b"]["inputs"].keys() == {RUN, SPRIME}
    assert manifests["a"]["config"] == {
        "estimator": True, "depth": 2, "mode": "observation", "size_guard": 10**6
    }
    assert manifests["b"]["config"] == {
        "estimator": True, "depth": 6, "mode": "decision", "size_guard": 10**6
    }
    structure = tmp_path / "s.json"
    assert main(["synthesize", RUN, "--out", str(structure)]) == 0
    out = tmp_path / "s.dot"
    assert main(["export-dot", str(structure), "--model", RUN, "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "s.dot.manifest.json").read_text())
    assert manifest["inputs"] == {
        str(structure): hashlib.sha256(structure.read_bytes()).hexdigest(),
        RUN: hashlib.sha256(Path(RUN).read_bytes()).hexdigest(),
    }
    assert manifest["config"] == {"estimator": False}


# Each argv stops at parse time; "M" stands for the running example's model.
PARSE_ONLY_ARGVS = [
    [],
    ["-h"],
    ["bogus"],
    ["--nope"],
    *([command, "-h"] for command in cli.SUBCOMMANDS),
    ["synthesize", "M", "--policy", "nope"],
    ["verify", "M"],
    ["synthesize"],
    ["estimate", "M"],
    ["export-dot"],
    ["verify", "M", "extra", "--open-loop"],
    ["synthesize", "M", "--mode", "nope"],
    *([command, "M", "--size-guard", "0"] for command in cli.SUBCOMMANDS),
    ["export-dot", "M", "--estimator", "--depth", "-1"],
]


@pytest.mark.parametrize("argv", PARSE_ONLY_ARGVS, ids=lambda a: " ".join(a) or "-")
def test_cli_parses_as_the_full_parser_does(argv, monkeypatch, capsys):
    """Building the parser once and reusing it changes no exit code, help
    text, usage or error line: two calls in a row on the reused parser
    print as a freshly built parser does."""
    argv = [RUN if arg == "M" else arg for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")
    got = (main(argv), *capsys.readouterr())
    assert got == (main(argv), *capsys.readouterr())
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert got == (main(argv), *capsys.readouterr())


# Argvs that ``main`` hands to a subcommand's parser while the top-level
# parser would refuse something in them, or that start with an option.
DISPATCH_ARGVS = [
    *PARSE_ONLY_ARGVS,
    ["verify", "M", "--open-loop", "--nope"],
    ["--nope", "verify", "M"],
    ["verify", "M", "--", "--open-loop"],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=lambda a: " ".join(a) or "-")
def test_cli_dispatch_exits_as_the_top_level_parser_does(argv, monkeypatch, capsys):
    """``main`` passes what follows a subcommand straight to that
    subcommand's parser; its exit code, help, usage and error lines are
    those of the top-level parser, its exit mapped as ``main`` maps it."""
    argv = [RUN if arg == "M" else arg for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")
    got = (main(argv), *capsys.readouterr())
    with pytest.raises(SystemExit) as stop:
        cli.build_parser().parse_args(argv)
    code = cli.EXIT_OK if stop.value.code in (0, None) else cli.EXIT_ERROR
    assert got == (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", [
    ["verify", "M", "--open-loop"],
    ["verify", "M", "--supervisor", "S", "--mode", "decision"],
    ["synthesize", "M", "--policy", "locally_maximal", "--out", "o", "--size-guard", "9"],
    ["estimate", "M", "--flow", "F"],
    ["export-dot", "M", "--estimator", "--supervisor", "S", "--depth", "2"],
    ["export-dot", "--out", "o", "--", "--model"],
], ids=" ".join)
def test_cli_dispatch_parses_as_the_top_level_parser_does(argv):
    assert cli._parse_args(argv) == cli.build_parser().parse_args(argv)


def test_cli_holds_one_parser(capsys):
    """Every call, whatever its command, shares the one parser."""
    for i in range(40):
        assert main([f"bogus-{i}"]) == 2
    for argv in ([], ["-h"], ["--nope"], *([command, "-h"] for command in cli.SUBCOMMANDS)):
        main(argv)
    capsys.readouterr()
    assert cli.build_parser.cache_info().currsize == 1
    assert cli.build_parser() is cli.build_parser()


def test_cli_reused_parser_keeps_no_values_between_parses():
    parser = cli.build_parser()
    parser.parse_args(
        ["verify", RUN, "--supervisor", SRUN, "--mode", "decision", "--size-guard", "7"]
    )
    args = parser.parse_args(["verify", RUN, "--open-loop"])
    assert (args.open_loop, args.supervisor, args.mode, args.size_guard) == (
        True, None, "observation", 10**6,
    )


@pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"]], ids=" ".join)
def test_cli_help_wraps_to_the_columns_of_each_call(argv, monkeypatch, capsys):
    """argparse reads ``COLUMNS`` when it prints, so a reused parser wraps
    its help as a fresh one does at each call's width."""
    helps = []
    for columns in ("40", "120", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(argv) == 0
        helps.append(capsys.readouterr().out)
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            assert main(argv) == 0
        assert capsys.readouterr().out == helps[-1]
    assert helps[0] == helps[2] != helps[1]


def _replaced(doc, path, value):
    """A deep copy of ``doc`` with the entry at ``path`` replaced; the empty
    path replaces the whole document."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _example_documents(run_model, srun):
    """The running example's model, the table ``srun`` and its structure."""
    return {
        "model": run_model.to_dict(),
        "supervisor": srun.to_dict(),
        "structure": structure_to_dict(structure_from_policy(run_model, srun, OBS)),
    }


def _write_documents(directory, docs):
    """Write each document to ``<directory>/<name>.json``; return the paths."""
    paths = {name: Path(directory) / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        paths[name].write_text(dump_json(doc))
    return paths


def _verify_argv(paths, document):
    """``verify`` of the model, open loop when the model is ``document``,
    else under the policy ``document``."""
    argv = ["verify", str(paths["model"])]
    if document == "model":
        return argv + ["--open-loop"]
    return argv + ["--supervisor", str(paths[document])]


def _verify_replaced(tmp_path, run_model, srun, document, path, value):
    """Run ``verify`` on the example documents with the entry at ``path`` of
    ``document`` replaced; return the exit code and the path of each
    document."""
    docs = _example_documents(run_model, srun)
    docs[document] = _replaced(docs[document], path, value)
    paths = _write_documents(tmp_path, docs)
    return main(_verify_argv(paths, document)), paths


# (document, path of the entry, a value where the document wants a list).
# On the model and the table, each string used to be read as the list of
# its characters, which here names the entry's own members.  A table entry
# or default given as a JSON number or boolean used to be taken as a raw
# event bitmask.
NON_LISTS = [
    ("model", ("controllable",), 3),
    ("model", ("observable_intruder",), "ab"),
    ("model", ("secret",), "7"),
    ("model", ("transitions", 0), "0a1"),
    ("model", ("states",), "01234567"),
    ("supervisor", ("table", "u1"), "ab"),
    ("supervisor", ("default",), "ab"),
    ("supervisor", ("table", "u1"), 1048575),
    ("supervisor", ("table", "u1"), True),
    ("supervisor", ("default",), 1048575),
    ("supervisor", ("default",), True),
    ("structure", ("observation_states", 0, "members", 0), "0ab"),
    ("structure", ("observation_states", 0, "members", 0, 1), "0"),
    ("structure", ("observation_states", 0, "members", 0, 2), "ab"),
    ("structure", ("decision_states", 0, "decision"), "ab"),
]


@pytest.mark.parametrize(
    "document, path, value",
    NON_LISTS,
    ids=["-".join(map(str, (doc, *path, value))) for doc, path, value in NON_LISTS],
)
def test_cli_refuses_a_non_list_for_a_list(
    document, path, value, tmp_path, run_model, srun, capsys
):
    code, _ = _verify_replaced(tmp_path, run_model, srun, document, path, value)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid ")
    assert f"expected a list, got {value!r}" in captured.err


# (document, path of the entry, its malformed value, the error line, where
# {model}, {supervisor} and {structure} stand for the documents' paths;
# ``verify`` reads the structure as its policy).  The non-names used to
# fail as unhashable dict keys, the observation transitions that are not
# triples as a failed unpacking, and the ids that are not integers were
# read as the integer they equal.
MALFORMED_DOCUMENTS = [
    ("supervisor", ("table",), ["u1"],
     "invalid supervisor {supervisor}: invalid supervisor table: expected an object, "
     "got ['u1']"),
    ("structure", ("mode",), "bogus",
     "invalid supervisor {structure}: invalid mode: expected one of 'observation', "
     "'decision', got 'bogus'"),
    ("structure", ("mode",), ["observation"],
     "invalid supervisor {structure}: invalid mode: expected one of 'observation', "
     "'decision', got ['observation']"),
    ("supervisor", ("table", "u1"), [["a"]],
     "invalid supervisor {supervisor}: invalid supervisor table entry 'u1': expected a "
     "name, got ['a']"),
    ("structure", ("observation_transitions", 0), [0, "u1"],
     "invalid supervisor {structure}: malformed observation transition [0, 'u1']"),
    ("structure", ("observation_transitions", 0), [0, "u1", 1, 2],
     "invalid supervisor {structure}: malformed observation transition [0, 'u1', 1, 2]"),
    ("structure", ("decision_states", 1, "id"), True,
     "invalid supervisor {structure}: invalid decision state id: expected an integer, "
     "got True"),
    ("structure", ("decision_states", 1, "source"), 0.0,
     "invalid supervisor {structure}: invalid source: expected an integer, got 0.0"),
    ("structure", ("decision_states", 1, "target"), True,
     "invalid supervisor {structure}: invalid target: expected an integer, got True"),
    ("structure", ("observation_transitions", 0, 2), 1.0,
     "invalid supervisor {structure}: invalid observation transition [0, 'u1', 1.0]: "
     "expected an integer, got 1.0"),
    ("structure", ("initial",), False,
     "invalid supervisor {structure}: initial False is not the id of the initial "
     "decision state, 0"),
    ("model", ("transitions", 0), [["x"], "a", "s1"],
     "invalid model {model}: invalid transition: expected a name, got ['x']"),
    ("model", ("controllable",), [["a"]],
     "invalid model {model}: invalid 'controllable': expected a name, got ['a']"),
    ("model", ("states", 7), ["7"],
     "invalid model {model}: invalid 'states': expected a name, got ['7']"),
    ("model", ("events", 0), ["a"],
     "invalid model {model}: invalid 'events': expected a name, got ['a']"),
    ("model", ("secret", 0), {"7": "7"},
     "invalid model {model}: invalid 'secret': expected a name, got {{'7': '7'}}"),
    ("model", ("initial",), None,
     "invalid model {model}: invalid 'initial': expected a name, got None"),
    ("model", ("states", 0), True,
     "invalid model {model}: invalid 'states': expected a name, got True"),
    # A table key is split at whitespace, so it could not name the event
    # "x y": the table {"x y": ["x y"]} used to be refused for the unknown
    # event 'x'.  The model is refused instead, as it is for the empty name.
    ("model", ("events",), ["a", "u1", "u2", "u3", "b", "x y"],
     "invalid model {model}: invalid event name 'x y': it must be non-empty and hold "
     "no whitespace"),
    ("model", ("events",), ["a", "u1", "u2", "u3", "b", ""],
     "invalid model {model}: invalid event name '': it must be non-empty and hold "
     "no whitespace"),
    # A flow writes a decision as {e1,e2} and splits it at commas, so it
    # could not name the event "a,b": a decision enabling it was read back
    # as enabling 'a' and 'b'.
    ("model", ("events",), ["a", "u1", "u2", "u3", "b", "a,b"],
     "invalid model {model}: invalid event name 'a,b': it must hold no ',', '{{' or "
     "'}}'"),
    ("model", ("events",), ["a", "u1", "u2", "u3", "b", "{c"],
     "invalid model {model}: invalid event name '{{c': it must hold no ',', '{{' or "
     "'}}'"),
    ("model", ("events",), ["a", "u1", "u2", "u3", "b", "c}"],
     "invalid model {model}: invalid event name 'c}}': it must hold no ',', '{{' or "
     "'}}'"),
    # A flow writes '-' for no event, so it could not name the event "-":
    # "event=-, decision=-" was read as an empty observation pair.
    ("model", ("events",), ["a", "u1", "u2", "u3", "b", "-"],
     "invalid model {model}: invalid event name '-': a flow writes it for no event"),
    # An unknown name before a non-name: the document is refused for the
    # non-name, as every name of a list is checked before any is looked up.
    ("structure", ("decision_states", 1, "decision"), ["zz", "a", 3],
     "invalid supervisor {structure}: invalid decision: expected a name, got 3"),
    ("structure", ("observation_states", 0, "members", 0, 1), ["zz", "0", 3],
     "invalid supervisor {structure}: invalid estimate: expected a name, got 3"),
    ("supervisor", ("table", "u2"), ["zz", "a", 3],
     "invalid supervisor {supervisor}: invalid supervisor table entry 'u2': expected a "
     "name, got 3"),
    # A table key is an observation string: its events are observed by the
    # supervisor, and no two keys spell one string.  The first key used to
    # be read into a policy that never consults it, and the second to
    # replace the decision of 'u1'.
    ("supervisor", ("table", "a u1"), ["a", "b", "u1"],
     "invalid supervisor {supervisor}: supervisor table entry 'a u1': event 'a' is not "
     "observable by the supervisor"),
    ("supervisor", ("table", "u1 "), ["a", "b", "u1"],
     "invalid supervisor {supervisor}: supervisor table entry 'u1 ' given twice"),
]


@pytest.mark.parametrize(
    "document, path, value, message",
    MALFORMED_DOCUMENTS,
    ids=[
        "-".join(map(str, (doc, *path, value)))
        for doc, path, value, _ in MALFORMED_DOCUMENTS
    ],
)
def test_cli_refuses_a_malformed_policy_document(
    document, path, value, message, tmp_path, run_model, srun, capsys
):
    """A decision table that is not an object, a structure in a mode that
    does not exist, with an observation transition that is not a triple or
    an id that is not an integer, and a list where a model, table or
    structure wants a name, are invalid input, not an internal error."""
    code, paths = _verify_replaced(tmp_path, run_model, srun, document, path, value)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"


# (document, the changes to it, the error line): a document with two faults
# is refused for the one its reader comes to first.  A model's partitions
# are read before its transitions, a member's estimate before its decision,
# and a table entry by entry, each key before its decision.
TWO_FAULT_DOCUMENTS = {
    "model": (
        "model", [(("controllable",), ["u1", 3]), (("transitions", 0), ["0", "a"])],
        "invalid model {model}: invalid 'controllable': expected a name, got 3"),
    "structure member": (
        "structure", [(("observation_states", 0, "members", 0, 1), ["zz"]),
                      (("observation_states", 0, "members", 0, 2), 3)],
        "invalid supervisor {structure}: unknown state 'zz'"),
    "table entries": (
        "supervisor", [(("table",), {"u1 zz": ["a", "b", "u2"], "u2": "ab"})],
        "invalid supervisor {supervisor}: unknown event 'zz'"),
    "table key and decision": (
        "supervisor", [(("table",), {"u1 zz": 3})],
        "invalid supervisor {supervisor}: unknown event 'zz'"),
    "table entry and default": (
        "supervisor", [(("table",), {"a": ["a", "b", "u2"]}), (("default",), "ab")],
        "invalid supervisor {supervisor}: supervisor table entry 'a': event 'a' is not "
        "observable by the supervisor"),
}


@pytest.mark.parametrize(
    "document, changes, message",
    TWO_FAULT_DOCUMENTS.values(),
    ids=TWO_FAULT_DOCUMENTS.keys(),
)
def test_cli_refuses_a_document_with_two_faults_for_the_first(
    document, changes, message, tmp_path, run_model, srun, capsys
):
    docs = _example_documents(run_model, srun)
    for path, value in changes:
        docs[document] = _replaced(docs[document], path, value)
    paths = _write_documents(tmp_path, docs)
    assert main(_verify_argv(paths, document)) == 2
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"


def test_cli_refuses_a_table_key_that_spells_a_later_key_again(tmp_path, capsys):
    """Whichever of two spellings of one observation string comes first,
    the table is refused.  The later entry used to replace the earlier
    one, so that the verdict on the running example hung on key order."""
    doc = json.loads(Path(SRUN).read_text())
    doc["table"] = {"u1 ": ["a", "b", "u1"], **doc["table"]}
    path = tmp_path / "table.json"
    path.write_text(dump_json(doc))
    assert main(["verify", RUN, "--supervisor", str(path)]) == 2
    captured = capsys.readouterr()
    assert "opaque" not in captured.out
    assert captured.err == (
        f"error: invalid supervisor {path}: supervisor table entry 'u1' given twice\n"
    )


# Per invalid input file: the argv, where "M" stands for the running
# example's model and F for the file; the file's text, where BOGUS_MODE
# stands for the example's structure in a mode that does not exist; and the
# error line, where {F} stands for the file's path.
INVALID_FILES = [
    (["verify", "M", "--supervisor", "F"], "5",
     "invalid supervisor {F}: supervisor document must be a JSON object"),
    (["verify", "M", "--supervisor", "F"], "BOGUS_MODE",
     "invalid supervisor {F}: invalid mode: expected one of 'observation', 'decision', "
     "got 'bogus'"),
    (["export-dot", "F", "--model", "M"], "BOGUS_MODE",
     "invalid structure {F}: invalid mode: expected one of 'observation', 'decision', "
     "got 'bogus'"),
    (["export-dot", "M", "--estimator", "--supervisor", "F"], "5",
     "invalid supervisor {F}: supervisor document must be a JSON object"),
    (["estimate", "M", "--flow", "F"], "event=a decision=oops\n",
     "invalid flow {F}: malformed flow line 1: 'event=a decision=oops'"),
    (["estimate", "M", "--flow", "F"],
     "event=-, decision={a,u1,u2,u3,b}\nevent=u1, decision=-\n",
     "invalid flow {F}: event 'u1' is not visible to the intruder"),
]


@pytest.mark.parametrize(
    "argv, text, message",
    INVALID_FILES,
    ids=[f"{' '.join(argv)} {text.splitlines()[-1]}" for argv, text, _ in INVALID_FILES],
)
def test_cli_names_the_file_of_an_invalid_document(
    argv, text, message, tmp_path, run_model, srun, capsys
):
    """An invalid policy, structure or flow is reported with its path, as
    an invalid model is."""
    if text == "BOGUS_MODE":
        doc = _example_documents(run_model, srun)["structure"]
        text = dump_json(_replaced(doc, ("mode",), "bogus"))
    path = tmp_path / "input"
    path.write_text(text)
    files = {"M": RUN, "F": str(path)}
    assert main([files.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message.format(F=path)}\n"


def _sprime_structure(run_model, sprime):
    """The document of the structure of the repaired policy, in which
    observation state 1 is the target of decision {a,u2,b} and the initial
    observation state 0 has the observations u1 (transition 0) and u2."""
    return structure_to_dict(structure_from_policy(run_model, sprime, OBS))


def _carry_every_event(state):
    for member in state["members"]:
        member[2] = ["a", "u1", "u2", "u3", "b"]


def _drop_members(state):
    state["members"] = []


# A change to observation state 1 of that document, and the error line it
# gives: its members carry every event while the decision into it is
# {a,u2,b}, or it has no members.
MALFORMED_STATES = {
    "members carry another decision": (
        _carry_every_event, "decision transition into a state of another decision"
    ),
    "no members": (_drop_members, "empty observation state"),
}


def _assert_structure_refused(doc, message, tmp_path, capsys):
    """Every structure command refuses the structure document ``doc`` with
    the error line ``message`` and writes no verdict and no graph."""
    path = tmp_path / "structure.json"
    path.write_text(dump_json(doc))
    for argv, what in (
        (["verify", RUN, "--supervisor", str(path)], "supervisor"),
        (["export-dot", str(path), "--model", RUN], "structure"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid {what} {path}: {message}\n"
        assert "opaque" not in captured.out and "digraph" not in captured.out


@pytest.mark.parametrize(
    "change, message", MALFORMED_STATES.values(), ids=MALFORMED_STATES.keys()
)
def test_cli_refuses_an_observation_state_without_the_decision_into_it(
    change, message, tmp_path, run_model, sprime, capsys
):
    """A decoded supervisor reads its decision off the members of the
    observation state it is in, so every structure command refuses a
    state whose members do not carry the decision committed into it.
    ``verify`` used to find both documents opaque, and ``export-dot`` drew
    the decision {a,u2,b} into a state labelled {a,u1,u2,u3,b}."""
    doc = _sprime_structure(run_model, sprime)
    change(doc["observation_states"][1])
    _assert_structure_refused(doc, message, tmp_path, capsys)


def _second_decision_state(doc):
    """Decision state 7 on u1 out of observation state 0, which decision
    state 1 already resolves, committing the initial decision."""
    doc["decision_states"].append(
        {**doc["decision_states"][0], "id": 7, "source": 0, "event": "u1"}
    )


def _second_observation_state_4(doc):
    doc["observation_states"].append({"id": 4, "members": [["7", ["7"], ["a", "u1", "b"]]]})


def _second_copy_of_observation_state_1(doc):
    doc["observation_states"].append({**doc["observation_states"][1], "id": 7})


def _second_decision_state_1(doc):
    doc["decision_states"].append({**doc["decision_states"][6], "id": 1, "source": 4})


def _second_transition_on_u1(doc):
    doc["observation_transitions"].append([0, "u1", 1])


def _no_transition_on_u1(doc):
    assert doc["observation_transitions"].pop(0) == [0, "u1", 1]


def _ids_0_as(value):
    """A change that gives observation state 0 and decision state 0, and
    every reference to either, the id ``value``."""

    def change(doc):
        for entry in doc["observation_states"] + doc["decision_states"]:
            if entry["id"] == 0:
                entry["id"] = value
        for entry in doc["decision_states"]:
            for field in ("source", "target"):
                if entry[field] == 0:
                    entry[field] = value
        assert doc["initial"] == 0
        doc["initial"] = value
        for transition in doc["observation_transitions"]:
            for i in (0, 2):
                if transition[i] == 0:
                    transition[i] = value

    return change


# A change to the whole document of that structure, and the error line it
# gives.  The document keeps one entry per id and per (source, event), and
# one observation transition per decision state, and its ids are integers.
# Before these were refused, the second decision state made verify judge
# its decision and not decision state 1's, the second observation state 4
# was drawn unsafe while verify found the structure opaque, the repeated
# transition was drawn twice, the decision state without its transition
# was drawn with no edge into it, and verify found the structure with ids
# 0.0 or false opaque.
MALFORMED_STRUCTURES = {
    "second decision state on u1": (
        _second_decision_state, "decision state of source 0 and event 'u1' given twice"
    ),
    "second observation state 4": (
        _second_observation_state_4, "observation state 4 given twice"
    ),
    "second copy of observation state 1": (
        _second_copy_of_observation_state_1, "two observation states have the same members"
    ),
    "second decision state 1": (_second_decision_state_1, "decision state 1 given twice"),
    "second transition on u1": (
        _second_transition_on_u1, "observation transition [0, 'u1', 1] given twice"
    ),
    "no transition on u1": (
        _no_transition_on_u1, "decision state without its observation transition"
    ),
    "ids 0.0": (_ids_0_as(0.0), "invalid observation state id: expected an integer, got 0.0"),
    "ids false": (
        _ids_0_as(False), "invalid observation state id: expected an integer, got False"
    ),
}


@pytest.mark.parametrize(
    "change, message", MALFORMED_STRUCTURES.values(), ids=MALFORMED_STRUCTURES.keys()
)
def test_cli_refuses_a_structure_document_with_an_entry_twice_or_missing(
    change, message, tmp_path, run_model, sprime, capsys
):
    """A structure keeps one entry per key, so a document that gives an id,
    a decision state or an observation transition twice would lose one of
    them; every structure command refuses it, a decision state whose
    observation transition is missing, and ids that are not integers,
    which as keys would stand for the integer they equal."""
    doc = _sprime_structure(run_model, sprime)
    change(doc)
    _assert_structure_refused(doc, message, tmp_path, capsys)


def _initial_5(doc):
    doc["initial"] = 5


def _initial_bogus(doc):
    doc["initial"] = "bogus"


def _no_decision_state_on_u1(doc):
    """Without the transition on u1 and decision state 1, nothing leads
    into observation state 1 and the states past it."""
    _no_transition_on_u1(doc)
    assert doc["decision_states"].pop(1)["id"] == 1


# A change to the whole document of that structure that breaks it off its
# initial decision state, and the error line it gives: its ``initial``
# names another id, or an observation state is not reached from it.
# Before these were refused, verify found the first two opaque, reading
# the initial decision state off its null source, and export-dot drew the
# third with observation state 1 and the states past it unreached.
DISCONNECTED_STRUCTURES = {
    "initial 5": (_initial_5, "initial 5 is not the id of the initial decision state, 0"),
    "initial bogus": (
        _initial_bogus, "initial 'bogus' is not the id of the initial decision state, 0"
    ),
    "no decision state on u1": (
        _no_decision_state_on_u1,
        "observation state unreachable from the initial decision state",
    ),
}


@pytest.mark.parametrize(
    "change, message", DISCONNECTED_STRUCTURES.values(), ids=DISCONNECTED_STRUCTURES.keys()
)
def test_cli_refuses_a_structure_document_with_a_wrong_initial_or_an_unreached_state(
    change, message, tmp_path, run_model, sprime, capsys
):
    """A structure is read from its initial decision state: every structure
    command refuses a document whose ``initial`` names another id, or with
    an observation state that the initial decision state does not reach."""
    doc = _sprime_structure(run_model, sprime)
    change(doc)
    _assert_structure_refused(doc, message, tmp_path, capsys)


def _set(*path_and_value):
    """A change that sets the entry at ``path`` in the document to ``value``."""
    *path, key, value = path_and_value

    def change(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return change


def _without(key, *path):
    """A change that removes ``key`` from the entry at ``path``."""

    def change(doc):
        for step in path:
            doc = doc[step]
        del doc[key]

    return change


# A change to that document that leaves a reference to an id no state has,
# or leaves out a key, and the error line it gives.  These used to read
# "malformed control structure document: 99" and "...: 'initial'".
DANGLING_STRUCTURES = {
    "source 99": (
        _set("decision_states", 1, "source", 99), "unknown observation state 99 in source"
    ),
    "target 99": (
        _set("decision_states", 1, "target", 99), "unknown observation state 99 in target"
    ),
    "transition from 99": (
        _set("observation_transitions", 0, 0, 99),
        "unknown observation state 99 in observation transition [99, 'u1', 1]",
    ),
    "transition into 99": (
        _set("observation_transitions", 0, 2, 99),
        "unknown decision state 99 in observation transition [0, 'u1', 99]",
    ),
    "no initial": (_without("initial"), "missing key 'initial'"),
    "no target": (_without("target", "decision_states", 1), "missing key 'target'"),
}


@pytest.mark.parametrize(
    "change, message", DANGLING_STRUCTURES.values(), ids=DANGLING_STRUCTURES.keys()
)
def test_cli_refuses_a_structure_document_with_a_dangling_id_or_a_missing_key(
    change, message, tmp_path, run_model, sprime, capsys
):
    """Every structure command refuses a document that refers to an id no
    state has, naming the field and the id, or that leaves out a key,
    naming the key."""
    doc = _sprime_structure(run_model, sprime)
    change(doc)
    _assert_structure_refused(doc, message, tmp_path, capsys)


# A change to that document that gives a field the wrong container type,
# and the error line it gives.  These used to read "malformed control
# structure document: " and Python's own TypeError text.
WRONG_CONTAINERS = {
    "decision state as a list": (
        _set("decision_states", 1, [1, 2]),
        "invalid decision state: expected an object, got [1, 2]",
    ),
    "observation state as a list": (
        _set("observation_states", 1, [3]),
        "invalid observation state: expected an object, got [3]",
    ),
    "members 5": (
        _set("observation_states", 1, "members", 5), "invalid 'members': expected a list, got 5"
    ),
    "observation_states 7": (
        _set("observation_states", 7), "invalid 'observation_states': expected a list, got 7"
    ),
    "decision_states null": (
        _set("decision_states", None), "invalid 'decision_states': expected a list, got None"
    ),
    "observation_transitions null": (
        _set("observation_transitions", None),
        "invalid 'observation_transitions': expected a list, got None",
    ),
}


@pytest.mark.parametrize(
    "change, message", WRONG_CONTAINERS.values(), ids=WRONG_CONTAINERS.keys()
)
def test_cli_names_a_structure_field_of_the_wrong_container_type(
    change, message, tmp_path, run_model, sprime, capsys
):
    """Every structure command refuses a document in which a list is not a
    list or a state is not an object, naming the field."""
    doc = _sprime_structure(run_model, sprime)
    change(doc)
    _assert_structure_refused(doc, message, tmp_path, capsys)


def _reached_from_observation_state_2(doc):
    """Only the initial decision state, observation states 0, 2 and 4, the
    decision states into them and the transitions between them: the states
    that the initial decision state reaches once the transition on u1 out
    of observation state 0 is gone."""
    doc["observation_states"] = [s for s in doc["observation_states"] if s["id"] in (0, 2, 4)]
    doc["decision_states"] = [s for s in doc["decision_states"] if s["target"] in (0, 2, 4)]
    doc["observation_transitions"] = [[0, "u2", 2], [2, "u1", 4]]


def test_cli_names_the_observation_an_incomplete_structure_lacks(
    tmp_path, run_model, sprime, capsys
):
    """Without the transition on u1 out of the initial observation state,
    and every state past it, the structure decides nothing after u1, which
    the plant can produce there: verify, in either mode, and the estimator
    slice under it stop with the observation named."""
    doc = _sprime_structure(run_model, sprime)
    _reached_from_observation_state_2(doc)
    path = tmp_path / "structure.json"
    path.write_text(dump_json(doc))
    for mode in ("observation", "decision"):
        assert main(["verify", RUN, "--supervisor", str(path), "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: structure is incomplete: observation 'u1' undefined\n"
        assert "opaque" not in captured.out
    assert main(["export-dot", RUN, "--estimator", "--supervisor", str(path)]) == 2
    captured = capsys.readouterr()
    assert "observation 'u1' undefined" in captured.err
    assert "digraph" not in captured.out


def test_cli_refuses_a_list_declared_as_a_state(tmp_path, run_model, srun, capsys):
    """State 7 declared as ``["7"]`` in ``states`` and ``secret``, with the
    transitions into 7 dropped, used to verify open loop with exit 0 and to
    draw a state named ``['7']``."""
    doc = run_model.to_dict()
    doc["states"][7] = doc["secret"][0] = ["7"]
    doc["transitions"] = [t for t in doc["transitions"] if t[2] != "7"]
    paths = _write_documents(tmp_path, {"model": doc})
    for argv in (_verify_argv(paths, "model"), ["export-dot", str(paths["model"])]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid model")
        assert err.endswith(": invalid 'states': expected a name, got ['7']\n")


def test_cli_names_the_first_unknown_partition_event_under_any_hash_seed(tmp_path):
    """With only ``u1`` declared, the first unknown partition entry in
    document order is ``u2`` in ``observable_supervisor``; the error line
    must not depend on the process's string hash seed."""
    doc = json.loads(Path(RUN).read_text())
    doc["events"] = ["u1"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    lines = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-m", "opactrl.cli", "verify", str(path), "--open-loop"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2
        lines.add(done.stderr)
    assert lines == {f"error: invalid model {path}: unknown event 'u2' in partition\n"}


def test_cli_reads_numbers_declared_as_names_as_their_decimal_text(
    tmp_path, run_model, capsys
):
    """States, ``initial`` and ``secret`` given as JSON numbers name the
    states of their decimal text, as they always have."""
    doc = run_model.to_dict()
    doc["states"] = [int(name) for name in doc["states"]]
    doc["initial"] = int(doc["initial"])
    doc["secret"] = [int(name) for name in doc["secret"]]
    outputs = []
    for name, model in (("numbers", doc), ("names", run_model.to_dict())):
        path = tmp_path / f"{name}.json"
        path.write_text(dump_json(model))
        assert main(["export-dot", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def _paths(node, prefix=()):
    """The path of every node of a JSON document, the root's () first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


# Values put where a document wants something else.
MUTANTS = [None, True, 0, "", ["u1"], [0, "u1"], [["a"]], [], {}]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_cli_reads_or_refuses_any_single_node_mutation(data, run_model, srun):
    """One node of the model, a decision table or a synthesized structure
    replaced, the root included: ``verify``, ``synthesize`` and
    ``export-dot`` on the model, and ``export-dot`` on the structure, give a
    verdict or an output or refuse the input, and never report an internal
    error."""
    docs = _example_documents(run_model, srun)
    name = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(list(_paths(docs[name]))))
    docs[name] = _replaced(docs[name], path, data.draw(st.sampled_from(MUTANTS)))
    with tempfile.TemporaryDirectory() as tmp:
        files = _write_documents(tmp, docs)
        argvs = [_verify_argv(files, name)]
        if name == "model":
            argvs.append(["synthesize", str(files["model"])])
            argvs.append(["export-dot", str(files["model"])])
        if name in ("model", "structure"):
            argvs.append(
                ["export-dot", str(files["structure"]), "--model", str(files["model"])]
            )
        for argv in argvs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3)
            assert "internal error" not in err.getvalue(), (argv[0], path, err.getvalue())


@pytest.mark.parametrize("text", ["5", "null", "[1]"])
def test_cli_export_dot_refuses_a_document_that_is_not_an_object(text, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["export-dot", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: invalid model {path}: model document must be a JSON object\n"
    )


# Per read of an input file: the argv, where "M" stands for the running
# example's model and BAD for a file that is not valid text, and what the
# error line calls the file.
UNDECODABLE_READS = [
    (["verify", "BAD", "--open-loop"], "model"),
    (["verify", "M", "--supervisor", "BAD"], "supervisor"),
    (["estimate", "M", "--flow", "BAD"], "flow"),
    (["export-dot", "M", "--estimator", "--supervisor", "BAD"], "supervisor"),
    (["export-dot", "BAD"], "input"),
]


@pytest.mark.parametrize(
    "argv, what", UNDECODABLE_READS, ids=[" ".join(argv) for argv, _ in UNDECODABLE_READS]
)
def test_cli_reports_an_undecodable_file_as_unreadable(argv, what, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff")
    files = {"M": RUN, "BAD": str(bad)}
    assert main([files.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {what}: ")
    assert "codec can't decode byte 0xff" in captured.err


# Pieces of a file's bytes: newlines of each convention, non-ASCII UTF-8,
# a byte-order mark and a byte that UTF-8 cannot start with.
BYTE_PIECES = [b"\r\n", b"\r", b"\n", b"{", b" ", "\u00e9".encode(), "\u6f22".encode(),
               "\ufeff".encode(), b"\xff"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(BYTE_PIECES), max_size=12).map(b"".join))
def test_cli_reads_a_file_as_read_text_decodes_it(data):
    """An input's text is what ``Path.read_text`` reads from it, and a
    file it cannot decode is unreadable with the same reason."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input"
        path.write_bytes(data)
        try:
            expected = path.read_text()
        except UnicodeDecodeError as exc:
            with pytest.raises(cli.CliError) as refused:
                cli._read_input(str(path), "model")
            assert str(refused.value) == f"cannot read model: {exc}"
        else:
            assert cli._read_input(str(path), "model") == (data, expected)
