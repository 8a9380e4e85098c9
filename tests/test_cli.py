"""Serialization round-trips, DOT rendering, the command-line surface, and
its exit-code contract."""

import json
import re

import pytest

from conftest import DEC, MODELS, OBS
from opactrl import (
    PlantModel,
    SynthesisConfig,
    expand_arena,
    information_flow,
    prune_incomplete,
    structure_from_policy,
    synthesize,
)
from opactrl.cli import main
from opactrl.dot import arena_to_dot, estimator_slice_to_dot, model_to_dot, structure_to_dot
from opactrl.model import ModelFormatError
from opactrl.serialize import (
    dump_json,
    format_flow,
    parse_flow,
    structure_from_dict,
    structure_to_dict,
    structure_to_json,
)


def test_model_round_trip(run_model):
    doc = run_model.to_dict()
    again = PlantModel.from_dict(json.loads(dump_json(doc)))
    assert again.to_dict() == doc


def test_structure_round_trip(run_model, srun, sprime):
    for sup, mode in ((srun, OBS), (sprime, OBS), (srun, DEC)):
        structure = structure_from_policy(run_model, sup, mode)
        doc = json.loads(structure_to_json(structure))
        assert structure_from_dict(run_model, doc) == structure


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
    """Frozen shape of the reference extraction: 7 decision and 7 observation
    states, 13 edges (7 decisions plus 6 observation transitions)."""
    from opactrl import SynthesisConfig, expand_arena, prune_incomplete
    from opactrl.synthesis import extract_matching

    arena = prune_incomplete(expand_arena(run_model, SynthesisConfig(mode=OBS)))
    structure = extract_matching(arena, sprime)
    dot = structure_to_dot(structure)
    assert len(re.findall(r"style=rounded", dot)) == 7
    assert len(re.findall(r"shape=box", dot)) == 14
    assert len([l for l in dot.splitlines() if "->" in l]) == 13


def test_empty_arena_dot_is_header_only(run_model):
    model = PlantModel.from_dict(
        {
            "states": ["s"],
            "events": [],
            "initial": "s",
            "secret": ["s"],
            "transitions": [],
        }
    )
    pruned = prune_incomplete(expand_arena(model, SynthesisConfig()))
    assert arena_to_dot(pruned) == "digraph arena {\n}\n"


def test_arena_dot_marks_pruned_states(run_model):
    arena = expand_arena(run_model, SynthesisConfig())
    pruned = prune_incomplete(arena)
    removed = [s for batch in pruned.pruning_trace for s in batch]
    dot = arena_to_dot(arena, pruned_states=removed)
    assert dot.count("color=red") == len(removed)


def test_estimator_slice_dot(run_model, srun):
    dot = estimator_slice_to_dot(run_model, srun, OBS, depth=4)
    assert "m0" in dot
    assert '(7,{7})' in dot.replace('"', "") or "7,{7}" in dot


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


def test_cli_synthesize_artifacts_are_reproducible(tmp_path):
    paths = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        assert main(["synthesize", RUN, "--out", str(target)]) == 0
        paths.append(target.read_bytes())
    assert paths[0] == paths[1]


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


def test_cli_synthesize_size_guard(capsys):
    assert main(["synthesize", RUN, "--size-guard", "4"]) == 2
    assert "size guard" in capsys.readouterr().err


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


def test_cli_estimate_malformed_flow(tmp_path, capsys):
    flow = tmp_path / "bad.flow"
    flow.write_text("event=a decision=oops\n")
    assert main(["estimate", RUN, "--flow", str(flow)]) == 2


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


def test_cli_export_dot_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("]]")
    assert main(["export-dot", str(bad)]) == 2


def test_cli_export_dot_estimator_missing_supervisor(capsys):
    code = main(["export-dot", RUN, "--estimator", "--supervisor", "missing.json"])
    assert code == 2
    assert "cannot read supervisor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["synthesize", RUN, "--size-guard", "0"],
        ["verify", RUN, "--open-loop", "--size-guard", "-1"],
        ["verify", RUN, "--supervisor", SRUN, "--bound", "-3"],
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
