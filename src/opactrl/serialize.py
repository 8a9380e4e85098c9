"""File formats: models, supervisor policies, information-flow traces,
control structures, and run manifests.

All emitted artifacts are byte-identical across runs for identical inputs:
identifiers are assigned in canonical order and JSON is dumped with a fixed
layout.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

from .estimator import IssuanceMode, ObservationPair
from .model import ModelFormatError, PlantModel
from .structure import (
    INITIAL_KEY,
    ControlStructure,
    EstimatorState,
    InfoState,
    StructureError,
    canonical_ids,
)
from .supervisors import Supervisor, TabularSupervisor

TOOL_NAME = "opactrl"
TOOL_VERSION = "0.1.0"


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


# Flow traces ---------------------------------------------------------------

_FLOW_LINE = re.compile(r"^event=(\S+),\s*decision=(\{[^}]*\}|-)$")


def format_flow(model: PlantModel, flow: tuple[ObservationPair, ...]) -> str:
    """One observation pair per line: ``event=<name|->, decision={...}|-``."""
    lines = []
    for event, decision in flow:
        ev = model.events[event] if event is not None else "-"
        dec = model.format_decision(decision) if decision is not None else "-"
        lines.append(f"event={ev}, decision={dec}")
    return "\n".join(lines) + "\n"


def parse_flow(model: PlantModel, text: str) -> tuple[ObservationPair, ...]:
    flow = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _FLOW_LINE.match(line)
        if not match:
            raise ModelFormatError(f"malformed flow line {lineno}: {raw!r}")
        ev_text, dec_text = match.groups()
        event = None if ev_text == "-" else model.event(ev_text)
        if dec_text == "-":
            decision = None
        else:
            names = [n.strip() for n in dec_text[1:-1].split(",") if n.strip()]
            decision = model.control_decision(names)
        if event is None and decision is None:
            raise ModelFormatError(f"empty observation pair at line {lineno}")
        flow.append(ObservationPair(event, decision))
    if not flow:
        raise ModelFormatError("empty flow trace")
    return tuple(flow)


# Supervisor policies -------------------------------------------------------


def parse_supervisor(model: PlantModel, doc: dict) -> Supervisor | ControlStructure:
    """Load a policy file: either a finite decision table or a serialized
    control structure."""
    kind = doc.get("type")
    if kind == "supervisor-table":
        return TabularSupervisor(model, doc.get("table", {}), doc.get("default"))
    if kind == "control-structure":
        return structure_from_dict(model, doc)
    raise ModelFormatError(f"unknown supervisor document type {kind!r}")


def parse_supervisor_text(model: PlantModel, text: str) -> Supervisor | ControlStructure:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("supervisor document must be a JSON object")
    return parse_supervisor(model, doc)


# Control structures --------------------------------------------------------


def _member_to_list(model: PlantModel, m: EstimatorState) -> list:
    return [
        model.states[m.plant_state],
        list(model.state_names(m.estimate)),
        list(model.event_names(m.decision)),
    ]


def _member_from_list(model: PlantModel, entry) -> EstimatorState:
    if len(entry) != 3:
        raise ModelFormatError(f"malformed estimator state {entry!r}")
    state, estimate, decision = entry
    return EstimatorState(
        model.state(state),
        model.state_mask(estimate),
        model.control_decision(decision),
    )


def structure_to_dict(structure: ControlStructure) -> dict:
    model = structure.model
    obs_id, dec_id = canonical_ids(structure.observations, structure.decisions)
    decision_states = []
    for key, i in dec_id.items():
        info, sigma = key
        gamma, target = structure.decisions[key]
        decision_states.append(
            {
                "id": i,
                "source": None if info is None else obs_id[info],
                "event": None if sigma is None else model.events[sigma],
                "decision": list(model.event_names(gamma)),
                "target": obs_id[target],
            }
        )
    observation_states = [
        {
            "id": i,
            "members": [_member_to_list(model, m) for m in info],
        }
        for info, i in obs_id.items()
    ]
    od = [
        [i, model.events[sigma], dec_id[(info, sigma)]]
        for info, i in obs_id.items()
        for sigma in structure.observations[info]
    ]
    return {
        "type": "control-structure",
        "mode": structure.mode.value,
        "initial": dec_id[INITIAL_KEY],
        "decision_states": decision_states,
        "observation_states": observation_states,
        "observation_transitions": od,
    }


def structure_from_dict(model: PlantModel, doc: dict) -> ControlStructure:
    try:
        mode = IssuanceMode(doc["mode"])
        obs_by_id: dict[int, InfoState] = {}
        for entry in doc["observation_states"]:
            members = tuple(
                sorted(_member_from_list(model, m) for m in entry["members"])
            )
            obs_by_id[entry["id"]] = members
        decisions = {}
        dec_by_id = {}
        for entry in doc["decision_states"]:
            source = entry["source"]
            event = entry["event"]
            if (source is None) != (event is None):
                raise ModelFormatError("decision state must pair source with event")
            key = (
                INITIAL_KEY
                if source is None
                else (obs_by_id[source], model.event(event))
            )
            decisions[key] = (
                model.control_decision(entry["decision"]),
                obs_by_id[entry["target"]],
            )
            dec_by_id[entry["id"]] = key
        observations: dict[InfoState, list[int]] = {
            info: [] for info in obs_by_id.values()
        }
        for obs_ref, event, dec_ref in doc["observation_transitions"]:
            info = obs_by_id[obs_ref]
            sigma = model.event(event)
            if dec_by_id[dec_ref] != (info, sigma):
                raise ModelFormatError(
                    "observation transition inconsistent with decision state identity"
                )
            observations[info].append(sigma)
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"malformed control structure document: {exc}") from exc
    try:
        return ControlStructure(
            model,
            mode,
            decisions,
            {info: tuple(sorted(evs)) for info, evs in observations.items()},
        )
    except StructureError as exc:
        raise ModelFormatError(str(exc)) from exc


def structure_to_json(structure: ControlStructure) -> str:
    return dump_json(structure_to_dict(structure))


# Run manifests -------------------------------------------------------------


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class RunManifest:
    """Provenance emitted alongside every artifact: what command produced
    it, from which exact input bytes, under which configuration."""

    command: str
    inputs: dict[str, str]
    config: dict
    outcome: dict

    def to_dict(self) -> dict:
        return {
            "tool": TOOL_NAME,
            "version": TOOL_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "config": self.config,
            "outcome": self.outcome,
        }


def manifest_for(command: str, input_paths: list[str | Path], config: dict, outcome: dict) -> RunManifest:
    digests = {}
    for path in input_paths:
        p = Path(path)
        digests[str(p)] = sha256_of(p.read_bytes())
    return RunManifest(command, digests, config, outcome)


def write_artifact(path: str | Path, text: str, manifest: RunManifest) -> None:
    """Write an artifact plus its ``<name>.manifest.json`` sidecar."""
    p = Path(path)
    p.write_text(text)
    Path(str(p) + ".manifest.json").write_text(dump_json(manifest.to_dict()))
