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
from pathlib import Path

from .estimator import IssuanceMode, ObservationPair
from .model import (
    ModelFormatError,
    PlantModel,
    index_mask,
    json_object,
    list_field,
    name_field,
    names_field,
)
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


def _decision_field(model: PlantModel, value, what: str) -> int | list[str]:
    """The mask of the decision that a table lists in ``value``, read in one
    loop.  Where that misses, ``value`` itself, once it is known to be a
    list of names: the table's constructor then says what is wrong with
    it, after every decision has been checked to be such a list."""
    mask = model.listed_decision(value)
    return names_field(value, what) if mask is None else mask


def parse_supervisor(model: PlantModel, doc: dict) -> Supervisor | ControlStructure:
    """Load a policy file: either a finite decision table or a serialized
    control structure."""
    kind = doc.get("type")
    if kind == "supervisor-table":
        # Decisions are lists of event names; an int mask is accepted from
        # Python callers only, not from a document.
        table = doc.get("table", {})
        if not isinstance(table, dict):
            raise ModelFormatError(
                f"invalid supervisor table: expected an object, got {table!r}"
            )
        decisions = {
            key: _decision_field(model, value, f"supervisor table entry {key!r}")
            for key, value in table.items()
        }
        default = doc.get("default")
        if default is not None:
            default = _decision_field(model, default, "supervisor default")
        return TabularSupervisor(model, decisions, default)
    if kind == "control-structure":
        return structure_from_dict(model, doc)
    raise ModelFormatError(f"unknown supervisor document type {kind!r}")


def parse_supervisor_text(model: PlantModel, text: str) -> Supervisor | ControlStructure:
    return parse_supervisor(model, json_object(text, "supervisor"))


# Control structures --------------------------------------------------------


def _member_to_list(model: PlantModel, m: EstimatorState) -> list:
    return [
        model.states[m.plant_state],
        list(model.state_names(m.estimate)),
        list(model.event_names(m.decision)),
    ]


def _member_from_list(model: PlantModel, entry) -> EstimatorState:
    # Read in one pass; where that misses, the validators below word the
    # member's first fault.
    if isinstance(entry, list) and len(entry) == 3:
        state, estimate, decision = entry
        member = (
            model.state_index.get(state) if isinstance(state, str) else None,
            index_mask(model.state_index, estimate),
            model.listed_decision(decision),
        )
        if None not in member:
            return EstimatorState(*member)
    if len(list_field(entry, "estimator state")) != 3:
        raise ModelFormatError(f"malformed estimator state {entry!r}")
    state, estimate, decision = entry
    return EstimatorState(
        model.state(name_field(state, "plant state")),
        model.state_mask(names_field(estimate, "estimate")),
        model.control_decision(names_field(decision, "decision")),
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


def _mode_of(value) -> IssuanceMode:
    try:
        return IssuanceMode(value)
    except ValueError:
        names = ", ".join(repr(mode.value) for mode in IssuanceMode)
        raise ModelFormatError(
            f"invalid mode: expected one of {names}, got {value!r}"
        ) from None


def _put_once(table: dict, key, value, what: str) -> None:
    """Enter ``key`` in ``table``, refusing a key that is there already: a
    structure keeps one entry per key, so a second would be dropped."""
    if key in table:
        raise ModelFormatError(f"{what} given twice")
    table[key] = value


def _id(value, what: str) -> int:
    """``value``, which a document gives as an id or a reference to one: an
    integer.  As a dict key a float or a boolean would find its equal."""
    if type(value) is not int:
        raise ModelFormatError(f"invalid {what}: expected an integer, got {value!r}")
    return value


def structure_from_dict(model: PlantModel, doc: dict) -> ControlStructure:
    try:
        mode = _mode_of(doc["mode"])
        obs_by_id: dict[int, InfoState] = {}
        for entry in doc["observation_states"]:
            members = tuple(
                sorted(_member_from_list(model, m) for m in entry["members"])
            )
            i = _id(entry["id"], "observation state id")
            _put_once(obs_by_id, i, members, f"observation state {i!r}")
        if len(set(obs_by_id.values())) != len(obs_by_id):
            raise ModelFormatError("two observation states have the same members")
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
                else (obs_by_id[_id(source, "source")], model.event(name_field(event, "event")))
            )
            gamma = model.listed_decision(entry["decision"])
            if gamma is None:
                gamma = model.control_decision(names_field(entry["decision"], "decision"))
            decision = (
                gamma,
                obs_by_id[_id(entry["target"], "target")],
            )
            what = f"decision state of source {source!r} and event {event!r}"
            _put_once(decisions, key, decision, what)
            i = _id(entry["id"], "decision state id")
            _put_once(dec_by_id, i, key, f"decision state {i!r}")
        # Per observation state, its observed events, each entered once.
        observations: dict[InfoState, dict[int, None]] = {
            info: {} for info in obs_by_id.values()
        }
        for entry in doc["observation_transitions"]:
            if len(list_field(entry, "observation transition")) != 3:
                raise ModelFormatError(f"malformed observation transition {entry!r}")
            obs_ref, event, dec_ref = entry
            what = f"observation transition {entry!r}"
            info = obs_by_id[_id(obs_ref, what)]
            sigma = model.event(name_field(event, "event"))
            if dec_by_id[_id(dec_ref, what)] != (info, sigma):
                raise ModelFormatError(
                    "observation transition inconsistent with decision state identity"
                )
            _put_once(observations[info], sigma, None, what)
        for i, key in dec_by_id.items():
            if key == INITIAL_KEY and (type(doc["initial"]) is not int or doc["initial"] != i):
                raise ModelFormatError(
                    f"initial {doc['initial']!r} is not the id of the initial "
                    f"decision state, {i!r}"
                )
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


def manifest_for(
    command: str, inputs: dict[str, bytes], config: dict, outcome: dict
) -> dict:
    """The manifest of a run that read ``inputs``, each path with the bytes
    the run parsed from it: provenance emitted alongside every artifact,
    saying what command produced it, from which exact input bytes, under
    which configuration."""
    return {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "command": command,
        "inputs": {str(Path(path)): sha256_of(data) for path, data in inputs.items()},
        "config": config,
        "outcome": outcome,
    }


def write_artifact(path: str | Path, text: str, manifest: dict) -> None:
    """Write an artifact plus its ``<name>.manifest.json`` sidecar."""
    p = Path(path)
    p.write_text(text)
    Path(str(p) + ".manifest.json").write_text(dump_json(manifest))
