"""File formats: models, supervisor policies, information-flow traces,
control structures, and run manifests.

All emitted artifacts are byte-identical across runs for identical inputs:
identifiers are assigned in canonical order and JSON is dumped with a fixed
layout.
"""

from __future__ import annotations

import functools
import hashlib
import json
import locale
import os
import re
import stat
from json.encoder import encode_basestring_ascii as quote
from pathlib import Path

from .estimator import IssuanceMode, ObservationPair
from .model import (
    ModelFormatError,
    PlantModel,
    iter_bits,
    json_object,
    list_field,
    name_field,
    names_mask,
)
from .structure import (
    INITIAL_KEY,
    ControlStructure,
    EstimatorState,
    InfoState,
    StructureError,
)
from .supervisors import Supervisor, TabularSupervisor

TOOL_NAME = "opactrl"
TOOL_VERSION = "0.1.0"


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


# Flow traces ---------------------------------------------------------------

_FLOW_LINE = re.compile(r"^event=(\S+),\s*decision=(\{[^}]*\}|-)$")


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
        table = _object_field(doc.get("table", {}), "supervisor table")
        return TabularSupervisor(model, table, doc.get("default"))
    if kind == "control-structure":
        return structure_from_dict(model, doc)
    raise ModelFormatError(f"unknown supervisor document type {kind!r}")


def parse_supervisor_text(model: PlantModel, text: str) -> Supervisor | ControlStructure:
    return parse_supervisor(model, json_object(text, "supervisor"))


# Control structures --------------------------------------------------------


def _object_field(value, what: str) -> dict:
    """``value``, which a document gives as an object.  Anything else is
    refused, naming ``what``."""
    if not isinstance(value, dict):
        raise ModelFormatError(f"invalid {what}: expected an object, got {value!r}")
    return value


def _member_from_list(model: PlantModel, entry) -> EstimatorState:
    if len(list_field(entry, "estimator state")) != 3:
        raise ModelFormatError(f"malformed estimator state {entry!r}")
    state, estimate, decision = entry
    return EstimatorState(
        model.state(name_field(state, "plant state")),
        names_mask(model.state_index, estimate, "estimate", "state"),
        model.control_decision(decision),
    )


def _json_list(items: list[str], pad: str) -> str:
    """``items``, JSON texts already laid out for depth ``pad`` and two
    spaces, as the list :func:`dump_json` writes at depth ``pad``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{pad}]"


def _name_lists(quoted: list[str]):
    """A writer of name lists: ``write(mask, pad)`` is the list of
    ``quoted[i]`` for each bit ``i`` of ``mask``, written at depth ``pad``.
    Each (mask, pad) is rendered once per writer."""

    @functools.cache
    def write(mask: int, pad: str) -> str:
        return _json_list([f"{pad}  {quoted[i]}" for i in iter_bits(mask)], pad)

    return write


def structure_to_json(structure: ControlStructure) -> str:
    """The structure's document, under its canonical numbering, exactly as
    ``dump_json`` lays it out: the document has a fixed schema, so it is
    written directly, each name quoted by ``json``'s own encoder and each
    name list rendered once per depth."""
    model = structure.model
    obs_id, dec_id = structure.canonical_ids
    states = [quote(name) for name in model.states]
    events = [quote(name) for name in model.events]
    state_list, event_list = _name_lists(states), _name_lists(events)
    decision_states = []
    for key, i in dec_id.items():
        info, sigma = key
        gamma, target = structure.decisions[key]
        source, event = ("null", "null") if info is None else (obs_id[info], events[sigma])
        decision_states.append(
            f'    {{\n      "id": {i},\n      "source": {source},\n'
            f'      "event": {event},\n'
            f'      "decision": {event_list(gamma, "      ")},\n'
            f'      "target": {obs_id[target]}\n    }}'
        )
    observation_states = []
    transitions = []
    for info, i in obs_id.items():
        members = [
            f"        [\n          {states[m.plant_state]},\n"
            f'          {state_list(m.estimate, "          ")},\n'
            f'          {event_list(m.decision, "          ")}\n        ]'
            for m in info
        ]
        observation_states.append(
            f'    {{\n      "id": {i},\n'
            f'      "members": {_json_list(members, "      ")}\n    }}'
        )
        transitions.extend(
            f"    [\n      {i},\n      {events[sigma]},\n"
            f"      {dec_id[(info, sigma)]}\n    ]"
            for sigma in structure.observations[info]
        )
    return (
        f'{{\n  "type": "control-structure",\n'
        f'  "mode": {quote(structure.mode.value)},\n'
        f'  "initial": {dec_id[INITIAL_KEY]},\n'
        f'  "decision_states": {_json_list(decision_states, "  ")},\n'
        f'  "observation_states": {_json_list(observation_states, "  ")},\n'
        f'  "observation_transitions": {_json_list(transitions, "  ")}\n}}\n'
    )


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


def _ref(table: dict, value, what: str, kind: str):
    """``table[value]``: the ``kind`` that the reference ``value`` in ``what`` names."""
    if type(value) is not int:
        _id(value, what)  # refuses it
    try:
        return table[value]
    except KeyError:
        raise ModelFormatError(f"unknown {kind} {value!r} in {what}") from None


def structure_from_dict(model: PlantModel, doc: dict) -> ControlStructure:
    try:
        mode = _mode_of(doc["mode"])
        obs_by_id: dict[int, InfoState] = {}
        for entry in list_field(doc["observation_states"], "'observation_states'"):
            entry = _object_field(entry, "observation state")
            members = list_field(entry["members"], "'members'")
            members = tuple(sorted(_member_from_list(model, m) for m in members))
            i = _id(entry["id"], "observation state id")
            _put_once(obs_by_id, i, members, f"observation state {i!r}")
        if len(set(obs_by_id.values())) != len(obs_by_id):
            raise ModelFormatError("two observation states have the same members")
        decisions = {}
        dec_by_id = {}
        for entry in list_field(doc["decision_states"], "'decision_states'"):
            entry = _object_field(entry, "decision state")
            source = entry["source"]
            event = entry["event"]
            if (source is None) != (event is None):
                raise ModelFormatError("decision state must pair source with event")
            if source is None:
                key = INITIAL_KEY
            else:
                key = (_ref(obs_by_id, source, "source", "observation state"),
                       model.event(name_field(event, "event")))
            decision = (
                model.control_decision(entry["decision"]),
                _ref(obs_by_id, entry["target"], "target", "observation state"),
            )
            what = f"decision state of source {source!r} and event {event!r}"
            _put_once(decisions, key, decision, what)
            i = _id(entry["id"], "decision state id")
            _put_once(dec_by_id, i, key, f"decision state {i!r}")
        # Per observation state, its observed events, each entered once.
        observations: dict[InfoState, dict[int, None]] = {
            info: {} for info in obs_by_id.values()
        }
        transitions = list_field(doc["observation_transitions"], "'observation_transitions'")
        for entry in transitions:
            if len(list_field(entry, "observation transition")) != 3:
                raise ModelFormatError(f"malformed observation transition {entry!r}")
            obs_ref, event, dec_ref = entry
            what = f"observation transition {entry!r}"
            info = _ref(obs_by_id, obs_ref, what, "observation state")
            sigma = model.event(name_field(event, "event"))
            if _ref(dec_by_id, dec_ref, what, "decision state") != (info, sigma):
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
    except KeyError as exc:
        raise ModelFormatError(f"missing key {exc}") from exc
    except TypeError as exc:
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


def _open(path: str) -> tuple[int, bool]:
    """A descriptor that writes into ``path``, creating the file if it is
    not there, and whether this call created it."""
    try:
        return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
    except FileExistsError:
        return os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), False


def _rewrite(fd: int, path: str, text: str) -> None:
    """Write ``text``, encoded as ``Path.write_text`` encodes it, through
    ``fd``, open on the file that is at ``path``: same inode and mode,
    through a symlink.  A regular file is cut to the new length after the
    write, not truncated to zero before it, which on ext4 would start
    writeback at close (``auto_da_alloc``).  Any other file, a FIFO or a
    terminal, is only written to.  An error carries ``path`` as its
    filename."""
    data = text.encode(locale.getpreferredencoding(False))
    try:
        left = memoryview(data)
        while left:
            left = left[os.write(fd, left):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    except OSError as exc:
        exc.filename = path
        raise


def write_artifact(path: str | Path, text: str, manifest: str) -> None:
    """Write an artifact and, first, its ``<name>.manifest.json`` sidecar,
    whose text is ``manifest``; each is rewritten in place.  Both are
    opened before either is written, so an artifact that cannot be opened
    leaves the sidecar as it was, removing one that this call created.  A
    sidecar that cannot be written leaves the artifact as it was, in the
    same way.  An :class:`OSError` names the file it failed on."""
    path = str(Path(path))
    sidecar = path + ".manifest.json"
    sidecar_fd, sidecar_created = _open(sidecar)
    try:
        fd, created = _open(path)
    except OSError:
        os.close(sidecar_fd)
        if sidecar_created:
            os.unlink(sidecar)
        raise
    try:
        try:
            _rewrite(sidecar_fd, sidecar, manifest)
        except OSError:
            if created:
                os.unlink(path)
            raise
        _rewrite(fd, path, text)
    finally:
        os.close(sidecar_fd)
        os.close(fd)
