"""Deterministic DOT rendering.

Visual convention: decision states are rounded boxes, observation states
plain boxes; unsafe states are filled red.
Plants render as circles with secret states filled red.
"""

from __future__ import annotations

from .estimator import IssuanceMode
from .model import PlantModel
from .structure import ControlStructure, canonical_ids, closed_loop_search, is_safe
from .supervisors import Supervisor


def _quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def model_to_dot(model: PlantModel) -> str:
    lines = ["digraph plant {", "  rankdir=LR;", '  __init [shape=point, style=invis];']
    for i, name in enumerate(model.states):
        attrs = ["shape=circle"]
        if (model.secret_mask >> i) & 1:
            attrs.append("style=filled")
            attrs.append("fillcolor=red")
        lines.append(f"  {_quote(name)} [{', '.join(attrs)}];")
    lines.append(f"  __init -> {_quote(model.states[model.initial])};")
    for src, ev, dst in model.transitions():
        lines.append(f"  {_quote(src)} -> {_quote(dst)} [label={_quote(ev)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _info_label(model: PlantModel, info) -> str:
    members = ",".join(
        f"({model.states[m.plant_state]},{model.format_state_set(m.estimate)})"
        for m in info
    )
    gamma = model.format_decision(info[0].decision) if info else "{}"
    return "{" + members + "}, " + gamma


def structure_to_dot(structure: ControlStructure) -> str:
    """Render a control structure under its canonical numbering."""
    model, decisions = structure.model, structure.decisions
    obs_id, dec_id = canonical_ids(structure.observations, decisions)
    lines = ["digraph structure {", "  rankdir=TB;"]
    for (info, sigma), i in dec_id.items():
        label = (
            "{m0}, -"
            if info is None
            else _info_label(model, info) + ", " + model.events[sigma]
        )
        lines.append(f"  d{i} [shape=box, style=rounded, label={_quote(label)}];")
    for info, i in obs_id.items():
        attrs = ["shape=box"]
        if not is_safe(info, model.secret_mask):
            attrs.append("style=filled")
            attrs.append("fillcolor=red")
        attrs.append(f"label={_quote(_info_label(model, info))}")
        lines.append(f"  o{i} [{', '.join(attrs)}];")
    for key, i in dec_id.items():
        gamma, target = decisions[key]
        label = _quote(model.format_decision(gamma))
        lines.append(f"  d{i} -> o{obs_id[target]} [label={label}];")
    for info, i in obs_id.items():
        for sigma in structure.observations[info]:
            label = _quote(model.events[sigma])
            lines.append(f"  o{i} -> d{dec_id[(info, sigma)]} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def estimator_slice_to_dot(
    model: PlantModel,
    sup: Supervisor,
    mode: IssuanceMode,
    depth: int,
    size_guard: int | None = None,
) -> str:
    """Render the estimator states visited along all closed-loop strings up
    to the given length, under one supervisor, numbered in breadth-first
    order.  Raises :class:`SizeGuardExceeded` once the search has visited
    more than ``size_guard`` states."""
    nodes: dict = {}
    edges: dict = {}  # used as an insertion-ordered set
    for parent, sigma, (m, *_), _ in closed_loop_search(
        model, sup, mode, depth, size_guard, search="estimator slice"
    ):
        src = "m0" if parent is None else f"n{nodes[parent[0]]}"
        label = (
            "-" if sigma is None else model.events[sigma]
        ) + "," + model.format_decision(m.decision)
        edges.setdefault((src, nodes.setdefault(m, len(nodes)), label))
    lines = ["digraph estimator {", "  rankdir=TB;", "  m0 [shape=box];"]
    for m, i in nodes.items():
        label = (
            f"{model.states[m.plant_state]},"
            f"{model.format_state_set(m.estimate)},"
            f"{model.format_decision(m.decision)}"
        )
        lines.append(f"  n{i} [shape=box, label={_quote(label)}];")
    for src, dst, label in edges:
        lines.append(f"  {src} -> n{dst} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
