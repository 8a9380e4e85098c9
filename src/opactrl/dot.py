"""Deterministic DOT rendering.

Visual convention: decision states are rounded boxes, observation states
plain boxes; unsafe states are filled red, pruned states outlined red.
Plants render as circles with secret states filled red.
"""

from __future__ import annotations

from .estimator import IssuanceMode, closed_loop_simulate, estimator_trace
from .model import PlantModel
from .structure import INITIAL_KEY, ControlStructure, canonical_ids, is_safe
from .supervisors import Supervisor
from .synthesis import Arena


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


def _graph_to_dot(
    name: str, model: PlantModel, decision_edges, observation_events, pruned=frozenset()
) -> str:
    """Render a decision/observation graph under its canonical numbering.
    A graph without the initial decision state renders header-only."""
    if INITIAL_KEY not in decision_edges:
        return f"digraph {name} {{\n}}\n"
    obs_id, dec_id = canonical_ids(observation_events, decision_edges)
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for key, i in dec_id.items():
        info, sigma = key
        label = (
            "{m0}, -"
            if info is None
            else _info_label(model, info) + ", " + model.events[sigma]
        )
        attrs = ["shape=box", "style=rounded", f"label={_quote(label)}"]
        if key in pruned:
            attrs.append("color=red")
        lines.append(f"  d{i} [{', '.join(attrs)}];")
    for info, i in obs_id.items():
        attrs = ["shape=box"]
        if not is_safe(info, model.secret_mask):
            attrs.append("style=filled")
            attrs.append("fillcolor=red")
        if info in pruned:
            attrs.append("color=red")
        attrs.append(f"label={_quote(_info_label(model, info))}")
        lines.append(f"  o{i} [{', '.join(attrs)}];")
    for key, i in dec_id.items():
        for gamma, target in decision_edges[key]:
            lines.append(
                f"  d{i} -> o{obs_id[target]} "
                f"[label={_quote(model.format_decision(gamma))}];"
            )
    for info, i in obs_id.items():
        for sigma in observation_events[info]:
            key = (info, sigma)
            if key in dec_id:
                lines.append(
                    f"  o{i} -> d{dec_id[key]} "
                    f"[label={_quote(model.events[sigma])}];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def structure_to_dot(structure: ControlStructure) -> str:
    """Render a control structure: an arena with one edge per decision state."""
    edges = {key: (edge,) for key, edge in structure.decisions.items()}
    return _graph_to_dot("structure", structure.model, edges, structure.observations)


def arena_to_dot(arena: Arena, pruned_states=()) -> str:
    """Render an arena; states in ``pruned_states`` get a red outline.  An
    empty arena renders as a header-only graph."""
    return _graph_to_dot(
        "arena",
        arena.model,
        arena.decision_edges,
        arena.observation_events,
        set(pruned_states),
    )


def estimator_slice_to_dot(
    model: PlantModel, sup: Supervisor, mode: IssuanceMode, depth: int
) -> str:
    """Render the estimator states visited along all closed-loop strings up
    to the given length, under one supervisor."""
    nodes: dict = {}
    edges: dict = {}  # used as an insertion-ordered set

    def node_id(m):
        if m not in nodes:
            nodes[m] = len(nodes)
        return nodes[m]

    def explore(s: tuple[int, ...]) -> None:
        result = closed_loop_simulate(model, sup, s)
        if not result.accepted:
            return
        trace = estimator_trace(model, result.trace, mode)
        prev = "m0"
        for event, state in zip(result.trace, trace):
            sid = node_id(state)
            label = (
                "-" if event.event is None else model.events[event.event]
            ) + "," + model.format_decision(event.decision)
            edges.setdefault((prev, sid, label))
            prev = sid
        if len(s) < depth:
            for e in range(len(model.events)):
                explore(s + (e,))

    explore(())
    lines = ["digraph estimator {", "  rankdir=TB;", "  m0 [shape=box];"]
    for m, i in nodes.items():
        label = (
            f"{model.states[m.plant_state]},"
            f"{model.format_state_set(m.estimate)},"
            f"{model.format_decision(m.decision)}"
        )
        lines.append(f"  n{i} [shape=box, label={_quote(label)}];")
    for src, dst, label in edges:
        src_txt = src if src == "m0" else f"n{src}"
        lines.append(f"  {src_txt} -> n{dst} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
