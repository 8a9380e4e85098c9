"""Supervisor synthesis as a safety game over information states.

Expansion enumerates every control decision from every reachable decision
state, keeping only safe observation states.  Pruning removes incomplete
states to a fixpoint: decision states left with no decision, and observation
states missing a feasible observation.  Extraction then commits one decision
per surviving decision state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

from .estimator import IssuanceMode
from .model import PlantModel
from .structure import (
    INITIAL_KEY,
    ControlStructure,
    DecisionKey,
    InfoState,
    canonical_ids,
    decision_key_order,
    decision_successor,
    feasible_events,
    graph_canonical_form,
    is_safe,
)

# Not called here any more, but the layer tracer in perfbench/spans.py patches
# these names on this module.
from .estimator import estimator_step  # noqa: F401
from .structure import nx_is, ur_is  # noqa: F401

EXTRACTION_POLICIES = ("first_feasible", "locally_maximal", "enumerate_all")


class SizeGuardExceeded(RuntimeError):
    """Arena expansion hit the configured state budget."""

    def __init__(self, guard: int, decision_states: int, observation_states: int):
        super().__init__(
            f"arena exceeded size guard of {guard} states "
            f"({decision_states} decision + {observation_states} observation so far)"
        )
        self.guard = guard
        self.decision_states = decision_states
        self.observation_states = observation_states


@dataclass(frozen=True)
class SynthesisConfig:
    mode: IssuanceMode = IssuanceMode.OBSERVATION
    extraction_policy: str = "first_feasible"
    size_guard: int = 10**6
    max_structures: int = 64  # cap on enumerate_all results

    def __post_init__(self):
        if self.extraction_policy not in EXTRACTION_POLICIES:
            raise ValueError(f"unknown extraction policy {self.extraction_policy!r}")
        if self.size_guard <= 0:
            raise ValueError("size_guard must be positive")


class IncompleteStates(NamedTuple):
    decision_states: frozenset[DecisionKey]
    observation_states: frozenset[InfoState]

    def __bool__(self):
        return bool(self.decision_states or self.observation_states)


class Arena:
    """Expansion result: like a control structure, but decision states carry
    every safe alternative (possibly none)."""

    def __init__(
        self,
        model: PlantModel,
        mode: IssuanceMode,
        decision_edges: dict[DecisionKey, tuple[tuple[int, InfoState], ...]],
        observation_events: dict[InfoState, tuple[int, ...]],
        pruning_trace: tuple[tuple, ...] = (),
    ):
        self.model = model
        self.mode = mode
        self.decision_edges = decision_edges
        self.observation_events = observation_events
        self.pruning_trace = pruning_trace

    @property
    def n_states(self) -> int:
        return len(self.decision_edges) + len(self.observation_events)

    @property
    def is_empty(self) -> bool:
        return INITIAL_KEY not in self.decision_edges

    def canonical_form(self):
        return graph_canonical_form(
            self.mode, self.decision_edges, self.observation_events
        )

    def __eq__(self, other):
        return isinstance(other, Arena) and self.canonical_form() == other.canonical_form()

    def __repr__(self):
        return (
            f"Arena({len(self.decision_edges)} decision states, "
            f"{len(self.observation_events)} observation states, {self.mode.value})"
        )


def expand_arena(model: PlantModel, cfg: SynthesisConfig) -> Arena:
    """Depth-first expansion from the initial decision state, trying every
    valid decision and keeping only edges into safe observation states.  Each
    new safe observation state spawns one decision state per feasible
    observation.  Unsafe targets are computed, tested, and discarded without
    ever entering the arena."""
    mode = cfg.mode
    decisions = list(model.iter_decisions())
    decision_edges: dict[DecisionKey, tuple[tuple[int, InfoState], ...] | None] = {
        INITIAL_KEY: None
    }
    observation_events: dict[InfoState, tuple[int, ...]] = {}
    stack: list[DecisionKey] = [INITIAL_KEY]
    while stack:
        key = stack.pop()
        edges = []
        for gamma in decisions:
            target = decision_successor(model, key, gamma, mode)
            if not is_safe(target, model.secret_mask):
                continue
            edges.append((gamma, target))
            if target not in observation_events:
                feasible = feasible_events(model, target)
                observation_events[target] = feasible
                for sigma in feasible:
                    child = (target, sigma)
                    decision_edges[child] = None
                    stack.append(child)
                if len(decision_edges) + len(observation_events) > cfg.size_guard:
                    raise SizeGuardExceeded(
                        cfg.size_guard, len(decision_edges), len(observation_events)
                    )
        decision_edges[key] = tuple(edges)
    assert all(v is not None for v in decision_edges.values())
    return Arena(model, mode, decision_edges, observation_events)  # type: ignore[arg-type]


def find_incomplete(arena: Arena) -> IncompleteStates:
    """Decision states with no decision left, and observation states where
    some feasible observation has no decision state."""
    bad_d = frozenset(
        key for key, edges in arena.decision_edges.items() if not edges
    )
    bad_o = frozenset(
        info
        for info in arena.observation_events
        if any(
            (info, sigma) not in arena.decision_edges
            for sigma in feasible_events(arena.model, info)
        )
    )
    return IncompleteStates(bad_d, bad_o)


def _reachable(arena: Arena) -> Arena:
    if INITIAL_KEY not in arena.decision_edges:
        return Arena(arena.model, arena.mode, {}, {}, arena.pruning_trace)
    seen_d: set[DecisionKey] = set()
    seen_o: set[InfoState] = set()
    stack: list[DecisionKey] = [INITIAL_KEY]
    seen_d.add(INITIAL_KEY)
    while stack:
        key = stack.pop()
        for _, target in arena.decision_edges[key]:
            if target in seen_o:
                continue
            seen_o.add(target)
            for sigma in arena.observation_events[target]:
                child = (target, sigma)
                if child in arena.decision_edges and child not in seen_d:
                    seen_d.add(child)
                    stack.append(child)
    return Arena(
        arena.model,
        arena.mode,
        {k: v for k, v in arena.decision_edges.items() if k in seen_d},
        {k: v for k, v in arena.observation_events.items() if k in seen_o},
        arena.pruning_trace,
    )


def prune_incomplete(arena: Arena) -> Arena:
    """Remove incomplete states and their incident transitions until none
    remain, then drop states unreachable from the initial decision state.
    The result is the greatest complete safe sub-arena."""
    decision_edges = dict(arena.decision_edges)
    observation_events = dict(arena.observation_events)
    trace: list[tuple] = []
    while True:
        work = Arena(arena.model, arena.mode, decision_edges, observation_events)
        bad = find_incomplete(work)
        if not bad:
            break
        trace.append(
            tuple(sorted(bad.decision_states, key=decision_key_order))
            + tuple(sorted(bad.observation_states))
        )
        for key in bad.decision_states:
            del decision_edges[key]
        for info in bad.observation_states:
            del observation_events[info]
        observation_events = {
            info: tuple(s for s in evs if (info, s) in decision_edges)
            for info, evs in observation_events.items()
        }
        decision_edges = {
            key: tuple(e for e in edges if e[1] in observation_events)
            for key, edges in decision_edges.items()
        }
    pruned = Arena(
        arena.model, arena.mode, decision_edges, observation_events, tuple(trace)
    )
    return _reachable(pruned)


def enumerate_structures(arena: Arena) -> Iterator[ControlStructure]:
    """Lazily yield every control structure embedded in the arena: one
    decision per reachable decision state, all observation transitions kept.
    On an unpruned arena, branches that reach a decision state with no safe
    decision are abandoned, so only complete structures come out."""
    if arena.is_empty:
        return

    def rec(assigned, pending, known_obs):
        if not pending:
            yield ControlStructure(
                arena.model,
                arena.mode,
                dict(assigned),
                {info: arena.observation_events[info] for info in known_obs},
            )
            return
        key = pending[0]
        rest = pending[1:]
        for gamma, target in arena.decision_edges.get(key, ()):
            extra: tuple[DecisionKey, ...] = ()
            if target not in known_obs:
                extra = tuple((target, s) for s in arena.observation_events[target])
            yield from rec(
                {**assigned, key: (gamma, target)},
                rest + extra,
                known_obs | {target},
            )

    yield from rec({}, (INITIAL_KEY,), frozenset())


def exhaustive_solution_exists(arena: Arena) -> bool:
    """Brute-force existence check used as the independent cross-check for
    pruning-based synthesis: search directly for any complete structure in
    the (raw) arena, without running the pruning fixpoint."""
    return next(iter(enumerate_structures(arena)), None) is not None


def extract_matching(arena: Arena, sup) -> ControlStructure | None:
    """The member of the arena's structure family whose decisions agree with
    ``sup`` at every reachable decision state, or None when some required
    decision is not available.  Decision states are matched through a
    representative observation history; the policy must not distinguish
    histories reaching the same state."""
    assigned: dict[DecisionKey, tuple[int, InfoState]] = {}
    known_obs: dict[InfoState, tuple[int, ...]] = {}
    history: dict[DecisionKey, tuple[int, ...]] = {INITIAL_KEY: ()}
    pending: list[DecisionKey] = [INITIAL_KEY]
    while pending:
        key = pending.pop(0)
        if key in assigned:
            continue
        wanted = sup.decision(history[key])
        match = next(
            (edge for edge in arena.decision_edges[key] if edge[0] == wanted), None
        )
        if match is None:
            return None
        assigned[key] = match
        target = match[1]
        if target not in known_obs:
            known_obs[target] = arena.observation_events[target]
            alpha = history[key]
            for sigma in known_obs[target]:
                child = (target, sigma)
                if child in history and sup.decision(history[child]) != sup.decision(
                    alpha + (sigma,)
                ):
                    return None
                history.setdefault(child, alpha + (sigma,))
                pending.append(child)
    return ControlStructure(arena.model, arena.mode, assigned, known_obs)


def _walk_assignment(arena: Arena, choose) -> ControlStructure:
    assigned: dict[DecisionKey, tuple[int, InfoState]] = {}
    known_obs: dict[InfoState, tuple[int, ...]] = {}
    pending: list[DecisionKey] = [INITIAL_KEY]
    while pending:
        key = pending.pop(0)
        if key in assigned:
            continue
        edges = arena.decision_edges[key]
        gamma, target = choose(key, edges)
        assigned[key] = (gamma, target)
        if target not in known_obs:
            known_obs[target] = arena.observation_events[target]
            pending.extend((target, s) for s in known_obs[target])
    return ControlStructure(arena.model, arena.mode, assigned, known_obs)


def _first_feasible(key, edges):
    return edges[0]


def _locally_maximal(key, edges):
    maximal = [
        (gamma, target)
        for gamma, target in edges
        if not any(other != gamma and other | gamma == other for other, _ in edges)
    ]
    return maximal[0]


@dataclass
class SynthesisOutcome:
    """A synthesis result: extracted structures (empty means no solution
    exists) plus the statistics that make a run reproducible and auditable."""

    structures: tuple[ControlStructure, ...]
    policy: str
    mode: IssuanceMode
    arena_states_before: int = 0
    arena_states_after: int = 0
    pruning_iterations: int = 0
    pruning_trace: tuple[tuple, ...] = ()
    elapsed: float = 0.0

    @property
    def solved(self) -> bool:
        return bool(self.structures)

    @property
    def structure(self) -> ControlStructure:
        if not self.structures:
            raise ValueError("no solution exists")
        return self.structures[0]

    def report(self) -> str:
        lines = [
            "synthesis report",
            f"  mode: {self.mode.value}",
            f"  extraction policy: {self.policy}",
            f"  arena states before pruning: {self.arena_states_before}",
            f"  arena states after pruning: {self.arena_states_after}",
            f"  pruning iterations: {self.pruning_iterations}",
            f"  wall time: {self.elapsed:.3f}s",
        ]
        if not self.structures:
            lines.append("  outcome: no solution exists")
            return "\n".join(lines) + "\n"
        lines.append(f"  outcome: {len(self.structures)} structure(s)")
        first = self.structures[0]
        model = first.model
        obs_id, dec_id = canonical_ids(first.observations, first.decisions)
        for info, sigma in dec_id:
            label = (
                "initial"
                if info is None
                else f"o{obs_id[info]} --{model.events[sigma]}-->"
            )
            gamma, target = first.decisions[(info, sigma)]
            lines.append(
                f"    {label} decision {model.format_decision(gamma)} "
                f"-> o{obs_id[target]}"
            )
        return "\n".join(lines) + "\n"


def extract_structure(arena: Arena, cfg: SynthesisConfig) -> SynthesisOutcome:
    """Commit one decision per decision state of a pruned arena.

    ``first_feasible`` takes the canonically first surviving decision;
    ``locally_maximal`` takes one whose decision is set-maximal among the
    state's alternatives; ``enumerate_all`` yields every combination up to
    the configured cap.  An empty arena yields the no-solution marker."""
    if arena.is_empty:
        return SynthesisOutcome(
            (), cfg.extraction_policy, cfg.mode, pruning_trace=arena.pruning_trace
        )
    if cfg.extraction_policy == "first_feasible":
        structures = (_walk_assignment(arena, _first_feasible),)
    elif cfg.extraction_policy == "locally_maximal":
        structures = (_walk_assignment(arena, _locally_maximal),)
    else:
        out = []
        for structure in enumerate_structures(arena):
            out.append(structure)
            if len(out) >= cfg.max_structures:
                break
        structures = tuple(out)
    return SynthesisOutcome(
        structures, cfg.extraction_policy, cfg.mode, pruning_trace=arena.pruning_trace
    )


def synthesize(model: PlantModel, cfg: SynthesisConfig) -> SynthesisOutcome:
    """Expansion, pruning, extraction.  Every returned structure is safe,
    complete, and reachable, so its decoded supervisor enforces opacity."""
    start = time.perf_counter()
    arena = expand_arena(model, cfg)
    before = arena.n_states
    pruned = prune_incomplete(arena)
    outcome = extract_structure(pruned, cfg)
    return replace(
        outcome,
        arena_states_before=before,
        arena_states_after=pruned.n_states,
        pruning_iterations=len(pruned.pruning_trace),
        pruning_trace=pruned.pruning_trace,
        elapsed=time.perf_counter() - start,
    )
