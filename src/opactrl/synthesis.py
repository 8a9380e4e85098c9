"""Supervisor synthesis as a safety game over information states.

Expansion enumerates every control decision from every reachable decision
state, keeping only safe observation states.  Pruning removes the attractor
of the incomplete states: decision states left with no decision, and
observation states missing a feasible observation.  Extraction then commits
one decision per surviving decision state.  All three run on state ids;
information states are built for the structure extracted, and for an
arena's dict views when those are read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from .estimator import IssuanceMode
from .model import PlantModel
from .structure import (
    INITIAL_KEY,
    ControlStructure,
    DecisionKey,
    InfoState,
    SizeGuardExceeded,
    Successors,
    canonical_ids,
    decision_key_order,
)

# Not called here any more, but the layer tracer in perfbench/spans.py patches
# these names on this module.
from .estimator import estimator_step  # noqa: F401
from .structure import nx_is, ur_is  # noqa: F401

EXTRACTION_POLICIES = ("first_feasible", "locally_maximal", "enumerate_all")

# The most structures ``enumerate_all`` yields.
MAX_STRUCTURES = 64


@dataclass(frozen=True)
class SynthesisConfig:
    mode: IssuanceMode = IssuanceMode.OBSERVATION
    extraction_policy: str = "first_feasible"
    size_guard: int = 10**6

    def __post_init__(self):
        if self.extraction_policy not in EXTRACTION_POLICIES:
            raise ValueError(f"unknown extraction policy {self.extraction_policy!r}")
        if self.size_guard < 1:
            raise ValueError("size_guard must be positive")


class _Expansion:
    """The states one expansion numbered, shared by the arena it built and
    by every arena pruned from it.

    Observation state ``o`` (ids in order of first reach) has the decision
    ``decision[o]``, the core set ``cores[o]`` (see :class:`Successors`) and
    the feasible events ``events[o]``.  Decision state 0 is the initial one;
    the decision states of ``o`` have the consecutive ids ``base[o] + i``,
    one per event ``events[o][i]``, and ``owner[d]`` is the observation
    state of decision state ``d`` (-1 for the initial one).  So ids follow
    the insertion order of the dict views of :class:`Arena`.  An
    ``InfoState`` is built only when asked for, once per id."""

    def __init__(self, kernel: Successors):
        self.kernel = kernel
        self.decision: list[int] = []
        self.cores: list[int] = []
        self.events: list[tuple[int, ...]] = []
        self.base: list[int] = []
        self.owner: list[int] = [-1]
        self._infos: dict[int, InfoState] = {}

    def info(self, o: int) -> InfoState:
        info = self._infos.get(o)
        if info is None:
            info = self._infos[o] = self.kernel.info_of(self.decision[o], self.cores[o])
        return info

    def key(self, d: int) -> DecisionKey:
        if not d:
            return INITIAL_KEY
        o = self.owner[d]
        return self.info(o), self.events[o][d - self.base[o]]


class Arena:
    """Expansion result: like a control structure, but decision states carry
    every safe alternative (possibly none).

    It is held in the ids of :class:`_Expansion`: per decision state, its
    edges as (decision, observation state id), and per observation state,
    its events; None marks a state that is not in this arena (pruning keeps
    the ids of the arena it prunes).  ``decision_edges``,
    ``observation_events`` and ``pruning_trace`` are read-only views in
    ``InfoState``s, built on first read, with the insertion orders of a
    dict-based expansion.

    Expansion and pruning both keep two invariants, and pruning relies on
    them:

    - ``observation_events[info] == feasible_events(model, info)`` for every
      observation state;
    - every state is reachable from the initial decision state, along
      decision edges into observation states and from an observation state
      ``info`` along each of its events ``sigma`` into ``(info, sigma)``.

    In ids, the decision states of an observation state are in the arena
    exactly when it is."""

    def __init__(
        self,
        expansion: _Expansion,
        edges: list[tuple[tuple[int, int], ...] | None],
        events: list[tuple[int, ...] | None],
        counts: tuple[int, int],
        ranks: tuple[tuple[list[int], list[int]], ...] = (),
    ):
        self.model = expansion.kernel.model
        self.mode = expansion.kernel.mode
        self._expansion = expansion
        self._edges = edges
        self._events = events
        self._counts = counts  # decision states, observation states
        self._ranks = ranks  # per rank: the decision and observation ids removed
        self._dicts: tuple[Mapping, Mapping] | None = None
        self._trace: tuple[tuple, ...] | None = None

    @property
    def n_states(self) -> int:
        return self._counts[0] + self._counts[1]

    @property
    def is_empty(self) -> bool:
        return self._edges[0] is None

    @property
    def pruning_iterations(self) -> int:
        return len(self._ranks)

    def _dict_views(self) -> tuple[Mapping, Mapping]:
        if self._dicts is None:
            info, base = self._expansion.info, self._expansion.base
            edges = self._edges

            def targets(d):
                return tuple((gamma, info(o)) for gamma, o in edges[d])

            decision_edges: dict[DecisionKey, tuple[tuple[int, InfoState], ...]] = {}
            observation_events: dict[InfoState, tuple[int, ...]] = {}
            if edges[0] is not None:
                decision_edges[INITIAL_KEY] = targets(0)
            for o, events in enumerate(self._events):
                if events is not None:
                    target = info(o)
                    observation_events[target] = events
                    for d, sigma in enumerate(events, base[o]):
                        decision_edges[(target, sigma)] = targets(d)
            self._dicts = (
                MappingProxyType(decision_edges),
                MappingProxyType(observation_events),
            )
        return self._dicts

    @property
    def decision_edges(self) -> Mapping[DecisionKey, tuple[tuple[int, InfoState], ...]]:
        return self._dict_views()[0]

    @property
    def observation_events(self) -> Mapping[InfoState, tuple[int, ...]]:
        return self._dict_views()[1]

    @property
    def pruning_trace(self) -> tuple[tuple, ...]:
        """The removed states by rank: decision keys in
        :func:`decision_key_order`, then observation states, sorted."""
        if self._trace is None:
            key, info = self._expansion.key, self._expansion.info
            self._trace = tuple(
                tuple(sorted(map(key, ds), key=decision_key_order))
                + tuple(sorted(map(info, os)))
                for ds, os in self._ranks
            )
        return self._trace

    def __repr__(self):
        return (
            f"Arena({self._counts[0]} decision states, "
            f"{self._counts[1]} observation states, {self.mode.value})"
        )


def expand_arena(model: PlantModel, cfg: SynthesisConfig) -> Arena:
    """Depth-first expansion from the initial decision state, trying every
    valid decision and keeping only edges into safe observation states.  Each
    new safe observation state spawns one decision state per feasible
    observation.  Unsafe targets are computed, tested, and discarded without
    ever entering the arena.

    The kernel answers with one set of core ids per column of its layout:
    one per class of decision, and under the decision-triggered mechanism
    one more for the old decision kept (see :class:`Successors`).  Safety
    reads the estimates only, so it is one mask test per column, against
    the kernel's set of revealing cores.  A safe target gets its
    observation state id when it is first reached under its decision; no
    ``InfoState`` is built.

    The edges of a decision state are memoised three times.  The first
    memo maps the targets key (the class of the old decision, the cores the
    event moves and the event), which fixes :meth:`Successors.targets`, to
    the *safe row*: the targets with each unsafe one set to None.  The
    second maps the layout key (the old decision under the
    decision-triggered mechanism, else nothing) and the safe row to the
    edges: that is all the loop over :attr:`Successors.decisions` reads, so
    it runs once per distinct (layout, safe row), where many targets keys
    share one row.  The third maps what fixes both keys, the targets key
    with the old decision itself in place of its class under the
    decision-triggered mechanism, to the edges, so that a decision state
    met again under it takes its edges in one probe.  The first decision
    state with a row numbers every safe target it reaches, so a later one
    with the same row reaches no new state and takes the same edges: ids,
    orders and the size-guard trip point are those of expanding every
    state."""
    successor = Successors(model, cfg.mode)
    expansion = _Expansion(successor)
    decision_of, cores_of, events_of = expansion.decision, expansion.cores, expansion.events
    base, owner = expansion.base, expansion.owner
    decisions = successor.decisions
    hidden, active_at = successor._hidden, successor._active_at
    observable = model.supervisor_observable
    decision_mode = cfg.mode is IssuanceMode.DECISION
    size_guard = cfg.size_guard
    edges: list[tuple[tuple[int, int], ...] | None] = [None]
    n_decision, n_observation = 1, 0
    # Safe rows by targets key; the initial decision state's under None.
    known: dict[tuple[int, int, int] | None, tuple[int | None, ...]] = {}
    # Edges by layout key and safe row.
    by_row: dict[tuple[int | None, tuple], tuple[tuple[int, int], ...]] = {}
    # Edges by targets key, with the old decision for its class under the
    # decision-triggered mechanism.
    settled: dict[tuple[int, int, int] | None, tuple[tuple[int, int], ...]] = {}
    reached: dict[tuple[int, int], int] = {}
    # Decision states to expand; each reads its observation state's
    # decision and core set, and its event, back from the lists above.
    stack = [0]
    while stack:
        d = stack.pop()
        o = owner[d]
        if o < 0:
            old = cores = sigma = key = probe = None
        else:
            old, cores = decision_of[o], cores_of[o]
            sigma = events_of[o][d - base[o]]
            moved = cores & active_at[sigma]
            key = (old & hidden, moved, sigma)
            probe = (old, moved, sigma) if decision_mode else key
            out = settled.get(probe)
            if out is not None:
                edges[d] = out
                continue
        row = known.get(key)
        if row is None:
            targets = successor.targets(old, cores, sigma)
            # Read after the targets: answering them interns their cores.
            revealing = successor._revealing
            row = known[key] = tuple([None if t & revealing else t for t in targets])
        row_key = (old if decision_mode else None, row)
        out = by_row.get(row_key)
        if out is None:
            out = []
            for gamma, column in zip(decisions, successor.layout(old)):
                t = row[column]
                if t is None:
                    continue
                o = reached.get((gamma, t))
                if o is None:
                    o = reached[(gamma, t)] = n_observation
                    n_observation += 1
                    # The feasible events: observable, enabled and active
                    # at some core.
                    feasible = []
                    events = observable & gamma
                    while events:
                        low = events & -events
                        events ^= low
                        s = low.bit_length() - 1
                        if t & active_at[s]:
                            feasible.append(s)
                    first, n_decision = n_decision, n_decision + len(feasible)
                    decision_of.append(gamma)
                    cores_of.append(t)
                    events_of.append(tuple(feasible))
                    base.append(first)
                    edges.extend([None] * (n_decision - first))
                    owner.extend([o] * (n_decision - first))
                    stack.extend(range(first, n_decision))
                    if n_decision + n_observation > size_guard:
                        raise SizeGuardExceeded(size_guard, n_decision, n_observation)
                out.append((gamma, o))
            out = by_row[row_key] = tuple(out)
        edges[d] = settled[probe] = out
    return Arena(expansion, edges, events_of, (len(edges), len(events_of)))


def _undecided(arena: Arena) -> list[int]:
    """The decision states of ``arena`` left with no decision: the states
    that make an arena incomplete."""
    return [d for d, out in enumerate(arena._edges) if out is not None and not out]


def prune_incomplete(arena: Arena) -> Arena:
    """Remove the incomplete states and every state their removal makes
    incomplete, then drop states unreachable from the initial decision
    state.  The result is the greatest complete safe sub-arena.

    The removed states are the attractor of the incomplete ones, worked out
    in one backward pass over ids: a decision state goes when its last
    target has gone (a count of live edges per decision state, decremented
    along predecessor lists), an observation state when the first of its
    decision states has.  Every event of an observation state has its
    decision state, so only decision states with no edge are incomplete to
    begin with.  A state's rank is 0 when it is incomplete in the given
    arena, else one more than the rank of the removal that forced it out.
    That is the round in which a round-by-round fixpoint would remove it,
    and ``pruning_trace`` lists the removed states by rank.  When nothing is
    incomplete the arena's lists are shared, not rebuilt."""
    expansion = arena._expansion
    edges, events = arena._edges, arena._events
    level_d = _undecided(arena)
    if not level_d:
        return Arena(expansion, edges, events, arena._counts)
    predecessors: list[list[int]] = [[] for _ in events]
    live = [0] * len(edges)
    for d, out in enumerate(edges):
        if out:
            live[d] = len(out)
            for _, o in out:
                predecessors[o].append(d)
    owner = expansion.owner
    removed_o = bytearray(len(events))
    level_o: list[int] = []
    ranks = []
    while level_d or level_o:
        ranks.append((level_d, level_o))
        next_d = []
        for o in level_o:
            for d in predecessors[o]:
                live[d] -= 1
                if not live[d]:
                    next_d.append(d)
        next_o = []
        for d in level_d:
            o = owner[d]
            if o >= 0 and not removed_o[o]:
                removed_o[o] = 1
                next_o.append(o)
        level_d, level_o = next_d, next_o
    kept_edges: list[tuple[tuple[int, int], ...] | None] = [None] * len(edges)
    kept_events: list[tuple[int, ...] | None] = [None] * len(events)
    if not live[0]:  # the initial decision state went
        return Arena(expansion, kept_edges, kept_events, (0, 0), tuple(ranks))
    # Every event of a surviving observation state leads to a surviving
    # decision state, or the observation state would have gone.
    base = expansion.base
    n_decision = n_observation = 0
    # Decision states to expand; each reads its observation state's
    # decision and core set, and its event, back from the lists above.
    stack = [0]
    while stack:
        d = stack.pop()
        n_decision += 1
        out = kept_edges[d] = tuple(edge for edge in edges[d] if not removed_o[edge[1]])
        for _, o in out:
            if kept_events[o] is None:
                kept_events[o] = events[o]
                n_observation += 1
                stack.extend(range(base[o], base[o] + len(events[o])))
    return Arena(
        expansion, kept_edges, kept_events, (n_decision, n_observation), tuple(ranks)
    )


def _structures(arena: Arena, maximal: bool) -> Iterator[Callable[[], ControlStructure]]:
    """Every control structure embedded in the arena, by backtracking over
    ids.  Decision states are committed breadth first from the initial one,
    each to one of its edges in order (only to a set-maximal one when
    ``maximal``), and a commit is undone on backtrack.  A branch that
    reaches a decision state with no edge to offer is abandoned, so only
    complete structures come out; on a pruned arena the first comes out
    without backtracking.  Each comes out as a call that builds it, valid
    until the generator resumes: decisions in commit order, observation
    states in first-reach order, and ``InfoState``s for it alone."""
    expansion, edges, events = arena._expansion, arena._edges, arena._events
    base, info, key = expansion.base, expansion.info, expansion.key
    queue = [0]  # decision ids; the first len(commits) are committed
    # Per commit: the edges offered, the one taken, and whether it reached
    # its observation state first.
    commits: list[tuple[tuple[tuple[int, int], ...], int, bool]] = []
    known: dict[int, tuple[int, ...]] = {}  # observation ids, first-reach order

    def build() -> ControlStructure:
        taken = (offer[i] for offer, i, _ in commits)
        return ControlStructure(
            arena.model,
            arena.mode,
            {key(d): (gamma, info(o)) for d, (gamma, o) in zip(queue, taken)},
            {info(o): evs for o, evs in known.items()},
        )

    k = 0  # the next edge to try at queue[len(commits)]
    while True:
        if len(commits) == len(queue):
            yield build
            out = ()
        else:
            out = edges[queue[len(commits)]] or ()
            if maximal:
                out = tuple(
                    e for e in out if not any(g != e[0] and g | e[0] == g for g, _ in out)
                )
        if k < len(out):
            o = out[k][1]
            fresh = o not in known
            commits.append((out, k, fresh))
            if fresh:
                known[o] = events[o]
                queue.extend(range(base[o], base[o] + len(events[o])))
            k = 0
        elif commits:
            out, k, fresh = commits.pop()
            if fresh:
                known.popitem()
                del queue[len(queue) - len(events[out[k][1]]):]
            k += 1
        else:
            return


def enumerate_structures(arena: Arena) -> Iterator[ControlStructure]:
    """Lazily yield every control structure embedded in the arena: one
    decision per reachable decision state, all observation transitions kept.
    On an unpruned arena, branches that reach a decision state with no safe
    decision are abandoned, so only complete structures come out."""
    return (build() for build in _structures(arena, maximal=False))


def exhaustive_solution_exists(arena: Arena) -> bool:
    """Brute-force existence check used as the independent cross-check for
    pruning-based synthesis: search directly for any complete structure in
    the (raw) arena, without running the pruning fixpoint."""
    return next(_structures(arena, maximal=False), None) is not None


@dataclass
class SynthesisOutcome:
    """A synthesis result: the extracted structure (None means no solution
    exists), how many the policy counted, plus the statistics that make a
    run reproducible and auditable."""

    found: ControlStructure | None
    count: int
    policy: str
    mode: IssuanceMode
    arena_states_before: int = 0
    arena_states_after: int = 0
    pruning_iterations: int = 0
    elapsed: float = 0.0
    # The pruned arena the structure was extracted from.
    arena: Arena | None = field(default=None, repr=False, compare=False)

    @property
    def solved(self) -> bool:
        return self.found is not None

    @property
    def structure(self) -> ControlStructure:
        if self.found is None:
            raise ValueError("no solution exists")
        return self.found

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
        first = self.found
        if first is None:
            lines.append("  outcome: no solution exists")
            return "\n".join(lines) + "\n"
        lines.append(f"  outcome: {self.count} structure(s)")
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
    state's alternatives; ``enumerate_all`` counts every combination up to
    :data:`MAX_STRUCTURES` and builds the first.  An empty arena yields the
    no-solution marker, and an arena with a decision state left with no
    decision, which pruning would remove, raises ValueError.
    The outcome's arena sizes and pruning iterations are read from ``arena``;
    its size before pruning is that of the expansion it was pruned from."""
    if undecided := _undecided(arena):
        raise ValueError(f"arena not pruned: {len(undecided)} decision states undecided")
    policy = cfg.extraction_policy
    limit = MAX_STRUCTURES if policy == "enumerate_all" else 1
    commitments = islice(_structures(arena, policy == "locally_maximal"), limit)
    found = next((build() for build in commitments), None)
    count = (found is not None) + sum(1 for _ in commitments)
    expansion = arena._expansion
    return SynthesisOutcome(
        found,
        count,
        policy,
        cfg.mode,
        arena_states_before=len(expansion.owner) + len(expansion.cores),
        arena_states_after=arena.n_states,
        pruning_iterations=arena.pruning_iterations,
        arena=arena,
    )


def synthesize(model: PlantModel, cfg: SynthesisConfig) -> SynthesisOutcome:
    """Expansion, pruning, extraction.  The returned structure is safe,
    complete, and reachable, so its decoded supervisor enforces opacity."""
    start = time.perf_counter()
    outcome = extract_structure(prune_incomplete(expand_arena(model, cfg)), cfg)
    outcome.elapsed = time.perf_counter() - start
    return outcome
