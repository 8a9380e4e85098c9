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
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from .estimator import IssuanceMode
from .model import PlantModel
from .structure import (
    DEFAULT_SIZE_GUARD,
    INITIAL_KEY,
    ControlStructure,
    DecisionKey,
    InfoState,
    SizeGuardExceeded,
    Successors,
    decision_key_order,
)

# Not called here any more, but the layer tracer in perfbench/spans.py patches
# these names on this module.
from .estimator import estimator_step  # noqa: F401
from .structure import nx_is, ur_is  # noqa: F401

EXTRACTION_POLICIES = ("first_feasible", "locally_maximal")


@dataclass(frozen=True)
class SynthesisConfig:
    mode: IssuanceMode = IssuanceMode.OBSERVATION
    extraction_policy: str = "first_feasible"
    size_guard: int = DEFAULT_SIZE_GUARD

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

    It is held in the ids of :class:`_Expansion`: *rows*, tuples of edges
    (decision, observation state id) shared by the decision states that
    have them, the row id of each decision state, and the events of each
    observation state; None marks a state not in this arena (pruning keeps
    the ids it prunes).  ``decision_edges``, ``observation_events`` and
    ``pruning_trace`` are read-only views in ``InfoState``s, built on first
    read, with the insertion orders of a dict-based expansion; the decision
    states of a row share one targets tuple.

    Expansion and pruning both keep two invariants, and pruning relies on
    them:

    - ``observation_events[info] == oracles.feasible_events(model, info)``
      for every observation state;
    - every state is reachable from the initial decision state, along
      decision edges into observation states and from an observation state
      ``info`` along each of its events ``sigma`` into ``(info, sigma)``.

    In ids, the decision states of an observation state are in the arena
    exactly when it is."""

    def __init__(
        self,
        expansion: _Expansion,
        rows: list[tuple[tuple[int, int], ...] | None],
        row_of: list[int | None],
        events: list[tuple[int, ...] | None],
        counts: tuple[int, int],
        ranks: tuple[tuple[list[int], list[int]], ...] = (),
    ):
        self.model = expansion.kernel.model
        self.mode = expansion.kernel.mode
        self._expansion = expansion
        self._rows = rows
        self._row_of = row_of
        self._events = events
        self._counts = counts  # decision states, observation states
        self._ranks = ranks  # per rank: the decision and observation ids removed

    @property
    def n_states(self) -> int:
        return self._counts[0] + self._counts[1]

    @property
    def pruning_iterations(self) -> int:
        return len(self._ranks)

    @cached_property
    def _dict_views(self) -> tuple[Mapping, Mapping]:
        info, base, row_of = self._expansion.info, self._expansion.base, self._row_of
        rows = [out and tuple((gamma, info(o)) for gamma, o in out) for out in self._rows]
        decision_edges: dict[DecisionKey, tuple[tuple[int, InfoState], ...]] = {}
        observation_events: dict[InfoState, tuple[int, ...]] = {}
        if row_of[0] is not None:
            decision_edges[INITIAL_KEY] = rows[row_of[0]]
        for o, events in enumerate(self._events):
            if events is not None:
                target = info(o)
                observation_events[target] = events
                for d, sigma in enumerate(events, base[o]):
                    decision_edges[(target, sigma)] = rows[row_of[d]]
        return MappingProxyType(decision_edges), MappingProxyType(observation_events)

    @property
    def decision_edges(self) -> Mapping[DecisionKey, tuple[tuple[int, InfoState], ...]]:
        return self._dict_views[0]

    @property
    def observation_events(self) -> Mapping[InfoState, tuple[int, ...]]:
        return self._dict_views[1]

    @cached_property
    def pruning_trace(self) -> tuple[tuple, ...]:
        """The removed states by rank: decision keys in
        :func:`decision_key_order`, then observation states, sorted."""
        key, info = self._expansion.key, self._expansion.info
        return tuple(
            tuple(sorted(map(key, ds), key=decision_key_order))
            + tuple(sorted(map(info, os)))
            for ds, os in self._ranks
        )

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

    The kernel answers with one set of core ids per column: one per class
    of decision, and under the decision-triggered mechanism a last one for
    the old decision kept (see :class:`Successors`).  A decision reads its
    class's column, and there the old decision itself the last one.  Safety
    is one mask test per column, against the kernel's set of revealing
    cores.  A safe target gets its observation state id when it is first
    reached under its decision; no ``InfoState`` is built.

    A decision state's row of edges is memoised twice.  The first memo maps
    what fixes it, the *settled key*, to its row id: the cores the event
    moves, the event, and the old decision's class, or under the
    decision-triggered mechanism the old decision itself, which has a
    column of its own.  On a miss, the targets come from
    :meth:`Successors.targets`, whose table per (event, class of the old
    decision) already holds every row and merge, and the *safe row* is the
    targets with each unsafe one set to None.  The second memo maps the
    layout key (the old decision under the decision-triggered mechanism,
    else None) and the safe row to the row id: that is all the loop over
    :attr:`Successors.decisions` reads, so it runs, and appends a row, once
    per distinct (layout key, safe row).  A new observation state takes its
    events from :meth:`Successors.feasible_events`.  The first decision
    state with a row numbers every safe target it reaches, so a later one
    with the same row reaches no new state and shares the row: ids, orders
    and the size-guard trip point are those of expanding every state."""
    successor = Successors(model, cfg.mode)
    expansion = _Expansion(successor)
    decision_of, cores_of, events_of = expansion.decision, expansion.cores, expansion.events
    base, owner = expansion.base, expansion.owner
    decisions, columns = successor.decisions, successor._classes[1]
    hidden, active_at = successor._hidden, successor._active_at
    decision_mode = cfg.mode is IssuanceMode.DECISION
    size_guard = cfg.size_guard
    rows: list[tuple[tuple[int, int], ...]] = []
    row_of: list[int | None] = [None]
    n_decision, n_observation = 1, 0
    # Row ids by layout key and safe row.
    by_row: dict[tuple[int | None, tuple], int] = {}
    # Row ids by settled key; the initial decision state's under None.
    settled: dict[tuple[int, int, int] | None, int] = {}
    reached: dict[tuple[int, int], int] = {}
    # Decision states to expand; each reads its observation state's
    # decision and core set, and its event, back from the lists above.
    stack = [0]
    while stack:
        d = stack.pop()
        o = owner[d]
        if o < 0:
            old = cores = sigma = probe = None
        else:
            old, cores = decision_of[o], cores_of[o]
            sigma = events_of[o][d - base[o]]
            moved = cores & active_at[sigma]
            probe = (old if decision_mode else old & hidden, moved, sigma)
            r = settled.get(probe)
            if r is not None:
                row_of[d] = r
                continue
        targets = successor.targets(old, cores, sigma)
        # Read after the targets: answering them interns their cores.
        revealing = successor._revealing
        row = tuple([None if t & revealing else t for t in targets])
        own = old if decision_mode else None  # the decision whose column is last
        row_key = (own, row)
        r = by_row.get(row_key)
        if r is None:
            out = []
            for gamma, column in zip(decisions, columns):
                t = row[-1 if gamma == own else column]
                if t is None:
                    continue
                o = reached.get((gamma, t))
                if o is None:
                    o = reached[(gamma, t)] = n_observation
                    n_observation += 1
                    feasible = successor.feasible_events(gamma, t)
                    first, n_decision = n_decision, n_decision + len(feasible)
                    decision_of.append(gamma)
                    cores_of.append(t)
                    events_of.append(feasible)
                    base.append(first)
                    row_of.extend([None] * (n_decision - first))
                    owner.extend([o] * (n_decision - first))
                    stack.extend(range(first, n_decision))
                    if n_decision + n_observation > size_guard:
                        raise SizeGuardExceeded(size_guard, n_decision, n_observation)
                out.append((gamma, o))
            r = by_row[row_key] = len(rows)
            rows.append(tuple(out))
        row_of[d] = settled[probe] = r
    return Arena(expansion, rows, row_of, events_of, (len(row_of), len(events_of)))


def prune_incomplete(arena: Arena) -> Arena:
    """Remove the incomplete states and every state their removal makes
    incomplete, then drop states unreachable from the initial decision
    state.  The result is the greatest complete safe sub-arena.

    The removed states are the attractor of the incomplete ones, worked out
    in one backward pass over ids: a row dies when its last target has gone
    (a count of live edges per row, decremented along predecessor lists of
    rows), and every decision state with it goes; an observation state goes
    when the first of its decision states has.  Every event of an
    observation state has its decision state, and every row has a user, so
    the incomplete states are the users of the empty rows.  A state's rank
    is 0 when it is incomplete in the given arena, else one more than the
    rank of the removal that forced it out: its round in a round-by-round
    fixpoint, by which ``pruning_trace`` lists the removed states.  Each
    surviving row is filtered once; when nothing is incomplete, the lists
    are shared."""
    expansion = arena._expansion
    rows, row_of, events = arena._rows, arena._row_of, arena._events
    if () not in rows:
        return Arena(expansion, rows, row_of, events, arena._counts)
    users: list[list[int]] = [[] for _ in rows]
    for d, r in enumerate(row_of):
        if r is not None:
            users[r].append(d)
    level_d = [d for r, out in enumerate(rows) if not out for d in users[r]]
    predecessors: list[list[int]] = [[] for _ in events]
    live = [len(out) for out in rows]
    for r, out in enumerate(rows):
        for _, o in out:
            predecessors[o].append(r)
    owner = expansion.owner
    removed_o = bytearray(len(events))
    level_o: list[int] = []
    ranks = []
    while level_d or level_o:
        ranks.append((level_d, level_o))
        next_d = []
        for o in level_o:
            for r in predecessors[o]:
                live[r] -= 1
                if not live[r]:
                    next_d.extend(users[r])
        next_o = []
        for d in level_d:
            o = owner[d]
            if o >= 0 and not removed_o[o]:
                removed_o[o] = 1
                next_o.append(o)
        level_d, level_o = next_d, next_o
    kept_rows: list[tuple[tuple[int, int], ...] | None] = [None] * len(rows)
    kept_row_of: list[int | None] = [None] * len(row_of)
    kept_events: list[tuple[int, ...] | None] = [None] * len(events)
    if not live[row_of[0]]:  # the initial decision state went
        return Arena(expansion, kept_rows, kept_row_of, kept_events, (0, 0), tuple(ranks))
    # Every event of a surviving observation state leads to a surviving
    # decision state, or the observation state would have gone.  A row's
    # targets are reached when it is first filtered.
    base = expansion.base
    n_decision = n_observation = 0
    stack = [0]
    while stack:
        d = stack.pop()
        n_decision += 1
        r = kept_row_of[d] = row_of[d]
        if kept_rows[r] is not None:
            continue
        out = kept_rows[r] = tuple(edge for edge in rows[r] if not removed_o[edge[1]])
        for _, o in out:
            if kept_events[o] is None:
                kept_events[o] = events[o]
                n_observation += 1
                stack.extend(range(base[o], base[o] + len(events[o])))
    counts = (n_decision, n_observation)
    return Arena(expansion, kept_rows, kept_row_of, kept_events, counts, tuple(ranks))


def _set_maximal(out: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The edges of row ``out`` whose decision no other decision contains,
    in row order.  Decisions go by decreasing size, so each is checked only
    against the maximal ones found before it, which contain its supersets."""
    maximal: list[int] = []
    for g in sorted((gamma for gamma, _ in out), key=int.bit_count, reverse=True):
        if not any(g | m == m for m in maximal):
            maximal.append(g)
    return tuple(edge for edge in out if edge[0] in maximal)


def _structures(arena: Arena, rows: list) -> Iterator[Callable[[], ControlStructure]]:
    """Every control structure embedded in the arena, by backtracking over
    ids.  Decision states are committed breadth first from the initial one,
    each to one of the edges of its row in ``rows`` (the arena's, or cut
    from them) in order, and a commit is undone on backtrack.  A branch
    that reaches a decision state with no edge to offer is abandoned, so
    only complete structures come out; on a pruned arena the first comes
    out without backtracking, and it is the one extraction builds;
    :func:`opactrl.oracles.enumerate_structures` builds them all.  Each
    comes out as a call that builds it, valid until the generator resumes:
    decisions in commit order, observation states in first-reach order,
    and ``InfoState``s for it."""
    expansion, row_of = arena._expansion, arena._row_of
    if row_of[0] is None:  # an empty arena
        return
    base, events, info, key = expansion.base, arena._events, expansion.info, expansion.key
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
            out = rows[row_of[queue[len(commits)]]]
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


@dataclass
class SynthesisOutcome:
    """A synthesis result: the extracted structure (None means no solution
    exists), plus the statistics that make a run reproducible and
    auditable."""

    found: ControlStructure | None
    policy: str
    mode: IssuanceMode
    arena_states_before: int = 0
    arena_states_after: int = 0
    pruning_iterations: int = 0
    elapsed: float = 0.0

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
        lines.append("  outcome: 1 structure(s)")
        model = first.model
        obs_id, dec_id = first.canonical_ids
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
    ``locally_maximal`` the first set-maximal one, from each row cut once
    to its set-maximal edges.  An empty arena yields the no-solution marker,
    and an arena with an empty row, which pruning would remove, raises
    ValueError.  The outcome's arena sizes and pruning
    iterations are read from ``arena``; its size before pruning is that of
    the expansion it was pruned from."""
    policy, rows = cfg.extraction_policy, arena._rows
    if () in rows:
        raise ValueError("arena not pruned: a decision state has no decision left")
    if policy == "locally_maximal":
        rows = [out and _set_maximal(out) for out in rows]
    build = next(_structures(arena, rows), None)
    expansion = arena._expansion
    return SynthesisOutcome(
        None if build is None else build(),
        policy,
        cfg.mode,
        arena_states_before=len(expansion.owner) + len(expansion.cores),
        arena_states_after=arena.n_states,
        pruning_iterations=arena.pruning_iterations,
    )


def synthesize(model: PlantModel, cfg: SynthesisConfig) -> SynthesisOutcome:
    """Expansion, pruning, extraction.  The returned structure is safe,
    complete, and reachable, so its decoded supervisor enforces opacity."""
    start = time.perf_counter()
    outcome = extract_structure(prune_incomplete(expand_arena(model, cfg)), cfg)
    outcome.elapsed = time.perf_counter() - start
    return outcome
