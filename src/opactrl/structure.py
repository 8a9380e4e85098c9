"""Information states and control structures.

An information state is the supervisor's knowledge of the intruder's
knowledge: a set of estimator states sharing one decision.  A control
structure is a bipartite graph alternating decision states, where exactly
one decision is committed, and observation states, where every feasible
supervisor observation is resolved.  Walking it decodes a supervisor
policy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import or_
from typing import Iterator, Sequence

from .estimator import (
    AugmentedEvent,
    EstimatorState,
    IssuanceMode,
    estimator_step,
    released,
    update_estimate,
)

# Closed-loop simulation lives in the estimator; callers such as
# perfbench/workloads.py import it from here.
from .estimator import SimulationResult, closed_loop_simulate  # noqa: F401
from .model import PlantModel, iter_bits
from .supervisors import Supervisor

# A canonical information state: estimator states sorted by
# (plant state, estimate, decision).
InfoState = tuple[EstimatorState, ...]

# A decision state is (source observation state, observed event); the initial
# decision state, holding only the estimator's initial marker, is (None, None).
DecisionKey = tuple[InfoState | None, int | None]

INITIAL_KEY: DecisionKey = (None, None)


def decision_key_order(key: DecisionKey):
    """Total order over decision keys; the initial key sorts first."""
    info, sigma = key
    return ((), -1) if info is None else (info, sigma)


class StructureError(ValueError):
    """A control structure is malformed or an observation is infeasible."""


class SizeGuardExceeded(RuntimeError):
    """A search hit the configured state budget.  Arena expansion counts its
    decision and observation states; the closed-loop searches of
    verification count the states they visited, with ``decision_states``
    None."""

    def __init__(
        self,
        guard: int,
        decision_states: int | None,
        observation_states: int,
        search: str = "arena",
    ):
        counts = (
            f"{observation_states} visited"
            if decision_states is None
            else f"{decision_states} decision + {observation_states} observation"
        )
        super().__init__(
            f"{search} exceeded size guard of {guard} states ({counts} so far)"
        )
        self.guard = guard
        self.decision_states = decision_states
        self.observation_states = observation_states


def make_info(members: Sequence[EstimatorState]) -> InfoState:
    return tuple(sorted(set(members)))


def info_plant_states(info: InfoState) -> int:
    mask = 0
    for m in info:
        mask |= 1 << m.plant_state
    return mask


def info_estimates(info: InfoState) -> frozenset[int]:
    return frozenset(m.estimate for m in info)


def is_consistent(info: InfoState) -> bool:
    return all(m.decision == info[0].decision for m in info)


def info_decision(info: InfoState) -> int:
    """The decision shared by all members; defined only for consistent states."""
    if not info:
        raise StructureError("empty information state has no decision")
    if not is_consistent(info):
        raise StructureError("inconsistent information state")
    return info[0].decision


def is_safe(info: InfoState, secret_mask: int) -> bool:
    """True when no member estimate is contained in the secret set."""
    return all(m.estimate & ~secret_mask for m in info)


class Successors:
    """The decision successor of one model under one issuance mode.

    Every member of an information state carries the state's one decision,
    so the kernel keeps apart only what differs between members: the
    *core*, (plant state, estimate).  Each core it meets gets a dense int
    id, in the order it is discovered, and inside the kernel an information
    state is its decision and the set of its core ids, held as an int with
    bit ``c`` set for core ``c``: merging sets is an ``|``, and safety is
    one ``&`` against the set of cores whose estimate lies in the secret.

    A step and a closure read of a decision only its events hidden from the
    supervisor or the intruder, ``gamma & (Σ_uo,S | Σ_uo,I)``, so decisions
    that agree there fall in one *class* and get one answer.  Whether a step
    releases the new decision is :func:`released`, read once per event into
    a table, for a new decision that differs from the old one and for the
    old one kept.  Under the decision-triggered mechanism only a change is
    released, so there the unchanged decision gets a column of its own.

    It memoises, for its own lifetime, the pure functions that expansion
    asks about again and again, each keyed on exactly what its answer
    reads:

    - the plant's reach operators, which the intruder's estimate update
      calls (see :class:`_ReachMemo`).  An estimator step is the plant
      successor plus this update, so steps keep no memo of their own:
      :meth:`_images` takes every observed step, and :meth:`_closure` the
      silent ones;
    - the closure of each single core under unobservable events, keyed by
      (core id, class of the decision).  The closure of an information
      state is the union of its members' closures, because every member
      steps on its own;
    - the closed images of each *pre-image*, the plant state stepped to
      and the intruder's estimate before the new decision is released (or
      the core kept when nothing is released), under the decisions asked
      (see :meth:`_images`);
    - one row table per (event, class of the old decision),
      holding per core the core's image under the event, closed, under
      one representative of each class of new decision, and last, under
      the decision-triggered mechanism, under the old decision kept (see
      :meth:`layout` and :meth:`_row`).  The targets of a decision state
      are the rows of the cores the event moves, merged position by
      position, and the table keeps those merges too (see
      :meth:`targets`).

    It takes and answers core sets only; :meth:`intern` and :meth:`info_of`
    convert between an information state and its decision and core set.
    Expansion asks :meth:`targets` for every decision class at once, and a
    walk of one structure asks :meth:`target` for the one decision it
    commits; both, and the initial decision state, read :meth:`_images`.

    Build one per computation and drop it after: nothing here outlives the
    object."""

    def __init__(self, model: PlantModel, mode: IssuanceMode):
        self.model = model
        self.mode = mode
        self._decision_mode = mode is IssuanceMode.DECISION
        # The events of a decision that steps and closures read.
        self._hidden = model.supervisor_unobservable | model.intruder_unobservable
        # Per event: whether a step on it releases the new decision, indexed
        # by whether the new decision is the old one.
        self._release = tuple(
            (released(model, sigma, True, mode), released(model, sigma, False, mode))
            for sigma in range(len(model.events))
        )
        self._reach = _ReachMemo(model)
        self._cores: list[tuple[int, int]] = []
        self._core_ids: dict[tuple[int, int], int] = {}
        # Per core id: the events active at its plant state.
        self._active: list[int] = []
        # Per event: the set of cores at whose plant state it is active.
        self._active_at: list[int] = [0] * len(model.events)
        # The set of cores whose estimate lies inside the secret.
        self._revealing = 0
        self._closures: dict[tuple[int, int], int] = {}
        self._layouts: dict[int, tuple[int, ...]] = {}
        # Per (event, class of the old decision): rows and their merges,
        # by set of cores.
        self._tables: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}
        self._preimages: dict[tuple, tuple[int, ...]] = {}

    @cached_property
    def decisions(self) -> tuple[int, ...]:
        """Every valid decision, in :meth:`PlantModel.iter_decisions` order.
        Listed on first use, because only expansion asks about every
        decision."""
        return tuple(self.model.iter_decisions())

    @cached_property
    def _classes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """One representative of each class of decision, in order of first
        appearance in :attr:`decisions`, and each decision's position among
        them."""
        hidden = self._hidden
        representatives: list[int] = []
        position: dict[int, int] = {}
        columns = []
        for gamma in self.decisions:
            cls = gamma & hidden
            if cls not in position:
                position[cls] = len(representatives)
                representatives.append(gamma)
            columns.append(position[cls])
        return tuple(representatives), tuple(columns)

    # Cores ----------------------------------------------------------------

    def _intern(self, core: tuple[int, int]) -> int:
        """The id of a (plant state, estimate) core."""
        c = self._core_ids.get(core)
        if c is None:
            c = self._core_ids[core] = len(self._cores)
            self._cores.append(core)
            x, q = core
            active = self.model.active(x)
            self._active.append(active)
            for sigma in iter_bits(active):
                self._active_at[sigma] |= 1 << c
            if not q & ~self.model.secret_mask:
                self._revealing |= 1 << c
        return c

    def intern(self, info: InfoState) -> int:
        """The core set of an information state, interning cores met for the
        first time.  The members' decisions are not read."""
        cores = 0
        for m in info:
            cores |= 1 << self._intern(m[:2])
        return cores

    def info_of(self, gamma: int, cores: int) -> InfoState:
        """The canonical information state of a decision and a set of cores,
        built anew."""
        # Members sharing a decision sort as their cores do.
        members = sorted(self._cores[c] for c in iter_bits(cores))
        return tuple(EstimatorState(x, q, gamma) for x, q in members)

    def is_safe(self, cores: int) -> bool:
        """:func:`is_safe` of an information state with this set of cores:
        safety reads the estimates only."""
        return not cores & self._revealing

    def feasible_events(self, gamma: int, cores: int) -> tuple[int, ...]:
        """:func:`feasible_events` of the information state with this
        decision and this set of cores."""
        active_at = self._active_at
        events = self.model.supervisor_observable & gamma
        feasible = []
        while events:
            low = events & -events
            events ^= low
            sigma = low.bit_length() - 1
            if cores & active_at[sigma]:
                feasible.append(sigma)
        return tuple(feasible)

    # The kernel -----------------------------------------------------------

    def _images(
        self,
        c: int | None,
        old: int | None,
        sigma: int | None,
        gammas: Sequence[int],
        changed: bool = True,
    ) -> tuple[int, ...]:
        """The closed images of core ``c`` under ``sigma`` after decision
        ``old``, one per new decision in ``gammas``, where ``changed`` says
        whether those decisions differ from ``old``; ``c``, ``old`` and
        ``sigma`` are None for the initial marker.  Every observed step of
        the kernel is taken here: the plant step, and the intruder's
        estimate before a released decision closes it, are worked out
        once, as :func:`estimator_step` works them out.  The images are
        memoised on that *pre-image* (the plant state stepped to and the
        estimate before the release, or the core kept when nothing is
        released) and ``gammas``, so cores, events and old decisions that
        step to one pre-image share one answer.  ``sigma`` must be active
        at the core and enabled by ``old``."""
        model, reach, intern = self.model, self._reach, self._intern
        kept = None
        if c is None:
            y, base = model.initial, 1 << model.initial
        else:
            x, q = self._cores[c]
            y = model.step(x, sigma)
            seen = sigma if (model.intruder_observable >> sigma) & 1 else None
            if not self._release[sigma][not changed]:
                kept = intern((y, update_estimate(reach, q, old, seen, None)))
            elif seen is None:
                base = reach.unobservable_reach_plus(q, old)
            else:
                base = reach.observable_reach(q, seen)
        key = (kept, gammas) if kept is not None else (y, base, gammas)
        images = self._preimages.get(key)
        if images is not None:
            return images
        closure = self._closure
        close, hidden = reach.unobservable_reach, model.intruder_unobservable
        # A loop rather than a comprehension, which would turn these locals
        # into closure cells.
        out = []
        for gamma in gammas:
            core = kept if kept is not None else intern((y, close(base, gamma, hidden)))
            out.append(closure(core, gamma))
        images = self._preimages[key] = tuple(out)
        return images

    def _closure(self, c: int, gamma: int) -> int:
        """The set of cores reached from core ``c`` along events the
        supervisor cannot observe and ``gamma`` enables.  Such a step keeps
        ``gamma`` and is not seen by the supervisor, so it releases nothing
        under either mechanism."""
        key = (c, gamma & self._hidden)
        closed = self._closures.get(key)
        if closed is None:
            model, reach = self.model, self._reach
            cores, active, intern = self._cores, self._active, self._intern
            hidden = model.supervisor_unobservable & gamma
            visible = model.intruder_observable
            seen = 1 << c
            frontier = [c]
            while frontier:
                d = frontier.pop()
                x, q = cores[d]
                events = active[d] & hidden
                while events:
                    low = events & -events
                    events ^= low
                    sigma = low.bit_length() - 1
                    seen_by_intruder = sigma if visible & low else None
                    estimate = update_estimate(reach, q, gamma, seen_by_intruder, None)
                    nxt = intern((model.step(x, sigma), estimate))
                    if not (seen >> nxt) & 1:
                        seen |= 1 << nxt
                        frontier.append(nxt)
            closed = self._closures[key] = seen
        return closed

    def layout(self, old: int | None) -> tuple[int, ...]:
        """Each decision's column of the targets after ``old`` (None at the
        initial decision state), in :attr:`decisions` order.  There is one
        column per class of decision, in order of first appearance.  Under
        the decision-triggered mechanism ``old`` itself releases nothing, so
        it has a last column of its own."""
        if old is None or not self._decision_mode:
            return self._classes[1]
        layout = self._layouts.get(old)
        if layout is None:
            unchanged = len(self._classes[0])
            layout = self._layouts[old] = tuple(
                unchanged if gamma == old else column
                for gamma, column in zip(self.decisions, self._classes[1])
            )
        return layout

    def _row(self, c: int, old: int, sigma: int) -> tuple[int, ...]:
        """The closed images of core ``c`` under ``sigma`` after decision
        ``old``, one per column of :meth:`layout`.  Every entry reads only
        the class of ``old``."""
        row = self._images(c, old, sigma, self._classes[0])
        if self._decision_mode:
            row += self._images(c, old, sigma, (old,), False)
        return row

    def targets(self, old: int | None, cores: int | None, sigma: int | None) -> Sequence[int]:
        """The core sets of the observation states reached from decision
        state (observation state, ``sigma``), one per column of
        :meth:`layout`, where the observation state has decision ``old``
        and core set ``cores``; both are None at the initial decision
        state.  ``sigma`` must be enabled by ``old`` and move some core, as
        every feasible observation does.

        The targets are the rows of the moved cores, merged position by
        position.  The table of (``sigma``, class of ``old``) holds each
        row under the set of its one core, and each merge under its set of
        cores: a merge is the merge of its set without its highest core,
        merged with that core's row, so sets of moved cores that share
        their lower cores share those merges."""
        if cores is None:
            return self._images(None, None, None, self._classes[0])
        key = (sigma, old & self._hidden)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = {}
        # Drop the highest core until the set is known or is one core.
        pending = []
        rest = cores & self._active_at[sigma]
        merged = table.get(rest)
        while merged is None:
            high = 1 << (rest.bit_length() - 1)
            if rest == high:
                merged = table[rest] = self._row(rest.bit_length() - 1, old, sigma)
            else:
                pending.append((rest, high))
                rest ^= high
                merged = table.get(rest)
        for subset, high in reversed(pending):
            row = table.get(high)
            if row is None:
                row = table[high] = self._row(high.bit_length() - 1, old, sigma)
            merged = table[subset] = tuple(map(or_, merged, row))
        return merged

    def target(
        self, old: int | None, cores: int | None, sigma: int | None, gamma: int
    ) -> int:
        """The core set of the observation state reached by committing
        ``gamma`` at the decision state of :meth:`targets`: its column for
        ``gamma``, worked out for that one decision.  Empty when ``old``
        disables ``sigma`` or no core moves."""
        if cores is None:
            return self._images(None, None, None, (gamma,))[0]
        out = 0
        if (old >> sigma) & 1:
            gammas, changed = (gamma,), gamma != old
            for c in iter_bits(cores & self._active_at[sigma]):
                out |= self._images(c, old, sigma, gammas, changed)[0]
        return out


class _ReachMemo:
    """The plant reach operators that :func:`update_estimate` calls,
    memoised on what each reads: ``observable_reach`` on (state set,
    event), ``unobservable_reach`` on (state set, the decision's events in
    the hidden set passed in) and ``unobservable_reach_plus`` on (state
    set, the decision's intruder-unobservable events).  One belongs to one
    kernel; the model itself keeps no cache."""

    def __init__(self, model: PlantModel):
        self.model = model
        self.intruder_unobservable = model.intruder_unobservable
        self._observable: dict[tuple[int, int], int] = {}
        self._unobservable: dict[tuple[int, int], int] = {}
        self._plus: dict[tuple[int, int], int] = {}

    def observable_reach(self, q: int, sigma: int) -> int:
        key = (q, sigma)
        out = self._observable.get(key)
        if out is None:
            out = self._observable[key] = self.model.observable_reach(q, sigma)
        return out

    def unobservable_reach(self, q: int, gamma: int, hidden: int) -> int:
        key = (q, gamma & hidden)
        out = self._unobservable.get(key)
        if out is None:
            out = self._unobservable[key] = self.model.unobservable_reach(
                q, gamma, hidden
            )
        return out

    def unobservable_reach_plus(self, q: int, gamma: int) -> int:
        key = (q, gamma & self.intruder_unobservable)
        out = self._plus.get(key)
        if out is None:
            out = self._plus[key] = self.model.unobservable_reach_plus(q, gamma)
        return out


def nx_is(
    model: PlantModel, info: InfoState, sigma: int, gamma: int, mode: IssuanceMode
) -> InfoState:
    """Image of an information state under an observed event and the newly
    committed decision, one estimator step per member.  Members at which
    the event is not enabled are dropped; an empty result marks the
    observation infeasible.  With :func:`ur_is`, the paper's set-level
    operators, and the reference :class:`Successors` is checked against."""
    event = AugmentedEvent(sigma, gamma)
    return make_info(
        [
            estimator_step(model, m, event, mode)
            for m in info
            if (model.active(m.plant_state) & m.decision) >> sigma & 1
        ]
    )


def ur_is(
    model: PlantModel, info: InfoState, gamma: int, mode: IssuanceMode
) -> InfoState:
    """Closure of an information state under events the supervisor cannot
    observe, all carrying the unchanged decision ``gamma``: one frontier
    over estimator states.  This composes over intruder-visible but
    supervisor-silent events as well, so the intruder's estimate keeps
    evolving inside the closure."""
    if any(m.decision != gamma for m in info):
        raise StructureError("closure requires the shared decision")
    hidden = model.supervisor_unobservable & gamma
    seen = set(info)
    frontier = list(info)
    while frontier:
        m = frontier.pop()
        for sigma in iter_bits(model.active(m.plant_state) & hidden):
            nxt = estimator_step(model, m, AugmentedEvent(sigma, gamma), mode)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return make_info(seen)


def feasible_events(model: PlantModel, info: InfoState) -> tuple[int, ...]:
    """Observations the plant can produce at this state under the shared
    decision: supervisor-observable, enabled, and active somewhere."""
    if not info:
        return ()
    return tuple(
        iter_bits(
            model.supervisor_observable
            & info_decision(info)
            & model.active_events(info_plant_states(info))
        )
    )


def canonical_ids(
    observations, decision_keys
) -> tuple[dict[InfoState, int], dict[DecisionKey, int]]:
    """Canonical numbering of a decision/observation graph: observation
    states in sorted order, decision states in :func:`decision_key_order`.
    Each dict iterates in its canonical order."""
    obs_id = {info: i for i, info in enumerate(sorted(observations))}
    dec_id = {
        key: i for i, key in enumerate(sorted(decision_keys, key=decision_key_order))
    }
    return obs_id, dec_id


class ControlStructure:
    """A decision/observation graph committing one decision per decision
    state, into an observation state whose members carry that decision.
    Immutable once built."""

    def __init__(
        self,
        model: PlantModel,
        mode: IssuanceMode,
        decisions: dict[DecisionKey, tuple[int, InfoState]],
        observations: dict[InfoState, tuple[int, ...]],
    ):
        if INITIAL_KEY not in decisions:
            raise StructureError("missing initial decision state")
        for info, events in observations.items():
            if not info:
                raise StructureError("empty observation state")
            if not is_consistent(info):
                raise StructureError("inconsistent observation state")
            for sigma in events:
                if (info, sigma) not in decisions:
                    raise StructureError("dangling observation transition")
        for (info, sigma), (gamma, target) in decisions.items():
            if info is not None and sigma not in observations.get(info, ()):
                raise StructureError("decision state without its observation transition")
            if target not in observations:
                raise StructureError("decision transition into unknown state")
            if target[0].decision != gamma:
                raise StructureError(
                    "decision transition into a state of another decision"
                )
        # Every decision state but the initial one leaves an observation
        # state on one of its events, so it is reached when that state is.
        reached = {decisions[INITIAL_KEY][1]}
        frontier = list(reached)
        while frontier:
            info = frontier.pop()
            for sigma in observations[info]:
                target = decisions[info, sigma][1]
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        if len(reached) != len(observations):
            raise StructureError(
                "observation state unreachable from the initial decision state"
            )
        self.model = model
        self.mode = mode
        self.decisions = decisions
        self.observations = observations

    @property
    def initial_decision(self) -> int:
        return self.decisions[INITIAL_KEY][0]

    def decoded(self) -> "DecodedSupervisor":
        return DecodedSupervisor(self)

    def canonical_form(self):
        """Order-independent content of the structure, for equality checks
        and hashing."""
        decisions = sorted(self.decisions.items(), key=lambda kv: decision_key_order(kv[0]))
        observations = sorted(self.observations.items())
        return self.mode.value, tuple(decisions), tuple(observations)

    def __eq__(self, other):
        return (
            isinstance(other, ControlStructure)
            and self.canonical_form() == other.canonical_form()
        )

    def __hash__(self):
        return hash(self.canonical_form())

    def __repr__(self):
        return (
            f"ControlStructure({len(self.decisions)} decision states, "
            f"{len(self.observations)} observation states, {self.mode.value})"
        )


class DecodedSupervisor(Supervisor):
    """The policy read off a control structure.  Its state is the
    observation state that the history reaches: the decision state of each
    observation leads to one, and histories reaching the same one have the
    same future.  The decision is the one that state's members carry."""

    def __init__(self, structure: ControlStructure):
        self.structure = structure

    def start(self) -> InfoState:
        return self.structure.decisions[INITIAL_KEY][1]

    def advance(self, obs: InfoState, sigma: int) -> InfoState:
        """Raises :class:`StructureError` when the structure does not define
        ``sigma`` at ``obs``."""
        structure = self.structure
        if sigma not in structure.observations[obs]:
            raise StructureError(
                f"structure is incomplete: observation "
                f"{structure.model.events[sigma]!r} undefined"
            )
        return structure.decisions[obs, sigma][1]

    def decide(self, obs: InfoState) -> int:
        return obs[0].decision


def supervisor_estimate(
    model: PlantModel, sup: Supervisor, alpha: Sequence[int]
) -> int:
    """The supervisor's own state estimate after observing ``alpha`` in its
    closed loop: end states of all strings projecting to ``alpha`` that the
    policy admits.  Exact (fixpoint per step), no string enumeration."""
    hidden = model.supervisor_unobservable
    gamma = sup.decision(())
    q = model.unobservable_reach(1 << model.initial, gamma, hidden)
    seen: list[int] = []
    for sigma in alpha:
        if not (model.supervisor_observable >> sigma) & 1:
            raise StructureError(
                f"event {model.events[sigma]!r} is not supervisor-observable"
            )
        if not (gamma >> sigma) & 1:
            raise StructureError("observation infeasible: event disabled")
        q = model.observable_reach(q, sigma)
        if not q:
            raise StructureError("observation infeasible in the closed loop")
        seen.append(sigma)
        gamma = sup.decision(tuple(seen))
        q = model.unobservable_reach(q, gamma, hidden)
    return q


def structure_from_policy(
    model: PlantModel, sup: Supervisor, mode: IssuanceMode
) -> ControlStructure:
    """Materialize the control structure induced by a policy whose decisions
    depend only on the information state (true for any finite tabular policy
    that never distinguishes histories reaching the same state).

    Each decision state is expanded once, but its decision is re-checked on
    every arrival, so a policy disagreeing with itself across any traversed
    edge is rejected.  The walk runs on the kernel's (decision, core set)
    pairs; information states are built for the structure returned."""
    kernel = Successors(model, mode)
    # A decision state is (decision, core set, event) of its observation
    # state and observation, all None for the initial one; an observation
    # state is (decision, core set).  A queue entry is (decision state,
    # policy state, parent entry, event from the parent), so that
    # :func:`loop_string` reads its history back.
    decided: dict[tuple, tuple[int, tuple[int, int]]] = {}
    events: dict[tuple[int, int], tuple[int, ...]] = {}
    first_seen: dict[tuple, tuple] = {}
    queue = deque([((None, None, None), sup.start(), None, None)])
    while queue:
        entry = queue.popleft()
        key, state = entry[0], entry[1]
        gamma = sup.decide(state)
        if key in decided:
            if decided[key][0] != gamma:
                raise StructureError(
                    "policy is not information-state based: decision state "
                    f"reached by {loop_string(first_seen[key])} and "
                    f"{loop_string(entry)} with different decisions"
                )
            continue
        first_seen[key] = entry
        cores = kernel.target(*key, gamma)
        target = (gamma, cores)
        decided[key] = (gamma, target)
        if target not in events:
            events[target] = kernel.feasible_events(gamma, cores)
        queue.extend(
            ((gamma, cores, nxt), sup.advance(state, nxt), entry, nxt)
            for nxt in events[target]
        )
    info = {obs: kernel.info_of(*obs) for obs in events}
    return ControlStructure(
        model,
        mode,
        {
            (None if old is None else info[old, cores], sigma): (gamma, info[target])
            for (old, cores, sigma), (gamma, target) in decided.items()
        },
        {info[obs]: evs for obs, evs in events.items()},
    )


@dataclass
class OpacityVerdict:
    """The answer of an opacity check.  ``counterexample`` holds the events
    that expose the secret: a plant string of the closed loop, or an
    observation of the open loop.  ``complete`` says whether a bounded
    search exhausted the loop, and ``bound`` is its depth bound."""

    opaque: bool
    counterexample: tuple[str, ...] | None = None
    complete: bool = True
    bound: int | None = None

    def __bool__(self):
        return self.opaque


def _guard_visits(seen: set, size_guard: int | None, search: str) -> None:
    if size_guard is not None and len(seen) > size_guard:
        raise SizeGuardExceeded(size_guard, None, len(seen), search)


# A node of the closed-loop search: (estimator state, policy state, depth,
# parent node, event from the parent); the root has depth 0 and no parent.
# A node holds no event string: its parent links spell it.  The open-loop
# search has nodes of the same shape, with the intruder's estimate in place
# of the estimator state and () as the policy state.
LoopNode = tuple[EstimatorState | int, object, int, "LoopNode | None", int | None]


def loop_string(node: tuple) -> tuple[int, ...]:
    """The event string of a search node, or of any tuple whose last two
    slots are its parent and the event from it, read back along its parent
    links."""
    events = []
    while node[-2] is not None:
        events.append(node[-1])
        node = node[-2]
    return tuple(reversed(events))


def closed_loop_search(
    model: PlantModel,
    sup: Supervisor,
    mode: IssuanceMode,
    bound: int | None = None,
    size_guard: int | None = None,
    alpha: Sequence[int] | None = None,
    search: str = "closed-loop search",
) -> Iterator[tuple[LoopNode | None, int | None, LoopNode, bool]]:
    """Breadth-first search over the closed loop of ``sup``.

    A node is a :data:`LoopNode`; :func:`loop_string` reads its string
    back.  Yields every move ``(parent, sigma, node, new)`` in breadth-first
    order, where ``new`` says whether the node is met for the first time;
    the first yield is the estimator's first step, with ``parent`` and
    ``sigma`` None.  A node's policy state is the one ``sup`` advances to
    along the node's observation, and nodes are told apart by their
    estimator state and policy state.  With ``alpha`` given, only moves
    whose observation stays a prefix of ``alpha`` are made, the policy
    state is the length of that prefix, and the policy is asked about the
    prefix itself.  Nodes whose string is ``bound`` long are not expanded.
    Raises :class:`SizeGuardExceeded`, named ``search``, once more than
    ``size_guard`` nodes are known."""
    steps: dict[tuple[EstimatorState | None, int | None, int], EstimatorState] = {}

    def step(m: EstimatorState | None, sigma: int | None, gamma: int) -> EstimatorState:
        key = (m, sigma, gamma)
        nxt = steps.get(key)
        if nxt is None:
            # Looked up at call time, so that a wrapper installed on this
            # module's ``estimator_step`` sees every miss.
            nxt = steps[key] = estimator_step(
                model, m, AugmentedEvent(sigma, gamma), mode
            )
        return nxt

    if alpha is None:
        decide, state = sup.decide, sup.start()
    else:
        alpha = tuple(alpha)
        decide, state = (lambda k: sup.decision(alpha[:k])), 0
    root: LoopNode = (step(None, None, decide(state)), state, 0, None, None)
    seen = {root[:2]}
    yield None, None, root, True
    observable = model.supervisor_observable
    queue = deque([root])
    while queue:
        parent = queue.popleft()
        m, state, depth, _, _ = parent
        if bound is not None and depth >= bound:
            continue
        for sigma in iter_bits(model.active(m.plant_state) & m.decision):
            if (observable >> sigma) & 1:
                if alpha is None:
                    nxt = sup.advance(state, sigma)
                elif state < len(alpha) and alpha[state] == sigma:
                    nxt = state + 1
                else:
                    continue
                gamma = decide(nxt)
            else:
                nxt, gamma = state, m.decision
            node = (step(m, sigma, gamma), nxt, depth + 1, parent, sigma)
            key = node[:2]
            new = key not in seen
            if new:
                seen.add(key)
                _guard_visits(seen, size_guard, search)
                queue.append(node)
            yield parent, sigma, node, new


def verify_open_loop_opacity(
    model: PlantModel, size_guard: int | None = None
) -> OpacityVerdict:
    """Decide current-state opacity of the uncontrolled plant against the
    intruder's projection, by a breadth-first search over the intruder's
    estimates.  The counterexample is a shortest observation whose estimate
    lies inside the secret.  Raises :class:`SizeGuardExceeded` once more
    than ``size_guard`` estimates are known."""
    hidden = model.intruder_unobservable
    everything = model.all_events_mask
    start = model.unobservable_reach(1 << model.initial, everything, hidden)
    seen = {start}
    queue: deque[LoopNode] = deque([(start, (), 0, None, None)])
    while queue:
        node = queue.popleft()
        q = node[0]
        if not (q & ~model.secret_mask):
            witness = tuple(model.events[e] for e in loop_string(node))
            return OpacityVerdict(False, witness)
        # An event active somewhere in q leads to a non-empty estimate.
        for sigma in iter_bits(model.active_events(q) & model.intruder_observable):
            nxt = model.unobservable_reach(
                model.observable_reach(q, sigma), everything, hidden
            )
            if nxt not in seen:
                seen.add(nxt)
                _guard_visits(seen, size_guard, "open-loop search")
                queue.append((nxt, (), node[2] + 1, node, sigma))
    return OpacityVerdict(True)


def _search_verdict(
    model: PlantModel,
    sup: Supervisor,
    mode: IssuanceMode,
    bound: int | None,
    size_guard: int | None = None,
) -> OpacityVerdict:
    """The verdict of a search of the closed loop up to ``bound``: its
    counterexample is the shortest string whose controlled state estimate
    is contained in the secret set.  Raises :class:`SizeGuardExceeded` once
    it has visited more than ``size_guard`` states."""
    complete = True
    for _, _, node, new in closed_loop_search(model, sup, mode, bound, size_guard):
        if not new:
            continue
        if not (node[0].estimate & ~model.secret_mask):
            witness = tuple(model.events[e] for e in loop_string(node))
            return OpacityVerdict(False, witness, True, bound)
        if node[2] == bound:
            complete = False
    return OpacityVerdict(True, None, complete, bound)


def verify_closed_loop_opacity(
    model: PlantModel,
    sup: Supervisor | ControlStructure,
    mode: IssuanceMode,
    depth_bound: int | None = None,
    size_guard: int | None = None,
) -> OpacityVerdict:
    """Decide whether the closed loop keeps the secret from an intruder that
    eavesdrops on released decisions.

    For control structures (and their decoded supervisors) the check is
    exact: the reachable observation states are re-derived under ``mode`` and
    each must be safe.  For arbitrary behavioral policies the closed loop is
    searched up to ``depth_bound``; the verdict says whether the search was
    exhaustive.  Either search raises :class:`SizeGuardExceeded` once it has
    visited more than ``size_guard`` states.
    """
    if isinstance(sup, ControlStructure):
        sup = sup.decoded()
    if not isinstance(sup, DecodedSupervisor):
        return _search_verdict(model, sup, mode, depth_bound, size_guard)

    # Re-derive the observation states induced by the structure's decisions
    # under the requested mechanism, as the kernel's (decision, core set)
    # pairs, each next to the decoded supervisor's state.  Stepping that
    # state keeps decoding aligned even when `mode` differs from the one the
    # structure was built for.  An unsafe one is reported with the search's
    # shortest witness.
    kernel = Successors(model, mode)
    state = sup.start()
    gamma = sup.decide(state)
    start = (state, gamma, kernel.target(None, None, None, gamma))
    stack = [start]
    seen = {start}
    while stack:
        state, old, cores = stack.pop()
        if not kernel.is_safe(cores):
            verdict = _search_verdict(model, sup, mode, None, size_guard)
            assert not verdict.opaque
            return verdict
        for sigma in kernel.feasible_events(old, cores):
            nxt = sup.advance(state, sigma)
            gamma = sup.decide(nxt)
            node = (nxt, gamma, kernel.target(old, cores, sigma, gamma))
            if node not in seen:
                seen.add(node)
                _guard_visits(seen, size_guard, "closed-loop walk")
                stack.append(node)
    return OpacityVerdict(True)


def brute_estimate_set(
    model: PlantModel,
    sup: Supervisor,
    alpha: Sequence[int],
    mode: IssuanceMode,
    bound: int | None = None,
) -> frozenset[int]:
    """All controlled state estimates over strings of the closed loop that
    project to ``alpha``, of at most ``bound`` events when ``bound`` is set.
    This folds the intruder-side estimator over strings, independently of
    the information-state operators."""
    return frozenset(
        m.estimate
        for _, _, (m, k, *_), new in closed_loop_search(
            model, sup, mode, bound, alpha=alpha
        )
        if new and k == len(alpha)
    )
