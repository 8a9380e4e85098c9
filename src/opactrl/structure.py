"""Information states and control structures.

An information state is the supervisor's knowledge of the intruder's
knowledge: a set of estimator states sharing one decision.  A control
structure is a bipartite graph alternating decision states, where exactly
one decision is committed, and observation states, where every feasible
supervisor observation is resolved.  Walking it decodes a supervisor
policy.  The reference walks over a policy are in :mod:`opactrl.oracles`.
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

# Not called here, but perfbench/workloads.py imports it from this module.
from .estimator import closed_loop_simulate  # noqa: F401
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


DEFAULT_SIZE_GUARD = 10**6


class SizeGuardExceeded(RuntimeError):
    """A search knew more states than its guard, :data:`DEFAULT_SIZE_GUARD`
    unless its caller gives another.  Arena expansion and the policy walk
    count decision and observation states; the searches of verification
    count the states they visited, with ``decision_states`` None."""

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


def is_consistent(info: InfoState) -> bool:
    return all(m.decision == info[0].decision for m in info)


def format_members(model: PlantModel, info: InfoState, state_set) -> str:
    """The members of an information state as ``{(x,{...}),...}``: each
    plant state with its estimate, which ``state_set`` formats."""
    return "{" + ",".join(f"({model.states[x]},{state_set(q)})" for x, q, _ in info) + "}"


def is_safe(info: InfoState, secret_mask: int) -> bool:
    """True when no member estimate is contained in the secret set."""
    return all(m.estimate & ~secret_mask for m in info)


def _release_table(model: PlantModel, mode: IssuanceMode) -> tuple[tuple[bool, bool], ...]:
    """Per event: whether a step on it releases the new decision, indexed by
    whether the new decision is the old one, read from :func:`released`."""
    return tuple(
        (released(model, sigma, True, mode), released(model, sigma, False, mode))
        for sigma in range(len(model.events))
    )


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
      :meth:`_row`).  A decision reads its class's column, and the old
      decision itself the last one.  The targets of a decision state are
      the rows of the cores the event moves, merged position by position,
      and the table keeps those merges too (see :meth:`targets`).

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
        self._release = _release_table(model, mode)
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
        """:func:`~opactrl.oracles.feasible_events` of the information state
        with this decision and this set of cores."""
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

    def _row(self, c: int, old: int, sigma: int) -> tuple[int, ...]:
        """The closed images of core ``c`` under ``sigma`` after decision
        ``old``, one per column (see :meth:`targets`).  Every entry reads
        only the class of ``old``."""
        row = self._images(c, old, sigma, self._classes[0])
        if self._decision_mode:
            row += self._images(c, old, sigma, (old,), False)
        return row

    def targets(self, old: int | None, cores: int | None, sigma: int | None) -> Sequence[int]:
        """The core sets of the observation states reached from decision
        state (observation state, ``sigma``), where the observation state
        has decision ``old`` and core set ``cores`` (both None at the
        initial decision state): one per class of decision, then under the
        decision-triggered mechanism one for ``old`` kept.  ``sigma`` must
        be enabled by ``old`` and move some core, as feasible ones do.

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

    @cached_property
    def canonical_ids(self) -> tuple[dict[InfoState, int], dict[DecisionKey, int]]:
        """The canonical numbering, computed once per structure: observation
        states in sorted order, decision states in
        :func:`decision_key_order`.  Each dict iterates in its canonical
        order.  The report, the structure document and the DOT rendering
        all number by it."""
        obs_id = {info: i for i, info in enumerate(sorted(self.observations))}
        dec_id = {
            key: i for i, key in enumerate(sorted(self.decisions, key=decision_key_order))
        }
        return obs_id, dec_id

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


@dataclass
class OpacityVerdict:
    """The answer of an opacity check, which is exact.  ``counterexample``
    holds the events that expose the secret: a plant string of the closed
    loop, or an observation of the open loop."""

    opaque: bool
    counterexample: tuple[str, ...] | None = None

    def __bool__(self):
        return self.opaque


# A node of the closed-loop search: (estimator state, policy state, depth,
# parent node, event from the parent); the root has depth 0 and no parent.
# A node holds no event string: its parent links spell it.
LoopNode = tuple[EstimatorState, object, int, "LoopNode | None", int | None]


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
    size_guard: int = DEFAULT_SIZE_GUARD,
    search: str = "closed-loop search",
) -> Iterator[tuple[LoopNode | None, int | None, LoopNode, bool]]:
    """Breadth-first search over the closed loop of ``sup``.

    A node is a :data:`LoopNode`; :func:`loop_string` reads its string
    back.  Yields every move ``(parent, sigma, node, new)`` in breadth-first
    order, where ``new`` says whether the node is met for the first time;
    the first yield is the estimator's first step, with ``parent`` and
    ``sigma`` None.  A node's policy state is the one ``sup`` advances to
    along the node's observation, and nodes are told apart by their
    estimator state and policy state.  Nodes whose string is ``bound`` long
    are not expanded.
    Raises :class:`SizeGuardExceeded`, named ``search``, once more than
    ``size_guard`` nodes are known.

    The first step is :func:`estimator_step` from the initial marker.  A
    move takes the step that :func:`estimator_step` takes, from tables the
    search reads once: the plant's successor and active-event rows, the
    events the intruder observes, and per event whether a step on it
    releases the new decision (:func:`released`).  The estimate is updated
    as :func:`update_estimate` updates it, on one :class:`_ReachMemo` that
    memoises the plant reach operators for the search."""
    reach = _ReachMemo(model)
    state = sup.start()
    first = estimator_step(model, None, AugmentedEvent(None, sup.decide(state)), mode)
    root: LoopNode = (first, state, 0, None, None)
    seen = {root[:2]}
    yield None, None, root, True
    succ, active = model._succ, model._active
    release = _release_table(model, mode)
    observable, visible = model.supervisor_observable, model.intruder_observable
    hidden = model.intruder_unobservable
    step_reach, close, plus = (
        reach.observable_reach, reach.unobservable_reach, reach.unobservable_reach_plus
    )
    # EstimatorState's own constructor, without its Python-level frame.
    make_state = tuple.__new__
    queue = deque([root])
    while queue:
        parent = queue.popleft()
        (x, q, old), state, depth, _, _ = parent
        if bound is not None and depth >= bound:
            continue
        row = succ[x]
        depth += 1
        events = active[x] & old
        while events:
            low = events & -events
            events ^= low
            sigma = low.bit_length() - 1
            if observable & low:
                nxt = sup.advance(state, sigma)
                gamma = sup.decide(nxt)
            else:
                nxt, gamma = state, old
            # update_estimate, seeing the event when the intruder observes
            # it and the new decision when the step releases it.  A step
            # that releases nothing keeps the decision, so the closure after
            # a seen event is under gamma either way.
            if visible & low:
                estimate = close(step_reach(q, sigma), gamma, hidden)
            elif release[sigma][gamma == old]:
                estimate = close(plus(q, old), gamma, hidden)
            else:
                estimate = q
            stepped = make_state(EstimatorState, (row[sigma], estimate, gamma))
            node = (stepped, nxt, depth, parent, sigma)
            key = (stepped, nxt)
            new = key not in seen
            if new:
                seen.add(key)
                if len(seen) > size_guard:
                    raise SizeGuardExceeded(size_guard, None, len(seen), search)
                queue.append(node)
            yield parent, sigma, node, new


def verify_open_loop_opacity(
    model: PlantModel, size_guard: int = DEFAULT_SIZE_GUARD
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
    queue = deque([(start, None, None)])
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
                if len(seen) > size_guard:
                    raise SizeGuardExceeded(size_guard, None, len(seen), "open-loop search")
                queue.append((nxt, node, sigma))
    return OpacityVerdict(True)


def _search_verdict(
    model: PlantModel, sup: Supervisor, mode: IssuanceMode, size_guard: int
) -> OpacityVerdict:
    """The verdict of an exhaustive search of the closed loop: its
    counterexample is the shortest string whose controlled state estimate
    is contained in the secret set.  Raises :class:`SizeGuardExceeded` once
    it has visited more than ``size_guard`` states."""
    for _, _, node, new in closed_loop_search(model, sup, mode, size_guard=size_guard):
        if new and not (node[0].estimate & ~model.secret_mask):
            witness = tuple(model.events[e] for e in loop_string(node))
            return OpacityVerdict(False, witness)
    return OpacityVerdict(True)


def verify_closed_loop_opacity(
    model: PlantModel,
    sup: Supervisor | ControlStructure,
    mode: IssuanceMode,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> OpacityVerdict:
    """Decide whether the closed loop keeps the secret from an intruder that
    eavesdrops on released decisions.

    The verdict is exact, since every policy takes finitely many states.
    For control structures (and their decoded supervisors) the reachable
    observation states are re-derived under ``mode`` and each must be safe,
    and under the structure's own mode equal the state it decodes to
    (:class:`StructureError` otherwise).  For any other policy the closed
    loop is searched to exhaustion.  Either search raises
    :class:`SizeGuardExceeded` once it has visited more than ``size_guard``
    states.
    """
    if isinstance(sup, ControlStructure):
        sup = sup.decoded()
    if not isinstance(sup, DecodedSupervisor):
        return _search_verdict(model, sup, mode, size_guard)

    # Re-derive the observation states induced by the structure's decisions
    # under the requested mechanism, as the kernel's (decision, core set)
    # pairs, each next to the decoded supervisor's state.  Stepping that
    # state keeps decoding aligned even when `mode` differs from the one the
    # structure was built for, where the members legitimately differ.  An
    # unsafe one is reported with the search's shortest witness.
    kernel = Successors(model, mode)
    own = sup.structure.mode is mode
    state = sup.start()
    gamma = sup.decide(state)
    start = (state, gamma, kernel.target(None, None, None, gamma))
    stack = [start]
    seen = {start}
    while stack:
        state, old, cores = stack.pop()
        if own and state != kernel.info_of(old, cores):
            stated, derived = (format_members(model, info, model.format_state_set)
                               for info in (state, kernel.info_of(old, cores)))
            raise StructureError(f"structure misstates observation state {stated}: its "
                                 f"decisions derive {derived} under {mode.value} mode")
        if not kernel.is_safe(cores):
            verdict = _search_verdict(model, sup, mode, size_guard)
            assert not verdict.opaque
            return verdict
        for sigma in kernel.feasible_events(old, cores):
            nxt = sup.advance(state, sigma)
            gamma = sup.decide(nxt)
            node = (nxt, gamma, kernel.target(old, cores, sigma, gamma))
            if node not in seen:
                seen.add(node)
                if len(seen) > size_guard:
                    raise SizeGuardExceeded(size_guard, None, len(seen), "closed-loop walk")
                stack.append(node)
    return OpacityVerdict(True)
