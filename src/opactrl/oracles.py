"""Reference implementations that tests and scripts check the product
path against: brute-force enumerations and set-level estimates, each
computed independently of the code a command runs, and the set-level
views, string replays and writers that only tests and scripts call.  No
command calls them, and no product module imports this one.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterator, Sequence

from .estimator import (
    AugmentedEvent, EstimatorState, FlowFormatError, IssuanceMode, ObservationPair,
    closed_loop_simulate, estimator_trace, released,
)
from .model import PlantModel, iter_bits
from .serialize import structure_to_json
from .structure import (
    DEFAULT_SIZE_GUARD, ControlStructure, InfoState, SizeGuardExceeded, StructureError,
    Successors, closed_loop_search, is_consistent, loop_string,
)
from .supervisors import Supervisor
from .synthesis import Arena, _structures


class SupervisionError(ValueError):
    """A string is not executable in the closed loop."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def augment(
    model: PlantModel, s: Sequence[int], sup: Supervisor
) -> tuple[AugmentedEvent, ...]:
    """The augmented trace of ``s``, which must be executable under ``sup``;
    the first rejected position is reported otherwise."""
    result = closed_loop_simulate(model, sup, s)
    if not result.accepted:
        raise SupervisionError(result.reason, result.rejected_at)
    return result.trace


def run_estimator(
    model: PlantModel, augmented: Sequence[AugmentedEvent], mode: IssuanceMode
) -> EstimatorState:
    """Final estimator state after replaying a whole augmented string."""
    return estimator_trace(model, augmented, mode)[-1]


def project(s: Sequence[int], obs: int) -> tuple[int, ...]:
    """Natural projection: erase events outside ``obs``, preserving order."""
    return tuple(e for e in s if (obs >> e) & 1)


def info_plant_states(info: InfoState) -> int:
    mask = 0
    for m in info:
        mask |= 1 << m.plant_state
    return mask


def info_estimates(info: InfoState) -> frozenset[int]:
    return frozenset(m.estimate for m in info)


def info_decision(info: InfoState) -> int:
    """The decision shared by all members; defined only for consistent states."""
    if not info:
        raise StructureError("empty information state has no decision")
    if not is_consistent(info):
        raise StructureError("inconsistent information state")
    return info[0].decision


def feasible_events(model: PlantModel, info: InfoState) -> tuple[int, ...]:
    """Observations the plant can produce at this state under the shared
    decision: supervisor-observable, enabled, and active somewhere.  The
    set-level reference for :meth:`Successors.feasible_events`."""
    if not info:
        return ()
    return tuple(
        iter_bits(
            model.supervisor_observable
            & info_decision(info)
            & model.active_events(info_plant_states(info))
        )
    )


class ConstantSupervisor(Supervisor):
    def __init__(self, decision_mask: int):
        self._decision = decision_mask

    def start(self):
        return ()

    def advance(self, state, sigma: int):
        return state

    def decide(self, state) -> int:
        return self._decision


def format_flow(model: PlantModel, flow: tuple[ObservationPair, ...]) -> str:
    """One observation pair per line: ``event=<name|->, decision={...}|-``."""
    lines = []
    for event, decision in flow:
        ev = model.events[event] if event is not None else "-"
        dec = model.format_decision(decision) if decision is not None else "-"
        lines.append(f"event={ev}, decision={dec}")
    return "\n".join(lines) + "\n"


def structure_to_dict(structure: ControlStructure) -> dict:
    """The structure's document as a dict: :func:`structure_to_json` read
    back, so that the document has one writer."""
    return json.loads(structure_to_json(structure))


class UnreachableObservationError(ValueError):
    """An observation sequence has no witness string in the plant language.

    Distinct from an empty estimate: the estimate of a feasible observation
    is never empty, so infeasibility is reported explicitly.
    """


def open_loop_estimate(model: PlantModel, alpha: Sequence[int], obs: int) -> int:
    """Current-state estimate of the uncontrolled plant after observing
    ``alpha`` through the projection onto ``obs``.

    Raises :class:`UnreachableObservationError` when no plant string projects
    to ``alpha``.
    """
    hidden = model.all_events_mask & ~obs
    gamma = model.all_events_mask
    q = model.unobservable_reach(1 << model.initial, gamma, hidden)
    for sigma in alpha:
        if not (obs >> sigma) & 1:
            raise ValueError(
                f"event {model.events[sigma]!r} is not in the observation alphabet"
            )
        q = model.observable_reach(q, sigma)
        if not q:
            raise UnreachableObservationError(
                "unreachable observation: no plant string matches"
            )
        q = model.unobservable_reach(q, gamma, hidden)
    return q


def information_flow(
    model: PlantModel, s: Sequence[int], sup: Supervisor, mode: IssuanceMode
) -> tuple[ObservationPair, ...]:
    """The intruder's timeline of (observed event, released decision) pairs
    along ``s``.  Steps invisible to both parties contribute nothing."""
    trace = augment(model, s, sup)
    out = [ObservationPair(None, trace[0].decision)]
    for (_, gamma), (sigma, new_gamma) in zip(trace, trace[1:]):
        seen = sigma if (model.intruder_observable >> sigma) & 1 else None
        release = new_gamma if released(model, sigma, new_gamma != gamma, mode) else None
        if seen is not None or release is not None:
            out.append(ObservationPair(seen, release))
    return tuple(out)


def oracle_controlled_estimate(
    model: PlantModel,
    flow: Sequence[ObservationPair],
    mode: IssuanceMode,
    bound: int,
    memoize: bool = True,
) -> int:
    """Brute-force reference for the controlled state estimate.

    Enumerates every decorated string of at most ``bound`` plant events: at
    each step the event must be enabled by the decision in force, and the
    step either releases the (new) decision or stays silent keeping the old
    one.  Under the decision-triggered mechanism a release happens exactly
    when the decision changes.  A decoration matches when the observation
    pairs it induces equal ``flow``; the result collects the end plant states
    of all matching decorations.

    The memoized search prunes revisits of (plant state, flow position,
    decision in force, steps used); ``memoize=False`` runs the raw
    exponential enumeration, kept as a cross-check for the memoization.
    """
    if not flow or flow[0].event is not None or flow[0].decision is None:
        raise FlowFormatError("flow must start with the initial decision release")
    if bound < len(flow) - 1:
        raise ValueError("bound smaller than the number of flow steps")
    total = len(flow)
    decision_triggered = mode is IssuanceMode.DECISION
    result = 0
    seen: set[tuple[int, int, int, int]] = set()
    stack = [(model.initial, 1, flow[0].decision, 0)]
    if memoize:
        seen.add(stack[0])
    while stack:
        x, i, d, k = stack.pop()
        if i == total:
            result |= 1 << x
        if k == bound:
            continue
        enabled = model.active(x) & d
        nxt = flow[i] if i < total else None
        for sigma in iter_bits(enabled):
            y = model.step(x, sigma)
            int_sees = (model.intruder_observable >> sigma) & 1
            candidates = []
            # Silent step: the decision in force is kept.
            if int_sees:
                if nxt is not None and nxt.event == sigma and nxt.decision is None:
                    candidates.append((y, i + 1, d, k + 1))
            else:
                candidates.append((y, i, d, k + 1))
            # Releasing step: must produce the next flow pair.
            if nxt is not None and nxt.decision is not None:
                expected = sigma if int_sees else None
                if nxt.event == expected and not (
                    decision_triggered and nxt.decision == d
                ):
                    candidates.append((y, i + 1, nxt.decision, k + 1))
            for node in candidates:
                if memoize:
                    if node in seen:
                        continue
                    seen.add(node)
                stack.append(node)
    return result


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
    pairs; information states are built for the structure returned.
    Raises :class:`SizeGuardExceeded`, named ``policy walk``, once more
    than :data:`DEFAULT_SIZE_GUARD` decision and observation states are
    known."""
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
        if len(decided) + len(events) > DEFAULT_SIZE_GUARD:
            raise SizeGuardExceeded(
                DEFAULT_SIZE_GUARD, len(decided), len(events), "policy walk"
            )
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


class _PrefixPolicy(Supervisor):
    """``sup`` along the observation ``alpha`` only.  The state is the
    length of the prefix of ``alpha`` observed so far, or None once the
    observation leaves ``alpha``.  On ``alpha`` the decision is what ``sup``
    decides for that whole prefix, which checks ``sup.advance`` from
    outside; off it only the uncontrollable events are enabled, and ``sup``
    is not asked."""

    def __init__(self, model: PlantModel, sup: Supervisor, alpha: Sequence[int]):
        self.sup, self.alpha, self.off = sup, tuple(alpha), model.uncontrollable

    def start(self):
        return 0

    def advance(self, k, sigma: int):
        if k is not None and k < len(self.alpha) and self.alpha[k] == sigma:
            return k + 1
        return None

    def decide(self, k) -> int:
        return self.off if k is None else self.sup.decision(self.alpha[:k])


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
    the information-state operators.  The steps are those of
    :func:`~opactrl.structure.closed_loop_search`, which a property test
    (``tests/test_structure.py``) checks move by move against
    :func:`~opactrl.estimator.estimator_step`."""
    policy = _PrefixPolicy(model, sup, alpha)
    return frozenset(
        m.estimate
        for _, _, (m, k, *_), new in closed_loop_search(model, policy, mode, bound)
        if new and k == len(policy.alpha)
    )


def enumerate_structures(arena: Arena) -> Iterator[ControlStructure]:
    """Lazily yield every control structure embedded in the arena: one
    decision per reachable decision state, all observation transitions kept.
    On an unpruned arena, branches that reach a decision state with no safe
    decision are abandoned, so only complete structures come out.  The
    first one that a pruned arena yields is ``first_feasible``'s."""
    return (build() for build in _structures(arena, arena._rows))


def exhaustive_solution_exists(arena: Arena) -> bool:
    """Brute-force existence check used as the independent cross-check for
    pruning-based synthesis: search directly for any complete structure in
    the (raw) arena, without running the pruning fixpoint."""
    return next(_structures(arena, arena._rows), None) is not None
