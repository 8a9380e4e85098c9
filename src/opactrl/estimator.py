"""The intruder's view of the closed loop: closed-loop simulation and
augmented strings, information flows, the recursive state estimator, and an
exhaustive decoration oracle.

Two decision-issuance mechanisms are supported.  Under the observation-
triggered mechanism the supervisor releases a decision after every event it
observes; under the decision-triggered mechanism it releases one only when
the decision actually changes.  The mechanism changes which flow a string
produces and which case split the estimator applies; it must be fixed for a
whole computation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .model import PlantModel, iter_bits
from .supervisors import Supervisor


class IssuanceMode(enum.Enum):
    OBSERVATION = "observation"
    DECISION = "decision"


class SupervisionError(ValueError):
    """A string is not executable in the closed loop."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class FlowFormatError(ValueError):
    """An information flow is malformed."""


class EstimatorError(ValueError):
    """An estimator transition precondition is violated."""


class AugmentedEvent(NamedTuple):
    """One step of an augmented string: the plant event (None only in the
    leading element) and the decision in force after it."""

    event: int | None
    decision: int


class ObservationPair(NamedTuple):
    """One element of the intruder's information flow: an observed event or
    None, and a released decision or None.  Never both None."""

    event: int | None
    decision: int | None


class EstimatorState(NamedTuple):
    """True plant state, the intruder's state estimate, and the decision in
    force.  The distinguished initial marker is represented by ``None``."""

    plant_state: int
    estimate: int
    decision: int


@dataclass
class SimulationResult:
    accepted: bool
    rejected_at: int | None = None
    reason: str | None = None
    trace: tuple[AugmentedEvent, ...] | None = None


def closed_loop_simulate(
    model: PlantModel, sup: Supervisor, s: Sequence[int]
) -> SimulationResult:
    """Membership of ``s`` in the closed-loop language, with the augmented
    trace on acceptance: each event decorated with the decision in force
    after it, preceded by the initial decision.  Rejection is a verdict, not
    an error; a step both undefined in the plant and disabled by the
    supervisor is reported as undefined."""
    state = sup.start()
    decision = sup.decide(state)
    trace = [AugmentedEvent(None, decision)]
    x = model.initial
    for pos, sigma in enumerate(s):
        y = model.step(x, sigma)
        if y is None:
            return SimulationResult(False, pos, "event undefined in plant")
        if not (decision >> sigma) & 1:
            return SimulationResult(False, pos, "event disabled by supervisor")
        x = y
        if (model.supervisor_observable >> sigma) & 1:
            state = sup.advance(state, sigma)
            decision = sup.decide(state)
        trace.append(AugmentedEvent(sigma, decision))
    return SimulationResult(True, trace=tuple(trace))


def augment(
    model: PlantModel, s: Sequence[int], sup: Supervisor
) -> tuple[AugmentedEvent, ...]:
    """The augmented trace of ``s``, which must be executable under ``sup``;
    the first rejected position is reported otherwise."""
    result = closed_loop_simulate(model, sup, s)
    if not result.accepted:
        raise SupervisionError(result.reason, result.rejected_at)
    return result.trace


def released(model: PlantModel, sigma: int, changed: bool, mode: IssuanceMode) -> bool:
    """Whether the step on ``sigma`` releases the decision in force after
    it, where ``changed`` says whether that decision differs from the one
    before: the supervisor sees ``sigma`` under the observation-triggered
    mechanism, the decision changes under the decision-triggered one."""
    if mode is IssuanceMode.OBSERVATION:
        return bool((model.supervisor_observable >> sigma) & 1)
    return changed


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


def update_estimate(
    model: PlantModel, q: int, gamma: int, seen: int | None, release: int | None
) -> int:
    """The intruder's estimate after one step from estimate ``q`` under
    decision ``gamma``: it observed ``seen`` (None when the event is hidden
    from it) and the supervisor released ``release`` (None when nothing was
    released).  A step showing neither leaves the estimate unchanged."""
    if seen is None and release is None:
        return q
    if seen is None:
        base = model.unobservable_reach_plus(q, gamma)
    else:
        base = model.observable_reach(q, seen)
    return model.unobservable_reach(
        base, gamma if release is None else release, model.intruder_unobservable
    )


def estimator_step(
    model: PlantModel,
    m: EstimatorState | None,
    event: AugmentedEvent,
    mode: IssuanceMode,
) -> EstimatorState:
    """One transition of the intruder state estimator.

    From the initial marker (``m is None``) only ``(None, decision)`` events
    are defined: the supervisor commits a decision before anything runs.
    Otherwise the event must be enabled at the true plant state by the
    decision in force, and the estimate is updated on what the intruder
    sees: the event if it observes it, and the new decision if the issuance
    mechanism releases it (see :func:`released`).
    """
    sigma, new_gamma = event
    if m is None:
        if sigma is not None:
            raise EstimatorError("initial estimator transition carries no event")
        x0 = 1 << model.initial
        est = model.unobservable_reach(x0, new_gamma, model.intruder_unobservable)
        return EstimatorState(model.initial, est, new_gamma)

    x, q, gamma = m
    if sigma is None:
        raise EstimatorError("missing event in non-initial estimator transition")
    if not ((model.active(x) >> sigma) & 1 and (gamma >> sigma) & 1):
        raise EstimatorError("event not enabled at estimator state")
    y = model.step(x, sigma)
    assert y is not None
    seen = sigma if (model.intruder_observable >> sigma) & 1 else None
    release = new_gamma if released(model, sigma, new_gamma != gamma, mode) else None
    return EstimatorState(y, update_estimate(model, q, gamma, seen, release), new_gamma)


def estimator_trace(
    model: PlantModel, augmented: Sequence[AugmentedEvent], mode: IssuanceMode
) -> tuple[EstimatorState, ...]:
    """Fold :func:`estimator_step` from the initial marker, returning the
    state visited after each augmented event."""
    if not augmented or augmented[0].event is not None:
        raise EstimatorError("augmented string must start with the initial decision")
    states: list[EstimatorState] = []
    m: EstimatorState | None = None
    for event in augmented:
        m = estimator_step(model, m, event, mode)
        states.append(m)
    return tuple(states)


def run_estimator(
    model: PlantModel, augmented: Sequence[AugmentedEvent], mode: IssuanceMode
) -> EstimatorState:
    """Final estimator state after replaying a whole augmented string."""
    return estimator_trace(model, augmented, mode)[-1]


def estimate_from_flow(
    model: PlantModel, flow: Sequence[ObservationPair], mode: IssuanceMode
) -> int:
    """The intruder's state estimate computed directly from its information
    flow.  Agrees with the estimate component of :func:`run_estimator` on the
    flow induced by the same string."""
    if not flow or flow[0].event is not None or flow[0].decision is None:
        raise FlowFormatError("flow must start with the initial decision release")
    gamma = flow[0].decision
    q = model.unobservable_reach(
        1 << model.initial, gamma, model.intruder_unobservable
    )
    for sigma, release in flow[1:]:
        if sigma is None and release is None:
            raise FlowFormatError("empty observation pair in flow")
        if sigma is not None and not (model.intruder_observable >> sigma) & 1:
            raise FlowFormatError(
                f"event {model.events[sigma]!r} is not visible to the intruder"
            )
        if release is not None and mode is IssuanceMode.DECISION and release == gamma:
            raise FlowFormatError(
                "unchanged decision released under the decision-triggered mechanism"
            )
        q = update_estimate(model, q, gamma, sigma, release)
        if release is not None:
            gamma = release
    return q


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
