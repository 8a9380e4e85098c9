"""The intruder's view of the closed loop: closed-loop simulation and
augmented strings, the recursive state estimator, and the estimate of an
information flow (the references for it are in :mod:`opactrl.oracles`).

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

from .model import PlantModel
from .supervisors import Supervisor


class IssuanceMode(enum.Enum):
    OBSERVATION = "observation"
    DECISION = "decision"


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


def released(model: PlantModel, sigma: int, changed: bool, mode: IssuanceMode) -> bool:
    """Whether the step on ``sigma`` releases the decision in force after
    it, where ``changed`` says whether that decision differs from the one
    before: the supervisor sees ``sigma`` under the observation-triggered
    mechanism, the decision changes under the decision-triggered one."""
    if mode is IssuanceMode.OBSERVATION:
        return bool((model.supervisor_observable >> sigma) & 1)
    return changed


def update_estimate(
    model: PlantModel, q: int, gamma: int, seen: int | None, release: int | None
) -> int:
    """The intruder's estimate after one step from estimate ``q`` under
    decision ``gamma``: it observed ``seen`` (None when the event is hidden
    from it) and the supervisor released ``release`` (None when nothing was
    released).  A step showing neither leaves the estimate unchanged.
    ``model`` may be any object with the plant's reach operators
    (``observable_reach``, ``unobservable_reach``, ``unobservable_reach_plus``
    and ``intruder_unobservable``) that gives the same results, as a memo of
    them does."""
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


def estimate_from_flow(
    model: PlantModel, flow: Sequence[ObservationPair], mode: IssuanceMode
) -> int:
    """The intruder's state estimate computed directly from its information
    flow.  Agrees with the estimate of :func:`~opactrl.oracles.run_estimator`
    on the flow induced by the same string."""
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
        if sigma is not None and not (gamma >> sigma) & 1:
            q = 0  # no closed-loop string takes an event the decision disables
        q = update_estimate(model, q, gamma, sigma, release)
        if release is not None:
            gamma = release
    return q
