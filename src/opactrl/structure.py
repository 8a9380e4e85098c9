"""Information states and control structures.

An information state is the supervisor's knowledge of the intruder's
knowledge: a set of estimator states sharing one decision.  A control
structure is a bipartite graph alternating decision states, where exactly
one decision is committed, and observation states, where every feasible
supervisor observation is resolved.  Walking it decodes a supervisor
policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .estimator import (
    AugmentedEvent,
    EstimatorState,
    IssuanceMode,
    estimator_step,
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


def nx_is(
    model: PlantModel, info: InfoState, sigma: int, gamma: int, mode: IssuanceMode
) -> InfoState:
    """Image of an information state under an observed event and the newly
    committed decision.  Members at which the event is not enabled are
    dropped; an empty result marks the observation infeasible."""
    out = []
    for m in info:
        if (model.active(m.plant_state) >> sigma) & 1 and (m.decision >> sigma) & 1:
            out.append(estimator_step(model, m, AugmentedEvent(sigma, gamma), mode))
    return make_info(out)


def ur_is(
    model: PlantModel, info: InfoState, gamma: int, mode: IssuanceMode
) -> InfoState:
    """Closure of an information state under events the supervisor cannot
    observe, all carrying the unchanged decision ``gamma``.  This composes
    over intruder-visible but supervisor-silent events as well, so the
    intruder's estimate keeps evolving inside the closure."""
    for m in info:
        if m.decision != gamma:
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
    return make_info(list(seen))


def decision_successor(
    model: PlantModel, key: DecisionKey, gamma: int, mode: IssuanceMode
) -> InfoState:
    """The observation state reached by committing ``gamma`` at decision
    state ``key``: the image of its observation (from the initial decision
    state, the estimator's first step) closed under unobservable events."""
    info, sigma = key
    if info is None:
        core: InfoState = (
            estimator_step(model, None, AugmentedEvent(None, gamma), mode),
        )
    else:
        core = nx_is(model, info, sigma, gamma, mode)
    return ur_is(model, core, gamma, mode)


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


def graph_canonical_form(mode: IssuanceMode, decisions: dict, observations: dict):
    """Order-independent content of a decision/observation graph, for
    equality checks and hashing."""
    return (
        mode.value,
        tuple(sorted(decisions.items(), key=lambda kv: decision_key_order(kv[0]))),
        tuple(sorted(observations.items())),
    )


@dataclass
class StructureRun:
    decision_state: DecisionKey
    observation_state: InfoState
    decisions: tuple[int, ...]


class ControlStructure:
    """A decision/observation graph committing one decision per decision
    state.  Immutable once built."""

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
            if not is_consistent(info):
                raise StructureError("inconsistent observation state")
            for sigma in events:
                if (info, sigma) not in decisions:
                    raise StructureError("dangling observation transition")
        for (info, sigma), (_, target) in decisions.items():
            if info is not None and sigma is None:
                raise StructureError("non-initial decision state missing its event")
            if target not in observations:
                raise StructureError("decision transition into unknown state")
        self.model = model
        self.mode = mode
        self.decisions = decisions
        self.observations = observations

    @property
    def initial_decision(self) -> int:
        return self.decisions[INITIAL_KEY][0]

    def run(self, alpha: Sequence[int]) -> StructureRun:
        """Follow an observation string, collecting the committed decisions.

        Raises :class:`StructureError` naming the failing position when some
        observation is not defined."""
        key: DecisionKey = INITIAL_KEY
        gamma, obs = self.decisions[key]
        taken = [gamma]
        for pos, sigma in enumerate(alpha):
            if sigma not in self.observations[obs]:
                raise StructureError(
                    f"observation {self.model.events[sigma]!r} undefined at "
                    f"position {pos}"
                )
            key = (obs, sigma)
            gamma, obs = self.decisions[key]
            taken.append(gamma)
        return StructureRun(key, obs, tuple(taken))

    def decoded(self) -> "DecodedSupervisor":
        return DecodedSupervisor(self)

    def canonical_form(self):
        return graph_canonical_form(self.mode, self.decisions, self.observations)

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
    """The policy read off a control structure: the decision committed at
    the decision state reached by the observation history."""

    def __init__(self, structure: ControlStructure):
        self.structure = structure
        self._cache: dict[tuple[int, ...], int] = {}

    def decision(self, obs: tuple[int, ...]) -> int:
        try:
            return self._cache[obs]
        except KeyError:
            gamma = self.structure.run(obs).decisions[-1]
            self._cache[obs] = gamma
            return gamma


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
    edge is rejected."""
    decisions: dict[DecisionKey, tuple[int, InfoState]] = {}
    observations: dict[InfoState, tuple[int, ...]] = {}
    first_seen: dict[DecisionKey, tuple[int, ...]] = {}
    queue: list[tuple[DecisionKey, tuple[int, ...]]] = [(INITIAL_KEY, ())]
    while queue:
        key, alpha = queue.pop(0)
        gamma = sup.decision(alpha)
        if key in decisions:
            if decisions[key][0] != gamma:
                raise StructureError(
                    "policy is not information-state based: decision state "
                    f"reached by {first_seen[key]} and {alpha} with different "
                    "decisions"
                )
            continue
        first_seen[key] = alpha
        target = decision_successor(model, key, gamma, mode)
        decisions[key] = (gamma, target)
        if target not in observations:
            observations[target] = feasible_events(model, target)
        queue.extend(
            ((target, nxt), alpha + (nxt,)) for nxt in observations[target]
        )
    return ControlStructure(model, mode, decisions, observations)


@dataclass
class ClosedLoopVerdict:
    opaque: bool
    counterexample: tuple[str, ...] | None = None
    complete: bool = True
    bound: int | None = None

    def __bool__(self):
        return self.opaque


def _find_revealing_string(
    model: PlantModel, sup: Supervisor, mode: IssuanceMode, bound: int | None
) -> tuple[tuple[int, ...] | None, bool]:
    """Breadth-first search over the closed loop for a string whose
    controlled state estimate is contained in the secret set.  Returns the
    shortest such string (None if none) and whether the search exhausted the
    closed loop rather than hitting the bound."""
    m0 = estimator_step(model, None, AugmentedEvent(None, sup.decision(())), mode)
    if not (m0.estimate & ~model.secret_mask):
        return (), True
    level: list[tuple[EstimatorState, tuple[int, ...], tuple[int, ...]]] = [
        (m0, (), ())
    ]
    seen = {(m0, sup.observation_signature(()))}
    depth = 0
    while level:
        if bound is not None and depth >= bound:
            return None, False
        depth += 1
        nxt_level = []
        for m, obs, s in level:
            for sigma in iter_bits(model.active(m.plant_state) & m.decision):
                if (model.supervisor_observable >> sigma) & 1:
                    new_obs = obs + (sigma,)
                    gamma = sup.decision(new_obs)
                else:
                    new_obs = obs
                    gamma = m.decision
                nxt = estimator_step(model, m, AugmentedEvent(sigma, gamma), mode)
                node = (nxt, sup.observation_signature(new_obs))
                if node in seen:
                    continue
                seen.add(node)
                if not (nxt.estimate & ~model.secret_mask):
                    return s + (sigma,), True
                nxt_level.append((nxt, new_obs, s + (sigma,)))
        level = nxt_level
    return None, True


def verify_closed_loop_opacity(
    model: PlantModel,
    sup: Supervisor | ControlStructure,
    mode: IssuanceMode,
    depth_bound: int | None = None,
) -> ClosedLoopVerdict:
    """Decide whether the closed loop keeps the secret from an intruder that
    eavesdrops on released decisions.

    For control structures (and their decoded supervisors) the check is
    exact: the reachable observation states are re-derived under ``mode`` and
    each must be safe.  For arbitrary behavioral policies the closed loop is
    searched up to ``depth_bound``; the verdict says whether the search was
    exhaustive.
    """
    structure = None
    if isinstance(sup, ControlStructure):
        structure = sup
    elif isinstance(sup, DecodedSupervisor):
        structure = sup.structure

    if structure is None:
        assert isinstance(sup, Supervisor)
        witness, complete = _find_revealing_string(model, sup, mode, depth_bound)
        if witness is not None:
            return ClosedLoopVerdict(
                False, tuple(model.events[e] for e in witness), True, depth_bound
            )
        return ClosedLoopVerdict(True, None, complete, depth_bound)

    # Re-derive the observation states induced by the structure's decisions
    # under the requested mechanism.  The pairing with the structure's own
    # states keeps decoding aligned even when `mode` differs from the one the
    # structure was built for.
    init = decision_successor(model, INITIAL_KEY, structure.initial_decision, mode)
    struct_init = structure.decisions[INITIAL_KEY][1]
    stack = [(struct_init, init)]
    seen = {(struct_init, init)}
    unsafe = False
    while stack:
        struct_obs, derived = stack.pop()
        if not is_safe(derived, model.secret_mask):
            unsafe = True
            break
        for sigma in feasible_events(model, derived):
            if sigma not in structure.observations[struct_obs]:
                raise StructureError(
                    f"structure is incomplete: observation "
                    f"{model.events[sigma]!r} undefined"
                )
            gamma, struct_next = structure.decisions[(struct_obs, sigma)]
            derived_next = decision_successor(model, (derived, sigma), gamma, mode)
            node = (struct_next, derived_next)
            if node not in seen:
                seen.add(node)
                stack.append(node)
    if not unsafe:
        return ClosedLoopVerdict(True, None, True, None)
    witness, _ = _find_revealing_string(model, DecodedSupervisor(structure), mode, None)
    assert witness is not None
    return ClosedLoopVerdict(
        False, tuple(model.events[e] for e in witness), True, None
    )


def brute_estimate_set(
    model: PlantModel,
    sup: Supervisor,
    alpha: Sequence[int],
    mode: IssuanceMode,
    bound: int | None = None,
) -> frozenset[int]:
    """All controlled state estimates over strings of the closed loop that
    project to ``alpha``.

    With ``bound`` set, plain enumeration of strings up to that length;
    otherwise an exact fixpoint over (estimator state, consumed observation)
    pairs.  Either way this folds the intruder-side estimator over strings,
    independently of the information-state operators."""
    alpha = tuple(alpha)
    m0 = estimator_step(model, None, AugmentedEvent(None, sup.decision(())), mode)
    out: set[int] = set()
    if bound is None:
        seen = {(m0, 0)}
        stack = [(m0, 0)]
        while stack:
            m, i = stack.pop()
            if i == len(alpha):
                out.add(m.estimate)
            for sigma in iter_bits(model.active(m.plant_state) & m.decision):
                if (model.supervisor_observable >> sigma) & 1:
                    if i == len(alpha) or alpha[i] != sigma:
                        continue
                    gamma = sup.decision(alpha[: i + 1])
                    node = (
                        estimator_step(model, m, AugmentedEvent(sigma, gamma), mode),
                        i + 1,
                    )
                else:
                    node = (
                        estimator_step(
                            model, m, AugmentedEvent(sigma, m.decision), mode
                        ),
                        i,
                    )
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        return frozenset(out)

    stack2 = [(m0, 0, 0)]
    while stack2:
        m, i, length = stack2.pop()
        if i == len(alpha):
            out.add(m.estimate)
        if length == bound:
            continue
        for sigma in iter_bits(model.active(m.plant_state) & m.decision):
            if (model.supervisor_observable >> sigma) & 1:
                if i == len(alpha) or alpha[i] != sigma:
                    continue
                gamma = sup.decision(alpha[: i + 1])
                stack2.append(
                    (
                        estimator_step(model, m, AugmentedEvent(sigma, gamma), mode),
                        i + 1,
                        length + 1,
                    )
                )
            else:
                stack2.append(
                    (
                        estimator_step(model, m, AugmentedEvent(sigma, m.decision), mode),
                        i,
                        length + 1,
                    )
                )
    return frozenset(out)
