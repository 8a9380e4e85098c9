"""The decoration oracle: frozen examples, memoization soundness, and
agreement with the recursive estimate on random closed loops.  The paper's
last theorem: with strictly finer intruder observations, the estimate
equals the one of an intruder that knows the policy."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEC, OBS, closed_loop_strings, pair
from opactrl import (
    PlantModel,
    SynthesisConfig,
    augment,
    estimate_from_flow,
    information_flow,
    oracle_controlled_estimate,
    project,
    run_estimator,
    synthesize,
    verify_closed_loop_opacity,
)
from opactrl.model import iter_bits
from opactrl.randgen import RandomModelConfig, random_model, random_supervisor

SIGMA = "a u1 u2 u3 b"


def exhaustive_bound(flow, model):
    """A decoration length that provably covers the whole estimate: one step
    per flow element plus a loop-free silent stretch between any two."""
    return (len(flow) - 1) + len(flow) * (len(model.states) - 1)


def test_oracle_running_example_flow(run_model, srun):
    m = run_model
    flow = information_flow(m, m.word("a u1 u2 u2"), srun, OBS)
    assert oracle_controlled_estimate(m, flow, OBS, 6) == m.state_mask(["7"])


def test_oracle_initial_decision_only(run_model):
    m = run_model
    assert oracle_controlled_estimate(m, (pair(m, None, SIGMA),), OBS, 3) == (
        m.state_mask(["0"])
    )


def test_oracle_ambiguous_flow(run_model, sprime):
    m = run_model
    flow = information_flow(m, m.word("a u1 u2 u2"), sprime, OBS)
    assert oracle_controlled_estimate(m, flow, OBS, 6) == m.state_mask(["6", "7"])


def test_oracle_decision_mode(run_model, srun):
    m = run_model
    flow = information_flow(m, m.word("a u1 u2 u2"), srun, DEC)
    assert oracle_controlled_estimate(m, flow, DEC, 6) == m.state_mask(["5", "6", "7"])


def test_oracle_bound_precondition(run_model, srun):
    m = run_model
    flow = information_flow(m, m.word("a u1 u2 u2"), srun, OBS)
    with pytest.raises(ValueError, match="bound"):
        oracle_controlled_estimate(m, flow, OBS, len(flow) - 2)


model_seeds = st.integers(0, 10**9)


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=40, deadline=None)
def test_memoized_oracle_equals_raw_enumeration(seed, mode):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=3, max_events=3))
    sup = random_supervisor(rng, model)
    flows = {
        information_flow(model, s, sup, mode)
        for s in closed_loop_strings(model, sup, 3)
    }
    for flow in flows:
        bound = len(flow) + 2
        assert oracle_controlled_estimate(
            model, flow, mode, bound, memoize=True
        ) == oracle_controlled_estimate(model, flow, mode, bound, memoize=False)


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=40, deadline=None)
def test_oracle_agrees_with_recursive_estimate(seed, mode):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig())
    sup = random_supervisor(rng, model)
    flows = {
        information_flow(model, s, sup, mode)
        for s in closed_loop_strings(model, sup, 5)
    }
    for flow in flows:
        expected = estimate_from_flow(model, flow, mode)
        assert (
            oracle_controlled_estimate(model, flow, mode, exhaustive_bound(flow, model))
            == expected
        )
        # Tighter bounds only ever under-approximate.
        shallow = oracle_controlled_estimate(model, flow, mode, len(flow) - 1)
        assert shallow | expected == expected


def _finer_intruder_model(rng):
    """A random plant whose supervisor-observable events are a strict subset
    of the intruder-observable ones."""
    doc = random_model(
        rng, RandomModelConfig(min_states=3, max_states=6, min_events=2, max_events=4)
    ).to_dict()
    events = doc["events"]
    seen = rng.sample(events, rng.randrange(len(events)))
    extra = [e for e in events if e not in seen and rng.random() < 0.5]
    if not extra:
        extra = [next(e for e in events if e not in seen)]
    doc["observable_supervisor"] = seen
    doc["observable_intruder"] = seen + extra
    return PlantModel.from_dict(doc)


def _known_policy_estimate(model, sup, alpha):
    """The end states of every closed-loop string whose intruder projection
    is ``alpha``: what an intruder that knows ``sup`` can infer.  A fixpoint
    over (plant state, supervisor observation, position in ``alpha``),
    finite because every event the supervisor observes moves the position."""
    assert not model.supervisor_observable & ~model.intruder_observable
    start = (model.initial, (), 0)
    seen = {start}
    stack = [start]
    estimate = 0
    while stack:
        x, obs, i = stack.pop()
        if i == len(alpha):
            estimate |= 1 << x
        for e in iter_bits(model.active(x) & sup.decision(obs)):
            j = i
            if (model.intruder_observable >> e) & 1:
                if i == len(alpha) or alpha[i] != e:
                    continue
                j = i + 1
            seen_obs = obs + (e,) if (model.supervisor_observable >> e) & 1 else obs
            node = (model.step(x, e), seen_obs, j)
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return estimate


@given(model_seeds)
@settings(max_examples=40, deadline=None)
def test_finer_intruder_sees_what_a_known_policy_shows(seed):
    """With the supervisor's observable events a strict subset of the
    intruder's, both mechanisms estimate, along every closed-loop string up
    to length 5, exactly what an intruder knowing the policy infers.  So
    verification and synthesis cannot tell the mechanisms apart."""
    rng = random.Random(seed)
    model = _finer_intruder_model(rng)
    sup = random_supervisor(rng, model)
    for s in closed_loop_strings(model, sup, 5):
        expected = _known_policy_estimate(
            model, sup, project(s, model.intruder_observable)
        )
        for mode in (OBS, DEC):
            assert run_estimator(model, augment(model, s, sup), mode).estimate == expected
    assert verify_closed_loop_opacity(model, sup, OBS) == verify_closed_loop_opacity(
        model, sup, DEC
    )
    solved = [
        synthesize(model, SynthesisConfig(mode=mode, size_guard=20_000)).solved
        for mode in (OBS, DEC)
    ]
    assert solved[0] == solved[1]


def test_running_example_is_the_counter_case(run_model, srun):
    """In the running example the supervisor sees events the intruder does
    not, and the mechanisms disagree about ``srun``."""
    m = run_model
    assert m.supervisor_observable & ~m.intruder_observable
    verdicts = [verify_closed_loop_opacity(m, srun, mode).opaque for mode in (OBS, DEC)]
    assert verdicts == [False, True]
