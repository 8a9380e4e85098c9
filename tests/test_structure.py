"""Information-state operators, control structures, decoded supervisors,
closed-loop simulation, and closed-loop opacity verification."""

import dataclasses
import inspect
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DEC, OBS, closed_loop_strings, feasible_observations
from opactrl import (
    INITIAL_KEY,
    ConstantSupervisor,
    EstimatorState,
    PlantModel,
    SizeGuardExceeded,
    StructureError,
    Successors,
    SynthesisConfig,
    brute_estimate_set,
    closed_loop_simulate,
    augment,
    estimator_step,
    expand_arena,
    feasible_events,
    info_decision,
    info_estimates,
    info_plant_states,
    is_consistent,
    is_safe,
    make_info,
    nx_is,
    run_estimator,
    structure_from_policy,
    supervisor_estimate,
    synthesize,
    ur_is,
    verify_closed_loop_opacity,
)
from opactrl import oracles
from opactrl import structure as structure_module
from opactrl.dot import estimator_slice_to_dot
from opactrl.estimator import AugmentedEvent
from opactrl.model import iter_bits
from opactrl.randgen import RandomModelConfig, random_model, random_supervisor
from opactrl.structure import closed_loop_search, loop_string
from opactrl.supervisors import Supervisor, TabularSupervisor

SIGMA = "a u1 u2 u3 b"


def est(model, x, q, decision):
    return EstimatorState(
        model.state(x),
        model.state_mask(q.split()),
        model.control_decision(decision.split()),
    )


def info(model, *members):
    return make_info([est(model, *m) for m in members])


def test_info_state_accessors(run_model):
    m = run_model
    i = info(m, ("0", "0", SIGMA), ("1", "1 2 3 4 5 6 7", SIGMA))
    assert is_consistent(i)
    assert info_plant_states(i) == m.state_mask(["0", "1"])
    assert info_estimates(i) == {m.state_mask(["0"]), m.state_mask(["1", "2", "3", "4", "5", "6", "7"])}
    assert info_decision(i) == m.all_events_mask
    mixed = info(m, ("0", "0", SIGMA), ("1", "1", "a b u1"))
    assert not is_consistent(mixed)
    with pytest.raises(StructureError, match="inconsistent"):
        info_decision(mixed)


def test_nx_is_examples(run_model):
    m = run_model
    start = info(m, ("0", "0", SIGMA), ("1", "1 2 3 4 5 6 7", SIGMA))
    gamma = m.control_decision("a b u2".split())
    assert nx_is(m, start, m.event("u1"), gamma, OBS) == info(
        m, ("2", "2 3 4 5 6 7", "a b u2")
    )
    # no member enables the event
    assert nx_is(m, info(m, ("0", "0", SIGMA)), m.event("u1"), gamma, OBS) == ()
    gamma1 = m.control_decision("a b u1".split())
    assert nx_is(
        m, info(m, ("1", "1 2 3 4 5 6 7", SIGMA)), m.event("u2"), gamma1, OBS
    ) == info(m, ("3", "2 3 4 5 6 7", "a b u1"))


def test_ur_is_examples(run_model):
    m = run_model
    assert ur_is(m, info(m, ("0", "0", SIGMA)), m.all_events_mask, OBS) == info(
        m, ("0", "0", SIGMA), ("1", "1 2 3 4 5 6 7", SIGMA)
    )
    # nothing supervisor-silent enabled
    frozen = info(m, ("5", "5 7", "a b u2"))
    assert ur_is(m, frozen, m.control_decision("a b u2".split()), OBS) == frozen
    # the closure tracks intruder-visible but supervisor-silent events
    gamma1 = m.control_decision("a b u1".split())
    assert ur_is(m, info(m, ("3", "2 3 4 5 6 7", "a b u1")), gamma1, OBS) == info(
        m, ("3", "2 3 4 5 6 7", "a b u1"), ("5", "5 6", "a b u1")
    )
    with pytest.raises(StructureError, match="shared decision"):
        ur_is(m, frozen, m.all_events_mask, OBS)


def test_is_safe_examples(run_model):
    m = run_model
    assert not is_safe(info(m, ("7", "7", SIGMA)), m.secret_mask)
    assert is_safe(info(m, ("7", "5 6 7", SIGMA)), m.secret_mask)
    assert is_safe(info(m, ("7", "7", SIGMA)), 0)


@pytest.fixture(scope="module")
def fig4(run_model, srun):
    return structure_from_policy(run_model, srun, OBS)


def test_structure_from_policy_shape(run_model, fig4):
    assert len(fig4.decisions) == 6
    assert len(fig4.observations) == 6


def test_policy_walk_has_a_size_guard(run_model, srun, fig4, monkeypatch):
    """The walk counts decision and observation states as expansion does:
    the running example's 12-state structure fits a guard of 12, and a
    smaller guard trips once the walk knows one state more."""
    monkeypatch.setattr(oracles, "DEFAULT_SIZE_GUARD", 12)
    assert structure_from_policy(run_model, srun, OBS) == fig4
    for guard, counts in ((11, "6 decision + 6 observation"), (5, "3 decision + 3 observation")):
        monkeypatch.setattr(oracles, "DEFAULT_SIZE_GUARD", guard)
        with pytest.raises(SizeGuardExceeded) as raised:
            structure_from_policy(run_model, srun, OBS)
        assert str(raised.value) == (
            f"policy walk exceeded size guard of {guard} states ({counts} so far)"
        )


def test_every_search_defaults_to_the_one_size_guard():
    """Each public search and the synthesis config read their bound from
    one default, and none of them runs unbounded."""
    guarded = (
        closed_loop_search,
        structure_module.verify_open_loop_opacity,
        verify_closed_loop_opacity,
        estimator_slice_to_dot,
    )
    default = structure_module.DEFAULT_SIZE_GUARD
    for search in guarded:
        assert inspect.signature(search).parameters["size_guard"].default is default
    fields = {f.name: f for f in dataclasses.fields(SynthesisConfig)}
    assert fields["size_guard"].default is default


def test_run_structure_empty_observation(run_model, fig4):
    m = run_model
    decoded = fig4.decoded()
    assert decoded.start() == decoded.observation_signature(()) == info(
        m, ("0", "0", SIGMA), ("1", "1 2 3 4 5 6 7", SIGMA)
    )
    assert decoded.decision(()) == m.all_events_mask


def test_run_structure_decodes_decision(run_model, fig4):
    """Stepping the decoded supervisor's state by hand reaches the state and
    decision that it answers for the history."""
    decoded = fig4.decoded()
    u2 = run_model.word("u2")
    state = decoded.advance(decoded.start(), *u2)
    assert state == decoded.observation_signature(u2)
    assert decoded.decide(state) == decoded.decision(u2) == run_model.control_decision(
        "a b u1".split()
    )


def test_run_structure_infeasible_observation(run_model, fig4):
    undefined = "^structure is incomplete: observation 'u1' undefined$"
    with pytest.raises(StructureError, match=undefined):
        fig4.decoded().decision(run_model.word("u1 u1"))


def self_loop_model():
    return PlantModel.from_dict(
        {
            "states": ["0"],
            "events": ["u"],
            "initial": "0",
            "transitions": [["0", "u", "0"]],
            "observable_supervisor": ["u"],
            "observable_intruder": [],
            "controllable": [],
        }
    )


def test_single_decision_state_loop_decodes_constant_supervisor():
    model = self_loop_model()
    structure = structure_from_policy(
        model, ConstantSupervisor(model.all_events_mask), OBS
    )
    decoded = structure.decoded()
    for n in range(5):
        assert decoded.decision(tuple([model.event("u")] * n)) == model.all_events_mask


def test_structure_from_policy_rejects_history_dependent_policy():
    doc = self_loop_model().to_dict()
    doc["controllable"] = ["u"]
    model = PlantModel.from_dict(doc)
    sup = TabularSupervisor(model, {"": ["u"], "u": ["u"], "u u": []})
    with pytest.raises(StructureError, match="not information-state based"):
        structure_from_policy(model, sup, OBS)


def test_closed_loop_simulate(run_model, srun):
    m = run_model
    ok = closed_loop_simulate(m, srun, m.word("a u1 u2 u2"))
    assert ok.accepted
    assert ok.trace == augment(m, m.word("a u1 u2 u2"), srun)
    bad = closed_loop_simulate(m, srun, m.word("a u1 u3"))
    assert not bad.accepted and bad.rejected_at == 2
    permissive = ConstantSupervisor(m.all_events_mask)
    for s in closed_loop_strings(m, permissive, 6):
        assert closed_loop_simulate(m, permissive, s).accepted


def test_supervisor_estimate_examples(run_model, srun):
    m = run_model
    assert supervisor_estimate(m, srun, m.word("u1")) == m.state_mask(["2"])
    assert supervisor_estimate(m, srun, ()) == m.state_mask(["0", "1"])
    doc = m.to_dict()
    doc["observable_supervisor"] = list(m.events)
    full_obs = PlantModel.from_dict(doc)
    assert supervisor_estimate(
        full_obs, ConstantSupervisor(full_obs.all_events_mask), ()
    ) == 1 << full_obs.initial
    with pytest.raises(StructureError, match="infeasible"):
        supervisor_estimate(m, srun, m.word("u1 u1"))


def test_brute_estimate_set_bounded_matches_exact(run_model, srun):
    # the plant is acyclic, so a bound covering the longest string is exact
    m = run_model
    for alpha in (() , m.word("u1"), m.word("u1 u2"), m.word("u2")):
        for mode in (OBS, DEC):
            exact = brute_estimate_set(m, srun, alpha, mode)
            assert brute_estimate_set(m, srun, alpha, mode, bound=8) == exact
            # tighter bounds only lose estimates, never invent them
            assert brute_estimate_set(m, srun, alpha, mode, bound=len(alpha)) <= exact


def test_verify_closed_loop_examples(run_model, srun, sprime):
    m = run_model
    v = verify_closed_loop_opacity(m, srun, OBS)
    assert not v.opaque and v.counterexample == ("a", "u1", "u2", "u2")
    assert verify_closed_loop_opacity(m, sprime, OBS).opaque
    assert verify_closed_loop_opacity(m, srun, DEC).opaque


def test_decision_mode_structure_of_baseline_policy(run_model, srun):
    """Under decision-triggered issuance the same policy induces a structure
    whose estimates are strictly coarser, and every state is safe."""
    m = run_model
    structure = structure_from_policy(m, srun, DEC)
    assert set(structure.observations) == {
        info(m, ("0", "0", SIGMA), ("1", "1 2 3 4 5 6 7", SIGMA)),
        info(m, ("2", "2 3 4 5 6 7", "a b u2")),
        info(m, ("3", "2 3 4 5 6 7", "a b u1"), ("5", "5 6", "a b u1")),
        info(m, ("5", "2 3 4 5 6 7", "a b u2")),
        info(m, ("7", "5 6 7", SIGMA)),
        info(m, ("6", "5 6", "a b u1")),
    }
    assert all(is_safe(i, m.secret_mask) for i in structure.observations)


def test_verify_structure_route_matches_string_route(run_model, fig4, sprime):
    v = verify_closed_loop_opacity(run_model, fig4, OBS)
    assert not v.opaque and v.counterexample == ("a", "u1", "u2", "u2")
    assert verify_closed_loop_opacity(run_model, fig4, DEC).opaque
    sprime_structure = structure_from_policy(run_model, sprime, OBS)
    assert verify_closed_loop_opacity(run_model, sprime_structure.decoded(), OBS).opaque


def test_decoded_structure_slice_stops_growing_with_depth():
    """A decoded structure's observation signature is the observation state
    its history reaches, so the closed-loop search merges histories that
    reach the same one.  On randgen seed-10 draw 5 the estimator slice is
    whole by depth 8: depth 30 renders the same graph, stays far inside the
    size guard, and asks the plant for no more reach work.  The search's
    reach memo sends each distinct input to the plant once, whatever the
    number of estimator steps."""
    rng = random.Random(10)
    config = RandomModelConfig(min_states=8, max_states=12, min_events=5, max_events=6)
    model = [random_model(rng, config) for _ in range(6)][5]
    decoded = synthesize(model, SynthesisConfig(mode=OBS)).structure.decoded()
    computed = []
    operators = ("observable_reach", "unobservable_reach", "unobservable_reach_plus")

    class CountingModel:
        """``model``, recording each call of a reach operator made on it."""

        def __getattr__(self, name):
            attr = getattr(model, name)
            if name not in operators:
                return attr

            def counting(*args):
                computed.append((name, *args))
                return attr(*args)

            return counting

    slices, reach = {}, {}
    for depth in (8, 30):
        computed.clear()
        slices[depth] = estimator_slice_to_dot(CountingModel(), decoded, OBS, depth, 10_000)
        reach[depth] = len(computed)
        assert len(set(computed)) == len(computed)
    assert slices[30] == slices[8]
    assert 0 < reach[30] <= reach[8]


# Every policy class the package defines.
POLICIES = (
    TabularSupervisor, structure_module.DecodedSupervisor, ConstantSupervisor,
    oracles._PrefixPolicy,
)


def test_the_policy_classes_are_every_policy_of_the_package():
    package = {c for c in Supervisor.__subclasses__() if c.__module__.startswith("opactrl.")}
    assert package == set(POLICIES)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda c: c.__name__)
def test_every_policy_defines_the_protocol_itself(policy):
    """The base class gives no default state, so no policy takes its whole
    history as its state by omission: each defines its own start, advance
    and decide."""
    protocol = {"start", "advance", "decide"}
    assert not protocol & set(vars(Supervisor))
    assert protocol <= set(vars(policy))


def test_verify_terminates_on_cyclic_model_with_tabular_policy():
    model = self_loop_model()
    sup = TabularSupervisor(model, {"u": ["u"]})
    verdict = verify_closed_loop_opacity(model, sup, OBS)
    assert verdict.opaque



def u_chain(n, secret):
    """States s0..s(n-1) joined by the uncontrollable u, which both parties
    observe; the last state is secret when ``secret`` is set."""
    states = [f"s{i}" for i in range(n)]
    return PlantModel.from_dict(
        {
            "states": states,
            "events": ["u"],
            "initial": "s0",
            "secret": states[-1:] if secret else [],
            "transitions": [[x, "u", y] for x, y in zip(states, states[1:])],
            "observable_supervisor": ["u"],
            "observable_intruder": ["u"],
            "controllable": [],
        }
    )


def test_a_deep_witness_is_found_in_linear_memory():
    """A structure synthesized with nothing secret leaks once the chain's
    last state is: the witness is the whole chain, 2,999 events.  Search
    nodes hold the policy's state and a parent link, not their observation,
    so the search to it stays linear in memory; nodes that each held their
    observation string took about 43 MB here."""
    n = 3_000
    structure = synthesize(u_chain(n, False), SynthesisConfig()).structure
    model = u_chain(n, True)
    tracemalloc.start()
    try:
        verdict = verify_closed_loop_opacity(model, structure, OBS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.opaque
    assert verdict.counterexample == ("u",) * (n - 1)
    assert peak < 15_000_000

# Properties ---------------------------------------------------------------

model_seeds = st.integers(0, 10**9)


def _sample_info_states(rng, model, sup, mode, max_len=4):
    """Observation states arising from a random policy, plus sub-infos."""
    out = []
    for alpha in sorted(feasible_observations(model, sup, max_len)):
        members = []
        m0 = estimator_step(
            model, None, AugmentedEvent(None, sup.decision(())), mode
        )
        stack = [(m0, 0)]
        seen = {(m0, 0)}
        while stack:
            m, i = stack.pop()
            if i == len(alpha):
                members.append(m)
            # interleave plant exploration to sample reachable members
            gamma = m.decision
            for e in range(len(model.events)):
                if model.step(m.plant_state, e) is None or not (gamma >> e) & 1:
                    continue
                if (model.supervisor_observable >> e) & 1:
                    if i == len(alpha) or alpha[i] != e:
                        continue
                    nxt = (
                        estimator_step(
                            model,
                            m,
                            AugmentedEvent(e, sup.decision(alpha[: i + 1])),
                            mode,
                        ),
                        i + 1,
                    )
                else:
                    nxt = (
                        estimator_step(model, m, AugmentedEvent(e, gamma), mode),
                        i,
                    )
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if members:
            out.append(make_info(members))
    return out


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=40, deadline=None)
def test_ur_is_is_a_closure_operator(seed, mode):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=4, max_events=3))
    sup = random_supervisor(rng, model)
    for state in _sample_info_states(rng, model, sup, mode, max_len=2):
        gamma = info_decision(state)
        closed = ur_is(model, state, gamma, mode)
        assert set(state) <= set(closed)  # extensive
        assert ur_is(model, closed, gamma, mode) == closed  # idempotent
        sub = state[: max(1, len(state) - 1)]
        assert set(ur_is(model, sub, gamma, mode)) <= set(closed)  # monotone
        assert is_consistent(closed) and info_decision(closed) == gamma


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=40, deadline=None)
def test_nx_is_preserves_consistency(seed, mode):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=4, max_events=3))
    sup = random_supervisor(rng, model)
    for state in _sample_info_states(rng, model, sup, mode, max_len=2):
        gamma_new = model.uncontrollable | (rng.getrandbits(8) & model.controllable)
        for sigma in range(len(model.events)):
            image = nx_is(model, state, sigma, gamma_new, mode)
            if image:
                assert is_consistent(image)
                assert info_decision(image) == gamma_new


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=25, deadline=None)
def test_decoded_supervisor_states_match_string_side(seed, mode):
    """Both claims about what an observation state holds: the plant states
    are the supervisor's own estimate, the estimate sets are exactly the
    intruder's possible estimates."""
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=4, max_events=3))
    out = synthesize(model, SynthesisConfig(mode=mode, size_guard=20_000))
    if not out.solved:
        return
    structure = out.structure
    decoded = structure.decoded()
    for alpha in sorted(feasible_observations(model, decoded, 3)):
        state = decoded.observation_signature(alpha)
        assert state in structure.observations
        assert info_plant_states(state) == supervisor_estimate(model, decoded, alpha)
        assert info_estimates(state) == brute_estimate_set(model, decoded, alpha, mode)


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=25, deadline=None)
def test_safe_structures_verify_opaque(seed, mode):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=4, max_events=3))
    out = synthesize(model, SynthesisConfig(mode=mode, size_guard=20_000))
    if not out.solved:
        return
    structure = out.structure
    assert all(is_safe(i, model.secret_mask) for i in structure.observations)
    assert verify_closed_loop_opacity(model, structure, mode).opaque


# Models drawn from these seeds with CLOSED_LOOP_CONFIG have a synthesized
# structure that leaks under the other mechanism, which few seeds do.
CROSS_MODE_LEAKS = (14, 68, 83, 111, 141, 167, 217, 218)
CLOSED_LOOP_CONFIG = RandomModelConfig(
    min_states=3, max_states=6, min_events=2, max_events=4, secret_probability=0.4
)


@given(st.one_of(st.sampled_from(CROSS_MODE_LEAKS), model_seeds))
@settings(max_examples=40, deadline=None)
def test_structure_walks_agree_with_the_policy_and_the_string_search(seed):
    """Every structure synthesized in either mode, by either walk policy, is
    re-derived from its decoded policy in its own mode, and in both modes
    the structure walk of verify finds it opaque exactly when the unbounded
    search over closed-loop strings finds no revealing one.  In the other
    mode the policy may tell apart histories that the kernel merges, which
    ``structure_from_policy`` refuses; when it does not, the structure it
    derives there is all safe exactly when verify finds it opaque."""
    model = random_model(random.Random(seed), CLOSED_LOOP_CONFIG)
    leaks = False
    for built in (OBS, DEC):
        for policy in ("first_feasible", "locally_maximal"):
            cfg = SynthesisConfig(mode=built, extraction_policy=policy, size_guard=20_000)
            outcome = synthesize(model, cfg)
            if not outcome.solved:
                continue
            structure = outcome.structure
            decoded = structure.decoded()
            assert structure_from_policy(model, decoded, built) == structure
            for mode in (OBS, DEC):
                searched = structure_module._search_verdict(
                    model, decoded, mode, structure_module.DEFAULT_SIZE_GUARD
                )
                opaque = verify_closed_loop_opacity(model, structure, mode).opaque
                assert opaque == searched.opaque
                leaks |= not opaque
                if mode is built:
                    continue
                try:
                    again = structure_from_policy(model, decoded, mode)
                except StructureError as exc:
                    assert "not information-state based" in str(exc)
                    continue
                safe = all(is_safe(i, model.secret_mask) for i in again.observations)
                assert safe == opaque
    assert leaks or seed not in CROSS_MODE_LEAKS


def _random_history(rng, structure, observable):
    """Up to 5 supervisor-observable events, mostly ones the structure
    defines where it is, sometimes any: undefined ones included."""
    obs, alpha = structure.decisions[INITIAL_KEY][1], []
    for _ in range(rng.randint(0, 5)):
        defined = structure.observations.get(obs, ())
        sigma = rng.choice(defined if defined and rng.random() < 0.8 else observable)
        alpha.append(sigma)
        obs = structure.decisions[obs, sigma][1] if sigma in defined else None
    return tuple(alpha)


@given(
    st.one_of(st.sampled_from(CROSS_MODE_LEAKS), model_seeds),
    st.sampled_from([OBS, DEC]),
)
@settings(max_examples=40, deadline=None)
def test_decoded_supervisor_answers_as_the_structure_runs(seed, mode):
    """A decoded supervisor decides a history by stepping its state, the
    observation state reached, one event at a time.  Asked about random
    histories in random order, defined or not, it must answer as a replay
    over the structure's decision states from the initial one: the
    decision and observation state of the last one reached, or the error
    naming the first observation that leads to none."""
    rng = random.Random(seed)
    model = random_model(rng, CLOSED_LOOP_CONFIG)
    observable = list(iter_bits(model.supervisor_observable))
    for policy in ("first_feasible", "locally_maximal"):
        cfg = SynthesisConfig(mode=mode, extraction_policy=policy, size_guard=20_000)
        outcome = synthesize(model, cfg)
        if not outcome.solved:
            continue
        structure = outcome.structure
        decoded = structure.decoded()
        histories = [()]
        if observable:
            histories += [
                _random_history(rng, structure, observable) for _ in range(60)
            ]
        rng.shuffle(histories)
        for alpha in histories:
            key = INITIAL_KEY
            for sigma in alpha:
                key = structure.decisions[key][1], sigma
                if key not in structure.decisions:
                    expected = (
                        "structure is incomplete: observation "
                        f"{model.events[sigma]!r} undefined"
                    )
                    break
            else:
                expected = structure.decisions[key]
            try:
                got = decoded.decision(alpha), decoded.observation_signature(alpha)
            except StructureError as exc:
                got = str(exc)
            assert got == expected


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=25, deadline=None)
def test_estimator_matches_brute_set_membership(seed, mode):
    """The estimate reached along any one string is among the estimates the
    string side enumerates for its observation."""
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=4, max_events=3))
    sup = random_supervisor(rng, model)
    for s in closed_loop_strings(model, sup, 4):
        final = run_estimator(model, augment(model, s, sup), mode)
        alpha = tuple(
            e for e in s if (model.supervisor_observable >> e) & 1
        )
        assert final.estimate in brute_estimate_set(model, sup, alpha, mode)


def _columns(succ, old):
    """Each decision's column of the targets after ``old`` (None at the
    initial decision state): its class's, except that under the
    decision-triggered mechanism ``old`` itself reads the last column."""
    own = old if succ.mode is DEC else None
    columns = succ._classes[1]
    return [-1 if gamma == own else column for gamma, column in zip(succ.decisions, columns)]


def _check_kernel_answers(model, mode, succ, state, rng):
    """Every answer ``succ`` gives about ``state`` and its observations is
    the set-level one: its core set, safety, feasible events, the target of
    one new decision and the targets of every decision class.  Targets are
    asked on every event the decision enables and some member can take,
    supervisor-unobservable ones included, where the observation-triggered
    mechanism releases nothing."""
    decisions = list(model.iter_decisions())
    gamma = info_decision(state)
    cores = succ.intern(state)
    assert succ.info_of(gamma, cores) == state
    assert succ.is_safe(cores) == is_safe(state, model.secret_mask)
    feasible = succ.feasible_events(gamma, cores)
    assert feasible == feasible_events(model, state)
    for sigma in range(len(model.events)):
        gamma_new = rng.choice(decisions)
        image = nx_is(model, state, sigma, gamma_new, mode)
        target = succ.target(gamma, cores, sigma, gamma_new)
        assert succ.info_of(gamma_new, target) == ur_is(model, image, gamma_new, mode)
        if (gamma >> sigma) & 1 and cores & succ._active_at[sigma]:
            row = succ.targets(gamma, cores, sigma)
            assert [
                succ.info_of(d, row[column])
                for d, column in zip(decisions, _columns(succ, gamma))
            ] == [
                ur_is(model, nx_is(model, state, sigma, d, mode), d, mode)
                for d in decisions
            ]


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=40, deadline=None)
def test_memoised_successors_match_the_set_level_reference(seed, mode):
    """One kernel answers every query of a run, so later queries are served
    from closures and rows cached by earlier ones; each answer must still
    be the one the set-level operators ``nx_is`` and ``ur_is`` give."""
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=5, max_events=4))
    sup = random_supervisor(rng, model)
    succ = Successors(model, mode)
    decisions = list(model.iter_decisions())
    initial = [
        ur_is(
            model, (estimator_step(model, None, AugmentedEvent(None, d), mode),), d, mode
        )
        for d in decisions
    ]
    assert [succ.info_of(d, succ.target(None, None, None, d)) for d in decisions] == initial
    row = succ.targets(None, None, None)
    assert [
        succ.info_of(d, row[column]) for d, column in zip(decisions, _columns(succ, None))
    ] == initial
    for state in _sample_info_states(rng, model, sup, mode, max_len=3):
        gamma = info_decision(state)
        _check_kernel_answers(model, mode, succ, state, rng)
        # A state mixing in a member under another decision is refused,
        # under either decision.
        other = next((d for d in decisions if d != gamma), None)
        if other is not None:
            mixed = make_info(state + (state[0]._replace(decision=other),))
            for shared in (gamma, other):
                with pytest.raises(StructureError, match="shared decision"):
                    ur_is(model, mixed, shared, mode)


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=40, deadline=None)
def test_kernel_answers_states_it_never_produced(seed, mode):
    """A kernel that has already interned an expansion's cores is asked
    about information states with a (plant state, estimate) core it has
    never met: any plant state, any estimate, one shared decision.  It
    interns them on the way in and still gives the set-level answers, under
    every new decision.  Under the decision-triggered mechanism that covers
    the unchanged decision, which releases nothing, next to changed
    decisions of the same class."""
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=5, max_events=4))
    succ = Successors(model, mode)
    decisions = list(model.iter_decisions())
    succ.targets(None, None, None)
    n = len(model.states)
    for _ in range(4):
        gamma = rng.choice(decisions)
        state = make_info(
            [
                EstimatorState(x, rng.getrandbits(n) | 1 << x, gamma)
                for x in rng.sample(range(n), rng.randint(1, n))
            ]
        )
        if all((m.plant_state, m.estimate) in succ._core_ids for m in state):
            continue  # only states with a core the kernel has not met
        _check_kernel_answers(model, mode, succ, state, rng)


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=40, deadline=None)
def test_old_decisions_of_one_class_share_their_rows(seed, mode):
    """Rows are keyed on the class of the old decision, so two old
    decisions that agree on their hidden events read the same rows: the
    kernel answers the second's targets from the rows the first's filled,
    computing none.  Every column is still the set-level one under both
    old decisions, the unchanged decision's column included.  Models are
    drawn until one has two decisions of one class."""
    rng = random.Random(seed)
    for _ in range(20):
        model = random_model(rng, RandomModelConfig(max_states=5, max_events=4))
        hidden = model.supervisor_unobservable | model.intruder_unobservable
        decisions = list(model.iter_decisions())
        pairs = [(a, b) for a in decisions for b in decisions if a != b and not (a ^ b) & hidden]
        if pairs:
            break
    else:
        return
    succ = Successors(model, mode)
    n = len(model.states)
    computed = []
    row = Successors._row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            Successors, "_row", lambda self, *args: computed.append(args) or row(self, *args)
        )
        for _ in range(4):
            a, b = rng.choice(pairs)
            plant = rng.sample(range(n), rng.randint(1, n))
            members = [(x, rng.getrandbits(n) | 1 << x) for x in plant]
            moved = model.active_events(sum(1 << x for x in plant))
            for sigma in iter_bits(model.supervisor_observable & a & b & moved):
                for old in (a, b):
                    state = make_info([EstimatorState(x, q, old) for x, q in members])
                    cores = succ.intern(state)
                    before = len(computed)
                    targets = succ.targets(old, cores, sigma)
                    assert [
                        succ.info_of(d, targets[column])
                        for d, column in zip(decisions, _columns(succ, old))
                    ] == [ur_is(model, nx_is(model, state, sigma, d, mode), d, mode) for d in decisions]
                assert len(computed) == before


@pytest.mark.parametrize("mode", [OBS, DEC])
def test_the_kernel_memos_work_out_each_key_once(mode, monkeypatch):
    """Over one expansion of seed-10 draw 11, the model's
    ``observable_reach`` runs once per key of the kernel's reach memo, when
    that memo calls it (``unobservable_reach_plus`` calls it too, under a
    memo of its own), and ``Successors._row`` once per single-core entry
    of the kernel's row tables.  A memo that always missed, or a row table
    made afresh per call, would work a key out again: neither changes a
    result, so only a count shows them."""
    rng = random.Random(10)
    config = RandomModelConfig(min_states=8, max_states=12, min_events=5, max_events=6)
    model = [random_model(rng, config) for _ in range(12)][11]
    memo_code = structure_module._ReachMemo.observable_reach.__code__
    reached, rows = [], []
    observable_reach, row = model.observable_reach, Successors._row

    def counting_reach(q, sigma):
        if sys._getframe(1).f_code is memo_code:
            reached.append((q, sigma))
        return observable_reach(q, sigma)

    def counting_row(self, c, old, sigma):
        rows.append((c, sigma, old & self._hidden))
        return row(self, c, old, sigma)

    monkeypatch.setattr(model, "observable_reach", counting_reach)
    monkeypatch.setattr(Successors, "_row", counting_row)
    kernel = expand_arena(model, SynthesisConfig(mode=mode))._expansion.kernel
    assert sorted(reached) == sorted(kernel._reach._observable)
    singles = [c for table in kernel._tables.values() for c in table if not c & (c - 1)]
    assert len(rows) == len(singles) == len(set(rows))


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=60, deadline=None)
def test_kernel_step_is_the_estimator_step(seed, mode):
    """The kernel steps the plant and updates the estimate on memoised
    reach operators, and no kernel answer calls estimator_step; yet its
    answers are estimator_step's, closed by ur_is.  So is target from the
    initial marker, and from any single core and old decision on each
    event, under any new decision (the unchanged one included): empty on
    an event not active at the core or not enabled by the old decision.
    So is the closure of any core under any decision."""
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=5, max_events=4))
    succ = Successors(model, mode)
    decisions = list(model.iter_decisions())
    n = len(model.states)
    # (estimator state or None, event or None, new decision) per step asked
    # of target, and (estimator state, decision) per closure.
    steps = [(None, None, gamma) for gamma in decisions]
    closures = []
    for _ in range(8):
        x = rng.randrange(n)
        m = EstimatorState(x, rng.getrandbits(n) | 1 << x, rng.choice(decisions))
        closures.append(m._replace(decision=rng.choice(decisions)))
        for sigma in range(len(model.events)):
            gamma = m.decision if rng.random() < 0.3 else rng.choice(decisions)
            steps.append((m, sigma, gamma))
    kernel_steps_from = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            structure_module,
            "estimator_step",
            lambda model, m, *rest: kernel_steps_from.append(m)
            or estimator_step(model, m, *rest),
        )
        stepped = [
            succ.info_of(
                gamma,
                succ.target(None, None, None, gamma)
                if m is None
                else succ.target(m.decision, succ.intern((m,)), sigma, gamma),
            )
            for m, sigma, gamma in steps
        ]
        closed = [
            succ.info_of(m.decision, succ._closure(succ._intern(m[:2]), m.decision))
            for m in closures
        ]
    assert kernel_steps_from == []
    for (m, sigma, gamma), got in zip(steps, stepped):
        if m is None:
            before = (estimator_step(model, None, AugmentedEvent(None, gamma), mode),)
        else:
            before = nx_is(model, (m,), sigma, gamma, mode)
        assert got == ur_is(model, before, gamma, mode)
    for m, got in zip(closures, closed):
        assert got == ur_is(model, (m,), m.decision, mode)


@given(model_seeds, st.sampled_from([OBS, DEC]))
@example(65, OBS)  # a seen step whose closure differs under the old decision
@settings(max_examples=30, deadline=None)
def test_loop_nodes_link_back_to_their_strings(seed, mode):
    """A closed-loop search node keeps its depth, the policy's state and a
    link to its parent, not its string.  Read back along the links, the
    string of every node met runs in the closed loop to the node's
    estimator state, its observation reaches the node's policy state, and
    it extends its parent's by the move's event."""
    rng = random.Random(seed)
    model = random_model(rng, CLOSED_LOOP_CONFIG)
    sup = random_supervisor(rng, model)
    for parent, sigma, node, _ in closed_loop_search(model, sup, mode, 5):
        m, state, depth, link, event = node
        s = loop_string(node)
        assert len(s) == depth
        assert (link, event) == (parent, sigma)
        if parent is not None:
            assert s == loop_string(parent) + (sigma,)
        assert run_estimator(model, augment(model, s, sup), mode) == m
        obs = tuple(e for e in s if (model.supervisor_observable >> e) & 1)
        assert state == sup.observation_signature(obs)


def search_supervisor(model, rng, kind):
    """A seeded table, or the decoded supervisor of a structure synthesized
    in either mode; None when that synthesis finds no structure."""
    if kind == "table":
        return random_supervisor(rng, model)
    out = synthesize(model, SynthesisConfig(mode=rng.choice([OBS, DEC]), size_guard=20_000))
    return out.structure.decoded() if out.solved else None


@given(
    model_seeds,
    st.sampled_from([OBS, DEC]),
    st.sampled_from(["table", "structure"]),
    st.one_of(st.none(), st.integers(0, 6)),
    st.integers(1, 40),
)
@settings(max_examples=80, deadline=None)
def test_search_moves_are_estimator_steps_in_breadth_first_order(seed, mode, kind, bound, guard):
    """The search reads its moves from tables of its own, but each is the
    reference step: the root is estimator_step from the initial marker,
    and every move (parent, sigma, node, new) steps the parent's estimator
    state by estimator_step on sigma and the decision the supervisor takes,
    advancing the policy state on what the supervisor observes, one level
    deeper.  The moves come breadth first: each node met for the first
    time and shallower than the bound is expanded in the order met, on the
    events its decision enables at its plant state, in increasing order;
    `new` says whether the node is met for the first time.  Under a size
    guard the search yields the same moves until the guard-th new one,
    and then raises."""
    rng = random.Random(seed)
    model = random_model(rng, CLOSED_LOOP_CONFIG)
    sup = search_supervisor(model, rng, kind)
    if sup is None:
        return
    moves = list(closed_loop_search(model, sup, mode, bound))
    parent, sigma, root, new = moves[0]
    state = sup.start()
    first = estimator_step(model, None, AugmentedEvent(None, sup.decide(state)), mode)
    assert (parent, sigma, root, new) == (None, None, (first, state, 0, None, None), True)
    met = [root] + [node for _, _, node, new in moves[1:] if new]
    assert [(id(parent), sigma) for parent, sigma, _, _ in moves[1:]] == [
        (id(node), sigma)
        for node in met
        if bound is None or node[2] < bound
        for sigma in iter_bits(model.active(node[0].plant_state) & node[0].decision)
    ]
    keys = {root[:2]}
    for parent, sigma, node, new in moves[1:]:
        m, state, depth = parent[:3]
        if (model.supervisor_observable >> sigma) & 1:
            state = sup.advance(state, sigma)
            gamma = sup.decide(state)
        else:
            gamma = m.decision
        assert node[0].decision == gamma
        assert node[0] == estimator_step(model, m, AugmentedEvent(sigma, gamma), mode)
        assert node == (node[0], state, depth + 1, parent, sigma)
        assert new == (node[:2] not in keys)
        keys.add(node[:2])
    if guard >= len(keys):
        assert len(list(closed_loop_search(model, sup, mode, bound, guard))) == len(moves)
        return
    # The root is the first node known, and the guard is checked as each
    # later one is met.
    trip = [i for i, move in enumerate(moves) if move[3]][guard]
    yielded = []
    with pytest.raises(SizeGuardExceeded) as raised:
        for move in closed_loop_search(model, sup, mode, bound, guard, "slice"):
            yielded.append(move)
    assert yielded == moves[:trip]
    assert str(raised.value) == (
        f"slice exceeded size guard of {guard} states ({guard + 1} visited so far)"
    )


class FullHistoryTable(TabularSupervisor):
    """The reference for the table's policy state: the whole history up to
    the longest key, and None past it, whether or not a key extends it."""

    def advance(self, state, sigma):
        horizon = max(map(len, self._table), default=0)
        if state is None or len(state) == horizon:
            return None
        return state + (sigma,)


@given(
    model_seeds,
    st.sampled_from([OBS, DEC]),
    st.sampled_from([{}, {"max_entries": 8, "max_obs_len": 4}]),
)
@settings(max_examples=60, deadline=None)
def test_table_searches_merge_histories_no_key_extends(seed, mode, sizes):
    """A table's search sends every history that no key extends to the
    default state None.  Merged nodes have the same future decisions, so
    the verdict and shortest counterexample, and the estimator slice, are
    those of the search that tells histories apart up to the longest key."""
    rng = random.Random(seed)
    model = random_model(rng, CLOSED_LOOP_CONFIG)
    sup = random_supervisor(rng, model, **sizes)
    doc = sup.to_dict()
    full = FullHistoryTable(model, doc["table"], doc["default"])
    got, want = (verify_closed_loop_opacity(model, s, mode) for s in (sup, full))
    assert (got.opaque, got.counterexample) == (want.opaque, want.counterexample)
    for depth in (3, 7):
        assert estimator_slice_to_dot(model, sup, mode, depth) == estimator_slice_to_dot(
            model, full, mode, depth
        )


# u is hidden from both parties, s from the intruder only, and the
# controllable c is seen by both; nothing is secret.
SILENT_AND_RELEASED = {
    "states": ["0", "1", "2"],
    "events": ["u", "s", "c"],
    "initial": "0",
    "secret": [],
    "transitions": [["0", "u", "1"], ["0", "s", "2"], ["2", "c", "0"]],
    "observable_supervisor": ["s", "c"],
    "observable_intruder": ["c"],
    "controllable": ["c"],
}


@pytest.mark.parametrize("mode", [OBS, DEC])
def test_kernel_step_keeps_a_silent_step_apart_from_a_release(mode):
    """From the core (0, {0}) both steps below are hidden from the intruder
    and leave the decision's intruder-unobservable events as they were.
    The closure takes the step on u, which releases nothing and keeps the
    estimate; target takes the step on s, which releases a decision and
    closes it.  Each reaches the core of estimator_step."""
    model = PlantModel.from_dict(SILENT_AND_RELEASED)
    succ = Successors(model, mode)
    q = model.state_mask(["0"])
    c = succ._intern((0, q))
    old = model.control_decision(["u", "s", "c"])
    release = model.control_decision(["u", "s"])
    m = EstimatorState(0, q, old)
    silent = estimator_step(model, m, AugmentedEvent(model.event("u"), old), mode)
    assert silent[:2] == (model.state("1"), q)
    assert succ.info_of(old, succ._closure(c, old)) == make_info([m, silent])
    sigma = model.event("s")
    stepped = estimator_step(model, m, AugmentedEvent(sigma, release), mode)
    assert stepped[:2] == (model.state("2"), model.state_mask(["1", "2"]))
    assert succ.info_of(release, succ.target(old, 1 << c, sigma, release)) == (stepped,)


@given(model_seeds, st.sampled_from([OBS, DEC]), st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_bounded_brute_estimate_set_matches_string_replay(seed, mode, k):
    """With ``bound=k``, the estimates are those the estimator reaches by
    replaying each closed-loop string of at most ``k`` events that projects
    to ``alpha``: a cross-check that does not share the breadth-first
    search."""
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=4, max_events=3))
    sup = random_supervisor(rng, model)
    replayed: dict[tuple[int, ...], set[int]] = {}
    for s in closed_loop_strings(model, sup, k):
        alpha = tuple(e for e in s if (model.supervisor_observable >> e) & 1)
        final = run_estimator(model, augment(model, s, sup), mode)
        replayed.setdefault(alpha, set()).add(final.estimate)
    for alpha in feasible_observations(model, sup, k):
        assert brute_estimate_set(model, sup, alpha, mode, bound=k) == replayed.get(
            alpha, set()
        )
