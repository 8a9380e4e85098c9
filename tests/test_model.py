"""Plant model parsing, projections, reach operators and open-loop
estimates, and the open-loop opacity check built on them, which lives in
``opactrl.structure`` next to the closed-loop one and returns the same
verdict type."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import observer_blowup_model
from opactrl import (
    ModelFormatError,
    PlantModel,
    SizeGuardExceeded,
    UnreachableObservationError,
    open_loop_estimate,
    project,
    verify_open_loop_opacity,
)
from opactrl.model import iter_bits, names_mask
from opactrl.randgen import RandomModelConfig, random_model


def test_parse_run_model(run_model):
    assert len(run_model.states) == 8
    assert run_model.n_transitions == 10
    assert run_model.event_names(run_model.supervisor_observable) == ("u1", "u2")
    assert run_model.event_names(run_model.intruder_observable) == ("a", "b")
    assert run_model.event_names(run_model.controllable) == ("u1", "u2", "u3")
    assert run_model.event_names(run_model.uncontrollable) == ("a", "b")
    assert run_model.state_names(run_model.secret_mask) == ("7",)
    assert run_model.initial == run_model.state("0")
    assert not run_model.is_live  # states 6 and 7 are terminal


def test_parse_nondeterministic_transition():
    doc = {
        "states": ["0", "1", "2"],
        "events": ["a"],
        "initial": "0",
        "transitions": [["0", "a", "1"], ["0", "a", "2"]],
    }
    with pytest.raises(ModelFormatError, match="nondeterministic transition"):
        PlantModel.from_dict(doc)


def test_parse_degenerate_model():
    doc = {"states": ["only"], "events": [], "initial": "only", "transitions": []}
    model = PlantModel.from_dict(doc)
    assert model.all_events_mask == 0
    assert model.state_names(model.all_states_mask) == ("only",)
    assert verify_open_loop_opacity(model).opaque


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"states": ["0"], "events": [], "initial": "1", "transitions": []}, "unknown initial"),
        (
            {"states": ["0"], "events": [], "initial": "0", "transitions": [["0", "a", "0"]]},
            "unknown event",
        ),
        (
            {"states": ["0"], "events": ["a"], "initial": "0", "transitions": [["0", "a", "9"]]},
            "unknown state",
        ),
        (
            {"states": ["0"], "events": [], "initial": "0", "transitions": [], "secret": ["9"]},
            "unknown state",
        ),
        (
            {"states": ["0"], "events": [], "initial": "0", "transitions": [],
             "observable_supervisor": ["zz"]},
            "unknown event",
        ),
    ],
)
def test_parse_semantic_errors(doc, message):
    with pytest.raises(ModelFormatError, match=message):
        PlantModel.from_dict(doc)


def _two_state_doc(**changes):
    doc = {"states": ["0", "1"], "events": ["a"], "initial": "0", "secret": ["1"],
           "transitions": [["0", "a", "1"]], "controllable": ["a"]}
    return {**doc, **changes}


@pytest.mark.parametrize(
    "doc, message",
    [
        (_two_state_doc(controllable=["zz"]), "unknown event 'zz' in partition"),
        (_two_state_doc(controllable=["a", "zz"], states=["0", "1", "1"]),
         "unknown event 'zz' in partition"),
        (_two_state_doc(observable_intruder=["zz"], transitions=["0a1"]),
         "unknown event 'zz' in partition"),
        (_two_state_doc(transitions=[["0", "a", 3]], secret=["9"]),
         "invalid transition: expected a name, got 3"),
        (_two_state_doc(transitions=[["0", "a", "1"], ["1", ["a"], "0"]], initial="9"),
         "invalid transition: expected a name, got ['a']"),
        (_two_state_doc(transitions=[["0", "a", "9"], ["1", "a"]], states=["0", "1", None]),
         "malformed transition ['1', 'a']"),
        (_two_state_doc(transitions=[["0", "a", "9"]], secret=[True]),
         "invalid 'secret': expected a name, got True"),
    ],
)
def test_parse_names_the_first_of_two_faults(doc, message):
    """The constructor looks up the partitions' and the transitions' names
    after the states, the initial state and the secret; an unknown event in
    a partition, and then a transition that is not a triple of names, are
    still named first."""
    with pytest.raises(ModelFormatError) as refused:
        PlantModel.from_dict(doc)
    assert str(refused.value) == message


def test_parse_syntax_error_has_line_info():
    with pytest.raises(ModelFormatError, match="line"):
        PlantModel.from_json('{"states": [,]}')


def test_stored_decision_rejects_uncontrollable(run_model):
    with pytest.raises(ModelFormatError, match="uncontrollable"):
        run_model.control_decision(["u1", "u2"])  # drops a and b


KNOWN_NAMES = ("0", "1", "a", "b")
# What a document may hold where it wants a name, and where it wants a list.
NAME_ENTRIES = st.one_of(
    st.sampled_from(KNOWN_NAMES),
    st.text(max_size=3),
    st.integers(-2, 9),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.lists(st.sampled_from(KNOWN_NAMES), max_size=2),
    st.dictionaries(st.sampled_from(KNOWN_NAMES), st.integers(), max_size=1),
)
NAME_LISTS = st.one_of(
    st.lists(NAME_ENTRIES, max_size=6),
    st.lists(st.sampled_from(KNOWN_NAMES), max_size=6),
    NAME_ENTRIES.filter(lambda value: not isinstance(value, list)),
)


@given(NAME_LISTS)
@settings(max_examples=400, deadline=None)
def test_names_mask_reads_a_list_or_names_its_first_fault(names):
    """The one reader of a list of names: its mask, or its first fault in
    this order: not a list, then the first entry that is not a name
    (wherever the first unknown name is), then the first unknown name."""
    index = {name: i for i, name in enumerate(KNOWN_NAMES)}
    if not isinstance(names, list):
        message = f"invalid estimate: expected a list, got {names!r}"
    elif any(not isinstance(name, str) for name in names):
        first = next(name for name in names if not isinstance(name, str))
        message = f"invalid estimate: expected a name, got {first!r}"
    elif any(name not in index for name in names):
        message = f"unknown state {next(name for name in names if name not in index)!r}"
    else:
        expected = 0
        for name in names:
            expected |= 1 << index[name]
        assert names_mask(index, names, "estimate", "state") == expected
        return
    with pytest.raises(ModelFormatError) as refused:
        names_mask(index, names, "estimate", "state")
    assert str(refused.value) == message


def test_project_examples(run_model):
    s = run_model.word("a u1 u2 u2")
    assert project(s, run_model.intruder_observable) == run_model.word("a")
    assert project(s, run_model.supervisor_observable) == run_model.word("u1 u2 u2")
    assert project(s, run_model.all_events_mask) == s
    assert project((), run_model.intruder_observable) == ()


@given(st.lists(st.integers(0, 4), max_size=12), st.integers(0, 31))
def test_project_identity_and_length(seq, obs):
    s = tuple(seq)
    once = project(s, obs)
    assert project(once, obs) == once
    assert len(once) <= len(s)


def test_active_events(run_model):
    m = run_model
    assert m.event_names(m.active_events(m.state_mask(["1"]))) == ("u1", "u2")
    assert m.event_names(m.active_events(m.state_mask(["2", "3"]))) == (
        "u1",
        "u2",
        "u3",
        "b",
    )
    assert m.active_events(m.state_mask(["7"])) == 0


def test_unobservable_reach_examples(run_model):
    m = run_model
    full = m.all_events_mask
    hidden = m.intruder_unobservable
    assert m.unobservable_reach(m.state_mask(["0"]), full, hidden) == m.state_mask(["0"])
    assert m.unobservable_reach(m.state_mask(["1"]), full, hidden) == m.state_mask(
        ["1", "2", "3", "4", "5", "6", "7"]
    )
    # no hidden event enabled: the set is returned unchanged
    q = m.state_mask(["2", "5"])
    assert m.unobservable_reach(q, m.uncontrollable, hidden) == q


def test_unobservable_reach_plus_examples(run_model):
    m = run_model
    full = m.all_events_mask
    assert m.unobservable_reach_plus(
        m.state_mask(["1", "2", "3", "4", "5", "6", "7"]), full
    ) == m.state_mask(["2", "3", "4", "5", "6", "7"])
    assert m.unobservable_reach_plus(m.state_mask(["5"]), full) == m.state_mask(
        ["6", "7"]
    )
    # no first step possible
    assert m.unobservable_reach_plus(m.state_mask(["7"]), full) == 0


def test_observable_reach_examples(run_model):
    m = run_model
    assert m.observable_reach(m.state_mask(["0"]), m.event("a")) == m.state_mask(["1"])
    assert m.observable_reach(m.state_mask(["1", "5"]), m.event("u2")) == m.state_mask(
        ["3", "7"]
    )
    assert m.observable_reach(m.state_mask(["0"]), m.event("u3")) == 0


def test_open_loop_estimate_examples(run_model):
    m = run_model
    obs_a = m.intruder_observable
    assert open_loop_estimate(m, m.word("a"), obs_a) == m.state_mask(
        ["1", "2", "3", "4", "5", "6", "7"]
    )
    assert open_loop_estimate(m, (), obs_a) == m.state_mask(["0"])
    assert open_loop_estimate(m, (), m.all_events_mask) == 1 << m.initial
    with pytest.raises(UnreachableObservationError):
        open_loop_estimate(m, m.word("b"), obs_a)
    with pytest.raises(ValueError, match="not in the observation alphabet"):
        open_loop_estimate(m, m.word("u1"), obs_a)


def test_verify_open_loop_opacity(run_model):
    assert verify_open_loop_opacity(run_model).opaque

    doc = run_model.to_dict()
    doc["secret"] = ["5", "6", "7"]
    leaky = PlantModel.from_dict(doc)
    verdict = verify_open_loop_opacity(leaky)
    assert not verdict.opaque
    assert verdict.counterexample == ("a", "b")

    doc["secret"] = []
    assert verify_open_loop_opacity(PlantModel.from_dict(doc)).opaque


def test_open_loop_search_has_a_size_guard():
    """The observer of this plant reaches every subset of its chain, so only
    the guard stops the search early; its 4,096 estimates fit the default
    guard."""
    model = observer_blowup_model(12)
    with pytest.raises(SizeGuardExceeded, match=r"open-loop search .* \(11 visited"):
        verify_open_loop_opacity(model, size_guard=10)
    assert verify_open_loop_opacity(model).opaque


# Properties over random models -------------------------------------------

model_seeds = st.integers(0, 10**9)


def _random_masks(rng, model):
    q = rng.getrandbits(len(model.states)) & model.all_states_mask
    gamma = model.uncontrollable | (rng.getrandbits(64) & model.controllable)
    return q, gamma


@given(model_seeds)
@settings(max_examples=100, deadline=None)
def test_reach_monotone_and_idempotent(seed):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig())
    q, gamma = _random_masks(rng, model)
    sub = q & rng.getrandbits(max(len(model.states), 1))
    hidden = model.intruder_unobservable

    small = model.unobservable_reach(sub, gamma, hidden)
    big = model.unobservable_reach(q, gamma, hidden)
    assert small | big == big  # monotone
    assert big | q == big  # extensive
    assert model.unobservable_reach(big, gamma, hidden) == big  # idempotent

    assert model.unobservable_reach_plus(sub, gamma) | model.unobservable_reach_plus(
        q, gamma
    ) == model.unobservable_reach_plus(q, gamma)
    for e in iter_bits(model.all_events_mask):
        assert (
            model.observable_reach(sub, e) | model.observable_reach(q, e)
            == model.observable_reach(q, e)
        )


@given(model_seeds)
@settings(max_examples=100, deadline=None)
def test_reach_plus_decomposition(seed):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig())
    q, gamma = _random_masks(rng, model)
    first = 0
    for e in iter_bits(model.intruder_unobservable & gamma):
        first |= model.observable_reach(q, e)
    assert model.unobservable_reach_plus(q, gamma) == model.unobservable_reach(
        first, gamma, model.intruder_unobservable
    )


def _successors(model, x, events):
    """The plant states one event of ``events`` leads to from state ``x``,
    read off the model's transition list."""
    return {
        model.state(dst)
        for src, ev, dst in model.transitions()
        if model.state(src) == x and (events >> model.event(ev)) & 1
    }


@given(model_seeds, st.integers(0, 2**64), st.integers(0, 2**64))
@settings(max_examples=100, deadline=None)
def test_reach_operators_match_a_set_fixpoint(seed, q_bits, hidden_bits):
    """The bit loops of the reach operators give what sets of states give:
    one step on an event is the successors of each state, and the closure
    under enabled hidden events adds successors until nothing is new."""
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig())
    q = q_bits & model.all_states_mask
    gamma = model.uncontrollable | (rng.getrandbits(64) & model.controllable)
    hidden = hidden_bits & model.all_events_mask
    states = set(iter_bits(q))
    for e in range(len(model.events)):
        expected = set().union(*(_successors(model, x, 1 << e) for x in states))
        assert set(iter_bits(model.observable_reach(q, e))) == expected
    closure = set(states)
    while True:
        step = set().union(*(_successors(model, x, gamma & hidden) for x in closure))
        if step <= closure:
            break
        closure |= step
    assert set(iter_bits(model.unobservable_reach(q, gamma, hidden))) == closure


def _brute_open_loop(model, alpha, obs, bound):
    """Independent oracle: enumerate plant strings up to `bound` and keep the
    end states of those projecting to alpha."""
    out = 0
    stack = [(model.initial, 0, 0)]
    while stack:
        x, i, depth = stack.pop()
        if i == len(alpha):
            out |= 1 << x
        if depth == bound:
            continue
        for e in iter_bits(model.active(x)):
            y = model.step(x, e)
            if (obs >> e) & 1:
                if i < len(alpha) and alpha[i] == e:
                    stack.append((y, i + 1, depth + 1))
            else:
                stack.append((y, i, depth + 1))
    return out


def _feasible_observations(model, obs):
    """Every observation through ``obs`` of a string of the (finite)
    language of an acyclic model."""
    alphas = set()
    stack = [(model.initial, ())]
    while stack:
        x, alpha = stack.pop()
        alphas.add(alpha)
        for e in iter_bits(model.active(x)):
            y = model.step(x, e)
            alphas_next = alpha + (e,) if (obs >> e) & 1 else alpha
            stack.append((y, alphas_next))
    return alphas


@given(model_seeds)
@settings(max_examples=100, deadline=None)
def test_open_loop_estimate_matches_enumeration_on_acyclic(seed):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(acyclic=True, transition_density=0.6))
    bound = len(model.states)
    obs = model.intruder_observable
    for alpha in _feasible_observations(model, obs):
        assert open_loop_estimate(model, alpha, obs) == _brute_open_loop(
            model, alpha, obs, bound
        )


@given(model_seeds)
@settings(max_examples=100, deadline=None)
def test_open_loop_verdict_and_witness_match_enumeration_on_acyclic(seed):
    """Not opaque exactly when the estimate of some feasible observation
    lies inside the secret, with a shortest such observation as witness."""
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(
        acyclic=True, transition_density=0.6, secret_probability=0.5))
    obs = model.intruder_observable
    revealing = [
        alpha for alpha in _feasible_observations(model, obs)
        if not open_loop_estimate(model, alpha, obs) & ~model.secret_mask
    ]
    verdict = verify_open_loop_opacity(model)
    assert verdict.opaque == (not revealing)
    if revealing:
        witness = model.word(verdict.counterexample)
        assert witness in revealing
        assert len(witness) == min(map(len, revealing))
