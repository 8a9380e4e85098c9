"""Arena expansion, incomplete-state pruning, extraction policies, and the
end-to-end synthesis pipeline."""

import gc
import random
import weakref
from collections import deque
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEC, MODELS, OBS, feasible_observations
from opactrl import (
    INITIAL_KEY,
    EstimatorState,
    PlantModel,
    SizeGuardExceeded,
    SynthesisConfig,
    enumerate_structures,
    exhaustive_solution_exists,
    expand_arena,
    extract_structure,
    information_flow,
    is_safe,
    make_info,
    prune_incomplete,
    structure_from_policy,
    synthesize,
    verify_closed_loop_opacity,
)
from opactrl.estimator import AugmentedEvent, estimator_step, released, update_estimate
from opactrl.model import iter_bits
from opactrl.randgen import RandomModelConfig, random_model
from opactrl.serialize import structure_to_json
from opactrl.structure import Successors, decision_key_order, feasible_events
from opactrl.synthesis import MAX_STRUCTURES

SIGMA = "a u1 u2 u3 b"


def est(model, x, q, decision):
    return EstimatorState(
        model.state(x),
        model.state_mask(q.split()),
        model.control_decision(decision.split()),
    )


def info(model, *members):
    return make_info([est(model, *m) for m in members])


def _seed10_draw(i):
    """Draw ``i`` of the randgen seed-10 corpus."""
    rng = random.Random(10)
    config = RandomModelConfig(min_states=8, max_states=12, min_events=5, max_events=6)
    return [random_model(rng, config) for _ in range(i + 1)][i]


@pytest.fixture(scope="module")
def run_arena(run_model):
    return expand_arena(run_model, SynthesisConfig(mode=OBS))


@pytest.fixture(scope="module")
def run_pruned(run_arena):
    return prune_incomplete(run_arena)


def test_expand_excludes_unsafe_and_keeps_dead_ends(run_model, run_arena):
    m = run_model
    # the revealing state never enters the arena
    assert info(m, ("7", "7", SIGMA)) not in run_arena.observation_events
    # the dead-end chain is present: an observation state whose only
    # feasible observation leads to a decision state with no safe decision
    trap = info(m, ("5", "5 7", "a b u2"))
    assert trap in run_arena.observation_events
    key = (trap, m.event("u2"))
    assert run_arena.decision_edges[key] == ()


def test_expand_trivial_unsafe_initial():
    model = PlantModel.from_dict(
        {
            "states": ["s"],
            "events": [],
            "initial": "s",
            "secret": ["s"],
            "transitions": [],
        }
    )
    arena = expand_arena(model, SynthesisConfig())
    assert list(arena.decision_edges) == [(None, None)]
    assert arena.decision_edges[(None, None)] == ()
    assert arena.observation_events == {}


def test_expand_decision_mode_keeps_revealing_state_safe(run_model):
    arena = expand_arena(run_model, SynthesisConfig(mode=DEC))
    assert info(run_model, ("7", "5 6 7", SIGMA)) in arena.observation_events


def test_self_loop_arena_is_complete():
    model = PlantModel.from_dict(
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
    arena = expand_arena(model, SynthesisConfig())
    assert len(arena.decision_edges) == 2  # the initial state and one loop state
    _assert_complete(arena)


def test_prune_removes_named_chain_in_order(run_model, run_arena, run_pruned):
    m = run_model
    trap = info(m, ("5", "5 7", "a b u2"))
    key = (trap, m.event("u2"))
    trace = run_pruned.pruning_trace
    assert len(trace) == 2
    assert key in trace[0] and trap not in trace[0]
    assert trap in trace[1]
    assert key not in run_pruned.decision_edges
    assert trap not in run_pruned.observation_events
    # the second dead-end chain drawn in red is pruned as well
    trap2 = info(m, ("3", "2 3 4 5 6 7", "a b u2"), ("5", "5 7", "a b u2"))
    assert trap2 in run_arena.observation_events
    assert trap2 not in run_pruned.observation_events
    assert (trap2, m.event("u2")) in trace[0]


def _assert_complete(arena):
    """The arena has no incomplete state: every decision state has an edge,
    and pruning removes nothing."""
    assert all(arena.decision_edges.values())
    again = prune_incomplete(arena)
    assert _views(again) == _views(arena)
    assert again.pruning_iterations == 0


def test_prune_is_idempotent(run_pruned):
    _assert_complete(run_pruned)


def test_running_example_arena_sizes_golden(run_model, run_arena, run_pruned):
    # frozen from the deterministic construction; guards regressions
    assert (len(run_arena.decision_edges), len(run_arena.observation_events)) == (67, 100)
    assert (len(run_pruned.decision_edges), len(run_pruned.observation_events)) == (57, 90)
    arena_dec = expand_arena(run_model, SynthesisConfig(mode=DEC))
    assert arena_dec.n_states == 322
    assert prune_incomplete(arena_dec).n_states == 322  # nothing incomplete


def test_prune_empty_case():
    model = PlantModel.from_dict(
        {
            "states": ["s"],
            "events": [],
            "initial": "s",
            "secret": ["s"],
            "transitions": [],
        }
    )
    pruned = prune_incomplete(expand_arena(model, SynthesisConfig()))
    assert pruned.is_empty
    assert pruned.n_states == 0


def test_extract_first_feasible_takes_canonical_first(run_model, run_pruned):
    out = extract_structure(run_pruned, SynthesisConfig(extraction_policy="first_feasible"))
    assert out.solved
    structure = out.structure
    # the canonically first surviving decision at the initial state enables
    # no controllable event at all
    assert structure.initial_decision == run_model.uncontrollable
    for key, (gamma, _) in structure.decisions.items():
        assert gamma == run_pruned.decision_edges[key][0][0]


def test_extract_locally_maximal_postcondition(run_model, run_pruned):
    out = extract_structure(
        run_pruned, SynthesisConfig(extraction_policy="locally_maximal")
    )
    for key, (gamma, _) in out.structure.decisions.items():
        alternatives = [g for g, _ in run_pruned.decision_edges[key]]
        assert not any(g != gamma and g | gamma == g for g in alternatives)


def test_extract_enumerate_all_yields_distinct_structures(run_pruned):
    out = extract_structure(
        run_pruned,
        SynthesisConfig(extraction_policy="enumerate_all"),
    )
    structures = list(islice(enumerate_structures(run_pruned), MAX_STRUCTURES))
    assert out.count == len(structures) == MAX_STRUCTURES
    assert len(set(structures)) == MAX_STRUCTURES
    assert out.structure == structures[0]


def test_extract_no_solution_marker():
    model = PlantModel.from_dict(
        {
            "states": ["s"],
            "events": [],
            "initial": "s",
            "secret": ["s"],
            "transitions": [],
        }
    )
    outcome = synthesize(model, SynthesisConfig())
    assert not outcome.solved
    assert outcome.arena.pruning_trace  # the initial decision state was dropped
    with pytest.raises(ValueError, match="no solution"):
        outcome.structure
    assert "no solution exists" in outcome.report()


def test_extract_matching_reference_policy(run_model, run_pruned, sprime):
    """The arena family contains the structure of the reference repaired
    policy; its flows hide the secret-reaching string."""
    m = run_model
    match = structure_from_policy(m, sprime, OBS)
    for key, edge in match.decisions.items():
        assert edge in run_pruned.decision_edges[key]
    decoded = match.decoded()
    for alpha in sorted(feasible_observations(m, sprime, 4)):
        assert decoded.decision(alpha) == sprime.decision(alpha)
    f1 = information_flow(m, m.word("a u1 u2 u2"), decoded, OBS)
    f2 = information_flow(m, m.word("a u1 u2 u1"), decoded, OBS)
    assert f1 == f2
    assert verify_closed_loop_opacity(m, decoded, OBS).opaque


def test_synthesize_no_solution_when_secret_unavoidable():
    model = PlantModel.from_dict(
        {
            "states": ["0", "1"],
            "events": ["e"],
            "initial": "0",
            "secret": ["1"],
            "transitions": [["0", "e", "1"]],
            "observable_supervisor": [],
            "observable_intruder": ["e"],
            "controllable": [],
        }
    )
    outcome = synthesize(model, SynthesisConfig())
    assert not outcome.solved


def test_synthesize_no_secret_gives_fully_permissive_supervisor(run_model):
    doc = run_model.to_dict()
    doc["secret"] = []
    model = PlantModel.from_dict(doc)
    out = synthesize(model, SynthesisConfig(extraction_policy="locally_maximal"))
    assert out.solved
    for gamma, _ in out.structure.decisions.values():
        assert gamma == model.all_events_mask


def test_synthesize_decision_mode_on_running_example(run_model):
    out = synthesize(run_model, SynthesisConfig(mode=DEC))
    assert out.solved
    assert verify_closed_loop_opacity(run_model, out.structure, DEC).opaque


@pytest.mark.parametrize("mode", [OBS, DEC])
def test_no_cache_outlives_the_call(mode):
    """The successor kernel's caches belong to one call: once the caller
    lets go of the model and the outcome, nothing else holds the model."""
    model = PlantModel.from_json((MODELS / "run.json").read_text())
    ref = weakref.ref(model)
    outcome = synthesize(model, SynthesisConfig(mode=mode))
    assert verify_closed_loop_opacity(model, outcome.structure, mode).opaque
    del model, outcome
    gc.collect()
    assert ref() is None


def test_size_guard_raises_with_partial_statistics(run_model):
    with pytest.raises(SizeGuardExceeded) as exc:
        expand_arena(run_model, SynthesisConfig(size_guard=5))
    err = exc.value
    assert err.guard == 5
    assert err.decision_states + err.observation_states > 5


@pytest.mark.parametrize("mode", [OBS, DEC])
def test_extract_structure_reports_the_sizes_of_its_arena(run_model, mode):
    """A standalone extraction reports the arena sizes and the pruning
    iterations of the arena it is given, as ``synthesize`` does; the size
    before pruning is that of the expansion the arena was pruned from.
    Seed-10 draw 4 loses states to pruning in both modes, and draw 24 loses
    all of them."""
    cfg = SynthesisConfig(mode=mode)
    for model in (run_model, _seed10_draw(4), _seed10_draw(24)):
        arena = expand_arena(model, cfg)
        pruned = prune_incomplete(arena)
        expected = (arena.n_states, pruned.n_states, pruned.pruning_iterations)
        for out in (extract_structure(pruned, cfg), synthesize(model, cfg)):
            assert (
                out.arena_states_before, out.arena_states_after, out.pruning_iterations
            ) == expected


@pytest.mark.parametrize("policy", ["first_feasible", "locally_maximal", "enumerate_all"])
@pytest.mark.parametrize("mode", [OBS, DEC])
def test_extract_structure_refuses_an_unpruned_arena(mode, policy):
    """The raw arenas of seed-10 draws 4 and 24 have decision states with no
    decision left.  Extraction refuses them rather than walk into one: on
    draw 4 the set-maximal edges of the raw arena lead only to losing
    states, in both modes, while the pruned arena has a locally maximal
    structure."""
    cfg = SynthesisConfig(mode=mode, extraction_policy=policy)
    for draw in (4, 24):
        with pytest.raises(ValueError, match="arena not pruned"):
            extract_structure(expand_arena(_seed10_draw(draw), cfg), cfg)
    assert synthesize(_seed10_draw(4), cfg).solved


@pytest.mark.parametrize(
    "bad", [{"size_guard": -1}, {"size_guard": -(10**6)}, {"size_guard": 0}]
)
def test_synthesis_config_refuses_empty_caps(bad):
    """A guard below one state would trip on every plant."""
    with pytest.raises(ValueError, match="must be positive"):
        SynthesisConfig(extraction_policy="enumerate_all", **bad)


def test_synthesize_is_deterministic(run_model):
    cfg = SynthesisConfig(mode=OBS, extraction_policy="locally_maximal")
    a = synthesize(run_model, cfg)
    b = synthesize(run_model, cfg)
    assert a.structure == b.structure
    assert structure_to_json(a.structure) == structure_to_json(b.structure)
    assert a.arena_states_before == b.arena_states_before


def test_arena_growth_is_monotone_in_family():
    """A parameterized chain family: arena size never shrinks as the plant
    grows.  The doubly-exponential worst case is guarded, not measured."""
    sizes = []
    for n in range(2, 7):
        states = [str(i) for i in range(n)]
        transitions = [["0", "a", "1"]] + [
            [str(i), "u", str(i + 1)] for i in range(1, n - 1)
        ]
        model = PlantModel.from_dict(
            {
                "states": states,
                "events": ["a", "u"],
                "initial": "0",
                "secret": [states[-1]],
                "transitions": transitions,
                "observable_supervisor": ["u"],
                "observable_intruder": ["a"],
                "controllable": ["u"],
            }
        )
        sizes.append(expand_arena(model, SynthesisConfig()).n_states)
    assert sizes == sorted(sizes)
    assert sizes[0] < sizes[-1]


# Randomized properties -----------------------------------------------------

model_seeds = st.integers(0, 10**9)


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=30, deadline=None)
def test_synthesized_structures_enforce_opacity(seed, mode):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=4, max_events=4))
    try:
        out = synthesize(model, SynthesisConfig(mode=mode, size_guard=30_000))
    except SizeGuardExceeded:
        return
    if out.solved:
        assert verify_closed_loop_opacity(model, out.structure, mode).opaque


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=30, deadline=None)
def test_pruning_matches_exhaustive_search(seed, mode):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=3, max_events=3))
    cfg = SynthesisConfig(mode=mode, size_guard=5_000)
    try:
        arena = expand_arena(model, cfg)
    except SizeGuardExceeded:
        return
    outcome = extract_structure(prune_incomplete(arena), cfg)
    assert outcome.solved == exhaustive_solution_exists(arena)


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=30, deadline=None)
def test_pruning_preserves_embeddable_structures(seed, mode):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=3, max_events=3))
    cfg = SynthesisConfig(mode=mode, size_guard=5_000)
    try:
        arena = expand_arena(model, cfg)
    except SizeGuardExceeded:
        return
    witness = next(iter(enumerate_structures(arena)), None)
    if witness is None:
        return
    pruned = prune_incomplete(arena)
    for key, edge in witness.decisions.items():
        assert edge in pruned.decision_edges[key]
    for obs, events in witness.observations.items():
        assert pruned.observation_events[obs] == events


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=30, deadline=None)
def test_arena_never_contains_unsafe_states(seed, mode):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=4, max_events=3))
    try:
        arena = expand_arena(model, SynthesisConfig(mode=mode, size_guard=20_000))
    except SizeGuardExceeded:
        return
    from opactrl import is_safe

    for state in arena.observation_events:
        assert is_safe(state, model.secret_mask)


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=20, deadline=None)
def test_prune_idempotent_on_random_arenas(seed, mode):
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=3, max_events=3))
    try:
        arena = expand_arena(model, SynthesisConfig(mode=mode, size_guard=5_000))
    except SizeGuardExceeded:
        return
    _assert_complete(prune_incomplete(arena))


def _monotone_pairs(arena, pruned):
    """Check, on every pair of observation states of ``arena`` with one
    decision and core sets ``A`` strictly inside ``B``, that pruning removes
    ``A`` only when it removes ``B``; return the number of pairs in which
    pruning removes a state."""
    removed = {
        item
        for rank in pruned.pruning_trace
        for item in rank
        if isinstance(item[0], EstimatorState)  # an observation state
    }
    by_decision: dict[int, list[tuple[frozenset, bool]]] = {}
    for state in arena.observation_events:
        cores = frozenset(m[:2] for m in state)
        by_decision.setdefault(state[0].decision, []).append((cores, state in removed))
    pairs = 0
    for states in by_decision.values():
        for a, a_removed in states:
            for b, b_removed in states:
                if a < b:
                    assert b_removed or not a_removed
                    pairs += a_removed or b_removed
    return pairs


def _check_monotone(model, mode):
    """:func:`_monotone_pairs` on the arena of ``model`` (0 when it outgrows
    its guard)."""
    try:
        arena = expand_arena(model, SynthesisConfig(mode=mode, size_guard=20_000))
    except SizeGuardExceeded:
        return 0
    return _monotone_pairs(arena, prune_incomplete(arena))


@pytest.mark.parametrize("mode", [OBS, DEC])
@pytest.mark.parametrize("draw", [13, 19])
def test_a_subset_of_a_kept_core_set_is_kept_where_pruning_removes_states(draw, mode):
    """Seed-10 draws 13 and 19 have, in both modes, same-decision subset
    pairs in which pruning removes a state: see :func:`_monotone_pairs`."""
    assert _check_monotone(_seed10_draw(draw), mode)


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=60, deadline=None)
def test_a_subset_of_a_kept_core_set_is_kept(seed, mode):
    """For a fixed decision, targets are unions of per-core rows, feasible
    events grow with the core set and safety shrinks with it, so an
    observation state whose core set lies inside that of a state pruning
    keeps is kept too.  Removal is what is compared: a kept state can still
    be dropped as unreachable."""
    rng = random.Random(seed)
    _check_monotone(random_model(rng, RandomModelConfig(max_states=5, max_events=4)), mode)


# Interned expansion against a tuple-based one --------------------------------


def _tuple_successor(model, key, gamma, mode):
    """The decision successor on tuples of estimator states, one step per
    member and one closure frontier per state, with nothing memoised."""
    info_, sigma = key
    if info_ is None:
        core = [estimator_step(model, None, AugmentedEvent(None, gamma), mode)]
    else:
        core = [
            estimator_step(model, m, AugmentedEvent(sigma, gamma), mode)
            for m in info_
            if (model.active(m.plant_state) >> sigma) & 1 and (m.decision >> sigma) & 1
        ]
    hidden = model.supervisor_unobservable & gamma
    seen = set(core)
    frontier = list(core)
    while frontier:
        m = frontier.pop()
        for e in iter_bits(model.active(m.plant_state) & hidden):
            nxt = estimator_step(model, m, AugmentedEvent(e, gamma), mode)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return make_info(seen)


def _tuple_expand(model, cfg):
    """Arena expansion with information states as tuples of estimator
    states throughout: a safety test on every edge, and the same
    depth-first order as expand_arena.  Returns the decision-edge and
    observation-event dicts."""
    decisions = list(model.iter_decisions())
    decision_edges = {INITIAL_KEY: None}
    observation_events = {}
    stack = [INITIAL_KEY]
    while stack:
        key = stack.pop()
        edges = []
        for gamma in decisions:
            target = _tuple_successor(model, key, gamma, cfg.mode)
            if not is_safe(target, model.secret_mask):
                continue
            edges.append((gamma, target))
            if target not in observation_events:
                feasible = feasible_events(model, target)
                observation_events[target] = feasible
                for sigma in feasible:
                    decision_edges[(target, sigma)] = None
                    stack.append((target, sigma))
                if len(decision_edges) + len(observation_events) > cfg.size_guard:
                    raise SizeGuardExceeded(
                        cfg.size_guard, len(decision_edges), len(observation_events)
                    )
        decision_edges[key] = tuple(edges)
    return decision_edges, observation_events


def _views(arena):
    return arena.decision_edges, arena.observation_events


def _expansion_outcome(expand, model, cfg):
    """The arena's dicts with their insertion orders, or the counts at which
    the size guard tripped."""
    try:
        decision_edges, observation_events = expand(model, cfg)
    except SizeGuardExceeded as exc:
        return ("guard", exc.guard, exc.decision_states, exc.observation_states)
    return list(decision_edges.items()), list(observation_events.items())


def _expand_views(model, cfg):
    return _views(expand_arena(model, cfg))


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=40, deadline=None)
def test_interned_expansion_matches_tuple_expansion(seed, mode):
    """Same arena, same dict insertion orders (so the same DFS), on random
    plants in both modes.  The plants are big enough that observations
    often move several members of one state, so rows get merged."""
    model = random_model(
        random.Random(seed),
        RandomModelConfig(min_states=5, max_states=6, min_events=4, max_events=5),
    )
    cfg = SynthesisConfig(mode=mode, size_guard=3_000)
    assert _expansion_outcome(_expand_views, model, cfg) == _expansion_outcome(
        _tuple_expand, model, cfg
    )


@pytest.mark.parametrize("mode", [OBS, DEC])
def test_size_guard_trips_where_the_tuple_expansion_does(run_model, mode):
    tripped = 0
    for guard in range(1, 41):
        cfg = SynthesisConfig(mode=mode, size_guard=guard)
        outcome = _expansion_outcome(_expand_views, run_model, cfg)
        assert outcome == _expansion_outcome(_tuple_expand, run_model, cfg)
        tripped += outcome[0] == "guard"
    assert tripped == 40  # both arenas have more than 40 states


@given(model_seeds, st.sampled_from([OBS, DEC]))
@settings(max_examples=40, deadline=None)
def test_memoised_edges_match_the_single_decision_targets(seed, mode):
    """Expansion reuses the safe row of an earlier decision state with the
    same (class of the old decision, moved cores, event), and the edges of
    one with the same layout key and safe row.  Every decision state's
    edges must still be the safe ones of its own single-decision targets,
    in decision order, mapped to the expansion's ids by (decision, core
    set).  A fresh kernel answers, so its closure and row memos are filled
    in another order than the expansion's."""
    model = random_model(
        random.Random(seed),
        RandomModelConfig(min_states=5, max_states=6, min_events=4, max_events=5),
    )
    try:
        arena = expand_arena(model, SynthesisConfig(mode=mode, size_guard=3_000))
    except SizeGuardExceeded:
        return
    expansion = arena._expansion
    kernel = Successors(model, mode)
    cores = [kernel.intern(expansion.info(o)) for o in range(len(expansion.cores))]
    ids = {(gamma, t): o for o, (gamma, t) in enumerate(zip(expansion.decision, cores))}
    assert len(ids) == len(cores)
    for d, out in enumerate(arena._edges):
        if d:
            o = expansion.owner[d]
            sigma = expansion.events[o][d - expansion.base[o]]
            at = (expansion.decision[o], cores[o], sigma)
        else:
            at = (None, None, None)
        expected = []
        for gamma in kernel.decisions:
            t = kernel.target(*at, gamma)
            if kernel.is_safe(t):
                expected.append((gamma, ids[gamma, t]))
        assert out == tuple(expected)


@pytest.mark.parametrize("mode", [OBS, DEC])
def test_expansion_reuses_the_edges_of_a_decision_state_class(mode, monkeypatch):
    """Seed-10 draw 3 has decision states that share (old-decision key,
    moved cores, event) in both modes, so expansion asks the kernel for
    fewer targets than it has decision states."""
    model = _seed10_draw(3)
    calls = []
    targets = Successors.targets

    def counting(self, old, cores, sigma):
        calls.append((old, cores, sigma))
        return targets(self, old, cores, sigma)

    monkeypatch.setattr(Successors, "targets", counting)
    arena = expand_arena(model, SynthesisConfig(mode=mode))
    assert len(calls) < arena._counts[0]


def _count_expansion(model, mode, monkeypatch):
    """Expand ``model`` counting the kernel's work: the key of every
    :meth:`Successors.targets` call (None for the initial decision state),
    every read of the layout (expansion reads it once per loop over the
    decisions), every row computed and every (core, event, old decision)
    whose row a targets call merges.  Answers the arena and the four
    lists."""
    asked, loops, computed, merged = [], [], [], []
    targets, layout, row = Successors.targets, Successors.layout, Successors._row

    def counting_targets(self, old, cores, sigma):
        if cores is None:
            asked.append(None)
        else:
            moved = cores & self._active_at[sigma]
            asked.append((old & self._hidden, moved, sigma))
            merged.extend((c, sigma, old) for c in iter_bits(moved))
        return targets(self, old, cores, sigma)

    def counting_layout(self, old):
        loops.append(old)
        return layout(self, old)

    def counting_row(self, c, old, sigma):
        computed.append((c, sigma, old & self._hidden))
        return row(self, c, old, sigma)

    with monkeypatch.context() as patched:
        patched.setattr(Successors, "targets", counting_targets)
        patched.setattr(Successors, "layout", counting_layout)
        patched.setattr(Successors, "_row", counting_row)
        arena = expand_arena(model, SynthesisConfig(mode=mode))
    return arena, asked, loops, computed, merged


@pytest.mark.parametrize("mode", [OBS, DEC])
def test_expansion_loops_over_decisions_once_per_safe_row(mode, monkeypatch):
    """Seed-10 draw 11 has decision states that share their targets key
    (old decision's class, moved cores, event), and states that share
    their layout key and safe row (the targets with unsafe ones set to
    None), in both modes.  Expansion asks the kernel for targets once per
    distinct key and loops over the decisions once per distinct (layout
    key, safe row), and both happen fewer times than there are decision
    states."""
    arena, asked, loops, _, _ = _count_expansion(_seed10_draw(11), mode, monkeypatch)
    expansion = arena._expansion
    kernel = expansion.kernel
    keys, rows = set(), set()
    for d in range(arena._counts[0]):
        old = cores = sigma = key = None
        if d:
            o = expansion.owner[d]
            old, cores = expansion.decision[o], expansion.cores[o]
            sigma = expansion.events[o][d - expansion.base[o]]
            key = (old & kernel._hidden, cores & kernel._active_at[sigma], sigma)
        keys.add(key)
        row = tuple(t if kernel.is_safe(t) else None for t in kernel.targets(old, cores, sigma))
        rows.add((old if mode is DEC else None, row))
    assert len(asked) == len(set(asked)) == len(keys) < arena._counts[0]
    assert len(loops) == len(rows) < arena._counts[0]


@pytest.mark.parametrize("mode", [OBS, DEC])
def test_the_kernel_computes_one_row_per_old_decision_class(mode, monkeypatch):
    """Rows are keyed on the old decision's class in both mechanisms: the
    kernel computes each (core, event, class of the old decision) row
    once.  On seed-10 draw 11 under the decision-triggered mechanism, old
    decisions of one class move the same core on the same event, so it
    computes fewer rows than there are distinct (core, event, old
    decision) triples to merge."""
    model = _seed10_draw(11)
    _, _, _, computed, merged = _count_expansion(model, mode, monkeypatch)
    hidden = model.supervisor_unobservable | model.intruder_unobservable
    assert len(computed) == len(set(computed))
    assert set(computed) == {(c, sigma, old & hidden) for c, sigma, old in merged}
    if mode is DEC:
        assert len(computed) < len(set(merged))


@pytest.mark.parametrize("mode", [OBS, DEC])
def test_the_kernel_works_out_each_pre_image_once(mode, monkeypatch):
    """An image reads the plant state stepped to and the intruder's
    estimate before the new decision is released (or, when nothing is
    released, the core kept), and the decisions asked.  On seed-10 draw
    11, rows of different cores, events and old decisions step to one such
    pre-image, and the kernel closes each distinct pre-image under its
    decisions once: one closure per decision asked per distinct pre-image,
    whatever the number of calls.  The pre-images are worked out here on
    the model's own reach operators."""
    model = _seed10_draw(11)
    calls, closed = [], []
    images, closure = Successors._images, Successors._closure

    def counting_images(self, c, old, sigma, gammas, changed=True):
        calls.append((c, old, sigma, gammas, changed))
        return images(self, c, old, sigma, gammas, changed)

    def counting_closure(self, c, gamma):
        closed.append(gamma)
        return closure(self, c, gamma)

    with monkeypatch.context() as patched:
        patched.setattr(Successors, "_images", counting_images)
        patched.setattr(Successors, "_closure", counting_closure)
        arena = expand_arena(model, SynthesisConfig(mode=mode))
    cores = arena._expansion.kernel._cores
    pre_images = set()
    for c, old, sigma, gammas, changed in calls:
        if c is None:
            pre_images.add((model.initial, 1 << model.initial, gammas))
            continue
        x, q = cores[c]
        y = model.step(x, sigma)
        seen = sigma if (model.intruder_observable >> sigma) & 1 else None
        if not released(model, sigma, changed, mode):
            kept = (y, update_estimate(model, q, old, seen, None))
            pre_images.add((kept, gammas))
        elif seen is None:
            pre_images.add((y, model.unobservable_reach_plus(q, old), gammas))
        else:
            pre_images.add((y, model.observable_reach(q, seen), gammas))
    asked = [gamma for *_, gammas in pre_images for gamma in gammas if gamma is not None]
    assert len(closed) == len(asked)
    assert len(pre_images) < len(calls)


# Attractor pruning against the round-based fixpoint -------------------------


def _round_based_prune(model, decision_edges, observation_events):
    """Pruning as a round-by-round fixpoint over an arena's dicts: remove
    every state incomplete against the feasible events, filter the edges,
    repeat until nothing is incomplete, then keep what the initial decision
    state reaches.  Each round is one entry of the trace.  Returns the
    pruned dicts and the trace."""
    feasible = {info: feasible_events(model, info) for info in observation_events}
    decision_edges = dict(decision_edges)
    observation_events = dict(observation_events)
    trace = []
    while True:
        bad_d = {key for key, edges in decision_edges.items() if not edges}
        bad_o = {
            info
            for info in observation_events
            if any((info, sigma) not in decision_edges for sigma in feasible[info])
        }
        if not bad_d and not bad_o:
            break
        trace.append(tuple(sorted(bad_d, key=decision_key_order)) + tuple(sorted(bad_o)))
        for key in bad_d:
            del decision_edges[key]
        for info in bad_o:
            del observation_events[info]
        observation_events = {
            info: tuple(s for s in evs if (info, s) in decision_edges)
            for info, evs in observation_events.items()
        }
        decision_edges = {
            key: tuple(e for e in edges if e[1] in observation_events)
            for key, edges in decision_edges.items()
        }
    seen_d, seen_o = _reachable_states(decision_edges, observation_events)
    return (
        {k: v for k, v in decision_edges.items() if k in seen_d},
        {k: v for k, v in observation_events.items() if k in seen_o},
        tuple(trace),
    )


def _reachable_states(decision_edges, observation_events):
    """The decision and observation states reachable from the initial
    decision state."""
    if INITIAL_KEY not in decision_edges:
        return set(), set()
    seen_d, seen_o = {INITIAL_KEY}, set()
    stack = [INITIAL_KEY]
    while stack:
        for _, target in decision_edges[stack.pop()]:
            if target in seen_o or target not in observation_events:
                continue
            seen_o.add(target)
            for sigma in observation_events[target]:
                child = (target, sigma)
                if child in decision_edges and child not in seen_d:
                    seen_d.add(child)
                    stack.append(child)
    return seen_d, seen_o


def _chain_model(n, escape):
    """An uncontrollable, supervisor-observable ``u`` chain s0..s(n-1) that
    ends in the intruder-visible reveal ``r`` into the secret state.  The
    escape variant enters the chain from a root through the controllable
    ``c``.  Without the escape everything is pruned, one state per round."""
    states = [f"s{i}" for i in range(n)] + ["S"]
    transitions = [[states[i], "u", states[i + 1]] for i in range(n - 1)]
    transitions.append([states[n - 1], "r", "S"])
    events, controllable, observed = ["u", "r"], [], ["u"]
    if escape:
        states.insert(0, "root")
        transitions.insert(0, ["root", "c", "s0"])
        events, controllable, observed = ["c", "u", "r"], ["c"], ["c", "u"]
    return PlantModel.from_dict(
        {
            "states": states,
            "events": events,
            "initial": states[0],
            "secret": ["S"],
            "transitions": transitions,
            "observable_supervisor": observed,
            "observable_intruder": ["r"],
            "controllable": controllable,
        }
    )


# (kind, plant): random plants, and forced chains of up to 60 states.
plants = st.one_of(
    st.builds(
        lambda seed: ("random", random_model(random.Random(seed), RandomModelConfig())),
        model_seeds,
    ),
    st.builds(
        lambda n, escape: ("chain", _chain_model(n, escape)),
        st.integers(2, 60),
        st.booleans(),
    ),
)


def _expand_or_none(model, mode):
    try:
        return expand_arena(model, SynthesisConfig(mode=mode, size_guard=5_000))
    except SizeGuardExceeded:
        return None


def _with_orders(decision_edges, observation_events, trace):
    return list(decision_edges.items()), list(observation_events.items()), trace


def _pruned_with_orders(arena):
    return _with_orders(*_views(arena), arena.pruning_trace)


def test_attractor_pruning_matches_the_round_based_fixpoint():
    """Same pruned arena, same dict insertion orders and the same trace: a
    state's attractor rank is the round in which the fixpoint removes it.
    Random plants and forced chains both have to prune something in some
    drawn example, in each mode."""
    pruned_some = set()

    @given(plants, st.sampled_from([OBS, DEC]))
    @settings(max_examples=120, deadline=None)
    def check(plant, mode):
        kind, model = plant
        arena = _expand_or_none(model, mode)
        if arena is None:
            return
        expected = _round_based_prune(model, *_views(arena))
        assert _pruned_with_orders(prune_incomplete(arena)) == _with_orders(*expected)
        if expected[2]:
            pruned_some.add((kind, mode))

    check()
    assert pruned_some == {(kind, mode) for kind in ("random", "chain") for mode in (OBS, DEC)}


def test_forced_chain_prunes_one_state_per_round():
    arena = expand_arena(_chain_model(60, False), SynthesisConfig(mode=OBS))
    pruned = prune_incomplete(arena)
    assert pruned.is_empty
    assert [len(batch) for batch in pruned.pruning_trace] == [1] * (2 * 60 - 1)
    assert _pruned_with_orders(pruned) == _with_orders(
        *_round_based_prune(arena.model, *_views(arena))
    )


@given(plants, st.sampled_from([OBS, DEC]))
@settings(max_examples=60, deadline=None)
def test_expansion_and_pruning_keep_the_arena_invariants(plant, mode):
    """Every observation state lists exactly its feasible events, and every
    state is reachable from the initial decision state, before and after
    pruning."""
    _, model = plant
    arena = _expand_or_none(model, mode)
    if arena is None:
        return
    for a in (arena, prune_incomplete(arena)):
        for info, events in a.observation_events.items():
            assert events == feasible_events(model, info)
        assert _reachable_states(*_views(a)) == (
            set(a.decision_edges),
            set(a.observation_events),
        )


# The pipeline in ids against a dict-based one ------------------------------


def _dict_walk(decision_edges, observation_events, policy):
    """Extraction over the dicts: breadth first from the initial decision
    state, committing the first locally maximal edge under
    ``locally_maximal`` and the first edge under the other policies."""
    assigned, known = {}, {}
    pending = deque([INITIAL_KEY])
    while pending:
        key = pending.popleft()
        if key in assigned:
            continue
        edges = decision_edges[key]
        if policy != "locally_maximal":
            edge = edges[0]
        else:
            edge = next(
                (gamma, target)
                for gamma, target in edges
                if not any(g != gamma and g | gamma == g for g, _ in edges)
            )
        assigned[key] = edge
        target = edge[1]
        if target not in known:
            known[target] = observation_events[target]
            pending.extend((target, s) for s in known[target])
    return list(assigned.items()), list(known.items())


def _dict_pipeline(model, cfg):
    decision_edges, observation_events = _tuple_expand(model, cfg)
    kept_d, kept_o, trace = _round_based_prune(model, decision_edges, observation_events)
    structure = None
    if INITIAL_KEY in kept_d:
        structure = _dict_walk(kept_d, kept_o, cfg.extraction_policy)
    return (
        len(decision_edges) + len(observation_events),
        len(kept_d) + len(kept_o),
        len(trace),
        structure,
    )


def _id_pipeline(model, cfg):
    out = synthesize(model, cfg)
    structure = None
    if out.solved:
        structure = list(out.structure.decisions.items()), list(
            out.structure.observations.items()
        )
    return out.arena_states_before, out.arena_states_after, out.pruning_iterations, structure


def test_synthesis_in_ids_matches_the_dict_pipeline():
    """Arena figures, pruning iterations and the (first) extracted
    structure, with its insertion orders, equal those of tuple expansion,
    round-based pruning and a walk over the dicts, in both modes and under
    every policy.  Some drawn examples must prune something and some must
    have no solution."""
    seen = set()

    @given(
        plants,
        st.sampled_from([OBS, DEC]),
        st.sampled_from(["first_feasible", "locally_maximal", "enumerate_all"]),
    )
    @settings(max_examples=80, deadline=None)
    def check(plant, mode, policy):
        _, model = plant
        cfg = SynthesisConfig(mode=mode, extraction_policy=policy, size_guard=2_000)
        try:
            expected = _dict_pipeline(model, cfg)
        except SizeGuardExceeded:
            return
        assert _id_pipeline(model, cfg) == expected
        seen.add("pruned" if expected[2] else "kept")
        seen.add("solved" if expected[3] else "unsolved")

    check()
    assert seen == {"pruned", "kept", "solved", "unsolved"}


def test_synthesize_builds_only_what_it_outputs(monkeypatch):
    """Seed-10 draw 2 in decision mode: a 4,910-state arena, from which
    first_feasible (and enumerate_all, first of the 64 it counts) takes a
    one-state structure and locally_maximal a 23-state one.  Under every
    policy, information states are built only for the observation states
    of the structure returned, once each, and no arena view is read."""
    from opactrl import synthesis

    model = _seed10_draw(2)
    built = []
    info_of = Successors.info_of

    def counting_info_of(self, gamma, cores):
        built.append(info_of(self, gamma, cores))
        return built[-1]

    arenas = []

    def keeping(phase):
        def wrapper(*args):
            arenas.append(phase(*args))
            return arenas[-1]

        return wrapper

    monkeypatch.setattr(Successors, "info_of", counting_info_of)
    monkeypatch.setattr(synthesis, "expand_arena", keeping(synthesis.expand_arena))
    monkeypatch.setattr(synthesis, "prune_incomplete", keeping(synthesis.prune_incomplete))
    for policy, size, count in (
        ("first_feasible", 1, 1),
        ("locally_maximal", 23, 1),
        ("enumerate_all", 1, MAX_STRUCTURES),
    ):
        built.clear()
        arenas.clear()
        out = synthesize(model, SynthesisConfig(mode=DEC, extraction_policy=policy))
        assert out.arena_states_before == 4_910
        assert len(out.structure.observations) == size
        assert out.count == count
        assert len(built) == len(set(built)) and set(built) == set(out.structure.observations)
        assert len(arenas) == 2
        for arena in arenas:
            assert arena._dicts is None and arena._trace is None
