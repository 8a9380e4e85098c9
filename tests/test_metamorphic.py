"""Metamorphic properties of synthesis: relations between runs that hold
whatever the solver explores, so they need no second implementation.  Each
draws random plants of 3-9 states and 2-5 events, in both modes, and skips
a plant whose arena outgrows a small guard."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEC, OBS
from opactrl import (
    PlantModel,
    SizeGuardExceeded,
    SynthesisConfig,
    synthesize,
    verify_closed_loop_opacity,
)
from opactrl.randgen import RandomModelConfig, random_model

PLANTS = RandomModelConfig(min_states=3, max_states=9, min_events=2, max_events=5)
GUARD = 5_000

seeds = st.integers(0, 10**9)
modes = st.sampled_from([OBS, DEC])


def _plant(seed: int) -> PlantModel:
    return random_model(random.Random(seed), PLANTS)


def _synthesize(model: PlantModel, mode, policy: str = "first_feasible"):
    """The outcome, or None when the arena outgrows the guard."""
    try:
        return synthesize(model, SynthesisConfig(mode, policy, GUARD))
    except SizeGuardExceeded:
        return None


def _figures(outcome) -> tuple:
    return (
        outcome.solved,
        outcome.arena_states_before,
        outcome.arena_states_after,
        outcome.pruning_iterations,
    )


@given(seeds, seeds, modes)
@settings(max_examples=100, deadline=None)
def test_shuffled_document_lists_leave_the_figures_unchanged(seed, shuffle, mode):
    """The order of a document's states, events and transitions renumbers
    the plant, and with its events the order decisions are tried in; it
    leaves the game alone, so whether it is solved, both arena sizes and
    the pruning iterations stay the same."""
    model = _plant(seed)
    outcome = _synthesize(model, mode)
    if outcome is None:
        return
    doc = model.to_dict()
    rng = random.Random(shuffle)
    for key in ("states", "events", "transitions"):
        rng.shuffle(doc[key])
    again = _synthesize(PlantModel.from_dict(doc), mode)
    assert _figures(again) == _figures(outcome)


@given(seeds, modes, st.sampled_from(["first_feasible", "locally_maximal"]))
@settings(max_examples=100, deadline=None)
def test_every_synthesized_structure_verifies_in_its_own_mode(seed, mode, policy):
    """Verified in the mode it was built for, a structure is opaque, and
    its members are those its decisions derive."""
    model = _plant(seed)
    outcome = _synthesize(model, mode, policy)
    if outcome is not None and outcome.solved:
        assert verify_closed_loop_opacity(model, outcome.structure, mode).opaque


@given(seeds, modes, st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_a_solved_plant_stays_solved_with_one_secret_state_fewer(seed, mode, index):
    """A smaller secret is easier to keep: every structure that kept the
    larger one keeps it."""
    model = _plant(seed)
    outcome = _synthesize(model, mode)
    doc = model.to_dict()
    if outcome is None or not outcome.solved or not doc["secret"]:
        return
    del doc["secret"][index % len(doc["secret"])]
    again = _synthesize(PlantModel.from_dict(doc), mode)
    assert again is not None and again.solved
