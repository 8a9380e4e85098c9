"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with its wall time when (and only when)
every assertion in it held.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they complete.  The last test runs the walkthrough in
``scripts/run_example.py``, which no criterion covers.
"""

import importlib.util
import random
import shutil
import sys
import time
from itertools import islice

import pytest

from conftest import (
    DEC,
    MODELS,
    OBS,
    REPO_ROOT,
    closed_loop_strings,
    feasible_observations,
    pair,
)
from opactrl import (
    EstimatorState,
    SizeGuardExceeded,
    SynthesisConfig,
    augment,
    brute_estimate_set,
    enumerate_structures,
    estimate_from_flow,
    estimator_trace,
    exhaustive_solution_exists,
    expand_arena,
    extract_structure,
    information_flow,
    make_info,
    open_loop_estimate,
    oracle_controlled_estimate,
    prune_incomplete,
    run_estimator,
    structure_from_policy,
    supervisor_estimate,
    synthesize,
    verify_closed_loop_opacity,
)
from opactrl.model import PlantModel
from opactrl.randgen import RandomModelConfig, random_model, random_supervisor
from opactrl.serialize import format_flow
from opactrl.structure import info_estimates, info_plant_states
from opactrl.synthesis import MAX_STRUCTURES

SIGMA = "a u1 u2 u3 b"


class criterion:
    """Context manager asserting the stated time budget and printing the
    pass line on success."""

    def __init__(self, number: int, description: str, budget_s: float):
        self.number = number
        self.description = description
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded budget: {elapsed:.1f}s"
            )
            print(
                f"PASS criterion {self.number} [{elapsed:.2f}s < {self.budget:.0f}s] "
                f"{self.description}"
            )
        else:
            print(f"FAIL criterion {self.number}: {self.description}")
        return False


def est(model, x, q, decision):
    return EstimatorState(
        model.state(x),
        model.state_mask(q.split()),
        model.control_decision(decision.split()),
    )


def test_criterion_1_estimator_trace(run_model, srun):
    with criterion(1, "running-example estimator trace", 1.0):
        m = run_model
        trace = estimator_trace(m, augment(m, m.word("a u1 u2 u2"), srun), OBS)
        assert trace == (
            est(m, "0", "0", SIGMA),
            est(m, "1", "1 2 3 4 5 6 7", SIGMA),
            est(m, "2", "2 3 4 5 6 7", "a b u2"),
            est(m, "5", "5 7", "a b u2"),
            est(m, "7", "7", SIGMA),
        )
        assert trace[-1] == est(m, "7", "7", SIGMA)


def test_criterion_2_controlled_vs_open_loop(run_model, srun):
    with criterion(2, "controlled vs open-loop estimates", 1.0):
        m = run_model
        assert open_loop_estimate(m, m.word("a"), m.intruder_observable) == (
            m.state_mask(["1", "2", "3", "4", "5", "6", "7"])
        )
        flow = information_flow(m, m.word("a u1 u2 u2"), srun, OBS)
        assert estimate_from_flow(m, flow, OBS) == m.state_mask(["7"])


def test_criterion_3_opacity_verdict_flip(run_model, srun, sprime):
    with criterion(3, "opacity verdict flip between the two policies", 1.0):
        m = run_model
        bad = verify_closed_loop_opacity(m, srun, OBS)
        assert not bad.opaque and bad.counterexample == ("a", "u1", "u2", "u2")
        assert verify_closed_loop_opacity(m, sprime, OBS).opaque
        f1 = information_flow(m, m.word("a u1 u2 u2"), sprime, OBS)
        f2 = information_flow(m, m.word("a u1 u2 u1"), sprime, OBS)
        assert format_flow(m, f1).encode() == format_flow(m, f2).encode()


def test_criterion_4_decision_triggered_flip(run_model, srun):
    with criterion(4, "decision-triggered mechanism flips the verdict", 1.0):
        m = run_model
        flow = (
            pair(m, None, SIGMA),
            pair(m, "a", None),
            pair(m, None, "a b u2"),
            pair(m, None, SIGMA),
        )
        assert estimate_from_flow(m, flow, DEC) == m.state_mask(["5", "6", "7"])
        verdict = verify_closed_loop_opacity(m, srun, DEC)
        assert verdict.opaque and verdict.complete


def test_criterion_5_synthesis_on_running_example(run_model, sprime):
    with criterion(5, "synthesis pipeline on the running example", 10.0):
        m = run_model
        arena = expand_arena(m, SynthesisConfig(mode=OBS))
        pruned = prune_incomplete(arena)

        trap = make_info([est(m, "5", "5 7", "a b u2")])
        trap_key = (trap, m.event("u2"))
        assert trap in arena.observation_events
        assert arena.decision_edges[trap_key] == ()
        # the decision state falls in an earlier pruning round than its
        # observation state
        rounds = pruned.pruning_trace
        dec_round = next(i for i, batch in enumerate(rounds) if trap_key in batch)
        obs_round = next(i for i, batch in enumerate(rounds) if trap in batch)
        assert dec_round < obs_round
        assert trap_key not in pruned.decision_edges
        assert trap not in pruned.observation_events

        # the exhaustive extraction family contains the structure of the
        # repaired reference policy (every edge of it is one of the arena's
        # alternatives, which is exactly the membership condition of the
        # enumerate_all family)
        match = structure_from_policy(m, sprime, OBS)
        for key, edge in match.decisions.items():
            assert edge in pruned.decision_edges[key]
        for obs, events in match.observations.items():
            assert pruned.observation_events[obs] == events
        decoded = match.decoded()
        alphas = feasible_observations(m, sprime, 4)
        assert alphas == feasible_observations(m, decoded, 4)
        for alpha in sorted(alphas):
            assert decoded.decision(alpha) == sprime.decision(alpha)

        # enumerate_all itself counts distinct members of the same family
        counted = extract_structure(pruned, SynthesisConfig(extraction_policy="enumerate_all"))
        sample = list(islice(enumerate_structures(pruned), MAX_STRUCTURES))
        assert counted.count == len(set(sample)) == MAX_STRUCTURES
        for structure in sample:
            for key, edge in structure.decisions.items():
                assert edge in pruned.decision_edges[key]


def test_criterion_6_oracle_equivalence():
    with criterion(6, "estimator/flow/oracle agreement on 500 random models", 300.0):
        rng = random.Random(0xC6)
        cfg = RandomModelConfig(max_states=5, max_events=4)
        flows_checked = 0
        for _ in range(500):
            model = random_model(rng, cfg)
            sup = random_supervisor(rng, model)
            n = len(model.states)
            for mode in (OBS, DEC):
                flows = {}
                for s in closed_loop_strings(model, sup, 6):
                    final = run_estimator(model, augment(model, s, sup), mode)
                    flow = information_flow(model, s, sup, mode)
                    assert final.estimate == estimate_from_flow(model, flow, mode)
                    flows[flow] = final.estimate
                for flow, expected in flows.items():
                    flows_checked += 1
                    # decorations of one step per flow element plus loop-free
                    # silent padding cover the estimate exhaustively
                    bound = (len(flow) - 1) + len(flow) * (n - 1)
                    assert (
                        oracle_controlled_estimate(model, flow, mode, max(bound, 6))
                        == expected
                    )
                    # the literal six-step search never over-approximates
                    shallow = oracle_controlled_estimate(
                        model, flow, mode, max(6, len(flow) - 1)
                    )
                    assert shallow | expected == expected
        assert flows_checked >= 500


def test_criterion_7_observation_state_consistency():
    with criterion(7, "observation states carry both estimates (100 structures)", 300.0):
        rng = random.Random(0xC7)
        cfg = RandomModelConfig(max_states=4, max_events=3)
        produced = 0
        attempts = 0
        while produced < 100:
            attempts += 1
            assert attempts < 5000, "solvable instances too rare"
            model = random_model(rng, cfg)
            mode = OBS if rng.random() < 0.5 else DEC
            try:
                out = synthesize(model, SynthesisConfig(mode=mode, size_guard=20_000))
            except SizeGuardExceeded:
                continue
            if not out.solved:
                continue
            structure = out.structure
            decoded = structure.decoded()
            for alpha in sorted(feasible_observations(model, decoded, 4)):
                state = decoded.observation_signature(alpha)
                assert info_plant_states(state) == supervisor_estimate(
                    model, decoded, alpha
                )
                assert info_estimates(state) == brute_estimate_set(
                    model, decoded, alpha, mode
                )
            produced += 1


def test_criterion_8_synthesis_soundness():
    with criterion(8, "every synthesized supervisor enforces opacity (200 instances)", 600.0):
        rng = random.Random(0xC8)
        cfg = RandomModelConfig(max_states=4, max_events=4)
        solved = 0
        for _ in range(200):
            model = random_model(rng, cfg)
            mode = OBS if rng.random() < 0.5 else DEC
            policy = rng.choice(["first_feasible", "locally_maximal"])
            try:
                out = synthesize(
                    model,
                    SynthesisConfig(
                        mode=mode, extraction_policy=policy, size_guard=50_000
                    ),
                )
            except SizeGuardExceeded:
                continue
            if not out.solved:
                continue
            solved += 1
            assert verify_closed_loop_opacity(model, out.structure, mode).opaque
        assert solved >= 50  # the draw must actually exercise the check


def test_criterion_9_completeness_proxy():
    with criterion(9, "no-solution agrees with exhaustive enumeration (50 instances)", 600.0):
        rng = random.Random(0xC9)
        cfg = RandomModelConfig(max_states=3, max_events=3)
        checked = 0
        unsolvable = 0
        while checked < 50:
            model = random_model(rng, cfg)
            mode = OBS if rng.random() < 0.5 else DEC
            scfg = SynthesisConfig(mode=mode, size_guard=5_000)
            try:
                arena = expand_arena(model, scfg)
            except SizeGuardExceeded:
                continue
            outcome = extract_structure(prune_incomplete(arena), scfg)
            assert outcome.solved == exhaustive_solution_exists(arena)
            unsolvable += not outcome.solved
            checked += 1
        assert unsolvable >= 5  # both verdicts must occur


def test_criterion_10_resource_guard_and_growth():
    with criterion(10, "size guard trips; arena grows monotonically with the plant", 60.0):
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
            if n == 6:
                with pytest.raises(SizeGuardExceeded) as exc:
                    expand_arena(model, SynthesisConfig(size_guard=3))
                assert exc.value.decision_states + exc.value.observation_states > 3
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]


def test_run_example_script(tmp_path, monkeypatch, capsys):
    """``scripts/run_example.py`` runs on a copy of the bundled models,
    writes its renderings under that copy's ``build/`` and finds the
    baseline policy not opaque under the observation-triggered mechanism."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    path = REPO_ROOT / "scripts" / "run_example.py"
    spec = importlib.util.spec_from_file_location("run_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    shutil.copytree(MODELS, tmp_path / "models")
    module.ROOT = tmp_path
    module.main()
    assert (
        "closed loop, baseline policy, observation-triggered: NOT opaque "
        "(counterexample: a u1 u2 u2)"
    ) in capsys.readouterr().out.splitlines()
    assert sorted(p.name for p in (tmp_path / "build").iterdir()) == [
        "plant.dot",
        "structure_decision.dot",
        "structure_observation.dot",
    ]
