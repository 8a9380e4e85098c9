"""The reference implementations live in ``opactrl.oracles``, apart from
the product path: no product module imports them, and the closed-loop
search that ``verify`` runs carries no option that only an oracle reads.
``brute_estimate_set`` asks its policy about whole prefixes of the
observation only."""

import ast
import importlib
import inspect
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import opactrl
from conftest import DEC, OBS, closed_loop_strings, feasible_observations
from opactrl import augment, brute_estimate_set, project, run_estimator
from opactrl.randgen import RandomModelConfig, random_model, random_supervisor
from opactrl.structure import closed_loop_search
from opactrl.supervisors import Supervisor

PACKAGE = Path(opactrl.__file__).parent
PRODUCT_MODULES = (
    "cli", "serialize", "synthesis", "structure", "model", "estimator", "supervisors", "dot"
)
# Each moved name, with the module it left.
MOVED = {
    "oracle_controlled_estimate": "estimator",
    "information_flow": "estimator",
    "structure_from_policy": "structure",
    "supervisor_estimate": "structure",
    "brute_estimate_set": "structure",
    "open_loop_estimate": "model",
    "UnreachableObservationError": "model",
    "info_plant_states": "structure",
    "info_estimates": "structure",
    "info_decision": "structure",
    "feasible_events": "structure",
    "augment": "estimator",
    "SupervisionError": "estimator",
    "run_estimator": "estimator",
    "project": "model",
    "ConstantSupervisor": "supervisors",
    "format_flow": "serialize",
    "structure_to_dict": "serialize",
    "enumerate_structures": "synthesis",
    "exhaustive_solution_exists": "synthesis",
}

model_seeds = st.integers(0, 10**9)


def _imported_modules(tree: ast.Module) -> set[str]:
    """The modules of the package that a module's imports name, relative
    imports resolved against the package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "opactrl" if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def test_no_product_module_imports_the_oracles():
    for name in PRODUCT_MODULES:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        assert "opactrl.oracles" not in _imported_modules(tree), name


def test_the_moved_names_live_in_oracles_alone():
    oracles = importlib.import_module("opactrl.oracles")
    for name, old_module in MOVED.items():
        obj = getattr(oracles, name)
        assert obj.__module__ == "opactrl.oracles", name
        assert getattr(opactrl, name) is obj, name
        assert not hasattr(importlib.import_module(f"opactrl.{old_module}"), name), name


def test_closed_loop_search_takes_no_alpha():
    assert "alpha" not in inspect.signature(closed_loop_search).parameters


class PrefixOnly(Supervisor):
    """``sup``, which may be asked only about whole prefixes of ``alpha``:
    any other question fails the test, and so does a call of ``decide``,
    which this class leaves undefined."""

    def __init__(self, sup: Supervisor, alpha):
        self.sup, self.alpha = sup, tuple(alpha)

    def decision(self, obs):
        obs = tuple(obs)
        assert obs == self.alpha[: len(obs)], f"asked about {obs}, off {self.alpha}"
        return self.sup.decision(obs)


def replayed_estimates(model, sup, mode, k):
    """Per observation, the estimates the estimator reaches by replaying
    each closed-loop string of at most ``k`` events that projects to it."""
    replayed: dict[tuple[int, ...], set[int]] = {}
    for s in closed_loop_strings(model, sup, k):
        final = run_estimator(model, augment(model, s, sup), mode)
        replayed.setdefault(project(s, model.supervisor_observable), set()).add(
            final.estimate
        )
    return replayed


def test_brute_estimate_set_leaves_alpha_without_asking_the_policy(run_model, srun):
    """In the running example the supervisor observes u1 and u2, so every
    observation below has an observable event off it somewhere in the
    closed loop.  The plant is acyclic, so six events bound every string."""
    m = run_model
    for mode in (OBS, DEC):
        replayed = replayed_estimates(m, srun, mode, 6)
        for text in ("", "u1", "u2", "u1 u2", "u1 u1", "u1 u2 u2", "u1 u2 u1"):
            alpha = m.word(text)
            off = {
                project(s, m.supervisor_observable)
                for s in closed_loop_strings(m, srun, 6)
            } - {alpha[:n] for n in range(len(alpha) + 1)}
            assert any(obs[:-1] == alpha[: len(obs) - 1] for obs in off), text
            expected = replayed.get(alpha, set())
            for bound in (None, 6):
                got = brute_estimate_set(m, PrefixOnly(srun, alpha), alpha, mode, bound)
                assert got == expected, (text, mode, bound)


@given(model_seeds, st.sampled_from([OBS, DEC]), st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_bounded_brute_estimate_set_asks_only_about_prefixes(seed, mode, k):
    """The replay of ``test_bounded_brute_estimate_set_matches_string_replay``,
    with the oracle given a policy that refuses every history off
    ``alpha``."""
    rng = random.Random(seed)
    model = random_model(rng, RandomModelConfig(max_states=4, max_events=3))
    sup = random_supervisor(rng, model)
    replayed = replayed_estimates(model, sup, mode, k)
    for alpha in feasible_observations(model, sup, k):
        assert brute_estimate_set(
            model, PrefixOnly(sup, alpha), alpha, mode, bound=k
        ) == replayed.get(alpha, set())
