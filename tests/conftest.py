"""Shared fixtures: the running example, its two reference policies,
string-enumeration helpers used by several suites, and a plant family whose
intruder observer grows exponentially."""

from __future__ import annotations

from pathlib import Path

import pytest

from opactrl import IssuanceMode, ObservationPair, PlantModel
from opactrl.serialize import parse_supervisor_text
from opactrl.supervisors import Supervisor

REPO_ROOT = Path(__file__).resolve().parent.parent
MODELS = REPO_ROOT / "models"

OBS = IssuanceMode.OBSERVATION
DEC = IssuanceMode.DECISION


@pytest.fixture(scope="session")
def run_model() -> PlantModel:
    return PlantModel.from_json((MODELS / "run.json").read_text())


@pytest.fixture(scope="session")
def srun(run_model):
    return parse_supervisor_text(run_model, (MODELS / "srun.json").read_text())


@pytest.fixture(scope="session")
def sprime(run_model):
    return parse_supervisor_text(run_model, (MODELS / "sprime.json").read_text())


def pair(model: PlantModel, event: str | None, decision: str | None) -> ObservationPair:
    """Build one flow element from names; None marks an empty component."""
    ev = None if event is None else model.event(event)
    dec = None if decision is None else model.control_decision(decision.split())
    return ObservationPair(ev, dec)


def closed_loop_strings(model: PlantModel, sup: Supervisor, max_len: int):
    """Every string of the closed loop up to the given length."""
    out = [()]
    stack = [(model.initial, (), ())]
    while stack:
        x, s, obs = stack.pop()
        if len(s) == max_len:
            continue
        gamma = sup.decision(obs)
        for e in range(len(model.events)):
            y = model.step(x, e)
            if y is None or not (gamma >> e) & 1:
                continue
            s2 = s + (e,)
            obs2 = obs + (e,) if (model.supervisor_observable >> e) & 1 else obs
            out.append(s2)
            stack.append((y, s2, obs2))
    return out


def feasible_observations(model: PlantModel, sup: Supervisor, max_len: int):
    """Every supervisor observation arising in the closed loop up to the
    given observation length (independent of structure machinery)."""
    seen = set()
    out = {()}
    stack = [(model.initial, ())]
    while stack:
        x, alpha = stack.pop()
        gamma = sup.decision(alpha)
        for e in range(len(model.events)):
            y = model.step(x, e)
            if y is None or not (gamma >> e) & 1:
                continue
            if (model.supervisor_observable >> e) & 1:
                alpha2 = alpha + (e,)
                if len(alpha2) > max_len:
                    continue
            else:
                alpha2 = alpha
            node = (y, alpha2)
            if node in seen:
                continue
            seen.add(node)
            out.add(alpha2)
            stack.append(node)
    return out


def observer_blowup_model(n: int) -> PlantModel:
    """A plant whose intruder observer reaches every subset of the states
    1..n: states 0, g and 1..n; 0 loops on a and b, the hidden u leads from
    0 to g, g -b-> 1 and i -a,b-> i+1.  Both observers see a and b, and
    there is no secret."""
    chain = [str(i) for i in range(1, n + 1)]
    transitions = [["0", "a", "0"], ["0", "b", "0"], ["0", "u", "g"], ["g", "b", "1"]]
    transitions += [[x, e, y] for x, y in zip(chain, chain[1:]) for e in "ab"]
    return PlantModel.from_dict({
        "states": ["0", "g", *chain],
        "events": ["a", "b", "u"],
        "initial": "0",
        "transitions": transitions,
        "observable_supervisor": ["a", "b"],
        "observable_intruder": ["a", "b"],
    })
