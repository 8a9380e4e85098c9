"""Random plant instances and supervisor tables for property tests.

Partitions are drawn independently per event, so every containment
combination of the observable/controllable alphabets occurs.  Generation is
a pure function of the supplied RNG, which keeps property suites
reproducible from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import EventPartitions, PlantModel, iter_bits, mask_of
from .supervisors import TabularSupervisor


@dataclass(frozen=True)
class RandomModelConfig:
    max_states: int = 5
    max_events: int = 4
    min_states: int = 2
    min_events: int = 1
    transition_density: float = 0.4
    secret_probability: float = 0.3
    partition_probability: float = 0.5
    acyclic: bool = False


def random_model(rng: random.Random, cfg: RandomModelConfig = RandomModelConfig()) -> PlantModel:
    n = rng.randint(cfg.min_states, cfg.max_states)
    k = rng.randint(cfg.min_events, cfg.max_events)
    states = [str(i) for i in range(n)]
    events = [f"e{i}" for i in range(k)]
    transitions = []
    for x in range(n):
        for e in range(k):
            if rng.random() < cfg.transition_density:
                lo = x + 1 if cfg.acyclic else 0
                if lo >= n:
                    continue
                transitions.append((states[x], events[e], states[rng.randrange(lo, n)]))
    secret = [s for s in states if rng.random() < cfg.secret_probability]

    def subset() -> frozenset[str]:
        return frozenset(e for e in events if rng.random() < cfg.partition_probability)

    parts = EventPartitions(
        supervisor_observable=subset(),
        intruder_observable=subset(),
        controllable=subset(),
    )
    return PlantModel(states, events, transitions, states[0], secret, parts)


def random_decision(rng: random.Random, model: PlantModel) -> int:
    enabled = [e for e in iter_bits(model.controllable) if rng.random() < 0.5]
    return model.uncontrollable | mask_of(enabled)


def random_supervisor(
    rng: random.Random,
    model: PlantModel,
    max_entries: int = 6,
    max_obs_len: int = 3,
) -> TabularSupervisor:
    """A random decision table over the supervisor's observable events, in
    the document form: observation strings mapped to lists of event names.
    The model's event names hold no space."""
    observable = [model.events[e] for e in iter_bits(model.supervisor_observable)]
    table: dict[str, list[str]] = {}
    if observable:
        for _ in range(rng.randint(0, max_entries)):
            length = rng.randint(0, max_obs_len)
            key = " ".join(rng.choice(observable) for _ in range(length))
            table[key] = list(model.event_names(random_decision(rng, model)))
    default = (
        None if rng.random() < 0.5
        else list(model.event_names(random_decision(rng, model)))
    )
    return TabularSupervisor(model, table, default)
