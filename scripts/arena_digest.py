#!/usr/bin/env python3
"""Print one SHA-256 per issuance mode over everything synthesis builds on a
fixed corpus, so that two source trees can be shown to build the same
arenas and structures.

The corpus is the randgen seed-10 draws 1-25 (the synth-random models of
perfbench) and 400 small random models from seed 7.  Per model and mode the
digest covers:

- the raw arena and the pruned arena, with the insertion order of both
  dicts;
- the pruning trace;
- the structure of each extraction policy, and the structures
  ``enumerate_all`` counts, with their insertion orders;
- where expansion stops under a few small size guards: the arena size, or
  the decision and observation counts at which the guard tripped.

A third line digests the closed-loop side: for every structure above, in
both modes, the structure ``structure_from_policy`` re-derives from its
decoded policy (or the error it raises) and the ``verify_closed_loop_opacity``
verdict with its counterexample (or the error it raises).  A fourth line
digests the open loop: the ``verify_open_loop_opacity`` verdict of every
model, with its witness observation.

Run ``python3 scripts/arena_digest.py``; it imports ``opactrl`` from the
``src`` directory of its own checkout and takes about half a minute on a
2-vCPU machine, most of it for the third line.  Equal output
from two checkouts means equal results on this corpus.  ``digest(models)``,
``closed_loop_digest(models)`` and ``open_loop_digest(models)`` give the
same lines for any list of models; ``tests/test_golden.py`` pins them for a
slice of the corpus.
"""

from __future__ import annotations

import hashlib
import random
import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from opactrl import (  # noqa: E402
    IssuanceMode,
    SizeGuardExceeded,
    StructureError,
    SynthesisConfig,
    structure_from_policy,
    verify_closed_loop_opacity,
    verify_open_loop_opacity,
)
from opactrl.randgen import RandomModelConfig, random_model  # noqa: E402
from opactrl.synthesis import (  # noqa: E402
    EXTRACTION_POLICIES,
    MAX_STRUCTURES,
    enumerate_structures,
    expand_arena,
    extract_structure,
    prune_incomplete,
)

CORPUS_CONFIG = RandomModelConfig(min_states=8, max_states=12, min_events=5, max_events=6)
SMALL_CONFIG = RandomModelConfig(min_states=3, max_states=7, min_events=2, max_events=4)
SMALL_MODELS = 400
# A model whose arena outgrows this is digested by where the guard tripped.
SIZE_GUARD = 20_000
GUARDS = (3, 20, 150)


def corpus():
    rng = random.Random(10)
    draws = [random_model(rng, CORPUS_CONFIG) for _ in range(26)]
    small = random.Random(7)
    return draws[1:] + [random_model(small, SMALL_CONFIG) for _ in range(SMALL_MODELS)]


def _feed(h, label: str, items) -> None:
    h.update(label.encode())
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")


def _expand(model, cfg):
    """The arena, or the guard and counts at which expansion stopped."""
    try:
        return expand_arena(model, cfg), None
    except SizeGuardExceeded as exc:
        return None, (exc.guard, exc.decision_states, exc.observation_states)


def _structures(pruned, mode: IssuanceMode):
    """(policy, structure) for the structure each extraction policy takes
    from a pruned arena, and for ``enumerate_all`` every structure it
    counts."""
    for policy in EXTRACTION_POLICIES:
        if policy == "enumerate_all":
            structures = islice(enumerate_structures(pruned), MAX_STRUCTURES)
        else:
            outcome = extract_structure(
                pruned, SynthesisConfig(mode=mode, extraction_policy=policy)
            )
            structures = [outcome.structure] if outcome.solved else []
        for structure in structures:
            yield policy, structure


def digest_mode(models, mode: IssuanceMode) -> str:
    h = hashlib.sha256()
    for n, model in enumerate(models):
        h.update(f"model {n}\n".encode())
        for guard in GUARDS:
            arena, tripped = _expand(model, SynthesisConfig(mode=mode, size_guard=guard))
            _feed(h, "guard", [guard, tripped or arena.n_states])
        arena, tripped = _expand(
            model, SynthesisConfig(mode=mode, size_guard=SIZE_GUARD)
        )
        if arena is None:
            _feed(h, "tripped", [tripped])
            continue
        pruned = prune_incomplete(arena)
        for label, a in (("raw", arena), ("pruned", pruned)):
            _feed(h, label + " decisions", a.decision_edges.items())
            _feed(h, label + " observations", a.observation_events.items())
        _feed(h, "trace", pruned.pruning_trace)
        for policy, structure in _structures(pruned, mode):
            _feed(h, policy + " decisions", structure.decisions.items())
            _feed(h, policy + " observations", structure.observations.items())
    return h.hexdigest()


def digest(models) -> list[str]:
    """The lines printed for ``models``: one per issuance mode, its name and
    its digest."""
    return [f"{mode.value}: {digest_mode(models, mode)}" for mode in IssuanceMode]


def _closed_loop(model, structure, mode: IssuanceMode) -> tuple:
    """What the closed-loop side makes of ``structure`` under ``mode``."""
    try:
        again = structure_from_policy(model, structure.decoded(), mode)
        rederived = (list(again.decisions.items()), list(again.observations.items()))
    except StructureError as exc:
        rederived = str(exc)
    try:
        verdict = verify_closed_loop_opacity(model, structure, mode)
        verified = (verdict.opaque, verdict.counterexample, verdict.complete)
    except StructureError as exc:
        verified = str(exc)
    return rederived, verified


def closed_loop_digest(models) -> str:
    """The third printed line for ``models``: every structure the three
    extraction policies give in either mode, re-derived from its decoded
    policy and verified, in both modes."""
    h = hashlib.sha256()
    for n, model in enumerate(models):
        h.update(f"model {n}\n".encode())
        for built in IssuanceMode:
            arena, _ = _expand(model, SynthesisConfig(mode=built, size_guard=SIZE_GUARD))
            if arena is None:
                continue
            for policy, structure in _structures(prune_incomplete(arena), built):
                for mode in IssuanceMode:
                    label = f"{built.value} {policy} {mode.value}"
                    _feed(h, label, _closed_loop(model, structure, mode))
    return f"closed-loop: {h.hexdigest()}"


def open_loop_digest(models) -> str:
    """The fourth printed line for ``models``: each model's open-loop
    verdict and witness observation."""
    h = hashlib.sha256()
    for n, model in enumerate(models):
        verdict = verify_open_loop_opacity(model)
        _feed(h, f"model {n}", [(verdict.opaque, verdict.counterexample)])
    return f"open-loop: {h.hexdigest()}"


def main() -> None:
    models = corpus()
    lines = digest(models) + [closed_loop_digest(models), open_loop_digest(models)]
    print("\n".join(lines))


if __name__ == "__main__":
    main()
