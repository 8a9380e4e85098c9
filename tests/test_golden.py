"""Byte-identity regression: SHA-256 digests of the artifacts produced for
the running example, recorded before the closed-loop walker, estimate update,
decision successor, numbering and DOT writers were each merged into one.
Any change to these bytes is a change to the artifact format or to the
arena that expansion builds.  The estimator-slice digests were recorded
when the slice became one breadth-first search, which numbers its nodes in
discovery order.  The randgen pruning pins were recorded on the round-based
pruning fixpoint, before pruning became one attractor pass.  The
corpus-slice arena-digest lines were recorded before the arena moved to
ids, and re-recorded when the three extraction policies came to share one
enumeration over ids, which changed only the order in which enumerate_all
lists a structure's observation states.  The closed-loop digest line was
recorded before structure_from_policy and the structure walk of verify
moved to the successor kernel's ids.

The arenas of the running example and of randgen seed-10 draws 2 and 17
were pinned by the DOT renderings of an arena writer, which was later
deleted as no command used it.  They are pinned instead by their
arena-digest lines and, for the randgen draws, a digest of the raw arena's
views; both were recorded on the last code that had the writer, whose DOT
pins still held.  The arena-digest lines were re-recorded with those of
the corpus slice."""

import contextlib
import hashlib
import importlib.util
import io
import json
import random

import pytest

from conftest import MODELS, REPO_ROOT
from opactrl import (
    IssuanceMode,
    SupervisionError,
    SynthesisConfig,
    augment,
    closed_loop_simulate,
    expand_arena,
    prune_incomplete,
)
from opactrl.cli import main
from opactrl.randgen import RandomModelConfig, random_model

RUN = str(MODELS / "run.json")
SRUN = str(MODELS / "srun.json")

# (mode, policy) -> (sha256 of --out bytes, sha256 of --dot bytes).  The
# retired enumerate_all policy wrote first_feasible's bytes.
SYNTHESIZE_DIGESTS = {
    ("observation", "first_feasible"): (
        "dc8489842faeb98d716d8eafb40386854b33f75ecaffbdb139176b4d14736055",
        "9d4e0d2a7bf14d59a4f400e660f841212f36e42dd53a5edd77936877f3175ac5",
    ),
    ("observation", "locally_maximal"): (
        "53cf75151c552922c37a679feeeb75213d934a31d7dcb08e4bc76f1fba76787b",
        "8f65a3d8fd99050692061d1149edffa276c9a6dc66253015fb59ac49dcb36944",
    ),
    ("decision", "first_feasible"): (
        "2be8a3780276e3ec9908b2a5e9c46c3762bd29c7e7563dc670e0cc6758f7fccd",
        "9d4e0d2a7bf14d59a4f400e660f841212f36e42dd53a5edd77936877f3175ac5",
    ),
    ("decision", "locally_maximal"): (
        "91d015c6a9fe9292fd3625b417cca79dcaa4af412620ba018651b0a147907a27",
        "36e8810a3fecb1c3558305d0350f7e5d698ba43f37d95ba7e9c465505ccff99b",
    ),
}

# (draw, mode) -> (arena states, sha256 of the repr of the raw arena's
# decision_edges and observation_events items, in insertion order), for the
# models drawn in sequence from random.Random(10) with RANDGEN_CONFIG.
RANDGEN_CONFIG = RandomModelConfig(min_states=8, max_states=12, min_events=5, max_events=6)
RANDGEN_ARENA_DIGESTS = {
    (2, "observation"): (
        2065, "8313e2342cf5b4a29c4309b77c32307787f938e67319c856dfb9cc20da49d5b9"
    ),
    (2, "decision"): (
        4910, "b0e0b69b23c17ed0b6ab8edc263c368c39095f61ae359aa6819a827269d1934d"
    ),
    (17, "observation"): (
        681, "21dda336a902d29581b851e78589bf196e20040e8bdda8a1d0df94a8090eaee2"
    ),
    (17, "decision"): (
        1561, "14ea04c3e03d6676b97fb05eaf90c524cb77d22502dc9b314166e36c0ff8e131"
    ),
}


# (draw, mode) -> (states removed in each pruning round, sha256 of the
# pruning trace's repr), for the same randgen draws.  Draw 24 prunes to the
# empty arena.
RANDGEN_PRUNING_DIGESTS = {
    (19, "observation"): (
        (12, 10),
        "cc45e04136c9061d080add533e90ccb372c044702809a1402f1c3307e4345156",
    ),
    (19, "decision"): (
        (18, 15),
        "7371546807e4ddde9007f21cf1aac720dbdedd73d55e5b1f72f0a4f2d1d4326e",
    ),
    (24, "observation"): (
        (4, 4, 1),
        "d2d36f62eb3ab19021e62ca036732cc2bb6540280bc3a9b509d5d613085eb2a3",
    ),
    (24, "decision"): (
        (4, 4, 1),
        "d2d36f62eb3ab19021e62ca036732cc2bb6540280bc3a9b509d5d613085eb2a3",
    ),
}

# (mode, depth) -> sha256 of `export-dot --estimator` for run.json under
# srun.json.  The plant is acyclic and every string is at most 4 events
# long, so depth 6 renders the same graph as depth 4.
SLICE_DIGESTS = {
    ("observation", 4): "f730743aa39fbb64dde7b71e0fd4e2206b69d00ca16a05bf7d920b4b6ffb6fc1",
    ("observation", 6): "f730743aa39fbb64dde7b71e0fd4e2206b69d00ca16a05bf7d920b4b6ffb6fc1",
    ("decision", 4): "8a22a087868e8f1624ed154db27b9cb3ca03cd63930d56865faa9b7437b3f03b",
    ("decision", 6): "8a22a087868e8f1624ed154db27b9cb3ca03cd63930d56865faa9b7437b3f03b",
}


# The lines of scripts/arena_digest.py for randgen seed-10 draws 19 and 24
# followed by the first 60 small seed-7 models of its corpus.  Re-recorded
# when enumerate_all came to list a structure's observation states in
# first-reach order, as the other two policies do, instead of frozenset
# order; with those observations sorted, the digest is the same before and
# after that change.
ARENA_DIGEST_LINES = [
    "observation: d76e1501fe98a94dfd8818baa3dec30152d4f286bed5c0fb5dbe6bd1091df301",
    "decision: d79241be346a7400be31369e7b42161cd6784f9e8ffd99b9583f1084aa880879",
]
CLOSED_LOOP_DIGEST_LINE = (
    "closed-loop: 6a7dced68cff564bbacc0235ca903b0188274b167aa25fa25c640122a838877d"
)
# Recorded before the open-loop check moved from the model module onto the
# closed-loop search's nodes and verdict type.
OPEN_LOOP_DIGEST_LINE = (
    "open-loop: e590b3df050b8286f30b2d4ec59154e6d6cc9e77e0b74755c30b5b89694178a9"
)
# The lines of scripts/arena_digest.py for its whole corpus, but for the
# closed-loop line, which takes most of the script's time and is pinned for
# the slice above.
FULL_CORPUS_DIGEST_LINES = [
    "observation: 4af94405aef0ec4897a2f7579bf8cf423eaf27b343734a540da161b809796838",
    "decision: 64f1ccf358b3b655c75606863655156a1bf9852dc17a151e0b736f4136530cad",
]
FULL_CORPUS_OPEN_LOOP_DIGEST_LINE = (
    "open-loop: 042f973c407d9bd02a5d4191c4e72d75e89717d2d08e5a9d9b7c894194dd3190"
)
# The lines of scripts/arena_digest.py for the running example followed by
# randgen seed-10 draws 2 and 17, re-recorded for the same observation order
# as ARENA_DIGEST_LINES.
DOT_PINNED_ARENA_DIGEST_LINES = [
    "observation: a72064e2ad08e65f3cd779974ef2fd841a7d1f0c8291f8ecb0058f41dcd1fe34",
    "decision: ac545f44fab7cd9bfd54d78cea8f07cfe40cc7b9c0e5d53f8e4580d0274c495d",
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _randgen_model(draw: int):
    rng = random.Random(10)
    return [random_model(rng, RANDGEN_CONFIG) for _ in range(draw + 1)][draw]


@pytest.mark.parametrize("mode, policy", sorted(SYNTHESIZE_DIGESTS))
def test_synthesize_artifacts_are_byte_identical(tmp_path, mode, policy):
    out, dot = tmp_path / "s.json", tmp_path / "s.dot"
    argv = ["synthesize", RUN, "--mode", mode, "--policy", policy,
            "--out", str(out), "--dot", str(dot)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert (sha256(out.read_bytes()), sha256(dot.read_bytes())) == (
        SYNTHESIZE_DIGESTS[(mode, policy)]
    )
    manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
    assert manifest["config"] == {"mode": mode, "policy": policy, "size_guard": 10**6}


@pytest.mark.parametrize("draw, mode", sorted(RANDGEN_ARENA_DIGESTS))
def test_randgen_raw_arena_is_byte_identical(draw, mode):
    arena = expand_arena(_randgen_model(draw), SynthesisConfig(mode=IssuanceMode(mode)))
    views = (list(arena.decision_edges.items()), list(arena.observation_events.items()))
    assert (arena.n_states, sha256(repr(views).encode())) == (
        RANDGEN_ARENA_DIGESTS[(draw, mode)]
    )


@pytest.mark.parametrize("draw, mode", sorted(RANDGEN_PRUNING_DIGESTS))
def test_randgen_pruned_arena_and_trace_are_byte_identical(draw, mode):
    arena = expand_arena(_randgen_model(draw), SynthesisConfig(mode=IssuanceMode(mode)))
    pruned = prune_incomplete(arena)
    trace = pruned.pruning_trace
    assert (
        tuple(len(batch) for batch in trace),
        sha256(repr(trace).encode()),
    ) == RANDGEN_PRUNING_DIGESTS[(draw, mode)]


@pytest.fixture(scope="module")
def arena_digest():
    """``scripts/arena_digest.py`` as a module."""
    path = REPO_ROOT / "scripts" / "arena_digest.py"
    spec = importlib.util.spec_from_file_location("arena_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_arena_digest_of_the_dot_pinned_arenas_is_unchanged(arena_digest, run_model):
    """The running example and seed-10 draws 2 and 17, once pinned by their
    arena DOT: raw and pruned arenas with their dict orders, pruning traces,
    the structures of all three policies and size-guard trip points."""
    models = [run_model, _randgen_model(2), _randgen_model(17)]
    assert arena_digest.digest(models) == DOT_PINNED_ARENA_DIGEST_LINES


@pytest.fixture(scope="module")
def corpus_slice(arena_digest):
    """The corpus slice that the pins of ``scripts/arena_digest.py`` cover:
    seed-10 draws 19 and 24 and the first 60 small models."""
    small = random.Random(7)
    models = [_randgen_model(19), _randgen_model(24)] + [
        random_model(small, arena_digest.SMALL_CONFIG) for _ in range(60)
    ]
    return arena_digest, models


def test_arena_digest_of_a_corpus_slice_is_unchanged(corpus_slice):
    """Raw and pruned arenas with their dict orders, pruning traces, the
    structures of all three policies and size-guard trip points."""
    arena_digest, models = corpus_slice
    assert arena_digest.digest(models) == ARENA_DIGEST_LINES


def test_closed_loop_digest_of_a_corpus_slice_is_unchanged(corpus_slice):
    """Each structure of the slice re-derived from its decoded policy and
    verified, in both modes, with counterexamples and error texts."""
    arena_digest, models = corpus_slice
    assert arena_digest.closed_loop_digest(models) == CLOSED_LOOP_DIGEST_LINE


def test_open_loop_digest_of_a_corpus_slice_is_unchanged(corpus_slice):
    """Each model's open-loop verdict with its witness observation."""
    arena_digest, models = corpus_slice
    assert arena_digest.open_loop_digest(models) == OPEN_LOOP_DIGEST_LINE


def test_arena_and_open_loop_digests_of_the_full_corpus_are_unchanged(arena_digest):
    """The lines of ``scripts/arena_digest.py`` for all 425 models of its
    corpus, seed-10 draws 1-25 included, but for the closed-loop line."""
    models = arena_digest.corpus()
    assert arena_digest.digest(models) == FULL_CORPUS_DIGEST_LINES
    assert arena_digest.open_loop_digest(models) == FULL_CORPUS_OPEN_LOOP_DIGEST_LINE


@pytest.mark.parametrize("mode, depth", sorted(SLICE_DIGESTS))
def test_estimator_slice_dot_is_byte_identical(mode, depth):
    stdout = io.StringIO()
    argv = ["export-dot", RUN, "--estimator", "--supervisor", SRUN,
            "--mode", mode, "--depth", str(depth)]
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    assert sha256(stdout.getvalue().encode()) == SLICE_DIGESTS[(mode, depth)]


def test_step_undefined_and_disabled_is_reported_as_undefined(run_model, srun):
    """After ``a u2`` the plant is in state 3, where ``u3`` is undefined, and
    ``srun`` has switched to {a, b, u1}, which disables it.  The plant check
    comes first."""
    m = run_model
    word = m.word("a u2 u3")
    result = closed_loop_simulate(m, srun, word)
    assert (result.accepted, result.rejected_at, result.reason) == (
        False, 2, "event undefined in plant"
    )
    with pytest.raises(SupervisionError) as exc:
        augment(m, word, srun)
    assert exc.value.position == 2
    assert str(exc.value) == "event undefined in plant (position 2)"
    with pytest.raises(SupervisionError, match="disabled by supervisor"):
        augment(m, m.word("a u1 u3"), srun)  # u3 is defined at state 2
