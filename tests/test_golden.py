"""Byte-identity regression: SHA-256 digests of the artifacts produced for
the running example, recorded before the closed-loop walker, estimate update,
decision successor, numbering and DOT writers were each merged into one.
Any change to these bytes is a change to the artifact format."""

import contextlib
import hashlib
import io
import json

import pytest

from conftest import MODELS
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
from opactrl.dot import arena_to_dot

RUN = str(MODELS / "run.json")

# (mode, policy) -> (sha256 of --out bytes, sha256 of --dot bytes)
SYNTHESIZE_DIGESTS = {
    ("observation", "first_feasible"): (
        "dc8489842faeb98d716d8eafb40386854b33f75ecaffbdb139176b4d14736055",
        "9d4e0d2a7bf14d59a4f400e660f841212f36e42dd53a5edd77936877f3175ac5",
    ),
    ("observation", "locally_maximal"): (
        "53cf75151c552922c37a679feeeb75213d934a31d7dcb08e4bc76f1fba76787b",
        "8f65a3d8fd99050692061d1149edffa276c9a6dc66253015fb59ac49dcb36944",
    ),
    ("observation", "enumerate_all"): (
        "dc8489842faeb98d716d8eafb40386854b33f75ecaffbdb139176b4d14736055",
        "9d4e0d2a7bf14d59a4f400e660f841212f36e42dd53a5edd77936877f3175ac5",
    ),
    ("decision", "first_feasible"): (
        "2be8a3780276e3ec9908b2a5e9c46c3762bd29c7e7563dc670e0cc6758f7fccd",
        "9d4e0d2a7bf14d59a4f400e660f841212f36e42dd53a5edd77936877f3175ac5",
    ),
    ("decision", "locally_maximal"): (
        "91d015c6a9fe9292fd3625b417cca79dcaa4af412620ba018651b0a147907a27",
        "36e8810a3fecb1c3558305d0350f7e5d698ba43f37d95ba7e9c465505ccff99b",
    ),
    ("decision", "enumerate_all"): (
        "2be8a3780276e3ec9908b2a5e9c46c3762bd29c7e7563dc670e0cc6758f7fccd",
        "9d4e0d2a7bf14d59a4f400e660f841212f36e42dd53a5edd77936877f3175ac5",
    ),
}

# mode -> (sha256 of the raw arena with pruned states marked, of the pruned
# arena).  The decision-mode arena of the running example prunes nothing.
ARENA_DIGESTS = {
    "observation": (
        "054c875076fb7844c8b0e9b72f4384f10409ab28fe54c8413cee25ddd9192ae4",
        "2cab289a146291795f3102541b40412c8e9a81ae2963603f1e26a161d4a6a01f",
    ),
    "decision": (
        "3dc638174db0a8b52b2c058a235e6227c8a851a02c83fdedde3ed0e8643fbc67",
        "3dc638174db0a8b52b2c058a235e6227c8a851a02c83fdedde3ed0e8643fbc67",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


@pytest.mark.parametrize("mode", sorted(ARENA_DIGESTS))
def test_arena_dot_is_byte_identical(run_model, mode):
    arena = expand_arena(run_model, SynthesisConfig(mode=IssuanceMode(mode)))
    pruned = prune_incomplete(arena)
    removed = [s for batch in pruned.pruning_trace for s in batch]
    raw_dot = arena_to_dot(arena, pruned_states=removed)
    assert (sha256(raw_dot.encode()), sha256(arena_to_dot(pruned).encode())) == (
        ARENA_DIGESTS[mode]
    )


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
