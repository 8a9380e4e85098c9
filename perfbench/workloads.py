"""The benchmark's inputs, operations and correctness checks.

A workload's set-up writes model, policy and structure files into a work
directory and returns the list of CLI operations it will time.  Every
operation carries what makes its output checkable: a pin (exit code,
digest of the verdict text, SHA-256 of each artifact) and, where one
exists, an independent cross-check that does not trust the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from opactrl.estimator import AugmentedEvent, IssuanceMode, estimator_step, estimator_trace
from opactrl.model import PlantModel, iter_bits
from opactrl.randgen import RandomModelConfig, random_model, random_supervisor
from opactrl.serialize import structure_from_dict, structure_to_json
from opactrl.structure import DecodedSupervisor, closed_loop_simulate, verify_closed_loop_opacity
from opactrl.supervisors import Supervisor, TabularSupervisor
from opactrl.synthesis import SizeGuardExceeded, SynthesisConfig, synthesize

MODES = ("observation", "decision")

# The randgen corpus shared by synth-random and verify-mixed: draws in order
# from one fixed seed, so every run times the same models and their
# artifacts can be pinned.  Draw 0 of this seed (12 states, 5 events, 4
# controllable) takes about 11 s per mode, longer than half a run, so the
# timed corpus starts at draw 1; count_seed10.py measures draw 0 on its own.
CORPUS_SEED = 10
CORPUS_CONFIG = RandomModelConfig(min_states=8, max_states=12, min_events=5, max_events=6)

# Bound on string length for the independent search that backs an
# "opaque" verdict on a seeded supervisor table.
REPLAY_DEPTH = 4

# verify-mixed verifies structures of the first corpus models whose arena
# stays within this many states in both modes.  Larger arenas would make
# set-up, not verification, the bulk of the run.
STRUCTURE_ARENA_LIMIT = 500


@dataclass(frozen=True)
class Scale:
    corpus: int  # randgen draws after draw 0
    chains: tuple[int, ...]  # chain lengths n for prune-chain
    tables: int  # seeded supervisor tables per corpus model
    structures: int  # corpus models with synthesized structures


FULL = Scale(corpus=25, chains=(48, 64, 80, 96, 112, 128, 144, 160), tables=6, structures=8)
TOY = Scale(corpus=1, chains=(4, 6), tables=1, structures=1)


@dataclass
class Outcome:
    code: int | None
    stdout: str
    error: str | None  # traceback when the CLI raised
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class Op:
    key: str  # stable name, also the key of the op's pin
    argv: list[str]
    artifacts: tuple[str, ...] = ()
    pinned: bool = True
    cross_check: Callable[[Outcome], str | None] | None = None


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_WALL_TIME = re.compile(r"^\s*wall time: .*\n", re.MULTILINE)


def fingerprint(outcome: Outcome) -> dict:
    """What a pin records: exit code, verdict text (the synthesis report's
    wall-time line removed) and every artifact digest."""
    return {
        "exit": outcome.code,
        "stdout": sha256_text(_WALL_TIME.sub("", outcome.stdout)),
        **outcome.digests,
    }


class Checker:
    """Counts an op as failed when it raised, disagrees with its pin, or
    fails its cross-check.  Cross-checks run once per distinct outcome."""

    def __init__(self, pins: dict):
        self.pins = pins
        self._cross: dict[tuple[str, str], str | None] = {}

    def check(self, op: Op, outcome: Outcome) -> str | None:
        if outcome.error is not None:
            return f"{op.key}: raised\n{outcome.error}"
        got = fingerprint(outcome)
        if op.pinned:
            want = self.pins.get(op.key)
            if want != got:
                return f"{op.key}: pinned {want}, got {got}"
        elif outcome.code not in (0, 1):
            return f"{op.key}: unexpected exit code {outcome.code}"
        return self.cross_check(op, outcome)

    def cross_check(self, op: Op, outcome: Outcome) -> str | None:
        if op.cross_check is None:
            return None
        memo = (op.key, json.dumps(fingerprint(outcome), sort_keys=True))
        if memo not in self._cross:
            problem = op.cross_check(outcome)
            self._cross[memo] = None if problem is None else f"{op.key}: {problem}"
        return self._cross[memo]


# File helpers ------------------------------------------------------------


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def corpus(count: int) -> list[PlantModel]:
    rng = random.Random(CORPUS_SEED)
    draws = [random_model(rng, CORPUS_CONFIG) for _ in range(count + 1)]
    return draws[1:]


def fresh_dirs(work: Path) -> None:
    for name in ("models", "out"):
        (work / name).mkdir()


# Independent cross-checks ------------------------------------------------


def reveals(model: PlantModel, sup: Supervisor, word: tuple[int, ...], mode) -> bool:
    """Replay ``word`` through the closed loop and the intruder's estimator;
    True when the word is admitted and its final estimate is all secret."""
    sim = closed_loop_simulate(model, sup, word)
    if not sim.accepted:
        return False
    final = estimator_trace(model, sim.trace, mode)[-1]
    return not (final.estimate & ~model.secret_mask)


def bounded_reveal(model: PlantModel, sup: Supervisor, mode, depth: int):
    """Exhaustive search over closed-loop strings of at most ``depth``
    events, without the deduplication the verifier relies on.  Returns a
    revealing string or None."""
    m0 = estimator_step(model, None, AugmentedEvent(None, sup.decision(())), mode)
    stack = [(m0, (), ())]
    while stack:
        m, obs, word = stack.pop()
        if not (m.estimate & ~model.secret_mask):
            return word
        if len(word) == depth:
            continue
        for sigma in iter_bits(model.active(m.plant_state) & m.decision):
            if (model.supervisor_observable >> sigma) & 1:
                seen = obs + (sigma,)
                gamma = sup.decision(seen)
            else:
                seen, gamma = obs, m.decision
            nxt = estimator_step(model, m, AugmentedEvent(sigma, gamma), mode)
            stack.append((nxt, seen, word + (sigma,)))
    return None


def verify_verdict_check(model: PlantModel, sup: Supervisor, mode_name: str,
                         must_be_opaque: bool = False):
    """Cross-check of a ``verify`` verdict.  A counterexample must reveal the
    secret when replayed; an opaque verdict must survive a bounded
    exhaustive search."""
    mode = IssuanceMode(mode_name)

    def check(outcome: Outcome) -> str | None:
        # The verdict is the last line; a "model is not live" note may precede it.
        lines = outcome.stdout.splitlines()
        verdict = lines[-1] if lines else ""
        if outcome.code == 0:
            if verdict != f"opaque ({mode_name} mode)":
                return f"exit 0 with verdict {verdict!r}"
            word = bounded_reveal(model, sup, mode, REPLAY_DEPTH)
            if word is not None:
                names = " ".join(model.events[e] for e in word)
                return f"verdict opaque, but {names!r} reveals the secret"
            return None
        prefix = f"not opaque ({mode_name} mode); counterexample string:"
        if outcome.code != 1 or not verdict.startswith(prefix):
            return f"exit {outcome.code} with verdict {verdict!r}"
        if must_be_opaque:
            return "a synthesized structure is not opaque in its own mode"
        word = model.word(verdict[len(prefix):])
        if not reveals(model, sup, word, mode):
            return f"counterexample {verdict[len(prefix):].strip()!r} does not reveal"
        return None

    return check


def structure_check(model: PlantModel, out_path: Path, mode_name: str):
    """A synthesized structure must decode and verify opaque in its own mode."""

    def check(outcome: Outcome) -> str | None:
        if outcome.code != 0:
            return None
        structure = structure_from_dict(model, json.loads(out_path.read_text()))
        if structure.mode.value != mode_name:
            return f"structure written for mode {structure.mode.value}"
        if not verify_closed_loop_opacity(model, structure, structure.mode).opaque:
            return "synthesized structure is not opaque in its own mode"
        return None

    return check


_REPORT = {
    "before": re.compile(r"arena states before pruning: (\d+)"),
    "after": re.compile(r"arena states after pruning: (\d+)"),
    "iterations": re.compile(r"pruning iterations: (\d+)"),
}


def chain_check(n: int, escape: bool):
    """Closed form of the forced chain.  Without the escape the arena has
    2n-1 states, pruning peels one per iteration and no supervisor exists.
    With it (observation mode) the arena has 4n states, 2n iterations leave
    the two-state escape, and synthesis succeeds."""
    want_code, want = (0, {"before": 4 * n, "after": 2, "iterations": 2 * n}) if escape else (
        3, {"before": 2 * n - 1, "after": 0, "iterations": 2 * n - 1})

    def check(outcome: Outcome) -> str | None:
        got = {}
        for name, pattern in _REPORT.items():
            match = pattern.search(outcome.stdout)
            got[name] = int(match.group(1)) if match else None
        if outcome.code != want_code or got != want:
            return f"closed form exit {want_code} {want}, got exit {outcome.code} {got}"
        return None

    return check


def both(*checks):
    def check(outcome: Outcome) -> str | None:
        for c in checks:
            problem = c(outcome)
            if problem is not None:
                return problem
        return None

    return check


# Workloads -----------------------------------------------------------------


def setup_synth_random(work: Path, seed: int, scale: Scale, repo: Path) -> list[Op]:
    """``synthesize --out --dot`` on every corpus model in both modes."""
    fresh_dirs(work)
    ops = []
    for i, model in enumerate(corpus(scale.corpus), start=1):
        path = f"models/r{i:02d}.json"
        write_json(work / path, model.to_dict())
        for mode in MODES:
            out, dot = f"out/r{i:02d}-{mode}.json", f"out/r{i:02d}-{mode}.dot"
            ops.append(Op(
                key=f"synth/r{i:02d}/{mode}",
                argv=["synthesize", path, "--mode", mode, "--out", out, "--dot", dot],
                artifacts=(out, dot),
                cross_check=structure_check(model, work / out, mode),
            ))
    return ops


def chain_doc(n: int, escape: bool) -> dict:
    """An uncontrollable, supervisor-observable ``u`` chain s0..s(n-1) that
    ends in the intruder-visible reveal ``r`` into the secret state.  The
    escape variant enters the chain from a root through the controllable
    ``c``, which the supervisor can keep disabled."""
    states = [f"s{i}" for i in range(n)] + ["S"]
    transitions = [[states[i], "u", states[i + 1]] for i in range(n - 1)]
    transitions.append([states[n - 1], "r", "S"])
    events, controllable, observed = ["u", "r"], [], ["u"]
    if escape:
        states.insert(0, "root")
        transitions.insert(0, ["root", "c", "s0"])
        events, controllable, observed = ["c", "u", "r"], ["c"], ["c", "u"]
    return {
        "states": states,
        "events": events,
        "initial": states[0],
        "secret": ["S"],
        "transitions": transitions,
        "observable_supervisor": observed,
        "observable_intruder": ["r"],
        "controllable": controllable,
    }


def setup_prune_chain(work: Path, seed: int, scale: Scale, repo: Path) -> list[Op]:
    """``synthesize`` on forced-long chains: no escape in both modes, and the
    escape variant in observation mode (its decision-mode arena is
    quadratic in n)."""
    fresh_dirs(work)
    ops = []
    for n in scale.chains:
        for escape in (False, True):
            doc = chain_doc(n, escape)
            name = f"c{n}{'e' if escape else ''}"
            path = f"models/{name}.json"
            write_json(work / path, doc)
            for mode in (("observation",) if escape else MODES):
                argv = ["synthesize", path, "--mode", mode]
                artifacts: tuple[str, ...] = ()
                check = chain_check(n, escape)
                if escape:
                    out = f"out/{name}-{mode}.json"
                    argv += ["--out", out]
                    artifacts = (out,)
                    model = PlantModel.from_dict(doc)
                    check = both(check, structure_check(model, work / out, mode))
                ops.append(Op(f"chain/{name}/{mode}", argv, artifacts, cross_check=check))
    return ops


def setup_verify_mixed(work: Path, seed: int, scale: Scale, repo: Path) -> list[Op]:
    """Short ``verify`` operations in both modes over four kinds of input:
    the running example with its two policies, seeded supervisor tables,
    structures synthesized here, and the open loop."""
    fresh_dirs(work)
    ops: list[Op] = []

    def verify_both(key: str, model_path: str, model, sup, sup_path: str, pinned: bool,
                    own_mode: str | None = None):
        for mode in MODES:
            ops.append(Op(
                key=f"{key}/{mode}",
                argv=["verify", model_path, "--supervisor", sup_path, "--mode", mode],
                pinned=pinned,
                cross_check=verify_verdict_check(model, sup, mode, mode == own_mode),
            ))

    def add_structures(key: str, model_path: str, model: PlantModel) -> bool:
        """Synthesize and queue the model's structures; False when its arena
        exceeds the limit in some mode."""
        try:
            outcomes = {
                own: synthesize(model, SynthesisConfig(
                    IssuanceMode(own), "locally_maximal", STRUCTURE_ARENA_LIMIT))
                for own in MODES
            }
        except SizeGuardExceeded:
            return False
        for own, outcome in outcomes.items():
            if not outcome.solved:
                continue
            path = f"out/{key}-lm-{own}.json"
            (work / path).write_text(structure_to_json(outcome.structure))
            verify_both(f"verify/{key}/lm-{own}", model_path, model,
                        DecodedSupervisor(outcome.structure), path, True, own)
        return True

    for name in ("run", "srun", "sprime"):
        shutil.copyfile(repo / "models" / f"{name}.json", work / "models" / f"{name}.json")
    run = PlantModel.from_json((work / "models/run.json").read_text())
    ops.append(Op("verify/run/open-loop", ["verify", "models/run.json", "--open-loop"]))
    for name in ("srun", "sprime"):
        doc = json.loads((work / f"models/{name}.json").read_text())
        sup = TabularSupervisor(run, doc["table"], doc["default"])
        verify_both(f"verify/run/{name}", "models/run.json", run, sup,
                    f"models/{name}.json", True)
    add_structures("run", "models/run.json", run)

    rng = random.Random(seed)
    with_structures = 0
    for i, model in enumerate(corpus(scale.corpus), start=1):
        path = f"models/r{i:02d}.json"
        write_json(work / path, model.to_dict())
        ops.append(Op(f"verify/r{i:02d}/open-loop", ["verify", path, "--open-loop"]))
        for t in range(scale.tables):
            sup = random_supervisor(rng, model)
            table = f"models/r{i:02d}-t{t}.json"
            write_json(work / table, sup.to_dict())
            verify_both(f"verify/r{i:02d}/t{t}", path, model, sup, table, False)
        if with_structures < scale.structures:
            with_structures += add_structures(f"r{i:02d}", path, model)
    return ops


WORKLOADS: dict[str, Callable[[Path, int, Scale, Path], list[Op]]] = {
    "synth-random": setup_synth_random,
    "prune-chain": setup_prune_chain,
    "verify-mixed": setup_verify_mixed,
}
