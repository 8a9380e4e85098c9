"""A mutation gate for the kernel, the searches, pruning and extraction,
the table policy and ``export-dot``'s members check.

Each catalogued mutant replaces one exact text of a module under
``src/opactrl`` with another.  The script applies each mutant in a copy of
the repository under a temporary directory and runs ``pytest -x -q`` on the
tests named for it there.  A mutant is killed when those tests fail; one
that passes them survives.  A mutant marked ``equivalent`` cannot change a
result, and the reason says why: its survival is expected.

    python3 scripts/mutants.py

prints one line per mutant.  It exits 0 when every mutant that is not
marked equivalent is killed, 1 when one survives or one marked equivalent
is killed, and 2 when a catalogue text does not occur exactly once in its
module or pytest cannot run the named tests.  ``tests/test_mutants.py``
checks the catalogue's texts with the other tests, so that the catalogue
breaks loudly when the code moves.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # under src/opactrl
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str | None = None  # why no test can kill it


# What the copy of the repository leaves out.
SKIPPED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", "build", ".perfbench-*")

SYN, STR, SUP, CLI = "synthesis.py", "structure.py", "supervisors.py", "cli.py"
T_SYN, T_STR, T_CLI = "tests/test_synthesis.py", "tests/test_structure.py", "tests/test_cli.py"

CATALOGUE = (
    Mutant(
        "release table swapped",
        STR,
        "(released(model, sigma, True, mode), released(model, sigma, False, mode))",
        "(released(model, sigma, False, mode), released(model, sigma, True, mode))",
        (T_STR,),
    ),
    Mutant(
        "table search's release index flipped",
        STR,
        "elif release[sigma][gamma == old]:",
        "elif release[sigma][gamma != old]:",
        (T_STR,),
    ),
    Mutant(
        "table search's reach-plus under the new decision",
        STR,
        "estimate = close(plus(q, old), gamma, hidden)",
        "estimate = close(plus(q, gamma), gamma, hidden)",
        (T_STR,),
    ),
    Mutant(
        "table search closes a seen step under the old decision",
        STR,
        "estimate = close(step_reach(q, sigma), gamma, hidden)",
        "estimate = close(step_reach(q, sigma), old, hidden)",
        (T_STR,),
    ),
    Mutant(
        "table search's silent step moves the estimate",
        STR,
        """            else:
                estimate = q
""",
        """            else:
                estimate = plus(q, old)
""",
        (T_STR,),
    ),
    Mutant(
        "table search guard at >=",
        STR,
        """len(seen) > size_guard:
                    raise SizeGuardExceeded(size_guard, None, len(seen), search)""",
        """len(seen) >= size_guard:
                    raise SizeGuardExceeded(size_guard, None, len(seen), search)""",
        (T_STR, T_CLI),
    ),
    Mutant(
        "structure walk guard at >=",
        STR,
        """len(seen) > size_guard:
                    raise SizeGuardExceeded(size_guard, None, len(seen), "closed-loop walk")""",
        """len(seen) >= size_guard:
                    raise SizeGuardExceeded(size_guard, None, len(seen), "closed-loop walk")""",
        (T_CLI,),
    ),
    Mutant(
        "open-loop guard at >=",
        STR,
        """len(seen) > size_guard:
                    raise SizeGuardExceeded(size_guard, None, len(seen), "open-loop search")""",
        """len(seen) >= size_guard:
                    raise SizeGuardExceeded(size_guard, None, len(seen), "open-loop search")""",
        (T_CLI,),
    ),
    Mutant(
        "structure walk tests safety only at its start",
        STR,
        "if not kernel.is_safe(cores):",
        "if not kernel.is_safe(cores) and (state, old, cores) == start:",
        (T_STR,),
    ),
    Mutant(
        "structure walk skips the members comparison",
        STR,
        "if own and state != kernel.info_of(old, cores):",
        "if False and state != kernel.info_of(old, cores):",
        (T_CLI,),
    ),
    Mutant(
        "TabularSupervisor starts off the table",
        SUP,
        """    def start(self):
        return ()""",
        """    def start(self):
        return None""",
        (f"{T_STR}::test_verify_closed_loop_examples",),
    ),
    Mutant(
        "export-dot draws a structure without the members check",
        CLI,
        "verify_closed_loop_opacity(model, structure, structure.mode)",
        "pass",
        (f"{T_CLI}::test_cli_export_dot_refuses_a_structure_whose_members_are_false",),
    ),
    Mutant(
        "expansion guard at >=",
        SYN,
        "if n_decision + n_observation > size_guard:",
        "if n_decision + n_observation >= size_guard:",
        (T_SYN,),
    ),
    Mutant(
        "locally_maximal filter weakened",
        SYN,
        "if not any(g | m == m for m in maximal):",
        "if not any(g | m == m for m in maximal[:1]):",
        (T_SYN,),
    ),
    Mutant(
        "extraction cuts the rows under first_feasible instead",
        SYN,
        'if policy == "locally_maximal":',
        'if policy == "first_feasible":',
        (T_SYN,),
    ),
    Mutant(
        "pruning's o >= 0 as o > 0",
        SYN,
        "if o >= 0 and not removed_o[o]:",
        "if o > 0 and not removed_o[o]:",
        (T_SYN,),
    ),
    Mutant(
        "closure hides intruder-visible events",
        STR,
        "seen_by_intruder = sigma if visible & low else None",
        "seen_by_intruder = None",
        (T_STR,),
    ),
    Mutant(
        "_ReachMemo always misses",
        STR,
        "out = self._observable.get(key)",
        "out = None",
        (T_STR,),
    ),
    Mutant(
        "a fresh row table per call",
        STR,
        "table = self._tables.get(key)",
        "table = None",
        (T_STR,),
    ),
    Mutant(
        "_intern's revealing test given an extra `and q`",
        STR,
        "if not q & ~self.model.secret_mask:",
        "if not q & ~self.model.secret_mask and q:",
        (T_STR,),
        equivalent="an estimate the kernel interns holds its core's plant state",
    ),
    Mutant(
        "a dying row removes only its first user",
        SYN,
        "next_d.extend(users[r])",
        "next_d.extend(users[r][:1])",
        (T_SYN,),
    ),
    Mutant(
        "pruning starts from one user per empty row",
        SYN,
        "if not out for d in users[r]]",
        "if not out for d in users[r][:1]]",
        (T_SYN,),
    ),
    Mutant(
        "a row's live count one short",
        SYN,
        "live = [len(out) for out in rows]",
        "live = [len(out) - 1 for out in rows]",
        (T_SYN,),
    ),
    Mutant(
        "a surviving row left unfiltered",
        SYN,
        "out = kept_rows[r] = tuple(edge for edge in rows[r] if not removed_o[edge[1]])",
        "out = kept_rows[r] = rows[r]",
        (T_SYN,),
    ),
    Mutant(
        "old's edge reads its class column",
        SYN,
        "t = row[-1 if gamma == own else column]",
        "t = row[column]",
        (T_SYN,),
    ),
)


def catalogue_errors(root: Path = REPO) -> list[str]:
    """What is wrong with the catalogue against the tree at ``root``: an
    ``old`` text that does not occur exactly once in its module, a mutant
    that changes nothing, or a named test file that is not there."""
    errors = []
    names = [m.name for m in CATALOGUE]
    if len(set(names)) != len(names):
        errors.append("two mutants share a name")
    for m in CATALOGUE:
        count = (root / "src" / "opactrl" / m.module).read_text().count(m.old)
        if count != 1:
            errors.append(f"{m.name}: old text occurs {count} times in {m.module}")
        if m.new == m.old:
            errors.append(f"{m.name}: new text equals old text")
        for test in m.tests:
            if not (root / test.split("::")[0]).is_file():
                errors.append(f"{m.name}: no test file {test}")
    return errors


def run(mutant: Mutant) -> tuple[int, float]:
    """Apply ``mutant`` in a copy of the repository and run its tests
    there: pytest's exit code and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(*SKIPPED))
        path = copy / "src" / "opactrl" / mutant.module
        path.write_text(path.read_text().replace(mutant.old, mutant.new, 1))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return done.returncode, time.perf_counter() - start


def main() -> int:
    errors = catalogue_errors()
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        return 2
    status = 0
    for mutant in CATALOGUE:
        code, seconds = run(mutant)
        if code == 1:
            verdict = "killed"
            if mutant.equivalent:
                verdict += ", but marked equivalent"
                status = max(status, 1)
        elif code == 0:
            verdict = "survived"
            if mutant.equivalent:
                verdict += f", equivalent: {mutant.equivalent}"
            else:
                status = max(status, 1)
        else:
            verdict = f"error: pytest exited {code}"
            status = 2
        print(f"{mutant.module:14} {mutant.name}: {verdict} ({seconds:.1f} s)", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
