"""The catalogue of ``scripts/mutants.py`` matches the code: each mutant's
old text occurs exactly once in its module, and the tests it names exist,
so a mutant cannot silently stop applying when the code it mutates moves.
The mutants themselves run in ``scripts/mutants.py``, not here."""

import shutil
import sys

from conftest import REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "scripts"))

import mutants  # noqa: E402


def test_every_catalogue_text_occurs_once_in_its_module():
    assert mutants.catalogue_errors(REPO_ROOT) == []
    assert {m.module for m in mutants.CATALOGUE} == {
        "synthesis.py", "structure.py", "supervisors.py", "cli.py"
    }
    assert [m.name for m in mutants.CATALOGUE if m.equivalent] == [
        "_intern's revealing test given an extra `and q`"
    ]


def test_a_text_that_moved_or_doubled_is_reported(tmp_path):
    """A tree where one mutant's text occurs twice and another's not at
    all fails the check, naming both mutants."""
    shutil.copytree(REPO_ROOT / "src", tmp_path / "src")
    shutil.copytree(REPO_ROOT / "tests", tmp_path / "tests")
    first, second = mutants.CATALOGUE[0], mutants.CATALOGUE[-1]
    for mutant, text in ((first, first.old * 2), (second, "")):
        path = tmp_path / "src" / "opactrl" / mutant.module
        path.write_text(path.read_text().replace(mutant.old, text))
    assert mutants.catalogue_errors(tmp_path) == [
        f"{first.name}: old text occurs 2 times in {first.module}",
        f"{second.name}: old text occurs 0 times in {second.module}",
    ]
