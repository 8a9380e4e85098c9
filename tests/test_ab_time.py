"""``scripts/ab_time.py`` on the benchmark's ops at toy scale: an A/A run
prints every row, and a tree whose artifacts differ by one byte stops it
before any timing."""

import shutil
import sys

import pytest

from conftest import REPO_ROOT

sys.path[:0] = [str(REPO_ROOT / "scripts"), str(REPO_ROOT / "perfbench")]

import ab_time  # noqa: E402
import workloads  # noqa: E402

ROWS = ["synthesize", "cli.main", "cli p50", "cli p90", "verify",
        "mixed", "mixed p50", "mixed p90", "search", "load"]


@pytest.fixture(autouse=True)
def toy_scale(monkeypatch):
    monkeypatch.setattr(workloads, "FULL", workloads.TOY)


def test_a_tree_against_itself_prints_every_row(capsys):
    assert ab_time.main([str(REPO_ROOT), str(REPO_ROOT), "--rounds", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line[:13].rstrip() for line in lines if " ms  old " in line] == ROWS


def test_a_tree_whose_dot_output_differs_is_refused(tmp_path, capsys):
    src = tmp_path / "src"
    shutil.copytree(REPO_ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    dot = src / "opactrl" / "dot.py"
    text = dot.read_text()
    assert text.count('"digraph structure {"') == 1
    dot.write_text(text.replace('"digraph structure {"', '"digraph  structure {"'))
    assert ab_time.main([str(REPO_ROOT), str(tmp_path), "--rounds", "20"]) == 1
    captured = capsys.readouterr()
    assert " ms  old " not in captured.out
    assert captured.err.startswith("error: synth-random: new tree: synth/r01/")
