"""Smoke test of the benchmark harness at toy sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._require_program()

from workloads import TOY, WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_workloads_match_the_spec():
    # prune-chain runs on request but is left out of the gated set (README.md).
    assert sorted(WORKLOADS) == sorted([w["name"] for w in SPEC["workloads"]] + ["prune-chain"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run.run_workload(workload, seed=3, seconds=0.0, trace=trace, scale=TOY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_corrupted_pinned_digest_counts_as_failure():
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    key, artifact = "synth/r01/observation", "out/r01-observation.json"
    assert artifact in pins[key]
    pins[key] = {**pins[key], artifact: "0" * 64}
    result = run.run_workload("synth-random", seed=3, seconds=0.0, trace=False,
                              scale=TOY, pins=pins)
    # The corrupted op fails on every pass; nothing else fails.
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2


def test_artifact_from_an_earlier_call_is_not_reused(tmp_path, monkeypatch):
    from opactrl import cli
    from workloads import Op

    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text((BENCH_DIR.parent / "models" / "run.json").read_text())
    argv = ["synthesize", "model.json", "--mode", "observation"]
    written, _ = run.invoke(cli, Op("a", argv + ["--out", "s.json"], ("s.json",)), None, 0)
    assert written.code == 0 and written.digests["s.json"] != "missing"
    # Same artifact path, but this call does not write it.
    unwritten, _ = run.invoke(cli, Op("b", argv, ("s.json",)), None, 0)
    assert unwritten.digests["s.json"] == "missing"
