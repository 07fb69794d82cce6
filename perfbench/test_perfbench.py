"""Smoke test of the benchmark: every workload path at toy size, in seconds.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import pytest

import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# counts that must repeat exactly from one traced run to the next
STABLE_COUNTS = [
    "extremals.seed.calls",
    "extremals.sweep.calls",
    "extremals.sweep.seeds",
    "reachset.refine.rounds",
    "reachset.unfilled_pairs",
    *(f"extremals.sweep.failed.{r}" for r in [*tracing.FAIL_REASONS.values(), "other"]),
]


def _bench(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def _smoke(workload, trace, seed=5, detail=False):
    done = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--size", "smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return (json.loads(lines[-2])["detail"], result) if detail else result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    detail, result = _smoke(workload, trace, detail=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    reported = {"readout_s", "query_p50_us", "query_p99_us", "query_samples", "fail_frac",
                "output_mismatch_cells"}
    if workload == "replay":
        reported |= {"replay_err_max", "simulate_err_max"}
    assert set(detail["reported"]) == reported
    assert all(m["unit"] for m in detail["reported"].values())
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat():
    first, second = (_smoke("reach_movie", 1)["metrics"] for _ in range(2))
    assert {k: first[k]["value"] for k in STABLE_COUNTS} == {
        k: second[k]["value"] for k in STABLE_COUNTS
    }
    assert first["reachset.child_cover"]["value"] >= 85.0


def test_layer_map_covers_benchmark_json():
    assert list(tracing.LAYER_MOVES) == [m["name"] for m in SPEC["per_layer"]]


def test_restore_puts_the_package_back():
    run._import_package()
    from qubit_reach import extremals, reachset, table

    before = (extremals.seed, table.query, reachset.ReachSweep.__dict__["_pair_gaps"])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert extremals.seed is not before[0]
    tracer.restore()
    after = (extremals.seed, table.query, reachset.ReachSweep.__dict__["_pair_gaps"])
    assert after == before


def test_a_removed_layer_is_skipped():
    owner = types.SimpleNamespace()
    tracer = tracing.Tracer()
    tracer.wrap(owner, "renamed_away", "gone")
    tracer.count_failures(owner, "renamed_away")
    assert vars(owner) == {} and tracer.spans == []


def test_fails_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench("--workload", "replay", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
