"""Tests of the benchmark itself, in smoke mode.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    return last_json(run_bench("--smoke"))


def test_smoke_runs_every_workload_untraced_and_traced(smoke):
    assert set(smoke) == {"correct", "attempted", "failed", "metrics"}
    assert smoke["correct"] and smoke["failed"] == 0 and smoke["attempted"] > 0
    expected = {
        f"{w['name']}.trace{trace}.{m['name']}": m["unit"]
        for w in SPEC["workloads"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer"))
        for m in SPEC[group]
    }
    assert {key: value["unit"] for key, value in smoke["metrics"].items()} == expected


def test_rejection_bypasses_tree_and_split_search(smoke):
    for name in ("splitting.candidate_splits.calls", "tree.grow.calls", "datasets.subset.calls"):
        assert smoke["metrics"][f"rejection.trace1.{name}"]["value"] == 0


def test_traced_counts_repeat_exactly(smoke):
    again = last_json(run_bench("--smoke"))
    counts = {key for key, value in smoke["metrics"].items() if value["unit"] == "count"}
    assert counts
    assert {k: smoke["metrics"][k] for k in counts} == {k: again["metrics"][k] for k in counts}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "fit_large", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
