"""The benchmark's own tests: tiny-scale runs of every workload.

Run from the repository root::

    python3 -m pytest perfbench -q

Each test spawns ``perfbench/run.py`` exactly as the benchmark is run,
at a tiny dataset scale and a short time budget.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY_SCALE = {"diseasome-nt": "0.05", "countries-snap": "0.2", "stream-diseasome": "0.05"}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def run_bench(workload: str, trace: int, *extra: str, cwd: str = ROOT):
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--scale", TINY_SCALE[workload], *extra,
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return completed


def last_json(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_file_matches_run_py():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import run
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(TINY_SCALE))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = last_json(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize(
    "workload, rep",
    [
        ("countries-snap", 1),  # caught by the oracle comparison
        ("countries-snap", 2),  # caught by the SHA-256 of the verified output
        ("stream-diseasome", 2),  # caught by the batch check of the last document
    ],
)
def test_tampered_output_counts_as_failed(workload, rep):
    result = last_json(run_bench(workload, 0, "--tamper-rep", str(rep)))
    assert result["failed"] >= 1
    assert result["correct"] is False
    assert result["attempted"] >= result["failed"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = run_bench("countries-snap", 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
