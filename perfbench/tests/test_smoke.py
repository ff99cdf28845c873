"""Smoke test of the benchmark: every workload runs on tiny twins and
reports every metric BENCHMARK.json names, with its unit.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import twins  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_reported_with_its_unit(workload, trace, section):
    proc = run_bench(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(twins.TABLE1))
def test_twin_hits_table1_row_exactly(name):
    n, n_links, n_contacts = twins.TABLE1[name]
    for seed in (0, 1):
        twin = twins.make_twin(n, n_links, n_contacts, np.random.default_rng(seed))
        nodes = np.unique(np.concatenate([twin.rows, twin.cols]))
        assert (nodes.size, twin.n_links, twin.n_contacts) == (n, n_links, n_contacts)
        assert np.all(twin.rows < twin.cols) and np.all(twin.counts >= 1)


def test_twin_is_a_function_of_its_seed(tmp_path):
    logs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        twins.write_twin(tmp_path / sub, 40, 160, 2000, seed=(5, 1))
        logs.append((tmp_path / sub / "contacts.log").read_bytes())
    assert logs[0] == logs[1] and len(logs[0].splitlines()) == 2000


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/, the run exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "pipeline_hs13", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
