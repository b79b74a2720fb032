"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from spans import Tracer, is_count, metric_units  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


BENCH = _load(os.path.join(ROOT, "BENCHMARK.json"))
BASELINE = _load(os.path.join(HERE, "baseline.json"))


def test_benchmark_json_names_what_the_benchmark_reports():
    from run import E2E_UNITS

    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == metric_units()
    assert set(BASELINE["workloads"]) == set(WORKLOADS)


def test_sweep_reference_digests_are_the_golden_hashes():
    with open(os.path.join(ROOT, "tests", "test_lab.py")) as fh:
        source = fh.read()
    golden = dict(re.findall(r'(GOLDEN_SWEEP_(?:CSV|JSON)_SHA) = "([0-9a-f]{64})"', source))
    recorded = BASELINE["workloads"]["sweep"]["digests"]["reference"]
    assert recorded == {
        "reference.csv": golden["GOLDEN_SWEEP_CSV_SHA"],
        "reference.json": golden["GOLDEN_SWEEP_JSON_SHA"],
    }


def _traced_counts(workload: str, tmp_path, tag: str) -> dict:
    from transtile import lab

    doc = WORKLOADS[workload].configs(DEFAULT_SEED)["seeded"]
    config = lab.ExperimentConfig.from_json_dict(doc, base_dir=str(tmp_path / tag))
    os.makedirs(tmp_path / tag)
    with Tracer() as tracer:
        lab.run(config)
    return {k: v for k, v in tracer.values().items() if is_count(k) and k != "lab.workers"}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_work_counts_repeat_across_runs_and_worker_counts(workload, tmp_path, monkeypatch):
    monkeypatch.delenv("LAB_THREADS", raising=False)
    first = _traced_counts(workload, tmp_path, "a")
    second = _traced_counts(workload, tmp_path, "b")
    monkeypatch.setenv("LAB_THREADS", "1")
    serial = _traced_counts(workload, tmp_path, "c")
    assert first == second == serial
    assert first["lab.run.calls"] == 1
    # the tracer restored every wrapped function on exit
    from transtile import lab, tiling

    assert lab.exact_transversal_factor_search is tiling.exact_transversal_factor_search
    assert not hasattr(lab.run, "__wrapped__")


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "refute", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
