"""Fast checks of the benchmark itself at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import laptail
import laptail.logtrack
from perfbench import harness
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# (n, pool) small enough to run in a fraction of a second, large enough that
# each workload still reaches the layers it is meant to exercise.
TINY = {"mg1-small": (300, 8),
        "decompound-mix": (2000, 6), "study-table2": (500, 1)}

PER_LAYER = {entry["name"] for entry in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
END_TO_END = {entry["name"] for entry in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def tiny(name):
    n, pool = TINY[name]
    return dataclasses.replace(WORKLOADS[name], n=n, pool=pool, err_limit=math.inf)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_bit_for_bit(name):
    workload = tiny(name)
    plain = harness.run(workload, seed=3, seconds=0.0, trace=False)
    traced = harness.run(workload, seed=3, seconds=1.0, trace=True)
    again = harness.run(workload, seed=3, seconds=0.0, trace=True)
    for record in (plain, traced, again):
        assert record["correct"], record["problems"]
        assert record["failed"] == 0 and record["checks"]["error_frac"] == 0.0
    assert set(plain["metrics"]) == END_TO_END
    assert set(traced["metrics"]) == PER_LAYER
    assert traced["checks"]["output_digest"] == plain["checks"]["output_digest"]
    assert len(traced["passes"]) >= 2
    # computed counts repeat exactly for the same seed
    assert traced["passes"][0]["counts"] == again["passes"][0]["counts"]
    assert laptail.estimate_cdf_batch is laptail.estimator.estimate_cdf_batch
    assert laptail.estimate_cdf_batch.__name__ == "estimate_cdf_batch"
    assert not hasattr(laptail.estimate_cdf_batch, "__wrapped__")


def test_tracer_fails_when_a_metric_span_is_gone(monkeypatch):
    monkeypatch.delattr(laptail.logtrack, "track_log")
    with pytest.raises(RuntimeError, match="logtrack.track_log"):
        Tracer()


def test_wrong_output_counts_as_failed():
    workload = dataclasses.replace(
        tiny("mg1-small"), run=lambda calls: [[r for r in out[:-1]]
                                              for out in WORKLOADS["mg1-small"].run(calls)])
    record = harness.run(workload, seed=3, seconds=0.0, trace=False)
    assert not record["correct"]
    assert record["failed"] == record["attempted"]


def test_command_prints_result_last_and_fails_without_the_library(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mg1-small",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bare = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mg1-small",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert bare.returncode != 0
    assert '"correct"' not in bare.stdout
