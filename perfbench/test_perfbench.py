"""Reduced-size self-test of the benchmark.

    python3 -m pytest -q perfbench

Runs every workload at small sizes, traced and untraced, and checks that
each metric named in BENCHMARK.json is emitted with its unit, that every
output check passes, and that the untraced run never patches polarlab.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_polarlab()

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.CHECKOUT, "BENCHMARK.json"),
          encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

SMALL = {
    "mc_n256_scl32": workloads.MonteCarlo.Sizes(
        n=64, k=32, design_db=3.2, ebn0_db=3.2, list_size=4, frames=1024),
    "dataset_n64_scl4": workloads.Dataset.Sizes(
        count_d=2, target_errors=10, max_frames=4096),
    "surrogate_n64": workloads.Surrogate.Sizes(
        records=200, epochs=20, restarts=2, iterations=20,
        validate_frames=512, confirm_frames=1024),
}


def _wrapped_attributes():
    return {(m.__name__, a): getattr(m, a) for m, a, _, _ in tracer.WRAP_SITES}


def _check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert math.isfinite(metric["value"]), name


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_end_to_end_and_patches_nothing(name, monkeypatch):
    before = _wrapped_attributes()

    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    result, facts, used = run.run_workload(name, 3, 0.0, 0, SMALL[name],
                                           setup_s=0.5)
    assert used is None
    assert _wrapped_attributes() == before
    _check_result(result, SPEC["end_to_end"])
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_per_layer_and_restores(name):
    before = _wrapped_attributes()
    result, facts, used = run.run_workload(name, 3, 0.0, 1, SMALL[name])
    assert _wrapped_attributes() == before
    _check_result(result, SPEC["per_layer"])
    spans = used.spans
    assert spans and all(s.end >= s.start for s in spans)
    ids = {s.id for s in spans}
    assert all(s.parent is None or s.parent in ids for s in spans)
    # every pool-thread span hangs off the estimate_fer that started it
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and by_id[s.parent].thread != s.thread:
            assert by_id[s.parent].name == "channel.estimate_fer"
    assert result["metrics"]["trace.ops"]["value"] >= 1


def test_setup_s_times_fresh_processes():
    assert 0 < run.measure_setup_s("dataset_n64_scl4", 1) < 60


def test_fails_without_program_sources():
    bare = os.path.join(run.OUT_DIR, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.CHECKOUT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "surrogate_n64", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
