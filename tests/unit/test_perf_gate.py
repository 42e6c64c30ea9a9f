"""Unit tests for the decision rule of the perf gate (``tools/perf_gate.py``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "perf_gate", REPO_ROOT / "tools" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_gate)

WORKLOADS = ("serve_inproc", "cluster_ingest", "pipeline_windowed")
BOUNDS = {"ingest_rows_per_s": 0.25, "ops_ok_ratio": 0.01}


def run(ingest=1.0e6, ok=1.0, *, correct=True, returncode=0, p50=0.5):
    return {
        "returncode": returncode,
        "correct": correct,
        "metrics": {"ingest_rows_per_s": ingest, "ops_ok_ratio": ok, "query_p50_ms": p50},
    }


def sides(parent, change):
    return {"parent": list(parent), "change": list(change)}


def equal_runs(pairs=5):
    # Drifting levels, identical on both sides of each pair.
    levels = [1.0e6 * (1 + 0.2 * i) for i in range(pairs)]
    return {
        workload: sides([run(level) for level in levels], [run(level) for level in levels])
        for workload in WORKLOADS
    }


class TestDecide:
    def test_equal_samples_pass(self):
        assert perf_gate.decide(equal_runs(), WORKLOADS, BOUNDS) == []

    def test_ingest_drop_fails_and_names_the_workload(self):
        runs = equal_runs()
        parent = runs["cluster_ingest"]["parent"]
        runs["cluster_ingest"] = sides(
            parent, [run(0.7 * p["metrics"]["ingest_rows_per_s"]) for p in parent]
        )
        failures = perf_gate.decide(runs, WORKLOADS, BOUNDS)
        assert len(failures) == 1
        assert failures[0].startswith("cluster_ingest:")
        assert "ingest_rows_per_s" in failures[0]

    def test_drop_within_the_bound_passes(self):
        runs = equal_runs()
        parent = runs["serve_inproc"]["parent"]
        runs["serve_inproc"] = sides(
            parent, [run(0.8 * p["metrics"]["ingest_rows_per_s"]) for p in parent]
        )
        assert perf_gate.decide(runs, WORKLOADS, BOUNDS) == []

    def test_incorrect_run_fails(self):
        runs = equal_runs()
        runs["pipeline_windowed"]["change"][2] = run(correct=False, returncode=1)
        failures = perf_gate.decide(runs, WORKLOADS, BOUNDS)
        assert failures == [
            "pipeline_windowed: change run 3 failed (exit 1, correct False)"
        ]

    def test_correct_false_with_exit_zero_still_fails(self):
        runs = equal_runs()
        runs["serve_inproc"]["parent"][0] = run(correct=False)
        failures = perf_gate.decide(runs, WORKLOADS, BOUNDS)
        assert len(failures) == 1 and "parent run 1 failed" in failures[0]

    def test_lower_ops_ok_ratio_fails(self):
        runs = equal_runs()
        runs["cluster_ingest"] = sides(
            runs["cluster_ingest"]["parent"],
            [run(p["metrics"]["ingest_rows_per_s"], ok=0.97)
             for p in runs["cluster_ingest"]["parent"]],
        )
        failures = perf_gate.decide(runs, WORKLOADS, BOUNDS)
        assert len(failures) == 1
        assert failures[0].startswith("cluster_ingest:") and "ops_ok_ratio" in failures[0]

    def test_workload_missing_from_one_side_fails(self):
        runs = equal_runs()
        runs["pipeline_windowed"] = {"parent": runs["pipeline_windowed"]["parent"]}
        del runs["cluster_ingest"]
        failures = perf_gate.decide(runs, WORKLOADS, BOUNDS)
        assert [failure.split(":")[0] for failure in failures] == [
            "cluster_ingest",
            "pipeline_windowed",
        ]
        assert "5 parent and 0 change runs" in failures[1]

    def test_unequal_pair_counts_fail(self):
        runs = equal_runs()
        runs["serve_inproc"]["change"].pop()
        failures = perf_gate.decide(runs, WORKLOADS, BOUNDS)
        assert failures and failures[0].startswith("serve_inproc:")


class TestReport:
    def test_ratio_is_the_median_of_paired_ratios(self):
        parent = [run(100.0), run(200.0), run(400.0)]
        change = [run(110.0), run(180.0), run(400.0)]
        assert perf_gate.paired_ratios(parent, change, "ingest_rows_per_s") == [1.1, 0.9, 1.0]
        table = perf_gate.report(
            {"serve_inproc": sides(parent, change)}, ["serve_inproc"],
            ["ingest_rows_per_s", "query_p50_ms"],
        )
        ingest_row = next(line for line in table.splitlines() if "ingest_rows_per_s" in line)
        assert ingest_row.split()[2:] == ["200", "180", "1", "*"]

    def test_failed_runs_drop_out_of_the_ratios(self):
        parent = [run(100.0), {"returncode": 1, "correct": False, "metrics": {}}]
        change = [run(90.0), run(100.0)]
        assert perf_gate.paired_ratios(parent, change, "ingest_rows_per_s") == [0.9]


def test_gated_metrics_have_bounds_in_benchmark_json():
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry.get("bound") for entry in declared["end_to_end"]}
    for metric in perf_gate.GATED:
        assert isinstance(bounds.get(metric), float)
