#!/usr/bin/env python
"""Perf regression gate: paired perfbench runs of this tree against its parent.

Usage, from anywhere::

    python3 tools/perf_gate.py PARENT_DIR

``PARENT_DIR`` is a checkout of the parent commit; the tree holding this
script is the change.  For every workload in ``BENCHMARK.json`` the gate
runs ``perfbench/run.py`` in both trees for :data:`PAIRS` pairs and
alternates which tree goes first, so that the host's drift over minutes
falls on both sides alike.  Each run starts in its own tree, and
``run.py`` puts that tree's ``src/`` first on the path, so each side
measures its own code.

The gate exits 1 when

* any run exits non-zero or reports ``correct: false``;
* on any workload, the median over pairs of change/parent
  ``ingest_rows_per_s`` falls below ``1 - bound``;
* on any workload, the change's median ``ops_ok_ratio`` is more than its
  bound (relative) below the parent's.

It prints every end-to-end metric's parent and change medians and the
median paired ratio; only the two metrics above are gated.  Pairs,
seconds and seed are fixed here; with them a gate run took 281-312 s of
wall time on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Parent/change pairs per workload.
PAIRS = 5
#: Measured seconds of one perfbench run.
SECONDS = 4
#: Input seed of every run; both sides see the same inputs.
SEED = 7
#: The end-to-end metrics the gate fails on.
GATED = ("ingest_rows_per_s", "ops_ok_ratio")

#: One run: ``{"returncode": int, "correct": bool, "metrics": {name: value}}``.
Run = Dict[str, object]
#: Workload -> side ("parent" or "change") -> runs, pair i at index i.
Runs = Mapping[str, Mapping[str, Sequence[Run]]]


def run_once(tree: Path, workload: str) -> Run:
    """One untraced perfbench run of ``workload`` in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        record = {}
    if proc.returncode != 0 or not record.get("correct"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return {
        "returncode": proc.returncode,
        "correct": bool(record.get("correct")),
        "metrics": {
            name: float(entry["value"])
            for name, entry in record.get("metrics", {}).items()
        },
    }


def _values(runs: Sequence[Run], metric: str) -> List[float]:
    return [run["metrics"][metric] for run in runs if metric in run["metrics"]]


def paired_ratios(parent: Sequence[Run], change: Sequence[Run], metric: str) -> List[float]:
    """change/parent of ``metric`` for every pair where both sides report it."""
    return [
        c["metrics"][metric] / p["metrics"][metric]
        for p, c in zip(parent, change)
        if metric in p["metrics"] and metric in c["metrics"] and p["metrics"][metric]
    ]


def _median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def decide(runs: Runs, workloads: Sequence[str], bounds: Mapping[str, float]) -> List[str]:
    """Every reason the change fails the gate; an empty list passes.

    ``bounds`` maps each metric in :data:`GATED` to its relative bound.
    """
    failures: List[str] = []
    for workload in workloads:
        sides = runs.get(workload, {})
        parent, change = sides.get("parent", ()), sides.get("change", ())
        if not parent or not change or len(parent) != len(change):
            failures.append(
                f"{workload}: {len(parent)} parent and {len(change)} change runs; "
                "the gate needs the same non-zero number on each side"
            )
            continue
        for side, side_runs in (("parent", parent), ("change", change)):
            for index, run in enumerate(side_runs):
                if run["returncode"] != 0 or not run["correct"]:
                    failures.append(
                        f"{workload}: {side} run {index + 1} failed "
                        f"(exit {run['returncode']}, correct {run['correct']})"
                    )
        ingest = _median(paired_ratios(parent, change, "ingest_rows_per_s"))
        floor = 1.0 - bounds["ingest_rows_per_s"]
        if ingest is None:
            failures.append(f"{workload}: no pair reported ingest_rows_per_s")
        elif ingest < floor:
            failures.append(
                f"{workload}: median paired ingest_rows_per_s ratio {ingest:.3f} "
                f"is below {floor:.2f}"
            )
        parent_ok = _median(_values(parent, "ops_ok_ratio"))
        change_ok = _median(_values(change, "ops_ok_ratio"))
        if (
            parent_ok is None
            or change_ok is None
            or change_ok < parent_ok * (1.0 - bounds["ops_ok_ratio"])
        ):
            failures.append(
                f"{workload}: median ops_ok_ratio {change_ok} against the "
                f"parent's {parent_ok}"
            )
    return failures


def report(runs: Runs, workloads: Sequence[str], metrics: Sequence[str]) -> str:
    """A table of parent and change medians and the median paired ratio."""
    lines = [f"{'workload':<18} {'metric':<18} {'parent':>12} {'change':>12} {'ratio':>7}"]
    for workload in workloads:
        sides = runs.get(workload, {})
        parent, change = sides.get("parent", ()), sides.get("change", ())
        for metric in metrics:
            cells = [
                _median(_values(parent, metric)),
                _median(_values(change, metric)),
                _median(paired_ratios(parent, change, metric)),
            ]
            shown = ["-" if value is None else f"{value:.4g}" for value in cells]
            mark = " *" if metric in GATED else ""
            lines.append(
                f"{workload:<18} {metric:<18} {shown[0]:>12} {shown[1]:>12} "
                f"{shown[2]:>7}{mark}"
            )
    lines.append("(* gated)")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path, help="a checkout of the parent commit")
    parent_dir = parser.parse_args(argv).parent_dir.resolve()
    if not (parent_dir / "perfbench" / "run.py").is_file():
        parser.error(f"{parent_dir} holds no perfbench/run.py")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in declared["workloads"]]
    metrics = [entry["name"] for entry in declared["end_to_end"]]
    bounds = {
        entry["name"]: float(entry["bound"])
        for entry in declared["end_to_end"]
        if entry["name"] in GATED
    }
    trees = {"parent": parent_dir, "change": ROOT}
    runs: Dict[str, Dict[str, List[Run]]] = {}
    for workload in workloads:
        sides: Dict[str, List[Run]] = {"parent": [], "change": []}
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                sides[side].append(run_once(trees[side], workload))
            ratio = paired_ratios(
                sides["parent"][-1:], sides["change"][-1:], "ingest_rows_per_s"
            )
            print(
                f"{workload} pair {pair + 1}/{PAIRS}: ingest change/parent "
                f"{ratio[0] if ratio else float('nan'):.3f}",
                flush=True,
            )
        runs[workload] = sides
    print(report(runs, workloads, metrics))
    failures = decide(runs, workloads, bounds)
    for failure in failures:
        print(f"FAIL {failure}")
    print("perf gate: " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
