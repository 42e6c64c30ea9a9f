"""Repo benchmark: run one workload, check its answers, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_inproc --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the workload untraced and then again with every layer's public
functions wrapped in spans, and reports the per-layer metrics (the
difference between the two runs is the tracing overhead); the spans
are written to ``.perfbench_out/`` when the run ends.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The command exits non-zero if a
correctness check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_system():
    """Put the package and the older bench helpers on the path, or exit."""
    for path in (ROOT / "src", ROOT / "benchmarks"):
        sys.path.insert(1, str(path))
    try:
        import metrics
        import spans
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the system under test ({exc}); "
                 "run from a checkout with src/ and benchmarks/")
    return metrics, spans, workloads


def _check_names(metrics) -> None:
    """Refuse to run when the metric tables and BENCHMARK.json disagree."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        ours = [(name, unit, better) for name, unit, better, *_ in table]
        theirs = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        if ours != theirs:
            sys.exit(f"perfbench: {key} metrics differ from BENCHMARK.json")


def main(argv=None) -> int:
    metrics, spans, workloads = _import_system()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _check_names(metrics)

    workload = workloads.WORKLOADS[args.workload]
    untraced = workloads.Run(args.seed, args.seconds, OUT_DIR)
    asyncio.run(workload(untraced))
    runs = [untraced]
    if args.trace:
        tracer = spans.Tracer()
        traced = workloads.Run(args.seed, args.seconds, OUT_DIR, tracer)
        tracer.install()
        try:
            with asyncio.Runner(loop_factory=tracer.loop_factory()) as runner:
                runner.run(workload(traced))
        finally:
            tracer.remove()
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        runs.append(traced)
        figures = metrics.per_layer(tracer, traced.tally, untraced.tally)
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
    else:
        figures = metrics.end_to_end(untraced.tally)
        units = {name: unit for name, unit, _ in metrics.END_TO_END}

    checks = {}
    for run in runs:
        for name, ok in run.tally.checks.items():
            checks[name] = checks.get(name, True) and ok
    correct = bool(checks) and all(checks.values())
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    print(metrics.table([(name, figures[name], units[name]) for name in units]))
    tally = untraced.tally
    print(f"  samples: {len(tally.query_s)} reads, {len(tally.commit_s)} commits; "
          f"{tally.failed} of {tally.attempted} operations failed")
    print("  per repetition: rows/s " + " ".join(f"{rate:.4g}" for rate in tally.ingest_rates)
          + ", reads/s " + " ".join(f"{rate:.4g}" for rate in tally.read_rates))
    for name, ok in sorted(checks.items()):
        detail = tally.notes.get(name)
        print(f"  check {name}: {'ok' if ok else 'FAILED'}"
              + ("" if detail is None else f" ({detail})"))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run.tally.attempted for run in runs),
        "failed": sum(run.tally.failed for run in runs),
        "metrics": {name: {"value": figures[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
