#!/usr/bin/env python
"""Perf-regression gate: compare a fresh benchmark record to the baseline.

The CI ``perf-regression`` job runs the throughput benchmark at a fixed
smoke scale, then runs::

    python tools/check_perf.py \\
        --record benchmarks/results/update_throughput.json \\
        --baseline benchmarks/baselines/update_throughput.json

Per mode present in *both* files, the gate compares ``rows_per_sec`` and
**fails (exit 1) on a drop larger than the threshold** (default 25%).
Improvements and modes missing from the baseline are reported but never
fail; a mode present in the baseline but missing from the record fails —
silently dropping a mode is how regressions hide.

Before any comparison, the gate verifies the two records describe the
*same measurement*: their ``workload`` and ``config`` sections must be
equal, or the gate refuses outright (exit 2) — a baseline recorded under
a different batch size, shard count or producer count is not a valid
comparison target, and silently comparing against one would let a
regression hide behind numbers measured on an easier configuration.
Refresh a legitimately-changed baseline with ``--update-baseline``.

Runner-to-runner noise is real: the threshold is deliberately loose, and
``--normalize scalar`` makes the comparison machine-relative (each
mode's throughput divided by the same record's scalar throughput) for
fleets with heterogeneous runners.  When a hardware change legitimately
moves the floor, refresh the committed baseline with ``--update-baseline``
and commit the diff.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RECORD = REPO_ROOT / "benchmarks" / "results" / "update_throughput.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "update_throughput.json"


def load_record(path: Path) -> Dict[str, object]:
    """One benchmark record, validated to have a modes section."""
    record = json.loads(path.read_text())
    modes = record.get("modes")
    if not isinstance(modes, dict) or not modes:
        raise SystemExit(f"{path}: not a throughput record (no 'modes' section)")
    return record


def load_throughputs(path: Path) -> Dict[str, float]:
    """Mode -> rows_per_sec from one benchmark record."""
    record = load_record(path)
    return {
        name: float(stats["rows_per_sec"])
        for name, stats in record["modes"].items()
        if isinstance(stats, dict) and "rows_per_sec" in stats
    }


#: Sections that define *what* was measured.  A baseline recorded under a
#: different workload or configuration is not a valid comparison target:
#: e.g. a baseline whose sharded mode ran with ``num_shards: 1`` would let
#: a routing regression hide behind single-shard numbers.
_IDENTITY_SECTIONS = ("workload", "config")


def config_mismatches(
    baseline: Dict[str, object], current: Dict[str, object]
) -> List[str]:
    """Human-readable diffs between the records' identity sections."""
    problems: List[str] = []
    for section in _IDENTITY_SECTIONS:
        base, now = baseline.get(section), current.get(section)
        if base == now:
            continue
        if not isinstance(base, dict) or not isinstance(now, dict):
            problems.append(
                f"{section}: baseline has {base!r}, record has {now!r}"
            )
            continue
        for key in sorted(set(base) | set(now)):
            if base.get(key) != now.get(key):
                problems.append(
                    f"{section}.{key}: baseline {base.get(key)!r} "
                    f"!= record {now.get(key)!r}"
                )
    return problems


def normalize(throughputs: Dict[str, float], mode: str, path: Path) -> Dict[str, float]:
    """Express every mode relative to one reference mode's throughput."""
    reference = throughputs.get(mode)
    if not reference:
        raise SystemExit(
            f"{path}: cannot normalize by {mode!r} (mode missing or zero)"
        )
    return {name: value / reference for name, value in throughputs.items()}


def compare(
    baseline: Dict[str, float],
    current: Dict[str, float],
    *,
    threshold: float,
) -> List[str]:
    """Return the failure messages (empty = gate passes), printing a table."""
    failures: List[str] = []
    width = max((len(name) for name in baseline | current), default=4)
    print(f"{'mode':>{width}}  {'baseline':>14}  {'current':>14}  {'change':>8}")
    for name in sorted(baseline | current):
        base, now = baseline.get(name), current.get(name)
        if base is None:
            print(f"{name:>{width}}  {'—':>14}  {now:>14,.1f}  {'new':>8}")
            continue
        if now is None:
            print(f"{name:>{width}}  {base:>14,.1f}  {'—':>14}  {'GONE':>8}")
            failures.append(
                f"mode {name!r} is in the baseline but missing from the record"
            )
            continue
        change = (now - base) / base
        flag = "" if change >= -threshold else "  << REGRESSION"
        print(f"{name:>{width}}  {base:>14,.1f}  {now:>14,.1f}  {change:>+7.1%}{flag}")
        if change < -threshold:
            failures.append(
                f"mode {name!r} regressed {-change:.1%} "
                f"({base:,.1f} -> {now:,.1f} rows/s; threshold {threshold:.0%})"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", type=Path, default=DEFAULT_RECORD,
                        help="the fresh benchmark record to check")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="the committed baseline to compare against")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated per-mode throughput drop (fraction, default 0.25)",
    )
    parser.add_argument(
        "--normalize",
        metavar="MODE",
        default=None,
        help="compare mode/MODE throughput ratios instead of absolute rows/s "
        "(machine-relative; e.g. --normalize scalar)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="copy the record over the baseline instead of comparing",
    )
    args = parser.parse_args(argv)

    if not args.record.exists():
        raise SystemExit(f"no benchmark record at {args.record}; run the benchmark first")
    if args.update_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(args.record, args.baseline)
        print(f"baseline refreshed: {args.record} -> {args.baseline}")
        return 0
    if not args.baseline.exists():
        raise SystemExit(
            f"no committed baseline at {args.baseline}; seed one with --update-baseline"
        )

    baseline_record = load_record(args.baseline)
    current_record = load_record(args.record)
    mismatches = config_mismatches(baseline_record, current_record)
    if mismatches:
        print(
            f"REFUSED: baseline {args.baseline} was recorded under a "
            "different configuration than this run:",
            file=sys.stderr,
        )
        for mismatch in mismatches:
            print(f"  - {mismatch}", file=sys.stderr)
        print(
            "  refresh it with --update-baseline (and commit the diff) if "
            "the change is intentional",
            file=sys.stderr,
        )
        return 2

    baseline = load_throughputs(args.baseline)
    current = load_throughputs(args.record)
    unit = "rows/s"
    if args.normalize:
        baseline = normalize(baseline, args.normalize, args.baseline)
        current = normalize(current, args.normalize, args.record)
        unit = f"x {args.normalize}"
    print(f"perf gate: threshold {args.threshold:.0%} per mode ({unit})")
    failures = compare(baseline, current, threshold=args.threshold)
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nOK: no mode regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
