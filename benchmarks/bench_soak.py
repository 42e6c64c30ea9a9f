"""Soak the streaming pipeline: bursty hours-equivalent load + kill/restore.

Two runs over one seeded workload (:func:`repro.streams.bursty_soak_stream`
loaded into a partitioned :class:`repro.connectors.LogSource`):

1. **Reference** — an uninterrupted :class:`~repro.connectors.PipelineDriver`
   drains the log into a served session while a concurrent sampler times
   ``total`` queries, yielding end-to-end throughput and p50/p99 query
   latency under ingest load.
2. **Kill/restore** — the same workload again, but the driver is killed
   *mid-tick* (right after a partition's offset commit, through the
   ``on_partition_applied`` hook) having just written a checkpoint; a new
   driver restores from that checkpoint into a **fresh server** and
   drains the rest.

The record asserts the two runs' final answers — every per-item estimate
and the stream total — are **bit-identical**, which is the exactly-once
contract the connectors docs promise.  A mismatch exits non-zero, so CI
can gate on it (the ``soak-resume`` job runs this at smoke scale).

The JSON record lands in ``benchmarks/results/`` (not committed)
and is uploaded by CI as a trend artifact.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.connectors import LogSource, PipelineDriver
from repro.serve import ServeClient, SketchServer
from repro.serve.load import measure_query_latency
from repro.streams import bursty_soak_stream

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "soak.json"

SPEC = "unbiased_space_saving"


class _Killed(RuntimeError):
    """Raised by the kill hook to simulate the driver process dying."""


async def _reference_run(
    source: LogSource,
    *,
    capacity: int,
    seed: int,
    batch_rows: int,
) -> Dict[str, Any]:
    """Uninterrupted drain with a concurrent query-latency sampler."""
    async with SketchServer() as server:
        client = ServeClient(server)
        await client.create("soak", spec=SPEC, size=capacity, seed=seed)
        driver = PipelineDriver(
            source, client, session="soak", batch_rows=batch_rows
        )
        stop = asyncio.Event()

        async def _drive():
            try:
                started = time.perf_counter()
                summary = await driver.run(final_checkpoint=False)
                return summary, time.perf_counter() - started
            finally:
                stop.set()

        (summary, seconds), latency = await asyncio.gather(
            _drive(),
            measure_query_latency(client, "soak", stop=stop, interval=0.0005),
        )
        estimates = await client.estimates("soak")
        total = await client.total("soak")
        return {
            "rows": summary["rows_ingested"],
            "ticks": summary["ticks"],
            "seconds": seconds,
            "rows_per_sec": summary["rows_ingested"] / seconds
            if seconds > 0
            else float("inf"),
            "query_samples": latency.count,
            "query_p50_ms": latency.quantile(0.50) * 1e3,
            "query_p99_ms": latency.quantile(0.99) * 1e3,
            "estimates": estimates,
            "total": total.estimate,
        }


async def _killed_and_restored_run(
    source: LogSource,
    *,
    capacity: int,
    seed: int,
    batch_rows: int,
    kill_after_applies: int,
    checkpoint_path: Path,
) -> Dict[str, Any]:
    """Kill the driver mid-tick at a fresh checkpoint, restore, drain."""
    applies = 0
    killed_at: Dict[str, Any] = {}

    async with SketchServer() as server:
        client = ServeClient(server)
        await client.create("soak", spec=SPEC, size=capacity, seed=seed)

        driver: Optional[PipelineDriver] = None

        async def _kill_hook(partition: str, rows: int) -> None:
            nonlocal applies
            applies += 1
            if applies == kill_after_applies:
                # A checkpoint at a mid-tick partition boundary: offsets
                # and sketch state are consistent here by construction.
                await driver.checkpoint()
                killed_at.update(
                    partition=partition,
                    offsets=dict(driver.offsets),
                    ticks=driver.ticks,
                )
                raise _Killed(partition)

        driver = PipelineDriver(
            source,
            client,
            session="soak",
            batch_rows=batch_rows,
            checkpoint_path=checkpoint_path,
            on_partition_applied=_kill_hook,
        )
        try:
            await driver.run(final_checkpoint=False)
            raise SystemExit(
                f"kill point never reached: only {applies} partition "
                f"applies happened, --kill-after-applies was "
                f"{kill_after_applies}; lower it or raise --rows-per-hour"
            )
        except _Killed:
            pass  # the "crash": driver and server state are abandoned

    # A brand-new server: nothing survives the crash but the checkpoint.
    async with SketchServer() as server:
        client = ServeClient(server)
        restored = await PipelineDriver.restore(
            checkpoint_path, source, client, batch_rows=batch_rows
        )
        summary = await restored.run(final_checkpoint=False)
        estimates = await client.estimates("soak")
        total = await client.total("soak")
        return {
            "killed_at": killed_at,
            "rows_after_restore": summary["rows_ingested"],
            "ticks": summary["ticks"],
            "estimates": estimates,
            "total": total.estimate,
        }


def run_soak(
    rows_per_hour: int = 200_000,
    *,
    hours: float = 1.0,
    num_items: int = 2_000,
    capacity: int = 256,
    partitions: int = 4,
    batch_rows: int = 5_000,
    kill_after_applies: int = 3,
    seed: int = 0,
    checkpoint_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run both soak legs and build the JSON record (asserts bit-equality)."""
    rows = bursty_soak_stream(
        rows_per_hour,
        hours=hours,
        num_items=num_items,
        rng=np.random.default_rng(seed),
    )
    source = LogSource.from_rows(rows, num_partitions=partitions, seed=seed)
    if checkpoint_path is None:
        checkpoint_path = RESULTS_PATH.parent / "soak_driver.ckpt"
    checkpoint_path.parent.mkdir(parents=True, exist_ok=True)

    reference = asyncio.run(
        _reference_run(
            source, capacity=capacity, seed=seed, batch_rows=batch_rows
        )
    )
    resumed = asyncio.run(
        _killed_and_restored_run(
            source,
            capacity=capacity,
            seed=seed,
            batch_rows=batch_rows,
            kill_after_applies=kill_after_applies,
            checkpoint_path=checkpoint_path,
        )
    )

    bit_identical = (
        reference["estimates"] == resumed["estimates"]
        and reference["total"] == resumed["total"]
    )
    record = {
        "workload": {
            "rows_per_hour": rows_per_hour,
            "hours": hours,
            "rows": len(rows),
            "num_items": num_items,
            "partitions": partitions,
            "batch_rows": batch_rows,
            "capacity": capacity,
            "seed": seed,
        },
        "reference": {
            key: value
            for key, value in reference.items()
            if key != "estimates"
        },
        "resumed": {
            "killed_at": resumed["killed_at"],
            "rows_after_restore": resumed["rows_after_restore"],
            "ticks": resumed["ticks"],
            "total": resumed["total"],
        },
        "bit_identical": bit_identical,
    }
    checkpoint_path.unlink(missing_ok=True)
    return record


def main(argv: Optional[List[str]] = None) -> Dict[str, Any]:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows-per-hour", type=int, default=200_000)
    parser.add_argument("--hours", type=float, default=1.0)
    parser.add_argument("--num-items", type=int, default=2_000)
    parser.add_argument("--capacity", type=int, default=256)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--batch-rows", type=int, default=5_000)
    parser.add_argument(
        "--kill-after-applies",
        type=int,
        default=3,
        help="kill the driver after this many partition batch applies "
        "(mid-tick when it is not a multiple of --partitions)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        type=Path,
        default=RESULTS_PATH,
        help="where to write the JSON soak record",
    )
    args = parser.parse_args(argv)
    record = run_soak(
        args.rows_per_hour,
        hours=args.hours,
        num_items=args.num_items,
        capacity=args.capacity,
        partitions=args.partitions,
        batch_rows=args.batch_rows,
        kill_after_applies=args.kill_after_applies,
        seed=args.seed,
    )
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    reference = record["reference"]
    print(
        f"soak: {reference['rows']:,} rows in {reference['seconds']:.2f}s "
        f"({reference['rows_per_sec']:,.0f} rows/s), "
        f"query p50 {reference['query_p50_ms']:.3f}ms "
        f"p99 {reference['query_p99_ms']:.3f}ms "
        f"over {reference['query_samples']} samples"
    )
    killed = record["resumed"]["killed_at"]
    print(
        f"kill/restore: killed after partition {killed.get('partition')!r} "
        f"at tick {killed.get('ticks')}, resumed "
        f"{record['resumed']['rows_after_restore']:,} rows total"
    )
    print(f"bit_identical: {record['bit_identical']}")
    print(f"(record written to {args.output})")
    if not record["bit_identical"]:
        sys.exit("FAIL: resumed run diverged from the uninterrupted run")
    return record


if __name__ == "__main__":
    main()
