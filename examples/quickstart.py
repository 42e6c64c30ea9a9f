"""Quickstart: sketch a click stream and answer filtered sums with uncertainty.

Run with::

    python examples/quickstart.py

The example builds an Unbiased Space Saving session through the
``repro.build`` facade over a synthetic disaggregated click stream (one row
per click, many rows per ad), then answers the two questions the paper's
sketch is designed for:

1. *Disaggregated subset sums* — "how many clicks did ads from advertiser X
   get?" for arbitrary, after-the-fact filters, with confidence intervals.
2. *Frequent items* — "which ads are the heavy hitters?"

The same session API runs unchanged on the scale-out backend: swap
``backend="inline"`` for ``"sharded"`` and ingestion routes across
hash-partitioned shards without touching the query code.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.streams.frequency import scaled_weibull_counts
from repro.streams.generators import exchangeable_stream


def main(num_rows: int = 200_000) -> None:
    # ------------------------------------------------------------------
    # 1. Simulate a skewed click stream: 2,000 ads, ~200,000 click rows.
    # ------------------------------------------------------------------
    num_items = max(50, min(2_000, num_rows // 10))
    ads = scaled_weibull_counts(
        num_items=num_items, shape=0.25, target_total=num_rows
    )
    stream = exchangeable_stream(ads, rng=np.random.default_rng(7))
    print(f"stream: {ads.total:,} click rows over {ads.num_items:,} ads")

    # ------------------------------------------------------------------
    # 2. Build a session and feed it the raw (disaggregated) rows.
    #    update_batch is the vectorized fast path; session.extend(rows)
    #    is the scalar equivalent for arbitrary iterables.
    # ------------------------------------------------------------------
    session = repro.build("unbiased_space_saving", size=500, seed=42)
    session.update_batch(stream)
    print(f"session: {session!r}")
    print(f"  total preserved exactly = {session.total().estimate:,.0f}")

    # ------------------------------------------------------------------
    # 3. Subset sums with confidence intervals for arbitrary filters.
    #    Every session read returns an EstimateWithError / QueryResult —
    #    never a bare float — regardless of the underlying sketch class.
    # ------------------------------------------------------------------
    # Pretend ads with id divisible by 7 belong to one advertiser.
    advertiser_filter = lambda ad_id: ad_id % 7 == 0  # noqa: E731
    estimate = session.subset_sum(advertiser_filter)
    truth = ads.subset_sum(advertiser_filter)
    low, high = estimate.confidence_interval(0.95)
    print("\nadvertiser clicks (ads with id % 7 == 0)")
    print(f"  true count      : {truth:,.0f}")
    print(f"  sketch estimate : {estimate.estimate:,.0f}  (95% CI [{low:,.0f}, {high:,.0f}])")

    # The same query through the SQL-ish surface.
    grouped = session.select_sum(group_by=lambda ad_id: ad_id % 3).groups
    print("\nclicks grouped by (ad_id % 3):")
    for group, value in sorted(grouped.items()):
        exact = ads.subset_sum(lambda ad_id, g=group: ad_id % 3 == g)
        print(f"  group {group}: estimate {value:>10,.0f}   truth {exact:>10,.0f}")

    # ------------------------------------------------------------------
    # 4. Frequent items.
    # ------------------------------------------------------------------
    print("\ntop 5 ads by estimated clicks:")
    for ad_id, count in session.top_k(5).groups.items():
        print(f"  ad {ad_id:>5}: estimated {count:>10,.0f}   true {ads.count(ad_id):>10,}")

    # ------------------------------------------------------------------
    # 5. The same workload, scale-out: identical queries, sharded backend.
    # ------------------------------------------------------------------
    with repro.build(
        "unbiased_space_saving", size=500, backend="sharded", num_shards=8, seed=42
    ) as sharded:
        sharded.update_batch(stream)
        sharded_estimate = sharded.subset_sum(advertiser_filter)
        print(
            f"\nsharded backend ({sharded.estimator.num_shards} shards): "
            f"advertiser estimate {sharded_estimate.estimate:,.0f} "
            f"(± {sharded_estimate.std_error:,.0f})"
        )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rows",
        type=int,
        default=200_000,
        help="click rows to simulate (tiny values run in CI smoke tests)",
    )
    main(parser.parse_args().rows)
