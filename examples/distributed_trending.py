"""Distributed sketching and time-decayed trending topics.

Run with::

    python examples/distributed_trending.py

Two of the paper's §5 extensions working together:

1. *Distributed counting* (§5.5): per-region event streams are sketched
   independently (as map-reduce mappers would) and combined with the
   unbiased merge, so region-level sketches also answer global questions.
2. *Time-decayed aggregation* (§5.3): a forward-decay sketch surfaces the
   currently-trending topics, discounting yesterday's burst in favour of
   what is rising right now.
"""

from __future__ import annotations

import random

from repro import DecayedWindowSketch, UnbiasedSpaceSaving, merge_many_unbiased


def simulate_region_stream(region: str, num_events: int, seed: int) -> list:
    """Per-region topic stream: shared global topics plus regional favourites."""
    rng = random.Random(seed)
    global_topics = [f"global-{k}" for k in range(5)]
    regional_topics = [f"{region}-topic-{k}" for k in range(50)]
    events = []
    for _ in range(num_events):
        if rng.random() < 0.4:
            events.append(rng.choice(global_topics))
        else:
            # Regional topics follow a rough power law.
            index = min(int(rng.paretovariate(1.2)) - 1, len(regional_topics) - 1)
            events.append(regional_topics[index])
    return events


def main() -> None:
    regions = ["emea", "amer", "apac"]
    capacity = 300

    # ------------------------------------------------------------------
    # 1. Map phase: one sketch per region, built where the data lives.
    # ------------------------------------------------------------------
    region_sketches = {}
    for index, region in enumerate(regions):
        events = simulate_region_stream(region, num_events=60_000, seed=index)
        sketch = UnbiasedSpaceSaving(capacity, seed=index)
        sketch.extend(events)
        region_sketches[region] = sketch
        top_topic, top_count = sketch.top_k(1)[0]
        print(f"{region}: {sketch.rows_processed:,} events, top topic {top_topic} "
              f"(~{top_count:,.0f})")

    # ------------------------------------------------------------------
    # 2. Reduce phase: one unbiased merge answers global questions.
    # ------------------------------------------------------------------
    global_sketch = merge_many_unbiased(region_sketches.values(), capacity=capacity, seed=7)
    print(f"\nglobal sketch: {global_sketch.rows_processed:,} events across "
          f"{len(regions)} regions")
    print("global top 5 topics:")
    for topic, count in global_sketch.top_k(5):
        print(f"  {topic:<16} ~{count:>10,.0f}")
    emea_share = global_sketch.subset_sum(lambda topic: str(topic).startswith("emea-"))
    print(f"events attributable to EMEA-only topics: ~{emea_share:,.0f}")

    # ------------------------------------------------------------------
    # 3. Trending topics with forward decay: a topic bursting *now* should
    #    outrank a bigger topic whose activity is old.
    # ------------------------------------------------------------------
    trending = DecayedWindowSketch(200, policy="decay:exp:0.002", seed=3)
    undecayed = UnbiasedSpaceSaving(capacity=200, seed=4)
    rng = random.Random(99)

    def record(topic: str, minute: int) -> None:
        trending.update(topic, timestamp=float(minute))
        undecayed.update(topic)

    # Hours 0-47: "old-news" dominates.  Hours 48-72: "breaking" takes off.
    for minute in range(0, 48 * 60):
        if rng.random() < 0.3:
            record("old-news", minute)
        else:
            record(f"background-{rng.randrange(200)}", minute)
    for minute in range(48 * 60, 72 * 60):
        if rng.random() < 0.5:
            record("breaking", minute)
        elif rng.random() < 0.4:
            record("old-news", minute)
        else:
            record(f"background-{rng.randrange(200)}", minute)

    print("\ntime-decayed trending topics (top 3, decay half-life ≈ 5.8 hours):")
    for topic, score in trending.top_k(3):
        print(f"  {topic:<14} decayed score {score:>10,.1f}")
    print("for contrast, the undecayed sketch still ranks the older topic first:",
          undecayed.top_k(1)[0][0])


if __name__ == "__main__":
    main()
