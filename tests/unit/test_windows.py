"""Unit tests for the repro.windows subsystem and its facade integration."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro
from repro.api.specs import iter_specs
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.errors import CapabilityError, InvalidParameterError
from repro.io import load_bytes
from repro.io.codec import unpack_envelope
from repro.windows import (
    DecayedWindowSketch,
    DecayPolicy,
    SlidingWindowPolicy,
    SlidingWindowSketch,
    TumblingWindowPolicy,
    TumblingWindowSketch,
    parse_duration,
    parse_window_policy,
)
from repro.windows import decayed as decayed_module


# ----------------------------------------------------------------------
# Policy parsing
# ----------------------------------------------------------------------
class TestPolicyParsing:
    def test_durations(self):
        assert parse_duration("500ms") == 0.5
        assert parse_duration("90s") == 90.0
        assert parse_duration("5m") == 300.0
        assert parse_duration("2h") == 7200.0
        assert parse_duration("1d") == 86400.0
        assert parse_duration(42) == 42.0
        with pytest.raises(InvalidParameterError):
            parse_duration("abc")
        with pytest.raises(InvalidParameterError):
            parse_duration(0)

    def test_policy_strings(self):
        assert parse_window_policy("tumbling:60s") == TumblingWindowPolicy(60.0)
        assert parse_window_policy("sliding:5m/30s") == SlidingWindowPolicy(300.0, 30.0)
        assert parse_window_policy("decay:exp:0.01") == DecayPolicy("exp", 0.01)
        assert parse_window_policy("decay:poly:2") == DecayPolicy("poly", 2.0)

    def test_tumbling_retain_rides_the_spec_string(self):
        policy = parse_window_policy("tumbling:1h*3")
        assert policy == TumblingWindowPolicy(3600.0, 3)
        assert policy.describe() == "tumbling:1h*3"
        sketch = TumblingWindowSketch(8, width="10s", retain=3)
        assert sketch.window_policy().describe() == "tumbling:10s*3"
        assert parse_window_policy(sketch.window_policy().describe()) == \
            sketch.window_policy()
        with pytest.raises(InvalidParameterError):
            parse_window_policy("tumbling:1h*x")
        with pytest.raises(InvalidParameterError):
            parse_window_policy("tumbling:1h*0")

    def test_policy_objects_pass_through(self):
        policy = SlidingWindowPolicy(120.0, 60.0)
        assert parse_window_policy(policy) is policy

    def test_describe_round_trips(self):
        # describe() canonicalizes durations to the largest exact unit;
        # parsing the description always reproduces the same policy.
        assert parse_window_policy("tumbling:60s").describe() == "tumbling:1m"
        assert parse_window_policy("sliding:300s/30s").describe() == "sliding:5m/30s"
        for spec in ("tumbling:60s", "sliding:5m/30s", "decay:exp:0.01", "decay:poly:2"):
            policy = parse_window_policy(spec)
            assert parse_window_policy(policy.describe()) == policy

    def test_invalid_specs_rejected(self):
        for bad in (
            "hopping:60s",
            "sliding:5m",          # no pane
            "sliding:50s/30s",     # horizon not a multiple of the pane
            "decay:exp",           # no rate
            "decay:linear:1",      # unknown kind
            "tumbling:nope",
            "window",
            123,
        ):
            with pytest.raises(InvalidParameterError):
                parse_window_policy(bad)

    def test_sliding_num_panes(self):
        assert SlidingWindowPolicy(300.0, 30.0).num_panes == 10
        assert SlidingWindowPolicy(60.0, 60.0).num_panes == 1


# ----------------------------------------------------------------------
# Pane ring mechanics
# ----------------------------------------------------------------------
class TestPaneRing:
    def test_rows_route_to_their_windows(self):
        sketch = SlidingWindowSketch(16, horizon="30s", pane="10s", seed=0)
        sketch.update("a", timestamp=5.0)
        sketch.update("b", timestamp=15.0)
        sketch.update("c", timestamp=25.0)
        assert [index for index, _ in sketch.window_panes()] == [0, 1, 2]
        assert sketch.estimates() == {"a": 1.0, "b": 1.0, "c": 1.0}
        assert sketch.window_bounds(1) == (10.0, 20.0)

    def test_rotation_expires_old_panes(self):
        sketch = SlidingWindowSketch(16, horizon="30s", pane="10s", seed=0)
        for ts in (5.0, 15.0, 25.0, 35.0):
            sketch.update("x", timestamp=ts)
        # Horizon covers windows 1..3; window 0 has expired.
        assert [index for index, _ in sketch.window_panes()] == [1, 2, 3]
        assert sketch.estimate("x") == 3.0
        assert sketch.expired_panes == 1
        assert sketch.rows_processed == 4          # lifetime, expiry included
        assert sketch.total_estimate() == 3.0      # in-horizon only

    def test_late_rows_within_horizon_accepted(self):
        sketch = SlidingWindowSketch(16, horizon="30s", pane="10s", seed=0)
        sketch.update("now", timestamp=25.0)
        sketch.update("late", timestamp=3.0)       # window 0, still retained
        assert sketch.estimate("late") == 1.0

    def test_rows_older_than_horizon_rejected(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", seed=0)
        sketch.update("now", timestamp=35.0)
        with pytest.raises(InvalidParameterError, match="expired"):
            sketch.update("stale", timestamp=5.0)

    def test_rows_before_origin_rejected(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", origin=100.0)
        with pytest.raises(InvalidParameterError, match="origin"):
            sketch.update("early", timestamp=50.0)

    def test_untimestamped_rows_land_in_active_window(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", seed=0)
        sketch.update("a")                         # before any timestamp: window 0
        sketch.update("b", timestamp=15.0)
        sketch.update("c")                         # active window (1)
        assert dict(sketch.window_panes())[1].estimates() == {"b": 1.0, "c": 1.0}

    def test_empty_windows_own_no_pane(self):
        sketch = SlidingWindowSketch(16, horizon="40s", pane="10s", seed=0)
        sketch.update("a", timestamp=5.0)
        sketch.update("b", timestamp=35.0)         # windows 1 and 2 stay empty
        assert [index for index, _ in sketch.window_panes()] == [0, 3]

    def test_tumbling_queries_answer_active_window_only(self):
        sketch = TumblingWindowSketch(16, width="10s", retain=3, seed=0)
        sketch.update("a", timestamp=5.0)
        sketch.update("b", timestamp=15.0)
        assert sketch.estimates() == {"b": 1.0}
        assert sketch.estimates(last=2) == {"a": 1.0, "b": 1.0}
        assert sketch.total_estimate() == 1.0
        assert sketch.total_estimate(last=3) == 2.0

    def test_last_must_be_positive(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s")
        with pytest.raises(InvalidParameterError):
            sketch.estimates(last=0)

    def test_pane_spec_validation(self):
        with pytest.raises(InvalidParameterError, match="unknown parameters"):
            SlidingWindowSketch(16, horizon="20s", pane="10s", bogus=1)
        with pytest.raises(InvalidParameterError):
            TumblingWindowSketch(16, width="10s", retain=0)

    def test_queries_before_any_row(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s")
        assert sketch.estimates() == {}
        assert sketch.estimate("x") == 0.0
        assert sketch.total_estimate() == 0.0
        assert sketch.heavy_hitters(0.5) == {}
        assert sketch.top_k(3) == []
        assert sketch.merged().estimates() == {}


# ----------------------------------------------------------------------
# Windowed queries
# ----------------------------------------------------------------------
class TestWindowedQueries:
    def _bursty(self, seed=0):
        sketch = SlidingWindowSketch(64, horizon="30s", pane="10s", seed=seed)
        rows = [("bg", 1.0, float(t)) for t in range(0, 60)]
        rows += [("hot", 1.0, 40.0 + 0.1 * i) for i in range(30)]
        rows.sort(key=lambda row: row[2])
        sketch.extend(rows)
        return sketch

    def test_heavy_hitters_scoped_to_horizon(self):
        sketch = self._bursty()
        # Horizon covers t in [30, 60): 30 bg rows + 30 hot rows.
        hitters = sketch.heavy_hitters(0.4)
        assert set(hitters) == {"bg", "hot"}
        assert hitters["hot"] == 30.0
        assert sketch.total_estimate() == 60.0

    def test_subset_sum_with_error_sums_pane_variances(self):
        sketch = self._bursty()
        result = sketch.subset_sum_with_error(lambda item: item == "hot")
        assert result.estimate == 30.0
        assert result.variance >= 0.0

    def test_top_k_rank_order(self):
        sketch = self._bursty()
        assert [item for item, _ in sketch.top_k(2)] == ["bg", "hot"]

    def test_merged_reduces_to_capacity(self):
        sketch = self._bursty()
        merged = sketch.merged(capacity=4, seed=1)
        assert isinstance(merged, UnbiasedSpaceSaving)
        assert len(merged.estimates()) <= 4
        # The unbiased reduction preserves the in-horizon total exactly.
        assert merged.total_estimate() == pytest.approx(sketch.total_estimate())

    def test_merged_requires_unbiased_panes(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", spec="misra_gries")
        sketch.update("a", timestamp=1.0)
        with pytest.raises(CapabilityError):
            sketch.merged()

    def test_serialize_capability_follows_the_pane_spec(self):
        from repro.api import capabilities
        from repro.errors import SerializationError

        serializable = SlidingWindowSketch(16, horizon="20s", pane="10s")
        assert "serialize" in capabilities(serializable)
        unserializable = SlidingWindowSketch(
            16, horizon="20s", pane="10s", spec="counting_sample"
        )
        assert "serialize" not in capabilities(unserializable)
        with pytest.raises(SerializationError):
            unserializable.to_bytes()
        session = repro.StreamSession(unserializable)
        with pytest.raises(CapabilityError):
            session.save_checkpoint("nowhere.ckpt")

    def test_non_mergeable_specs_still_answer_window_queries(self):
        sketch = SlidingWindowSketch(
            64, horizon="20s", pane="10s", spec="countmin", seed=0
        )
        sketch.update("a", timestamp=1.0)
        sketch.update("a", timestamp=15.0)
        assert sketch.estimate("a") == 2.0
        assert "a" in sketch.heavy_hitters(0.5)

    def test_update_batch_equals_scalar_loop(self):
        rng = np.random.default_rng(3)
        items = rng.integers(0, 40, size=2_000)
        ts = np.sort(rng.uniform(0.0, 100.0, size=2_000))
        batched = SlidingWindowSketch(64, horizon="40s", pane="10s", seed=9)
        batched.update_batch(items, timestamps=ts)
        scalar = SlidingWindowSketch(64, horizon="40s", pane="10s", seed=9)
        for item, t in zip(items, ts):
            scalar.update(int(item), timestamp=float(t))
        assert batched.estimates() == scalar.estimates()
        assert batched.total_estimate() == scalar.total_estimate()
        assert batched.rows_processed == scalar.rows_processed

    @pytest.mark.parametrize("timestamped", [True, False])
    def test_total_weight_adds_rows_in_order(self, timestamped):
        # The lifetime total (and the frame's copy of it) adds each pane
        # slice row by row, as the pane's own total and a scalar replay
        # do; a pairwise ndarray.sum would differ in the last bit.
        weights = np.random.default_rng(0).uniform(0.5, 2.0, size=1000)
        timestamps = np.full(weights.size, 5.0) if timestamped else None
        batched = SlidingWindowSketch(64, horizon="40s", pane="10s", seed=9)
        batched.update_batch(
            (np.arange(weights.size) % 50).tolist(), weights.tolist(), timestamps
        )
        scalar = SlidingWindowSketch(64, horizon="40s", pane="10s", seed=9)
        for weight in weights.tolist():
            scalar.update("x", weight, 5.0 if timestamped else None)
        _, _, meta, _ = unpack_envelope(batched.to_bytes())
        assert float(np.sum(weights)) != scalar.total_weight  # the case bites
        assert batched.total_weight == meta["total_weight"]
        assert batched.total_weight == batched.total_estimate()
        assert batched.total_weight == scalar.total_weight

    def test_empty_weighted_batch_adds_nothing(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", seed=0)
        sketch.update_batch([], [])
        sketch.update_batch([], [], [])
        assert sketch.total_weight == 0.0
        assert sketch.rows_processed == 0

    def test_stale_batch_rejected_without_partial_ingest(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", seed=0)
        sketch.update("now", timestamp=45.0)
        before = sketch.estimates()
        with pytest.raises(InvalidParameterError, match="older than the window"):
            sketch.update_batch(["a", "b"], timestamps=[1.0, 46.0])
        assert sketch.estimates() == before
        assert sketch.rows_processed == 1

    def test_misaligned_batch_arrays_rejected(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", seed=0)
        with pytest.raises(InvalidParameterError, match="timestamps must align"):
            sketch.update_batch(["a", "b", "c"], timestamps=[1.0, 2.0])
        with pytest.raises(InvalidParameterError, match="timestamps must align"):
            sketch.update_batch(["a", "b", "c"], timestamps=[])
        with pytest.raises(InvalidParameterError, match="weights must align"):
            sketch.update_batch(["a", "b"], weights=[1.0], timestamps=[1.0, 2.0])
        assert sketch.rows_processed == 0

    def test_rejected_row_still_rotates_but_queries_stay_consistent(self):
        # The bad row's timestamp was observed, so time advances and the
        # old pane expires — and cached views must not survive that.
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", seed=0)
        sketch.update("a", timestamp=5.0)
        assert sketch.estimates() == {"a": 1.0}      # populate the cache
        with pytest.raises(Exception, match="positive weights"):
            sketch.update("b", 0.0, timestamp=100.0)
        assert sketch.active_window_index == 10
        assert sketch.estimates() == {}              # no stale cached view

    def test_mid_batch_failure_books_the_ingested_prefix(self):
        # A weight the pane spec rejects fails the batch mid-way; the
        # window groups applied before it stay ingested *and* accounted
        # for (rows, totals, cache), like a replay stopped at the bad row.
        sketch = SlidingWindowSketch(16, horizon="30s", pane="10s", seed=0)
        with pytest.raises(Exception, match="positive weights"):
            sketch.update_batch(
                ["a", "b"], weights=[1.0, -5.0], timestamps=[1.0, 25.0]
            )
        assert sketch.estimates() == {"a": 1.0}
        assert sketch.rows_processed == 1
        assert sketch.total_weight == 1.0

    def test_view_cache_invalidated_by_updates_and_rotation(self):
        sketch = SlidingWindowSketch(16, horizon="30s", pane="10s", seed=0)
        sketch.update("a", timestamp=5.0)
        assert sketch.estimate("a") == 1.0
        sketch.update("a", timestamp=6.0)           # same pane: update invalidates
        assert sketch.estimate("a") == 2.0
        sketch.update("b", timestamp=25.0)          # rotation invalidates
        assert sketch.estimate("a") == 2.0          # both rows still in horizon
        sketch.update("c", timestamp=45.0)          # expires window 0
        assert sketch.estimate("a") == 0.0


# ----------------------------------------------------------------------
# Decayed windows
# ----------------------------------------------------------------------
class TestDecayedWindow:
    def test_recent_rows_outweigh_old_rows(self):
        sketch = DecayedWindowSketch(16, policy="decay:exp:0.1", seed=0)
        sketch.update("old", timestamp=1.0)
        sketch.update("new", timestamp=30.0)
        assert sketch.estimate("new") > sketch.estimate("old")

    @pytest.mark.parametrize("policy", ["decay:exp:0.05", "decay:poly:2"])
    def test_update_batch_matches_decayed_weights(self, policy):
        sketch = DecayedWindowSketch(16, policy=policy, seed=0)
        sketch.update_batch(["a", "b"], timestamps=[10.0, 20.0])
        single = DecayedWindowSketch(16, policy=policy, seed=0)
        single.update("a", timestamp=10.0)
        single.update("b", timestamp=20.0)
        assert sketch.estimates() == pytest.approx(single.estimates())

    def test_total_estimate_is_decayed_total(self):
        sketch = DecayedWindowSketch(16, policy="decay:exp:0.1", seed=0)
        sketch.update("a", timestamp=5.0)
        sketch.update("b", timestamp=5.0)
        assert sketch.total_estimate() == pytest.approx(2.0)  # queried at t=5
        # At a later query time both rows have aged 10 more seconds.
        assert sketch.total_estimate(at_time=15.0) == pytest.approx(
            2.0 * math.exp(-1.0)
        )

    def test_heavy_hitters_use_decayed_shares(self):
        sketch = DecayedWindowSketch(32, policy="decay:exp:0.2", seed=0)
        for _ in range(20):
            sketch.update("stale", timestamp=1.0)
        for _ in range(3):
            sketch.update("fresh", timestamp=40.0)
        hitters = sketch.heavy_hitters(0.5)
        assert "fresh" in hitters and "stale" not in hitters

    def test_non_decay_policy_rejected(self):
        with pytest.raises(InvalidParameterError):
            DecayedWindowSketch(16, policy="tumbling:60s")

    # -- the decay function g ------------------------------------------
    def test_exponential_g_is_monotone(self):
        g = DecayPolicy("exp", 0.5).g([0.0, 1.0, 2.0])
        assert g[0] == 1.0
        assert g[2] > g[1] > g[0]

    def test_polynomial_g(self):
        assert DecayPolicy("poly", 2.0).g([3.0, -1.0]).tolist() == [9.0, 0.0]

    @pytest.mark.parametrize("kind, rate", [("exp", -0.1), ("poly", -1.0)])
    def test_negative_rate_rejected(self, kind, rate):
        with pytest.raises(InvalidParameterError):
            DecayPolicy(kind, rate)

    # -- decayed answers -------------------------------------------------
    def test_equal_timestamps_equal_decayed_weight(self):
        sketch = DecayedWindowSketch(8, policy="decay:exp:0.3", seed=0)
        sketch.update("a", timestamp=5.0)
        sketch.update("b", timestamp=5.0)
        assert sketch.estimate("a", at_time=5.0) == pytest.approx(
            sketch.estimate("b", at_time=5.0)
        )

    def test_decayed_weight_of_single_row_is_exponential(self):
        sketch = DecayedWindowSketch(4, policy="decay:exp:0.1", seed=0)
        sketch.update("a", timestamp=3.0)
        assert sketch.estimate("a", at_time=10.0) == pytest.approx(math.exp(-0.7))

    def test_subset_sum_and_top_k(self):
        sketch = DecayedWindowSketch(16, policy="decay:exp:0.05", seed=1)
        for timestamp in range(20):
            sketch.update("steady", timestamp=float(timestamp))
        for timestamp in range(15, 20):
            sketch.update("rising", timestamp=float(timestamp))
        top = sketch.top_k(2)
        assert isinstance(top, list) and top[0][0] == "steady"
        total = sketch.subset_sum(lambda item: True)
        assert total > 0
        with_error = sketch.subset_sum_with_error(lambda item: True)
        assert with_error.estimate == pytest.approx(total)

    def test_extend_takes_pairs_and_timestamped_triples(self):
        sketch = DecayedWindowSketch(4, policy="decay:exp:0.1")
        sketch.extend([("a", 1.0), ("b", 3.0, 2.0)])   # (item, weight, timestamp)
        assert sketch.rows_processed == 2
        assert sketch.estimate("b", at_time=2.0) == pytest.approx(3.0)

    # -- the landmark --------------------------------------------------
    def test_exp_decay_accepts_rows_before_the_landmark(self):
        sketch = DecayedWindowSketch(4, policy="decay:exp:0.1", landmark=10.0)
        sketch.update("a", timestamp=5.0)
        assert sketch.estimate("a", at_time=10.0) == pytest.approx(math.exp(-0.5))
        # Queries before the landmark are fine too.
        assert sketch.estimate("a", at_time=5.0) == pytest.approx(1.0)

    def test_poly_decay_refuses_rows_before_the_landmark(self):
        sketch = DecayedWindowSketch(4, policy="decay:poly:2", landmark=10.0)
        with pytest.raises(InvalidParameterError):
            sketch.update("a", timestamp=5.0)

    def test_poly_decay_refuses_queries_before_the_landmark(self):
        sketch = DecayedWindowSketch(4, policy="decay:poly:1", landmark=5.0)
        sketch.update("a", timestamp=6.0)
        with pytest.raises(InvalidParameterError):
            sketch.estimate("a", at_time=1.0)

    @pytest.mark.parametrize("policy", ["decay:poly:2", "decay:exp:0.001"])
    def test_empty_session_answers_nothing(self, policy):
        session = repro.build("unbiased_space_saving", size=8, window=policy, seed=0)
        assert session.estimates() == {}
        assert session.estimator.total_estimate() == 0.0
        assert session.total().estimate == 0.0
        assert session.estimate("a").estimate == 0.0
        # An empty sketch still refuses a query before the landmark.
        if policy.startswith("decay:poly"):
            with pytest.raises(InvalidParameterError, match="precedes"):
                session.estimator.estimates(at_time=-1.0)

    # -- refusals leave the state byte-unchanged -----------------------
    @pytest.mark.parametrize(
        "policy, weights, timestamps",
        [
            ("decay:exp:0.1", [1.0, 0.0], [1.0, 2.0]),            # zero weight
            ("decay:exp:0.1", [1.0, -2.0], [1.0, 2.0]),           # negative weight
            ("decay:exp:0.1", [1.0, float("nan")], [1.0, 2.0]),   # NaN weight
            ("decay:exp:0.1", [1.0, 1e308], [1.0, 50.0]),         # decays to inf
            ("decay:exp:0.1", None, [1.0, float("nan")]),         # NaN timestamp
            ("decay:exp:0.1", None, [1.0, float("inf")]),         # inf timestamp
            ("decay:exp:0.1", None, [1.0, -1e4]),                 # underflows to 0
            ("decay:exp:0.1", None, [1.0e9, 0.0]),                # 0 after re-base
            ("decay:exp:0.1", None, [1.0]),                       # length mismatch
            ("decay:poly:2", None, [5.0, 2.0]),                   # before landmark
            ("decay:poly:2", None, [5.0, 3.0]),                   # g(0) = 0
        ],
    )
    def test_refused_batch_leaves_state_unchanged(self, policy, weights, timestamps):
        sketch = DecayedWindowSketch(8, policy=policy, landmark=3.0, seed=0)
        sketch.update_batch(["x", "y"], timestamps=[4.0, 6.0])
        before = sketch.to_bytes()
        with pytest.raises(InvalidParameterError):
            sketch.update_batch(["a", "b"], weights, timestamps)
        assert sketch.to_bytes() == before

    def test_refused_scalar_row_is_typed(self):
        sketch = DecayedWindowSketch(8, policy="decay:exp:0.1", seed=0)
        with pytest.raises(InvalidParameterError):
            sketch.update("a", timestamp=float("nan"))
        with pytest.raises(InvalidParameterError):
            sketch.update("a", 0.0, timestamp=1.0)
        assert sketch.rows_processed == 0

    # -- landmark re-basing --------------------------------------------
    def test_epoch_timestamp_ingests_through_build(self):
        session = repro.build(
            "unbiased_space_saving", size=8, window="decay:exp:0.001", seed=0
        )
        session.update("a", timestamp=1.76e9)
        session.update("b", timestamp=1.76e9 + 100.0)
        sketch = session.estimator
        assert sketch.landmark == 1.76e9
        assert session.estimates() == pytest.approx(
            {"a": math.exp(-0.1), "b": 1.0}
        )
        assert sketch.total_estimate() == pytest.approx(1.0 + math.exp(-0.1))

    def test_row_far_past_the_landmark_rebases(self):
        sketch = DecayedWindowSketch(8, policy="decay:exp:0.01")
        sketch.update("a", timestamp=71000.0)
        assert sketch.landmark == 71000.0
        assert sketch.estimates() == {"a": 1.0}
        sketch.update("b", timestamp=71100.0)
        assert sketch.estimates() == pytest.approx({"a": math.exp(-1.0), "b": 1.0})

    def test_rebased_and_plain_sketches_agree(self, monkeypatch):
        """Re-basing only rescales: the contest outcomes and every decayed
        answer match a sketch that never re-bases, to rounding, as long as
        the plain sketch's weights stay finite (rate · t ≤ 300 here)."""
        rng = np.random.default_rng(4)
        batches = []
        for start in np.arange(0.0, 10_000.0, 500.0):
            labels = (rng.zipf(1.3, size=400) % 150).astype(np.int64)
            timestamps = np.sort(rng.uniform(start, start + 500.0, size=400))
            timestamps[:20] -= 300.0   # late rows, some before the landmark
            batches.append((labels, rng.uniform(0.5, 2.0, size=400), timestamps))

        def drive():
            sketch = DecayedWindowSketch(32, policy="decay:exp:0.03", seed=6)
            for labels, weights, timestamps in batches:
                sketch.update_batch(labels, weights, timestamps)
            return sketch

        rebased = drive()
        monkeypatch.setattr(decayed_module, "REBASE_EXPONENT", math.inf)
        plain = drive()
        assert plain.landmark == 0.0 and rebased.landmark > 9000.0
        assert rebased.rows_processed == plain.rows_processed
        # The stored total is rescaled with the bins: still the exact sum.
        assert rebased.total_weight == pytest.approx(
            rebased.total_estimate(at_time=rebased.landmark), rel=1e-12
        )
        def subset(label):
            return label % 2 == 0

        for at_time in (None, 9_000.0, 10_200.0):
            expected = plain.estimates(at_time)
            assert list(rebased.estimates(at_time)) == list(expected)
            assert rebased.estimates(at_time) == pytest.approx(expected, rel=1e-9)
            got = rebased.subset_sum_with_error(subset, at_time)
            want = plain.subset_sum_with_error(subset, at_time)
            assert got.estimate == pytest.approx(want.estimate, rel=1e-9)
            assert got.variance == pytest.approx(want.variance, rel=1e-9)
            assert rebased.total_estimate(at_time) == pytest.approx(
                plain.total_estimate(at_time), rel=1e-9
            )

    def test_rebased_round_trip(self):
        sketch = DecayedWindowSketch(8, policy="decay:exp:0.01", seed=3)
        sketch.update_batch(["a", "b"], timestamps=[1.0e6, 1.0e6 + 5.0])
        restored = load_bytes(sketch.to_bytes())
        assert restored.landmark == sketch.landmark == 1.0e6 + 5.0
        assert restored.estimates() == sketch.estimates()
        sketch.update("c", timestamp=2.0e6)
        restored.update("c", timestamp=2.0e6)
        assert restored.to_bytes() == sketch.to_bytes()


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
class TestWindowSerialization:
    def test_sliding_round_trip_continues_identically(self):
        sketch = SlidingWindowSketch(32, horizon="30s", pane="10s", seed=5)
        rng = np.random.default_rng(0)
        for ts in np.sort(rng.uniform(0, 50, size=300)):
            sketch.update(int(rng.integers(0, 20)), timestamp=float(ts))
        restored = load_bytes(sketch.to_bytes())
        assert isinstance(restored, SlidingWindowSketch)
        assert restored.estimates() == sketch.estimates()
        assert restored.total_estimate() == sketch.total_estimate()
        assert restored.active_window_index == sketch.active_window_index
        for follow_up in [(7, 51.0), (8, 63.0), (7, 64.0)]:
            sketch.update(follow_up[0], timestamp=follow_up[1])
            restored.update(follow_up[0], timestamp=follow_up[1])
        assert restored.estimates() == sketch.estimates()

    def test_tumbling_round_trip_keeps_policy(self):
        sketch = TumblingWindowSketch(8, width="1m", retain=2, seed=1)
        sketch.update("a", timestamp=30.0)
        restored = load_bytes(sketch.to_bytes())
        assert isinstance(restored, TumblingWindowSketch)
        assert restored.window_policy() == sketch.window_policy()
        assert restored.estimates() == sketch.estimates()

    def test_decayed_round_trip(self):
        sketch = DecayedWindowSketch(16, policy="decay:exp:0.02", seed=2)
        sketch.update("a", timestamp=3.0)
        sketch.update("b", timestamp=9.0)
        restored = load_bytes(sketch.to_bytes())
        assert isinstance(restored, DecayedWindowSketch)
        assert restored.window_policy() == sketch.window_policy()
        assert restored.estimates() == sketch.estimates()
        sketch.update("c", timestamp=12.0)
        restored.update("c", timestamp=12.0)
        assert restored.estimates() == sketch.estimates()


# ----------------------------------------------------------------------
# Facade integration
# ----------------------------------------------------------------------
class TestWindowedSessions:
    def test_acceptance_sliding_session_answers_in_horizon_rows(self):
        session = repro.build(
            "unbiased_space_saving", size=100, window="sliding:5m/1m", seed=42
        )
        rows = [(f"ad{i % 10}", 1.0, float(t)) for i, t in enumerate(range(0, 900, 3))]
        session.extend(rows)
        sketch = session.estimator
        horizon_start = (
            sketch.active_window_index - sketch.num_panes + 1
        ) * sketch.pane_seconds
        in_horizon = [row for row in rows if row[2] >= horizon_start]
        truth = {}
        for item, _, _ in in_horizon:
            truth[item] = truth.get(item, 0.0) + 1.0
        assert session.heavy_hitters(0.05).groups == {
            item: count
            for item, count in truth.items()
            if count >= 0.05 * len(in_horizon)
        }
        assert session.estimates() == truth

    def test_every_window_policy_shares_the_session_surface(self):
        # Spec strings below are already canonical, so session.window
        # echoes them verbatim (see test_describe_round_trips).
        for window in ("tumbling:90s", "sliding:2m/30s", "decay:exp:0.01"):
            session = repro.build(
                "unbiased_space_saving", size=64, window=window, seed=7
            )
            session.update("a", timestamp=10.0)
            session.update("b", 2.0, timestamp=50.0)
            session.extend([("a", 1.0, 55.0)])
            session.update_batch(["c", "a"], timestamps=[56.0, 57.0])
            assert session.window == window
            assert session.estimate("a").estimate > 0
            assert session.subset_sum(lambda item: item in {"a", "b"}).estimate > 0
            assert "a" in session.heavy_hitters(0.1).groups
            assert session.top_k(2).groups
            assert session.total().estimate > 0
            assert window in repr(session)

    @pytest.mark.parametrize(
        "window, in_scope", [("sliding:40s/10s", 4.0), ("tumbling:10s", 1.0)]
    )
    @pytest.mark.parametrize("spec", [spec.name for spec in iter_specs()])
    def test_every_spec_is_a_pane_or_refused_at_build(self, spec, window, in_scope):
        try:
            session = repro.build(spec, size=32, window=window, seed=3)
        except CapabilityError:
            assert spec == "reservoir"  # no update_batch, no total_weight
            return
        session.update_batch([1, 2, 1, 3], timestamps=[1.0, 12.0, 25.0, 33.0])
        assert isinstance(session.estimates(), dict)
        assert session.total().estimate == pytest.approx(in_scope)

    def test_all_time_sessions_reject_timestamps(self):
        session = repro.build("unbiased_space_saving", size=8, seed=0)
        assert session.window is None
        with pytest.raises(CapabilityError):
            session.update("x", timestamp=1.0)
        with pytest.raises(CapabilityError):
            session.update_batch(["x"], timestamps=[1.0])

    def test_window_requires_inline_backend(self):
        with pytest.raises(InvalidParameterError):
            repro.build(
                "unbiased_space_saving",
                size=8,
                backend="sharded",
                window="tumbling:60s",
            )

    def test_decay_window_requires_unbiased_spec(self):
        with pytest.raises(CapabilityError):
            repro.build("misra_gries", size=8, window="decay:exp:0.01")

    def test_unknown_window_params_rejected(self):
        with pytest.raises(InvalidParameterError):
            repro.build(
                "unbiased_space_saving", size=8, window="tumbling:60s", bogus=3
            )

    def test_windowed_session_merged_and_checkpoint(self, tmp_path):
        session = repro.build(
            "unbiased_space_saving", size=32, window="sliding:1m/20s", seed=3
        )
        session.update_batch(
            ["a", "b", "a", "c"], timestamps=[1.0, 10.0, 30.0, 55.0]
        )
        merged = session.merged()
        assert merged.total_estimate() == pytest.approx(4.0)
        path = tmp_path / "window.ckpt"
        session.save_checkpoint(path)
        restored = repro.load_checkpoint(path)
        assert restored.estimates() == session.estimates()

    def test_wrapping_a_windowed_sketch_detects_the_policy(self):
        sketch = SlidingWindowSketch(16, horizon="40s", pane="20s", seed=0)
        session = repro.StreamSession(sketch)
        assert session.window == "sliding:40s/20s"
        session.update("x", timestamp=5.0)
        assert session.estimates() == {"x": 1.0}
