"""Statistics collection tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.timeline import TimelineSampler
from repro.sim.stats import LatencyDigest, RunStats, percentile


class TestPercentile:
    def test_empty_is_guarded(self):
        # zero-sample windows (e.g. every evaluation of a generation timed
        # out and fallback fitness was used) must stay finite — NaN would
        # poison JSON artifacts and summary arithmetic
        assert percentile([], 0.5) == 0.0

    def test_bounds(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 3.0

    def test_median(self):
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=50, deadline=None)
    def test_percentile_is_a_member(self, values, fraction):
        values.sort()
        assert percentile(values, fraction) in values


class TestLatencyDigest:
    def test_summary_fields(self):
        digest = LatencyDigest()
        for value in [10.0, 20.0, 30.0, 40.0]:
            digest.record(value)
        summary = digest.summary()
        assert summary["avg"] == 25.0
        assert summary["p50"] == 20.0
        assert summary["p99"] == 40.0

    def test_empty_digest_summarises_to_zeros(self):
        digest = LatencyDigest()
        assert digest.avg == 0.0
        assert digest.summary() == {"avg": 0.0, "p50": 0.0,
                                    "p90": 0.0, "p99": 0.0}

    def test_lazy_sort_invalidated_by_new_records(self):
        digest = LatencyDigest()
        digest.record(50.0)
        assert digest.pct(0.5) == 50.0  # triggers the one-time sort
        digest.record(1.0)              # must mark samples unsorted again
        assert digest.pct(0.0) == 1.0
        assert digest.pct(1.0) == 50.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_interleaved_record_and_pct_match_batch(self, values):
        interleaved = LatencyDigest()
        for value in values:
            interleaved.record(value)
            interleaved.pct(0.5)  # force a sort mid-stream
        batch = LatencyDigest()
        for value in values:
            batch.record(value)
        for fraction in (0.0, 0.5, 0.9, 1.0):
            assert interleaved.pct(fraction) == batch.pct(fraction)


class TestRunStats:
    def make(self, warmup=0.0):
        stats = RunStats(["a", "b"], warmup_end=warmup)
        stats.start_time = 0.0
        stats.end_time = 10_000.0
        return stats

    def test_throughput(self):
        stats = self.make()
        for _ in range(10):
            stats.record_commit("a", 5000.0, 100.0)
        # 10 commits in 10k ticks = 10 per 0.01s = 1000 TPS
        assert stats.throughput() == pytest.approx(1000.0)
        assert stats.throughput_of("a") == pytest.approx(1000.0)
        assert stats.throughput_of("b") == 0.0

    def test_warmup_excluded(self):
        stats = self.make(warmup=5000.0)
        stats.record_commit("a", 1000.0, 10.0)   # inside warm-up
        stats.record_commit("a", 6000.0, 10.0)   # counted
        assert stats.total_commits == 1
        assert stats.warmup_commits == 1
        # measured span is duration - warmup
        assert stats.throughput() == pytest.approx(1 / 5000.0 * 1e6)

    def test_abort_accounting(self):
        stats = self.make()
        stats.record_commit("a", 100.0, 10.0)
        stats.record_abort("a", 200.0, "validation")
        stats.record_abort("b", 300.0, "validation")
        stats.record_abort("b", 400.0, "lock_die")
        assert stats.total_aborts == 3
        assert stats.abort_rate() == pytest.approx(0.75)
        assert stats.abort_reasons == {"validation": 2, "lock_die": 1}

    def test_piece_retries(self):
        stats = self.make()
        stats.record_piece_retry("a", 6000.0)
        stats.record_piece_retry("a", 7000.0)
        assert stats.piece_retries["a"] == 2

    def test_piece_retries_gated_on_warmup(self):
        stats = self.make(warmup=5000.0)
        stats.record_piece_retry("a", 4999.0)
        stats.record_piece_retry("a", 5000.0)
        assert stats.piece_retries["a"] == 1
        assert stats.warmup_piece_retries == 1

    def test_backoff_gated_on_warmup(self):
        stats = self.make(warmup=5000.0)
        stats.record_backoff(100.0, 4000.0)
        stats.record_backoff(30.0, 5000.0)
        stats.record_backoff(20.0, 6000.0)
        assert stats.backoff_time == pytest.approx(50.0)
        assert stats.warmup_backoff_time == pytest.approx(100.0)

    def test_commits_feed_the_timeline_sampler(self):
        stats = self.make()
        stats.sampler = TimelineSampler(window=1000.0, n_workers=1)
        stats.record_commit("a", 500.0, 1.0)
        stats.record_commit("a", 2500.0, 1.0)
        stats.record_commit("a", 2700.0, 1.0)
        series = [row["throughput_tps"] for row in stats.sampler.rows()]
        assert len(series) == 3
        assert series[0] == pytest.approx(1000.0)  # 1 commit/ms = 1000/s
        assert series[1] == 0.0
        assert series[2] == pytest.approx(2000.0)

    def test_latency_recorded_per_type(self):
        stats = self.make()
        stats.record_commit("a", 100.0, 42.0)
        assert stats.latency["a"].count == 1
        summary = stats.summary()
        assert summary["latency_us"]["a"]["avg"] == 42.0

    def test_zero_span_throughput(self):
        stats = RunStats(["a"])
        assert stats.throughput() == 0.0

    def test_throughput_of_unknown_type_raises(self):
        stats = self.make()
        with pytest.raises(ReproError, match="unknown transaction type"):
            stats.throughput_of("nosuch")

    def test_warmup_abort_reasons_kept(self):
        stats = self.make(warmup=5000.0)
        stats.record_abort("a", 1000.0, "validation")   # inside warm-up
        stats.record_abort("a", 6000.0, "lock_die")     # measured
        assert stats.abort_reasons == {"lock_die": 1}
        assert stats.warmup_abort_reasons == {"validation": 1}
