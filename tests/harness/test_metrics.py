"""Tests for metrics aggregation."""

import math

from repro.harness.metrics import LogStats, RunMetrics, aggregate_metrics
from repro.model import AbortReason
from tests.helpers import aborted, committed, entry, txn


def outcome(tid, status="commit", promotions=0, begin=0.0, end=100.0,
            reason=AbortReason.LOST_POSITION):
    t = txn(tid, writes={"a": 1})
    if status == "commit":
        result = committed(t, position=1, promotions=promotions)
    else:
        result = aborted(t, reason)
        result.promotions = promotions
    result.begin_time = begin
    result.end_time = end
    return result


class TestRunMetrics:
    def test_counts_commits_and_aborts(self):
        metrics = RunMetrics.from_outcomes([
            outcome("t1"), outcome("t2", "abort"), outcome("t3"),
        ], protocol="paxos")
        assert metrics.n_transactions == 3
        assert metrics.commits == 2
        assert metrics.aborts == 1
        assert metrics.commit_rate == 2 / 3
        assert metrics.aborts_by_reason == {"lost_position": 1}

    def test_commits_by_promotion_round(self):
        metrics = RunMetrics.from_outcomes([
            outcome("t1", promotions=0),
            outcome("t2", promotions=0),
            outcome("t3", promotions=1),
            outcome("t4", promotions=3),
        ])
        assert metrics.commits_by_round == {0: 2, 1: 1, 3: 1}
        assert metrics.max_promotions == 3

    def test_latency_statistics(self):
        metrics = RunMetrics.from_outcomes([
            outcome("t1", end=100.0),
            outcome("t2", end=200.0),
            outcome("t3", "abort", end=900.0),
        ])
        assert metrics.mean_commit_latency_ms == 150.0
        assert metrics.median_commit_latency_ms == 150.0
        assert metrics.mean_all_latency_ms == 400.0

    def test_latency_by_round(self):
        metrics = RunMetrics.from_outcomes([
            outcome("t1", promotions=0, end=100.0),
            outcome("t2", promotions=1, end=300.0),
        ])
        assert metrics.latency_by_round == {0: 100.0, 1: 300.0}

    def test_empty_outcomes(self):
        metrics = RunMetrics.from_outcomes([])
        assert metrics.commits == 0
        assert math.isnan(metrics.mean_commit_latency_ms)
        assert math.isnan(metrics.commit_rate)

    def test_log_stats(self):
        log = {
            1: entry(txn("t1", writes={"a": 1})),
            2: entry(txn("t2", writes={"a": 2}), txn("t3", writes={"b": 1})),
        }
        stats = LogStats.from_log(log)
        assert stats.positions == 2
        assert stats.combined_entries == 1
        assert stats.combined_transactions == 1
        assert stats.max_entry_size == 2


class TestAggregate:
    def test_single_trial_passthrough(self):
        metrics = RunMetrics.from_outcomes([outcome("t1")])
        assert aggregate_metrics([metrics]) is metrics

    def test_averaging(self):
        first = RunMetrics.from_outcomes(
            [outcome("t1"), outcome("t2", "abort")], protocol="paxos"
        )
        second = RunMetrics.from_outcomes(
            [outcome("t3"), outcome("t4")], protocol="paxos"
        )
        merged = aggregate_metrics([first, second])
        assert merged.n_transactions == 2
        assert merged.commits == 2  # round(1.5) = 2 (banker's -> 2)
        assert merged.protocol == "paxos"

    def test_round_histograms_merge(self):
        first = RunMetrics.from_outcomes([outcome("t1", promotions=1)])
        second = RunMetrics.from_outcomes([outcome("t2", promotions=2)])
        merged = aggregate_metrics([first, second])
        assert set(merged.commits_by_round) == {1, 2}
        assert merged.max_promotions == 2

    def test_log_stats_average_every_field(self):
        """Gap fills (noop entries) average like every other log count."""
        first = RunMetrics.from_outcomes([outcome("t1")])
        second = RunMetrics.from_outcomes([outcome("t2")])
        first.log = LogStats(positions=4, noop_entries=2, prepare_entries=1)
        second.log = LogStats(positions=6, noop_entries=4, prepare_entries=3)
        merged = aggregate_metrics([first, second]).log
        assert merged == LogStats(positions=5, noop_entries=3, prepare_entries=2)

    def test_empty_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            aggregate_metrics([])


class TestNoopStats:
    def test_log_stats_counts_noop_entries(self):
        from repro.wal.entry import LogEntry

        log = {
            1: entry(txn("t1", writes={"a": 1})),
            2: LogEntry.noop(),
        }
        stats = LogStats.from_log(log)
        assert stats.positions == 2
        assert stats.noop_entries == 1
        assert stats.combined_entries == 0
