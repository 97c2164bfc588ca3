"""Streaming accumulators: exactness at small N, tolerance at large N, and
an engine-level oracle: every report aggregate, in record and stream mode,
equals a recount of the record log on the golden scenarios."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.d3 import D3Config, D3System
from repro.experiments.reporting import latency_percentiles, percentile
from repro.network.topology import Topology
from repro.runtime.accumulators import (
    DEFAULT_EXACT_THRESHOLD,
    OnlineStats,
    ServingStats,
    StreamingPercentiles,
)
from repro.runtime.workload import Workload
from repro.testing import GOLDEN_SCENARIOS

QUANTILES = (50.0, 95.0, 99.0)


# --------------------------------------------------------------------------- #
# OnlineStats
# --------------------------------------------------------------------------- #
class TestOnlineStats:
    def test_empty(self):
        stats = OnlineStats()
        assert stats.count == 0
        assert stats.mean == 0.0

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_batch_mean_min_max(self, values):
        stats = OnlineStats()
        for value in values:
            stats.add(value)
        assert stats.count == len(values)
        assert stats.min == min(values)
        assert stats.max == max(values)
        assert stats.mean == pytest.approx(sum(values) / len(values), rel=1e-12)


# --------------------------------------------------------------------------- #
# StreamingPercentiles
# --------------------------------------------------------------------------- #
class TestStreamingPercentiles:
    @given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_exact_below_threshold(self, values):
        """Below the exact threshold the streaming path IS the sorting path:
        every quantile matches `reporting.percentile` bit for bit."""
        streaming = StreamingPercentiles(exact_threshold=DEFAULT_EXACT_THRESHOLD)
        for value in values:
            streaming.add(value)
        assert streaming.is_exact
        for q in QUANTILES:
            assert streaming.percentile(q) == percentile(values, q)
        named = latency_percentiles(values, QUANTILES)
        assert streaming.percentiles(QUANTILES) == named

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_reservoir_tolerance_at_large_n(self, seed):
        """Past the threshold the reservoir estimate stays within a small
        rank tolerance of the exact percentile for a well-behaved stream."""
        import random

        rng = random.Random(seed)
        n = 20_000
        values = [rng.random() * 100.0 for _ in range(n)]
        streaming = StreamingPercentiles(exact_threshold=4096, reservoir_size=4096, seed=0)
        for value in values:
            streaming.add(value)
        assert not streaming.is_exact
        ordered = sorted(values)
        for q in QUANTILES:
            estimate = streaming.percentile(q)
            # Rank-based tolerance: the estimate must sit within +/-2.5
            # rank percentage points of the true order statistic (a classic
            # uniform-reservoir bound at 4096 samples, far below any
            # regression that would matter for a latency report).
            lo = ordered[max(0, int(n * (q - 2.5) / 100.0))]
            hi = ordered[min(n - 1, int(math.ceil(n * min(q + 2.5, 100.0) / 100.0)) - 1)]
            assert lo <= estimate <= hi, (q, lo, estimate, hi)

    def test_empty_stream(self):
        streaming = StreamingPercentiles(exact_threshold=16)
        assert streaming.percentile(50.0) == 0.0
        assert streaming.percentiles(QUANTILES) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_reservoir_bounds_memory(self):
        streaming = StreamingPercentiles(exact_threshold=64, reservoir_size=64, seed=0)
        for index in range(10_000):
            streaming.add(float(index))
        assert len(streaming.sample) == 64


# --------------------------------------------------------------------------- #
# Engine oracle: report aggregates vs a recount of the record log
# --------------------------------------------------------------------------- #
def _system(**overrides) -> D3System:
    config = dict(
        topology=Topology.three_tier(num_edge_nodes=4, network="wifi"),
        use_regression=False,
        profiler_noise_std=0.0,
    )
    config.update(overrides)
    return D3System(D3Config(**config))


def _named_percentiles(values):
    if not values:
        return {f"p{q:g}": 0.0 for q in QUANTILES}
    return latency_percentiles(values, QUANTILES)


def _recount(records) -> dict:
    """Every report aggregate recomputed by scanning the record log."""
    completed = [r for r in records if r.completed]
    latencies = [r.latency_s for r in completed]
    delays = [
        r.queueing_delay_s
        for r in completed
        if r.retries == 0 and r.queueing_delay_s is not None
    ]
    by_class = {}
    for record in completed:
        by_class.setdefault(record.priority, []).append(record.latency_s)
    return {
        "num_requests": len(records),
        "num_completed": len(completed),
        "num_failed": sum(1 for r in records if r.status == "failed"),
        "num_rejected": sum(1 for r in records if r.rejected),
        "num_retried": sum(1 for r in records if r.retries > 0),
        "num_met_slo": sum(1 for r in records if r.met_slo),
        "mean_latency_s": sum(latencies) / len(latencies) if latencies else 0.0,
        "percentiles": _named_percentiles(latencies),
        "retried_percentiles": _named_percentiles(
            [r.latency_s for r in completed if r.retries > 0]
        ),
        "class_percentiles": {
            cls: latency_percentiles(values, QUANTILES)
            for cls, values in sorted(by_class.items())
        },
        "mean_queueing_delay_s": sum(delays) / len(delays) if delays else None,
        "bytes_to_cloud": sum(r.report.bytes_to_cloud for r in records),
        "makespan_s": (
            max(r.completion_s for r in records) - min(r.arrival_s for r in records)
            if records
            else 0.0
        ),
    }


def _aggregates(report) -> dict:
    """The same aggregates as the report states them."""
    return {
        "num_requests": report.num_requests,
        "num_completed": report.num_completed,
        "num_failed": report.num_failed,
        "num_rejected": report.num_rejected,
        "num_retried": report.num_retried,
        "num_met_slo": report.num_met_slo,
        "mean_latency_s": report.mean_latency_s,
        "percentiles": report.latency_percentiles(QUANTILES),
        "retried_percentiles": report.latency_percentiles(QUANTILES, retried_only=True),
        "class_percentiles": report.class_percentiles(QUANTILES),
        "mean_queueing_delay_s": report.mean_queueing_delay_s(),
        "bytes_to_cloud": report.bytes_to_cloud,
        "makespan_s": report.makespan_s,
    }


class TestStreamingEngineDeterminism:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_summaries_identical_on_golden_workloads(self, name):
        """Both modes report exactly what a scan of the record log computes."""
        full = GOLDEN_SCENARIOS[name]()
        assert full.records
        reference = _recount(full.records)
        assert _aggregates(full) == reference
        stream = GOLDEN_SCENARIOS[name](stream_stats=True)
        assert stream.records == []
        assert _aggregates(stream) == reference

    def test_streaming_matches_under_schedulers(self):
        workload = Workload.poisson(
            "alexnet", num_requests=50, rate_rps=20.0, seed=0, slo_ms=400.0
        )
        for scheduler in ("fifo", "batch", "edf"):
            full = _system().serve(workload, scheduler=scheduler)
            reference = _recount(full.records)
            assert _aggregates(full) == reference, scheduler
            stream = _system().serve(workload, scheduler=scheduler, stream_stats=True)
            assert _aggregates(stream) == reference, scheduler
            assert stream.goodput_rps == full.goodput_rps, scheduler
            assert stream.slo_attainment == full.slo_attainment, scheduler

    def test_record_mode_percentiles_exact_past_stream_threshold(self):
        """The record log keeps every sample, so percentiles stay exact past
        the point where ``stream_stats`` switches to a reservoir."""
        workload = Workload.poisson("alexnet", num_requests=4500, rate_rps=12.0, seed=1)
        full = _system().serve(workload)
        assert full.num_completed > DEFAULT_EXACT_THRESHOLD
        reference = _recount(full.records)
        assert full.latency_percentiles(QUANTILES) == reference["percentiles"]
        assert full.class_percentiles(QUANTILES) == reference["class_percentiles"]
        assert full.stats.percentiles.is_exact

    def test_streaming_report_has_no_records(self):
        workload = Workload.constant_rate("alexnet", 10, interval_s=0.05)
        report = _system().serve(workload, stream_stats=True)
        assert report.records == []
        assert report.batches == []
        assert report.stats.num_requests == 10


# --------------------------------------------------------------------------- #
# ServingStats unit behaviour
# --------------------------------------------------------------------------- #
class TestServingStats:
    def test_rejected_requests_skip_latency(self):
        stats = ServingStats()
        stats.add(
            arrival_s=0.0,
            completion_s=0.0,
            status="rejected",
            retries=0,
            slo_ms=100.0,
            priority=0,
            bytes_to_cloud=0,
            ideal_latency_s=None,
        )
        assert stats.num_rejected == 1
        assert stats.latency.count == 0

    def test_slo_attainment_counts(self):
        stats = ServingStats()
        for latency, slo in ((0.05, 100.0), (0.2, 100.0)):
            stats.add(
                arrival_s=0.0,
                completion_s=latency,
                status="completed",
                retries=0,
                slo_ms=slo,
                priority=0,
                bytes_to_cloud=0,
                ideal_latency_s=None,
            )
        assert stats.num_completed == 2
        assert stats.num_met_slo == 1
