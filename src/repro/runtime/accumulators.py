"""Streaming (online) statistics behind every serving report.

The serving engine accounts each request into a :class:`ServingStats` the
moment it reaches a terminal state, and every aggregate of a
:class:`~repro.runtime.serving.ServingReport` reads those accumulators.  The
per-request :class:`~repro.runtime.serving.RequestRecord` list is only a log:
kept by default (golden-trace scale, full timelines pinned bit-exactly) and
dropped under ``stream_stats``, where a million records with per-event
timelines would cost gigabytes.  The record-keeping engine keeps every
latency sample (unbounded exact threshold); ``stream_stats`` bounds the
percentile estimators to a reservoir past :data:`DEFAULT_EXACT_THRESHOLD`.

:class:`OnlineStats`
    Exact running count / sum / min / max / mean (one float add per sample —
    summation order is the engine's completion order, so results are
    deterministic run to run).

:class:`StreamingPercentiles`
    Percentile estimator that is *exact below a threshold* (it keeps the raw
    sample list, so its percentiles are bit-identical to sorting the full
    sample) and degrades to a seeded reservoir sample beyond it (Vitter's
    Algorithm R with a fixed ``random.Random`` seed, so large runs stay
    deterministic too).

:class:`ServingStats`
    Every aggregate a serving report reports: terminal-status
    counts, SLO attainment, latency mean/percentiles (overall, per priority
    class, and over retried requests), queueing delay, backbone bytes and the
    makespan window.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

#: Sample-count threshold under which percentiles stay exact by default.
#: Chosen well above every golden/test workload and small enough that the
#: exact list is never the memory bottleneck.
DEFAULT_EXACT_THRESHOLD = 4096

#: Reservoir size once an estimator degrades past its exact threshold.
DEFAULT_RESERVOIR_SIZE = 4096


class OnlineStats:
    """Running count / total / extrema of a float stream (O(1) memory)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 on an empty stream, like the report helpers)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count


class StreamingPercentiles:
    """Percentile estimator: exact at small N, seeded reservoir beyond.

    Up to ``exact_threshold`` samples the estimator keeps every value and its
    percentiles are *bit-identical* to sorting the full sample (it delegates
    to :func:`repro.experiments.reporting.percentile`).  Past the threshold
    it switches to a fixed-size reservoir (Algorithm R) driven by a
    ``random.Random(seed)``, so the estimate is deterministic for a given
    insertion order and converges at the usual O(1/sqrt(reservoir)) rank
    error.
    """

    __slots__ = ("exact_threshold", "reservoir_size", "_values", "_rng", "count")

    def __init__(
        self,
        exact_threshold: float = DEFAULT_EXACT_THRESHOLD,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
        seed: int = 0,
    ) -> None:
        if exact_threshold < 0:
            raise ValueError("exact_threshold cannot be negative")
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be positive")
        self.exact_threshold = max(exact_threshold, reservoir_size)
        self.reservoir_size = reservoir_size
        self._values: List[float] = []
        self._rng = random.Random(seed)
        self.count = 0

    def add(self, value: float) -> None:
        self.count += 1
        if self.count <= self.exact_threshold:
            self._values.append(value)
            return
        if len(self._values) > self.reservoir_size:
            # First sample past the threshold: shrink the exact list into a
            # uniform reservoir (Fisher-Yates prefix of a seeded shuffle).
            self._rng.shuffle(self._values)
            del self._values[self.reservoir_size :]
        slot = self._rng.randrange(self.count)
        if slot < self.reservoir_size:
            self._values[slot] = value

    @property
    def is_exact(self) -> bool:
        """True while no sample has been discarded."""
        return self.count <= self.exact_threshold

    @property
    def sample(self) -> List[float]:
        """The retained values (the full stream while :attr:`is_exact`)."""
        return list(self._values)

    def percentile(self, q: float, interpolation: str = "linear") -> float:
        """The ``q``-th percentile of the stream (0.0 when empty)."""
        from repro.experiments.reporting import percentile

        if not self._values:
            return 0.0
        return percentile(self._values, q, interpolation=interpolation)

    def percentiles(
        self,
        quantiles: Sequence[float] = (50.0, 95.0, 99.0),
        interpolation: str = "linear",
    ) -> Dict[str, float]:
        """Named percentile summary matching the report's shape."""
        from repro.experiments.reporting import latency_percentiles

        if not self._values:
            return {f"p{q:g}": 0.0 for q in quantiles}
        return latency_percentiles(
            self._values, quantiles, interpolation=interpolation
        )


class ServingStats:
    """The aggregates of a :class:`ServingReport`, accumulated online.

    Fed one terminal request at a time by the serving engine (in completion
    order); the report's properties read these counters.  ``exact_threshold``
    bounds every percentile estimator (``math.inf`` keeps every sample).
    """

    __slots__ = (
        "num_requests",
        "num_completed",
        "num_failed",
        "num_rejected",
        "num_retried",
        "num_met_slo",
        "has_slos",
        "bytes_to_cloud",
        "latency",
        "queueing",
        "percentiles",
        "retried_percentiles",
        "by_class",
        "arrival_min",
        "completion_max",
        "_exact_threshold",
    )

    def __init__(self, exact_threshold: float = DEFAULT_EXACT_THRESHOLD) -> None:
        self.num_requests = 0
        self.num_completed = 0
        self.num_failed = 0
        self.num_rejected = 0
        self.num_retried = 0
        self.num_met_slo = 0
        self.has_slos = False
        self.bytes_to_cloud = 0
        self.latency = OnlineStats()
        self.queueing = OnlineStats()
        self.percentiles = StreamingPercentiles(exact_threshold)
        self.retried_percentiles = StreamingPercentiles(exact_threshold)
        self.by_class: Dict[int, StreamingPercentiles] = {}
        self.arrival_min = math.inf
        self.completion_max = -math.inf
        self._exact_threshold = exact_threshold

    def add(
        self,
        status: str,
        arrival_s: float,
        completion_s: float,
        retries: int,
        slo_ms: Optional[float],
        priority: int,
        ideal_latency_s: Optional[float],
        bytes_to_cloud: int,
    ) -> None:
        """Account one terminal request (mirrors ``RequestRecord`` semantics)."""
        self.num_requests += 1
        if arrival_s < self.arrival_min:
            self.arrival_min = arrival_s
        if completion_s > self.completion_max:
            self.completion_max = completion_s
        if slo_ms is not None:
            self.has_slos = True
        if retries > 0:
            self.num_retried += 1
        self.bytes_to_cloud += bytes_to_cloud
        if status == "rejected":
            self.num_rejected += 1
            return
        if status == "failed":
            self.num_failed += 1
            return
        self.num_completed += 1
        latency = completion_s - arrival_s
        if slo_ms is None or latency <= slo_ms / 1e3 + 1e-12:
            self.num_met_slo += 1
        self.latency.add(latency)
        self.percentiles.add(latency)
        estimator = self.by_class.get(priority)
        if estimator is None:
            estimator = self.by_class[priority] = StreamingPercentiles(
                self._exact_threshold
            )
        estimator.add(latency)
        if retries > 0:
            self.retried_percentiles.add(latency)
        if ideal_latency_s is not None and retries == 0:
            self.queueing.add(latency - ideal_latency_s)

    @property
    def makespan_window(self) -> Tuple[float, float]:
        """``(start, end)`` of the observed run, ``(0, 0)`` when empty."""
        if self.num_requests == 0:
            return 0.0, 0.0
        return self.arrival_min, self.completion_max
