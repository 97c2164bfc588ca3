"""The D3 system facade.

Wires the full pipeline of Fig. 2 together:

``profiler -> regression model -> HPA -> VSM -> online execution engine``

so that examples, experiments and benchmarks can obtain an end-to-end result
with a single call::

    system = D3System(D3Config(network="wifi", num_edge_nodes=4))
    result = system.run(build_model("vgg16"))
    print(result.report.summary())
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dynamic import DynamicRepartitioner, RepartitionThresholds
from repro.core.economics import ObjectiveWeights, TierEconomics
from repro.core.hpa import HPAConfig, HorizontalPartitioner
from repro.core.placement import (
    TIER_ORDER,
    PlacementPlan,
    PlanEvaluator,
    PlanMetrics,
    Tier,
)
from repro.core.plan_cache import CachedPlan, PlanCache, PlanKey
from repro.core.strategy import (
    ClusterSpec,
    HpaStrategy,
    HpaVsmStrategy,
    PartitionStrategy,
    StrategyUnsupportedError,
    get_strategy,
)
from repro.core.vsm import VSMPlan
from repro.graph.dag import DnnGraph
from repro.network.conditions import BandwidthTrace, NetworkCondition, get_condition
from repro.network.faults import FaultSchedule, load_fault_schedule
from repro.network.topology import LinkSpec, Topology, TopologyError, load_topology
from repro.profiling.hardware import HardwareSpec
from repro.profiling.profiler import LatencyProfile, Profiler
from repro.profiling.regression import LatencyRegressionModel
from repro.runtime.artifacts import MemoryModel, resolve_memory
from repro.runtime.calibration import (
    AdaptationTracker,
    BandwidthForecaster,
    CalibrationConfig,
    OnlineCostCalibrator,
    resolve_calibration,
)
from repro.runtime.cluster import Cluster
from repro.runtime.elasticity import (
    Autoscaler,
    ElasticitySchedule,
    LoadBalancer,
    load_elasticity_schedule,
)
from repro.runtime.executor import DistributedExecutor
from repro.runtime.scheduler import Scheduler
from repro.runtime.serving import (
    DEFAULT_MAX_RETRIES,
    ServingReport,
    ServingRequest,
    ServingSimulator,
)
from repro.runtime.simulator import ExecutionReport
from repro.runtime.workload import Workload


@dataclass
class D3Config:
    """Configuration of the D3 facade.

    Attributes
    ----------
    topology:
        The deployment description: a
        :class:`~repro.network.topology.Topology`, a preset name
        (``"multi_device"``, ``"hetero_edge"``, ...) or a path to a topology
        JSON file.  ``None`` builds the paper's canonical testbed from the
        deprecated ``network``/``num_edge_nodes`` shims below.
    network:
        Network condition name (Table III) or an explicit condition object.
        With a topology referenced *by name or path*, this is the base
        condition presets are built under and JSON documents fall back to; a
        :class:`Topology` *object* (or a JSON document declaring its own
        ``"network"``) is a complete artifact whose ``base_network`` wins.
        Without a topology it is a deprecated shim feeding the canonical
        :meth:`~repro.network.topology.Topology.three_tier` testbed.
    num_edge_nodes:
        Deprecated shim (use ``topology=``): edge nodes available for VSM
        parallelism in the canonical testbed (the paper uses 4).  Ignored
        when ``topology`` is given.
    tile_grid:
        The ``A x B`` VSM separation decision (the paper uses 2 x 2).
    enable_vsm:
        Disable to obtain the "HPA only" configuration of Figs. 9-11.
    use_regression:
        Estimate per-layer latencies with the regression model (the paper's
        approach); when ``False`` the profiler's direct measurements are used.
    profiler_noise_std:
        Measurement noise of the profiler.
    profiler_repeats:
        Number of repeated measurements averaged per layer.
    seed:
        Seed for the profiler's random generator.
    hpa:
        Heuristic switches of the horizontal partition algorithm.
    calibration_models:
        Extra graphs profiled to train the regression model; the target graph
        is always included.
    plan_cache_entries:
        Optional LRU bound on the serving plan cache (``None`` = unbounded).
        Topology drift and failure-degraded deployment shapes mint fresh
        cache keys, so long-lived serving systems should bound the cache.
    max_retries:
        Default failover retry budget per request when serving under a fault
        schedule (overridable per :meth:`D3System.serve` call).
    objective_weights:
        Optional multi-objective scalarisation: an
        :class:`~repro.core.economics.ObjectiveWeights` or a
        ``(latency, energy, cost)`` 3-sequence.  When set (and not
        latency-only), every planning path — D3's HPA family and all
        registered baselines — minimises the weighted score over the
        deployment's :class:`~repro.core.economics.TierEconomics` instead of
        pure latency.  ``None`` (the default) keeps every code path
        bit-identical to the latency-only system; an all-zero vector raises
        :class:`~repro.core.economics.InvalidWeightsError`.
    """

    topology: "Topology | str | None" = None
    network: NetworkCondition | str = "wifi"
    num_edge_nodes: int = 1
    tile_grid: Tuple[int, int] = (2, 2)
    enable_vsm: bool = True
    use_regression: bool = True
    profiler_noise_std: float = 0.03
    profiler_repeats: int = 3
    seed: int = 0
    hpa: HPAConfig = field(default_factory=HPAConfig)
    calibration_models: Sequence[DnnGraph] = ()
    plan_cache_entries: Optional[int] = None
    max_retries: int = DEFAULT_MAX_RETRIES
    objective_weights: "ObjectiveWeights | Sequence[float] | None" = None

    def __post_init__(self) -> None:
        self.objective_weights = ObjectiveWeights.coerce(self.objective_weights)

    def resolve_network(self) -> NetworkCondition:
        if isinstance(self.network, str):
            return get_condition(self.network)
        return self.network

    def resolve_topology(self) -> Topology:
        """The deployment topology this config describes.

        ``None`` (the deprecated fixed-shape path) builds the canonical
        three-tier testbed from ``num_edge_nodes``/``network`` — bit-identical
        to the pre-topology API.
        """
        if self.topology is None or self.topology == "three_tier":
            # The canonical preset honours the num_edge_nodes shim, so
            # ``topology="three_tier"`` and the no-topology default describe
            # the same testbed.
            return Topology.three_tier(
                num_edge_nodes=self.num_edge_nodes, network=self.resolve_network()
            )
        if isinstance(self.topology, str):
            return load_topology(self.topology, network=self.network)
        return self.topology

    def plan_key(self) -> Tuple:
        """Hashable signature of everything that affects a partitioning plan."""
        return (
            self.num_edge_nodes,
            tuple(self.tile_grid),
            self.enable_vsm,
            self.use_regression,
            self.profiler_noise_std,
            self.profiler_repeats,
            self.seed,
            self.hpa.enable_sis_update,
            self.hpa.lookahead,
            self.hpa.reference_tier_for_successor,
            None
            if self.objective_weights is None
            else self.objective_weights.as_tuple(),
        )


@dataclass
class D3Result:
    """Everything produced by one D3 run for one model."""

    graph: DnnGraph
    network: NetworkCondition
    profile: LatencyProfile
    placement: PlacementPlan
    vsm_plan: Optional[VSMPlan]
    metrics: PlanMetrics
    report: ExecutionReport
    #: Registry name of the partitioning method that produced the placement.
    method: str = "hpa_vsm"

    @property
    def end_to_end_latency_s(self) -> float:
        """Simulated end-to-end inference latency (the headline metric)."""
        return self.report.end_to_end_latency_s

    @property
    def bytes_to_cloud(self) -> int:
        """Per-image backbone traffic to the cloud."""
        return self.report.bytes_to_cloud

    def tier_times_ms(self) -> Dict[Tier, float]:
        """Per-tier busy time in milliseconds (the quantity of Table II)."""
        return {tier: busy * 1e3 for tier, busy in self.report.tier_busy_seconds().items()}


class D3System:
    """End-to-end D3: profile, estimate, partition, separate, execute."""

    #: LRU bound on memoized degraded deployments (masked topology + realized
    #: cluster per failure signature); far above what any realistic fault
    #: schedule visits, but a hard cap against combinatorial shapes.
    DEGRADED_MEMO_ENTRIES = 32

    def __init__(self, config: Optional[D3Config] = None) -> None:
        self.config = config or D3Config()
        self.topology = self.config.resolve_topology()
        weights = self.config.objective_weights
        #: Healthy-deployment economics view; None under the (default)
        #: latency-only objective so every planning path stays untouched.
        self._economics: Optional[TierEconomics] = (
            TierEconomics.from_topology(self.topology)
            if weights is not None and not weights.is_latency_only
            else None
        )
        self.cluster = Cluster.from_topology(
            self.topology,
            network=self.topology.base_network or self.config.resolve_network(),
        )
        #: Planning-view condition (tier-pair effective bandwidths); for the
        #: canonical testbed this is exactly the configured condition.
        self.network = self.cluster.network
        self.profiler = Profiler(
            noise_std=self.config.profiler_noise_std, seed=self.config.seed
        )
        self._regression: Optional[LatencyRegressionModel] = None
        self.plan_cache = PlanCache(max_entries=self.config.plan_cache_entries)
        self._graphs: Dict[str, DnnGraph] = {}
        self._profiles: Dict[str, LatencyProfile] = {}
        #: Degraded deployments, memoized per failure signature: the masked
        #: topology (whose fingerprint keys degraded plans separately from
        #: healthy ones) and its realized cluster (planning view + VSM spec).
        #: LRU-bounded: a chaotic fleet can visit combinatorially many
        #: failure signatures over a long lifetime.
        self._degraded: "OrderedDict[Tuple, Tuple[Topology, Cluster]]" = OrderedDict()
        #: Memory constraint in effect for the current serve()/plan_requests()
        #: call; None outside memory-constrained calls so the planning path
        #: stays bit-identical to the memory-free one.
        self._memory: Optional[MemoryModel] = None
        #: Online-calibration state in effect for the current serve() call;
        #: all None outside calibrated calls (same inertness contract as
        #: ``_memory``).  ``_adaptation_time``/``_adaptation_sample`` carry
        #: the arrival being planned into :meth:`_plan_for`'s trigger paths.
        self._calibration: Optional[OnlineCostCalibrator] = None
        self._forecaster: Optional[BandwidthForecaster] = None
        self._adaptation: Optional[AdaptationTracker] = None
        self._adaptation_time = 0.0
        self._adaptation_sample = 1.0

    # ------------------------------------------------------------------ #
    # Offline phase
    # ------------------------------------------------------------------ #
    def build_profile(self, graph: DnnGraph) -> LatencyProfile:
        """Produce the per-vertex, per-tier latency estimates for ``graph``."""
        tier_hardware: Dict[str, HardwareSpec] = self.cluster.tier_hardware()
        if not self.config.use_regression:
            return self.profiler.build_profile_from_measurements(
                graph, tier_hardware, repeats=self.config.profiler_repeats
            )
        regression = self.train_regression(graph)
        return self.profiler.build_profile_from_regression(graph, tier_hardware, regression)

    def train_regression(self, graph: DnnGraph) -> LatencyRegressionModel:
        """Train (or reuse) the latency regression model."""
        if self._regression is not None:
            return self._regression
        calibration = list(self.config.calibration_models) or []
        graphs = [graph, *calibration]
        samples = self.profiler.collect_training_samples(
            graphs,
            list(self.cluster.tier_hardware().values()),
            repeats=self.config.profiler_repeats,
        )
        self._regression = LatencyRegressionModel().fit(samples)
        return self._regression

    # ------------------------------------------------------------------ #
    # Partitioning and execution
    # ------------------------------------------------------------------ #
    def partition(self, graph: DnnGraph, profile: Optional[LatencyProfile] = None) -> PlacementPlan:
        """Run HPA for ``graph`` under the configured conditions."""
        profile = profile or self.build_profile(graph)
        partitioner = HorizontalPartitioner(
            profile,
            self.network,
            self.config.hpa,
            economics=self._economics,
            weights=self.config.objective_weights,
        )
        return partitioner.partition(graph)

    def separate(self, graph: DnnGraph, placement: PlacementPlan) -> Optional[VSMPlan]:
        """Run VSM over the edge-resident convolutional runs.

        Delegates to :meth:`HpaVsmStrategy.separate` so the VSM gating logic
        lives in exactly one place.
        """
        if not self.config.enable_vsm:
            return None
        return HpaVsmStrategy(self.config.hpa).separate(graph, placement, self._cluster_spec())

    def run(self, graph: DnnGraph, method: Optional[str] = None) -> D3Result:
        """Full pipeline: profile, partition, separate, simulate one inference.

        ``method`` names any registered
        :class:`~repro.core.strategy.PartitionStrategy` (``"hpa_vsm"``,
        ``"neurosurgeon"``, ``"dads"``, ``"cloud_only"``, ...); when omitted
        the configured D3 method is used (``hpa_vsm``, or ``hpa`` when VSM is
        disabled).  Raises
        :class:`~repro.core.strategy.StrategyUnsupportedError` when the
        method declines the graph (consult ``strategy.supports(graph)``
        first to probe availability).
        """
        strategy = self._strategy_for(method)
        self._require_support(strategy, graph)
        profile = self.build_profile(graph)
        partition = strategy.plan(graph, profile, self.network, self._cluster_spec())
        executor = DistributedExecutor(
            graph, partition.placement, profile, self.cluster, partition.vsm_plan
        )
        report = executor.execute()
        return D3Result(
            graph=graph,
            network=self.network,
            profile=profile,
            placement=partition.placement,
            vsm_plan=partition.vsm_plan,
            metrics=partition.metrics,
            report=report,
            method=strategy.name,
        )

    # ------------------------------------------------------------------ #
    # Serving: many in-flight requests over the plan cache
    # ------------------------------------------------------------------ #
    def serve(
        self,
        workload: Workload,
        trace: Optional[BandwidthTrace] = None,
        thresholds: Optional[RepartitionThresholds] = None,
        link_contention: str = "fifo",
        method: Optional[str] = None,
        faults: "FaultSchedule | str | None" = None,
        max_retries: Optional[int] = None,
        scheduler: "Scheduler | str | None" = None,
        stream_stats: bool = False,
        elasticity: "ElasticitySchedule | str | None" = None,
        autoscaler: "Autoscaler | str | None" = None,
        balancer: "LoadBalancer | str | None" = None,
        memory: "MemoryModel | float | None" = None,
        codec: Optional[str] = None,
        eviction: Optional[str] = None,
        calibration: "CalibrationConfig | OnlineCostCalibrator | bool | None" = None,
        economics: bool = False,
    ) -> ServingReport:
        """Serve a multi-request workload on the shared cluster.

        Every request is planned through the plan cache — partitioning runs
        once per distinct ``(model, method, network condition, config)`` and
        the plan is amortized over the stream — then all requests are
        simulated together on the discrete-event engine, contending for
        per-node compute and per-link bandwidth.

        Parameters
        ----------
        workload:
            The request stream (deterministic, Poisson, or hand-built).
        trace:
            Optional bandwidth trace; each request is planned and charged
            under the condition in effect at its arrival time.  Drifts beyond
            ``thresholds`` trigger the dynamic re-partitioner mid-stream for
            D3 methods (invalidating the cached plan); methods without local
            re-partitioning degrade gracefully by re-planning from scratch
            under the new condition (also counted as a repartition).  When no
            trace is given but the deployment topology carries trace-driven
            links, the same machinery runs off those: each request is planned
            under the topology's planning view at its arrival time, and every
            physical wire is watched individually for drift.
        thresholds:
            Drift band for plan invalidation (defaults to the paper's
            ``[0.75, 1.25]``).
        link_contention:
            ``"fifo"`` (default) serializes concurrent transfers per link;
            ``"none"`` reproduces the paper's uncontended one-shot links.
        method:
            Registry name of the partitioning strategy to serve with;
            defaults to the configured D3 method.  Raises
            :class:`~repro.core.strategy.StrategyUnsupportedError` when the
            method declines a requested model's graph.
        faults:
            Optional failure scenario: a
            :class:`~repro.network.faults.FaultSchedule`, a path to a
            schedule JSON file, or ``"chaos:<seed>"`` for a seeded random
            schedule over the deployed topology.  Requests arriving while
            components are down are planned against the *masked* (degraded)
            topology — keyed separately in the plan cache by the masked
            fingerprint — and requests whose in-flight work a fault aborts
            are retried through failover replanning at the moment of the
            failure.  A recovery is treated as drift: the degraded stream's
            repartitioner observes the restored view and invalidates the
            stale degraded plan (fail-back).  ``None`` (or an empty
            schedule) is bit-identical to the fault-free serving path.
        max_retries:
            Failover budget per request (defaults to the config's
            ``max_retries``); a request that exhausts it is recorded failed.
        scheduler:
            Dispatch policy for the shared nodes: a
            :class:`~repro.runtime.scheduler.Scheduler` instance, a registry
            name (``"fifo"``, ``"batch"``, ``"edf"``) or ``None`` for the
            default FIFO (bit-identical to the pre-scheduler engine).  The
            batching scheduler micro-batches same-layer work; the deadline
            scheduler serves EDF over the workload's ``slo_ms``/``priority``
            fields and sheds requests whose SLO is already unreachable at
            arrival.
        stream_stats:
            Serve at benchmark scale: the per-request record log (records,
            timelines, batch records) is not kept, so the engine's memory
            stays O(in-flight requests) rather than O(requests).  Aggregates
            come from the same online accumulators either way, so the
            report's summary numbers are identical below the exact-percentile
            threshold and reservoir-estimated above it; its ``records`` and
            ``batches`` are empty.
        elasticity:
            Optional capacity scenario: an
            :class:`~repro.runtime.elasticity.ElasticitySchedule` of
            declarative NodeJoin/NodeDrain events, or a path to its JSON
            form.  Requests are planned against the fleet shape in effect at
            their arrival — inactive (parked/drained) nodes are masked out
            of the topology through the same masked-fingerprint plan-cache
            path failures use — and the simulator applies the joins and
            drains as events (drains finish in-flight work gracefully).
            ``None`` (or an empty schedule) is bit-identical to the
            static-fleet path.
        autoscaler:
            Optional reactive scaling policy over the edge replica group: an
            :class:`~repro.runtime.elasticity.Autoscaler` instance or a
            policy name (``"target-util"``, ``"queue-threshold"``).  Ticked
            inside the simulator; its decisions join/drain edge replicas
            with a provisioning delay.
        balancer:
            Load-balancing policy resolving group-bound work to a replica
            per request: a :class:`~repro.runtime.elasticity.LoadBalancer`
            or a name (``"rr"``, ``"jsq"``, ``"p2c"``).  Defaults to
            round-robin whenever elasticity or autoscaling is active.
        memory:
            Optional memory constraint: a
            :class:`~repro.runtime.artifacts.MemoryModel` or a bare float
            interpreted as a per-node device/edge budget in GiB.  When
            active, every node holds model weights in a
            :class:`~repro.runtime.artifacts.WeightCache` bounded by
            ``min(HardwareSpec.memory_gb, budget)`` (the cloud tier keeps
            its hardware capacity — it is the artifact store), non-resident
            models pay a cold start (compressed transfer over the declared
            wires + decompress) before their first task dispatches, and
            plans that cannot fit a tier's capacity are repaired toward
            feasible placements ranked by objective + weight movement.
            ``None`` with no codec/eviction override is bit-identical to
            the memory-free path.
        codec:
            Compression codec for weight movement (``"none"``,
            ``"symmetric"``, ``"zxc"``); overrides the model's codec when
            ``memory`` is given, or activates a default
            :class:`MemoryModel` on its own.
        eviction:
            Weight-cache eviction policy (``"lru"``, ``"priority"``); same
            override semantics as ``codec``.
        calibration:
            Optional online adaptation: ``True`` for defaults, a
            :class:`~repro.runtime.calibration.CalibrationConfig`, or a
            pre-warmed
            :class:`~repro.runtime.calibration.OnlineCostCalibrator`.  When
            active, the simulator feeds observed task/transfer/request
            timings into the calibrator (corrected estimates reach the
            adaptation evaluators and EDF admission control), and — with a
            ``trace`` and a positive ``horizon_s`` — a bandwidth forecaster
            triggers *proactive* repartitioning when the predicted condition
            would leave the drift band within the horizon.  The report then
            carries calibration updates, proactive vs reactive repartition
            counts, and forecast mispredicts.  ``None`` is bit-identical to
            the uncalibrated path.
        economics:
            Meter the run's actual energy and dollars: compute joules off
            every node's executed work, radio joules off the bytes crossing
            device uplinks, idle joules and $-billing off each node's
            powered-on hours.  Accounting is derived at report-build time
            from the engine's existing integrals (busy seconds, bytes
            carried, downtime), so the hot path is untouched; the report
            gains ``energy_per_request_j``/``dollars_per_1k_requests`` and
            an "economics:" summary line.  ``False`` (the default) leaves
            the report's economics fields zeroed.

        Returns
        -------
        ServingReport
            Per-request latencies, percentiles, throughput, utilisation,
            backbone traffic, availability and plan-cache statistics for
            this call.
        """
        strategy = self._strategy_for(method)
        if thresholds is not None:
            self.plan_cache.set_thresholds(thresholds)
        schedule = self._resolve_faults(faults, workload)
        elastic = self._resolve_elasticity(elasticity)
        memory_model = resolve_memory(memory, codec=codec, eviction=eviction)
        calibrator = resolve_calibration(calibration)
        before = self.plan_cache.stats()
        self._memory = memory_model
        tracker: Optional[AdaptationTracker] = None
        if calibrator is not None:
            tracker = AdaptationTracker(
                lower=self.plan_cache.thresholds.lower,
                upper=self.plan_cache.thresholds.upper,
            )
            self._calibration = calibrator
            self._forecaster = BandwidthForecaster(
                calibrator.config.alpha, calibrator.config.trend_beta
            )
            self._adaptation = tracker
        try:
            if memory_model is not None:
                self._validate_memory(workload, memory_model)
            requests = self._plan_workload(workload, strategy, schedule, trace, elastic)

            simulator = ServingSimulator(
                self.cluster,
                link_contention=link_contention,
                faults=schedule,
                max_retries=(
                    self.config.max_retries if max_retries is None else max_retries
                ),
                replan=(
                    self._make_replanner(strategy, trace)
                    if (schedule or elastic or autoscaler is not None)
                    else None
                ),
                scheduler=scheduler,
                stream_stats=stream_stats,
                elasticity=elastic,
                autoscaler=autoscaler,
                balancer=balancer,
                memory=memory_model,
                calibration=calibrator,
                economics=economics,
            )
            if tracker is not None and requests:
                # Planning has seen the whole stream: proactive calls whose
                # horizon ends before the last arrival and never saw a breach
                # are settled as mispredicts.
                tracker.finish(max(r.arrival_s for r in requests))
            records = simulator.run(requests)
        finally:
            self._memory = None
            self._calibration = None
            self._forecaster = None
            self._adaptation = None
        report = simulator.build_report(workload.name, records)
        report.method = strategy.name
        after = self.plan_cache.stats()
        report.cache_hits = after["hits"] - before["hits"]
        report.cache_misses = after["misses"] - before["misses"]
        report.repartitions = after["repartitions"] - before["repartitions"]
        report.cache_invalidations = after["invalidations"] - before["invalidations"]
        report.plans_computed = report.cache_misses + report.repartitions
        if tracker is not None:
            report.proactive_repartitions = tracker.proactive
            report.reactive_repartitions = tracker.reactive
            report.forecast_mispredicts = tracker.mispredicts
            if tracker.events:
                report.first_adaptation_s = tracker.events[0][0]
        return report

    def plan_requests(
        self,
        workload: Workload,
        method: Optional[str] = None,
        trace: Optional[BandwidthTrace] = None,
        memory: "MemoryModel | float | None" = None,
    ) -> List[ServingRequest]:
        """Plan every request of ``workload`` into simulator-ready form.

        The exact planning pass :meth:`serve` runs (plan cache, traces,
        per-arrival conditions) without the simulation — benchmark harnesses
        use it to price a workload once and then drive
        :class:`ServingSimulator` directly, so engine timings measure the
        engine rather than the planner.  ``memory`` applies the same
        memory-aware planning (feasibility repair, memory-keyed plan cache)
        that :meth:`serve` would.
        """
        strategy = self._strategy_for(method)
        self._memory = resolve_memory(memory)
        try:
            requests = self._plan_workload(workload, strategy, None, trace)
        finally:
            self._memory = None
        return requests

    def _plan_workload(
        self,
        workload: Workload,
        strategy: PartitionStrategy,
        schedule: Optional[FaultSchedule],
        trace: Optional[BandwidthTrace],
        elastic: Optional[ElasticitySchedule] = None,
    ) -> List[ServingRequest]:
        """Price one request stream into simulator-ready requests."""
        requests: List[ServingRequest] = []
        topology = self.cluster.topology
        sample_topology = trace is None and topology.has_traced_links
        primary_device = self.cluster.device.name
        no_faults: Tuple = (frozenset(), frozenset())
        previous_down = no_faults
        for request in workload:
            down = schedule.state_at(request.arrival_s) if schedule else no_faults
            if elastic is not None:
                # Nodes parked, provisioning or drained at this arrival are
                # masked out of the planning view exactly like failed ones —
                # membership rides the degraded (masked-fingerprint) plan-
                # cache path, so a join flowing back is a fail-back drift.
                inactive = elastic.state_at(request.arrival_s)
                if inactive:
                    down = (down[0] | inactive, down[1])
            graph = request.graph or self.graph_for(request.model)
            if previous_down != down and (
                previous_down[0] - down[0] or previous_down[1] - down[1]
            ):
                self._observe_recovery(graph, strategy, previous_down, down)
            previous_down = down

            planned = None
            if down != no_faults:
                planned = self._plan_degraded(
                    graph, strategy, down, request.source, request.arrival_s, trace
                )
            if planned is not None:
                entry, condition = planned
            else:
                # Healthy deployment — or a degraded one that cannot be
                # planned at all (a whole tier down): fall back to the
                # healthy plan and let the simulator fail what must fail.
                link_mbps: Optional[Dict[str, float]] = None
                forecast: Optional[NetworkCondition] = None
                off_primary = request.source is not None and request.source != primary_device
                if trace is not None:
                    if self._calibration is not None:
                        forecast = self._observe_trace(trace, request.arrival_s)
                    condition = trace.condition_at(request.arrival_s)
                    if topology.has_traced_links:
                        # An explicit backbone trace does not switch the wires'
                        # own traces off: keep watching (and ideal-pricing) every
                        # traced link at this arrival's rates.
                        link_mbps = topology.link_bandwidths_at(request.arrival_s)
                elif sample_topology or off_primary:
                    # Trace-driven links and/or a non-primary source device: plan
                    # under the topology's view at this arrival, anchored at the
                    # wires this request actually crosses, and watch every wire
                    # for drift.
                    at_s = request.arrival_s if sample_topology else 0.0
                    condition = topology.planning_condition(at_s=at_s, source=request.source)
                    if sample_topology:
                        link_mbps = topology.link_bandwidths_at(at_s)
                else:
                    condition = self.network
                entry = self._plan_for(
                    graph,
                    condition,
                    strategy,
                    link_bandwidths=link_mbps,
                    source=request.source,
                    forecast=forecast,
                )
            requests.append(
                ServingRequest(
                    index=request.index,
                    request_id=request.request_id,
                    graph=graph,
                    plan=entry.placement,
                    profile=entry.profile,
                    condition=condition,
                    arrival_s=request.arrival_s,
                    vsm_plan=entry.vsm_plan,
                    source=request.source,
                    slo_ms=request.slo_ms,
                    priority=request.priority,
                    ideal_latency_s=entry.ideal_latency_s,
                )
            )
        return requests

    def _observe_trace(
        self, trace: BandwidthTrace, arrival_s: float
    ) -> Optional[NetworkCondition]:
        """Feed one arrival's trace sample to the predictive machinery.

        Resolves pending proactive predictions against the actual sample,
        folds it into the forecaster, and returns the horizon-ahead condition
        — or ``None`` when forecasting is off (zero horizon), the trace has
        no base condition, or fewer than two samples have been seen (a trend
        needs two points).
        """
        sample = trace.sample_at(arrival_s)
        self._adaptation_time = arrival_s
        self._adaptation_sample = sample
        if self._adaptation is not None:
            self._adaptation.observe_sample(arrival_s, sample)
        forecaster = self._forecaster
        forecaster.observe(arrival_s, sample)
        horizon = self._calibration.config.horizon_s
        if horizon <= 0.0 or forecaster.count < 2 or trace.base is None:
            return None
        return trace.base.scaled_backbone(forecaster.forecast(horizon))

    # ------------------------------------------------------------------ #
    # Memory-constrained planning: feasibility, validation, repair
    # ------------------------------------------------------------------ #
    def _validate_memory(self, workload: Workload, memory: MemoryModel) -> None:
        """Reject deployments that cannot fit the workload's cheapest model.

        The cheapest single-model placement packs the whole model onto the
        deployment's roomiest compute node, so the bar is the smallest
        model's full footprint (weights + peak activation);
        :meth:`Topology.validate` raises
        :class:`~repro.network.topology.InsufficientMemoryError` when even
        that cannot fit anywhere.
        """
        graphs: Dict[str, DnnGraph] = {}
        for request in workload:
            graph = request.graph or self.graph_for(request.model)
            graphs.setdefault(graph.name, graph)
        if not graphs:
            return
        min_bytes = min(
            memory.artifact_for(graph).total_weight_bytes
            + memory.artifact_for(graph).peak_activation_bytes
            for graph in graphs.values()
        )
        self.topology.validate(min_model_bytes=min_bytes)

    def _tier_capacities(self) -> Dict[Tier, int]:
        """Weight-cache capacity per tier: the *tightest* node of each tier.

        Planning must be conservative — a stage placed on a tier can land on
        any of its replicas, so a tier only counts as feasible when every
        member can hold the tier's share.
        """
        assert self._memory is not None
        capacities: Dict[Tier, int] = {}
        for node in self.cluster.all_nodes:
            cap = self._memory.capacity_bytes(node)
            if node.tier not in capacities or cap < capacities[node.tier]:
                capacities[node.tier] = cap
        return capacities

    def _repair_for_memory(
        self,
        graph: DnnGraph,
        placement: PlacementPlan,
        profile: LatencyProfile,
        condition: NetworkCondition,
    ) -> PlacementPlan:
        """Repair a placement that overflows a tier's weight capacity.

        When the strategy's plan fits every tier it occupies, it is kept
        untouched (the memory-free optimum stays optimal under roomy
        budgets).  Otherwise the feasible single-tier fallbacks compete on
        ``objective + weight movement`` — the paper's Θ plus the one-time
        cost of shipping compressed weights to the tier and decompressing
        them — so tight memory pushes work toward the artifact store (the
        cloud pays no transfer) unless the latency gap buys the move back.
        Returns the original placement when nothing fits anywhere; the
        serving simulator then surfaces the overflow as failed requests.
        """
        memory = self._memory
        assert memory is not None
        artifact = memory.artifact_for(graph)
        capacities = self._tier_capacities()
        evaluator = PlanEvaluator(
            profile,
            condition,
            economics=self._economics,
            weights=self.config.objective_weights,
        )
        if evaluator.memory_feasible(placement, artifact, capacities):
            return placement
        codec = memory.codec_spec
        candidates = [
            candidate
            for candidate in (
                PlacementPlan.single_tier(graph, tier) for tier in TIER_ORDER
            )
            if evaluator.memory_feasible(candidate, artifact, capacities)
        ]
        if not candidates:
            return placement
        return min(
            candidates,
            key=lambda plan: evaluator.objective(plan)
            + evaluator.weight_movement_s(plan, artifact, codec),
        )

    # ------------------------------------------------------------------ #
    # Failure handling: degraded planning, failover replanning, fail-back
    # ------------------------------------------------------------------ #
    def _resolve_faults(
        self, faults: "FaultSchedule | str | None", workload: Workload
    ) -> Optional[FaultSchedule]:
        """Resolve a schedule spec; chaos specs span the workload's arrivals."""
        if faults is None:
            return None
        return load_fault_schedule(
            faults,
            topology=self.cluster.topology,
            horizon_s=max(workload.duration_s, 1.0),
        )

    def _resolve_elasticity(
        self, elasticity: "ElasticitySchedule | str | None"
    ) -> Optional[ElasticitySchedule]:
        """Resolve an elasticity spec; empty schedules normalize to ``None``
        so the static-fleet serving path stays bit-identical."""
        if elasticity is None:
            return None
        schedule = load_elasticity_schedule(elasticity, topology=self.cluster.topology)
        return schedule if schedule else None

    def _degraded_deployment(self, down: Tuple) -> Tuple[Topology, Cluster]:
        """The masked topology and realized cluster for one failure state.

        Memoized per failure signature: chaos schedules revisit the same
        degraded shapes many times, and each shape's planning view, VSM
        cluster spec and cache fingerprint are immutable.  Raises
        :class:`~repro.network.topology.TopologyError` when the degraded
        shape can no longer serve at all.
        """
        key = (tuple(sorted(down[0])), tuple(sorted(down[1])))
        if key not in self._degraded:
            masked = self.cluster.topology.masked(down[0], down[1])
            cluster = Cluster.from_topology(
                masked, network=masked.base_network or self.config.resolve_network()
            )
            self._degraded[key] = (masked, cluster)
            while len(self._degraded) > self.DEGRADED_MEMO_ENTRIES:
                self._degraded.popitem(last=False)
        else:
            self._degraded.move_to_end(key)
        return self._degraded[key]

    def _plan_degraded(
        self,
        graph: DnnGraph,
        strategy: PartitionStrategy,
        down: Tuple,
        source: Optional[str],
        at_s: float,
        trace: Optional[BandwidthTrace],
    ) -> Optional[Tuple[CachedPlan, NetworkCondition]]:
        """Plan ``graph`` against the deployment as degraded by ``down``.

        Returns ``None`` when the degraded deployment cannot be planned (a
        whole compute tier down, the cloud unreachable); callers decide
        whether that means falling back to the healthy plan or failing the
        request.
        """
        try:
            masked, _ = self._degraded_deployment(down)
        except TopologyError:
            return None
        if source is not None and source in down[0]:
            # The pinned source device itself is dead; any plan is moot (the
            # simulator fails the request), so anchor at the primary device.
            source = None
        try:
            if trace is not None:
                condition = trace.condition_at(at_s)
            else:
                condition = masked.planning_condition(
                    at_s=at_s if masked.has_traced_links else 0.0, source=source
                )
        except TopologyError:
            return None
        entry = self._plan_for(
            graph, condition, strategy, source=source, deployment=down
        )
        return entry, condition

    def _make_replanner(self, strategy: PartitionStrategy, trace: Optional[BandwidthTrace]):
        """The failover callback the simulator invokes on aborted requests.

        Re-plans the request's model against the topology as degraded *at the
        moment of the failure* — through the plan cache, so repeated failovers
        onto the same degraded shape amortize — and returns the freshly
        planned request, or ``None`` when the degraded deployment cannot
        serve it (the simulator then records the request as failed).
        """

        def replan(request: ServingRequest, now_s: float, down_nodes, down_links):
            if request.source is not None and request.source in down_nodes:
                return None
            down = (frozenset(down_nodes), frozenset(down_links))
            if down[0] or down[1]:
                planned = self._plan_degraded(
                    request.graph, strategy, down, request.source, now_s, trace
                )
                if planned is None:
                    return None
                entry, condition = planned
            else:
                # Everything recovered before the retry fired: the healthy
                # plan is the right plan again.
                condition = trace.condition_at(now_s) if trace is not None else self.network
                entry = self._plan_for(
                    request.graph, condition, strategy, source=request.source
                )
            return ServingRequest(
                index=request.index,
                request_id=request.request_id,
                graph=request.graph,
                plan=entry.placement,
                profile=entry.profile,
                condition=condition,
                arrival_s=request.arrival_s,
                vsm_plan=entry.vsm_plan,
                source=request.source,
                slo_ms=request.slo_ms,
                priority=request.priority,
                ideal_latency_s=entry.ideal_latency_s,
            )

        return replan

    def _observe_recovery(
        self,
        graph: DnnGraph,
        strategy: PartitionStrategy,
        previous_down: Tuple,
        down: Tuple,
    ) -> None:
        """Treat a recovery as drift: fail back from the degraded plan.

        When a node or link returns, the stream that was planned against the
        previous degraded shape observes the restored planning view through
        its :class:`~repro.core.dynamic.DynamicRepartitioner`.  A triggered
        adaptation fires the cache's invalidation listener, retiring the
        stale degraded entry — subsequent requests hit the healthy (or
        less-degraded) cached plan instead of a plan that still avoids a
        node that is back.
        """
        try:
            masked_prev, _ = self._degraded_deployment(previous_down)
        except TopologyError:
            return
        entry = self.plan_cache.latest_for(
            self._graph_token(graph),
            strategy.name,
            self.config.plan_key(),
            masked_prev.fingerprint(),
        )
        if entry is None or entry.repartitioner is None:
            return
        try:
            if down[0] or down[1]:
                restored, _ = self._degraded_deployment(down)
            else:
                restored = self.cluster.topology
            condition = restored.planning_condition()
        except TopologyError:
            return
        entry.repartitioner.thresholds = self.plan_cache.thresholds
        entry.repartitioner.observe(network=condition)

    # ------------------------------------------------------------------ #
    def graph_for(self, model: str) -> DnnGraph:
        """Resolve (and memoize) a model name through the zoo."""
        if model not in self._graphs:
            from repro.models.zoo import build_model

            self._graphs[model] = build_model(model)
        return self._graphs[model]

    def _profile_for(self, graph: DnnGraph) -> LatencyProfile:
        """Per-graph latency profile, built once per serving lifetime."""
        token = self._graph_token(graph)
        if token not in self._profiles:
            self._profiles[token] = self.build_profile(graph)
        return self._profiles[token]

    def _graph_token(self, graph: DnnGraph) -> str:
        """Cache identity of a graph: its name plus its object identity.

        Keying by name alone would collide two structurally different graphs
        that happen to share a name (easy to do with hand-built graphs); the
        id is safe because every cache entry and profile memo keeps a strong
        reference to its graph, so a live token can never be reused.
        """
        self._graphs.setdefault(f"{graph.name}#{id(graph)}", graph)
        return f"{graph.name}#{id(graph)}"

    def _strategy_for(self, method: Optional[str] = None) -> PartitionStrategy:
        """Resolve a method name through the registry.

        ``None`` means the configured D3 method (``hpa_vsm``, or ``hpa`` when
        VSM is disabled).  HPA-family strategies are rebuilt with this
        system's :class:`~repro.core.hpa.HPAConfig` so the facade's heuristic
        switches keep applying.
        """
        name = method or ("hpa_vsm" if self.config.enable_vsm else "hpa")
        strategy = get_strategy(name)
        if type(strategy) in (HpaStrategy, HpaVsmStrategy):
            # Only the stock D3 methods inherit the facade's HPAConfig;
            # custom subclasses keep whatever their factory configured.
            strategy = type(strategy)(self.config.hpa)
        return strategy

    def _cluster_spec(self, cluster: Optional[Cluster] = None) -> ClusterSpec:
        # ``from_cluster`` derives the TierEconomics from the cluster's own
        # topology, so degraded (masked) deployments price their surviving
        # primaries rather than the healthy fleet's.
        return ClusterSpec.from_cluster(
            cluster or self.cluster,
            tile_grid=tuple(self.config.tile_grid),
            objective_weights=self.config.objective_weights,
        )

    @staticmethod
    def _require_support(strategy: PartitionStrategy, graph: DnnGraph) -> None:
        if not strategy.supports(graph):
            raise StrategyUnsupportedError(
                f"method {strategy.name!r} does not support {graph.name} "
                f"(strategy.supports(graph) is False)"
            )

    def _plan_for(
        self,
        graph: DnnGraph,
        condition: NetworkCondition,
        strategy: Optional[PartitionStrategy] = None,
        link_bandwidths: Optional[Dict[str, float]] = None,
        source: Optional[str] = None,
        deployment: Optional[Tuple] = None,
        forecast: Optional[NetworkCondition] = None,
    ) -> CachedPlan:
        """Plan-cache lookup with threshold-guarded drift adaptation.

        ``forecast`` (the calibrated serve path's horizon-ahead condition)
        arms the *proactive* trigger: an in-band current condition whose
        forecast breaches the band repartitions now, before the drift lands.

        ``link_bandwidths`` (Mbps keyed by link id, sampled from a traced
        topology at the request's arrival) extends both the in-band guard and
        the repartitioner's drift detection to individual physical wires —
        including on exact key matches, where a wire off the primary planning
        routes can drift without moving the key.  ``source`` is the request's
        origin device; its ideal-latency baseline is simulated from there.
        ``deployment`` is a failure signature ``(down_nodes, down_links)``:
        the plan is computed for (and keyed by the fingerprint of) the masked
        topology, so degraded plans never poison the healthy cache.
        """
        strategy = strategy or self._strategy_for()
        cache = self.plan_cache
        plan_cluster: Optional[Cluster] = None
        if deployment is not None:
            masked, plan_cluster = self._degraded_deployment(deployment)
            topology_fp = masked.fingerprint()
        else:
            topology_fp = self.topology.fingerprint()
        config_key = self.config.plan_key()
        if self._memory is not None:
            # Memory-constrained plans may be repaired toward different
            # placements; key them separately so they never alias (the token
            # widens the tuple, so memory-free keys cannot collide with it).
            config_key = config_key + (("memory",) + self._memory.key(),)
        key = PlanKey.build(
            self._graph_token(graph),
            condition,
            config_key,
            strategy.name,
            topology=topology_fp,
        )
        entry = cache.get(key, condition, link_bandwidths)
        if entry is not None:
            return entry

        self._require_support(strategy, graph)
        profile = self._profile_for(graph)
        base = cache.latest_for(key.model, key.strategy, key.config, key.topology)
        if base is not None:
            if cache.within_band(base, condition, link_bandwidths):
                if (
                    forecast is not None
                    and base.repartitioner is not None
                    and base.repartitioner.forecast_breach(forecast)
                ):
                    # Predictive trigger: the current sample is still in
                    # band, but the forecast says it won't be within the
                    # horizon — adapt now, so the corrected plan is already
                    # serving when the drift lands.
                    base.repartitioner.thresholds = cache.thresholds
                    base.repartitioner.calibration = self._calibration
                    event = base.repartitioner.observe(
                        network=forecast, link_bandwidths=link_bandwidths
                    )
                    if event.triggered:
                        if self._adaptation is not None:
                            self._adaptation.record_proactive(
                                self._adaptation_time,
                                self._calibration.config.horizon_s,
                                self._adaptation_sample,
                            )
                        return self._store_plan(
                            cache,
                            key,
                            graph,
                            profile,
                            condition,
                            base.repartitioner,
                            strategy,
                            repartitioned=True,
                            link_bandwidths=link_bandwidths,
                            source=source,
                            plan_cluster=plan_cluster,
                        )
                cache.record_alias(key, base)
                return base
            if base.repartitioner is None:
                # The method has no local re-partitioning: degrade gracefully
                # by re-planning from scratch under the drifted condition (the
                # full re-solve DADS et al. would have to perform anyway).
                cache.invalidate(base.key)
                if self._adaptation is not None:
                    self._adaptation.record_reactive(self._adaptation_time)
                return self._store_strategy_plan(
                    cache,
                    key,
                    graph,
                    profile,
                    condition,
                    strategy,
                    repartitioned=True,
                    link_bandwidths=link_bandwidths,
                    source=source,
                    plan_cluster=plan_cluster,
                )
            # Out of band: the paper's local re-partitioning adapts the plan
            # (the listener registered by the cache invalidates the old entry).
            base.repartitioner.thresholds = cache.thresholds
            if self._calibration is not None:
                base.repartitioner.calibration = self._calibration
            event = base.repartitioner.observe(
                network=condition, link_bandwidths=link_bandwidths
            )
            if not event.triggered:
                # The repartitioner judged the drift tolerable after all (its
                # per-vertex view can be coarser than the link-level band);
                # keep serving the cached plan rather than storing a phantom
                # "adaptation" that changed nothing.
                cache.record_alias(key, base)
                return base
            if self._adaptation is not None:
                self._adaptation.record_reactive(self._adaptation_time)
            return self._store_plan(
                cache,
                key,
                graph,
                profile,
                condition,
                base.repartitioner,
                strategy,
                repartitioned=True,
                link_bandwidths=link_bandwidths,
                source=source,
                plan_cluster=plan_cluster,
            )

        if not isinstance(strategy, HpaStrategy):
            # Every non-HPA-family method — including custom strategies that
            # merely claim drift support — plans through its own plan(); the
            # DynamicRepartitioner below *is* HPA and would silently
            # substitute an HPA placement under the strategy's name.
            return self._store_strategy_plan(
                cache, key, graph, profile, condition, strategy,
                link_bandwidths=link_bandwidths, source=source,
                plan_cluster=plan_cluster,
            )

        repartitioner = DynamicRepartitioner(
            graph,
            profile,
            condition,
            thresholds=cache.thresholds,
            config=strategy.hpa_config,
            economics=self._economics,
            weights=self.config.objective_weights,
        )
        if self._calibration is not None:
            repartitioner.calibration = self._calibration
        return self._store_plan(
            cache, key, graph, profile, condition, repartitioner, strategy,
            link_bandwidths=link_bandwidths, source=source,
            plan_cluster=plan_cluster,
        )

    def _store_plan(
        self,
        cache: PlanCache,
        key: PlanKey,
        graph: DnnGraph,
        profile: LatencyProfile,
        condition: NetworkCondition,
        repartitioner: DynamicRepartitioner,
        strategy: HpaStrategy,
        repartitioned: bool = False,
        link_bandwidths: Optional[Dict[str, float]] = None,
        source: Optional[str] = None,
        plan_cluster: Optional[Cluster] = None,
    ) -> CachedPlan:
        # Snapshot the plan: the repartitioner mutates its own copy in place
        # on the next drift, and cached entries must stay frozen.
        placement = repartitioner.plan.copy()
        if self._memory is not None:
            placement = self._repair_for_memory(graph, placement, profile, condition)
        vsm_plan = strategy.separate(graph, placement, self._cluster_spec(plan_cluster))
        ideal = self._ideal_latency(
            graph, placement, profile, vsm_plan, condition, link_bandwidths, source,
            plan_cluster,
        )
        if link_bandwidths:
            # The rates this plan was computed under become the per-link
            # reference the repartitioner judges future drift against.
            repartitioner.reference_link_mbps = dict(link_bandwidths)
        entry = CachedPlan(
            key=key,
            graph=graph,
            profile=profile,
            placement=placement,
            vsm_plan=vsm_plan,
            condition=condition,
            ideal_latency_s=ideal,
            repartitioner=repartitioner,
            link_mbps=dict(link_bandwidths) if link_bandwidths else None,
        )
        return cache.store(entry, repartitioned=repartitioned)

    def _store_strategy_plan(
        self,
        cache: PlanCache,
        key: PlanKey,
        graph: DnnGraph,
        profile: LatencyProfile,
        condition: NetworkCondition,
        strategy: PartitionStrategy,
        repartitioned: bool = False,
        link_bandwidths: Optional[Dict[str, float]] = None,
        source: Optional[str] = None,
        plan_cluster: Optional[Cluster] = None,
    ) -> CachedPlan:
        """Cache one non-adaptive strategy's plan for ``condition``."""
        partition = strategy.plan(graph, profile, condition, self._cluster_spec(plan_cluster))
        placement = partition.placement
        vsm_plan = partition.vsm_plan
        if self._memory is not None:
            repaired = self._repair_for_memory(graph, placement, profile, condition)
            if repaired is not placement:
                # The strategy's VSM tiling was derived from the original
                # placement; a repaired plan runs untiled rather than with a
                # tiling for tiers it no longer occupies.
                placement = repaired
                vsm_plan = None
        ideal = self._ideal_latency(
            graph, placement, profile, vsm_plan, condition,
            link_bandwidths, source, plan_cluster,
        )
        entry = CachedPlan(
            key=key,
            graph=graph,
            profile=profile,
            placement=placement,
            vsm_plan=vsm_plan,
            condition=condition,
            ideal_latency_s=ideal,
            repartitioner=None,
            link_mbps=dict(link_bandwidths) if link_bandwidths else None,
        )
        return cache.store(entry, repartitioned=repartitioned)

    def _ideal_latency(
        self,
        graph: DnnGraph,
        placement: PlacementPlan,
        profile: LatencyProfile,
        vsm_plan: Optional[VSMPlan],
        condition: NetworkCondition,
        link_bandwidths: Optional[Dict[str, float]] = None,
        source: Optional[str] = None,
        plan_cluster: Optional[Cluster] = None,
    ) -> float:
        """One-shot latency of a plan on an idle scratch cluster.

        The scratch one-shot always executes at simulation time zero, so a
        traced topology's wires are frozen at ``link_bandwidths`` — the rates
        sampled at the request's arrival — lest the baseline be priced at the
        trace's t=0 rates and corrupt every queueing-delay figure.  ``source``
        starts the inference from the request's own device; ``plan_cluster``
        (a degraded deployment) substitutes for the healthy cluster so a
        failover plan's baseline reflects the surviving machines.
        """
        scratch = self._scratch_cluster(condition, link_bandwidths, plan_cluster)
        report = DistributedExecutor(
            graph, placement, profile, scratch, vsm_plan, source=source
        ).execute()
        return report.end_to_end_latency_s

    def _scratch_cluster(
        self,
        condition: NetworkCondition,
        link_bandwidths: Optional[Dict[str, float]] = None,
        base_cluster: Optional[Cluster] = None,
    ) -> Cluster:
        """An idle cluster under ``condition``, traced wires frozen."""
        base = base_cluster or self.cluster
        topology = base.topology
        if not link_bandwidths or not topology.has_traced_links:
            return base.with_network(condition)
        frozen_links = [
            spec
            if not isinstance(spec.bandwidth, BandwidthTrace)
            else LinkSpec(spec.name, spec.a, spec.b, link_bandwidths[spec.name])
            for spec in topology.links.values()
        ]
        frozen = Topology(
            topology.name,
            list(topology.nodes.values()),
            frozen_links,
            base_network=condition,
        )
        return Cluster.from_topology(frozen, network=condition)
