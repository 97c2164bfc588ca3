"""One ``D3System.serve`` call of one workload, in a fresh process.

Usage (from the repository root; ``run.py`` drives it)::

    python3 perfbench/child.py --workload overload --seed 1 [--trace DIR]

The process first times a fixed pure-Python loop (the host-speed probe, a
diagnostic only), then times three phases from outside the program:

* set-up: from before ``import repro`` to the call into ``serve`` — imports,
  ``D3System(...)`` and the generation of the workload, bandwidth trace and
  fault schedule;
* serve: the ``D3System.serve`` call;
* read: turning the returned report into the benchmark's figures.

It checks the report's invariants and prints one JSON object as its last
line of output.  With ``--trace DIR`` it also wraps the program's public
calls in spans (see ``tracing.py``), adds per-layer figures to the result
and writes ``trace.json`` (Chrome Trace Event format) to ``DIR``.
"""

from __future__ import annotations

import time

#: Iterations of the host-speed probe loop.
PROBE_ITERATIONS = 1_000_000
#: Most host time the serve call may take beyond the self times of the spans
#: inside it (the span wrapper's own entry and exit).
SPAN_SLACK_S = 2e-3


def host_probe_s() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def main(argv=None) -> int:
    import argparse
    import json
    import os
    import resource
    import sys
    from contextlib import nullcontext

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, metavar="DIR")
    args = parser.parse_args(argv)

    probe_s = host_probe_s()
    tracer = None
    if args.trace is not None:
        from tracing import Tracer

        tracer = Tracer()

    # ---- set-up ------------------------------------------------------- #
    t_start = time.perf_counter()
    import workloads
    import repro.core.d3  # noqa: F401  (importing the program is part of set-up)

    hooks = None
    span = lambda name: nullcontext()  # noqa: E731
    if tracer is not None:
        tracer.begin("import repro", start=t_start)
        tracer.end()
        hooks = _install(tracer)
        span = tracer.span
    system = workloads.build_system(args.workload)
    with span("Workload.build"):
        workload = workloads.build_workload(args.workload, args.seed, system)
    with span("BandwidthTrace.build"):
        trace = workloads.build_trace(args.workload, args.seed, workload)
    with span("FaultSchedule.chaos"):
        faults = workloads.build_faults(args.workload, args.seed, system, workload)
    serve_args = workloads.build_serve_args(args.workload, trace, faults)
    before = _snapshot(tracer)

    # ---- serve -------------------------------------------------------- #
    t_setup = time.perf_counter()
    report = system.serve(workload, **serve_args)
    t_serve = time.perf_counter()
    after = _snapshot(tracer)

    # ---- read the report ---------------------------------------------- #
    with span("read report"):
        figures = read_report(report, system, len(workload))
        checks = check_report(report, system, len(workload))
    t_read = time.perf_counter()

    setup_s = t_setup - t_start
    serve_s = t_serve - t_setup
    read_s = t_read - t_serve
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": tracer is not None,
        "host_probe_s": probe_s,
        "timing": {
            "setup_s": setup_s,
            "serve_s": serve_s,
            "read_s": read_s,
            "requests_per_s": len(workload) / (setup_s + serve_s + read_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "deterministic": figures,
        "checks": checks,
    }
    if tracer is not None:
        tracer.uninstall()
        layers, layer_checks = layer_figures(tracer, hooks, before, after, serve_s, figures)
        result["layers"] = layers
        result["checks"] += layer_checks
        os.makedirs(args.trace, exist_ok=True)
        tracer.write_chrome_trace(
            os.path.join(args.trace, "trace.json"),
            {"workload": args.workload, "seed": args.seed},
        )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


# --------------------------------------------------------------------------- #
# Reading and checking the report
# --------------------------------------------------------------------------- #
def _tier_utilisation(report, system, tier: str) -> float:
    names = [node.name for node in system.cluster.all_nodes if node.tier.value == tier]
    if not names or report.makespan_s <= 0:
        return 0.0
    busy = sum(report.node_busy_s.get(name, 0.0) for name in names)
    return busy / (len(names) * report.makespan_s)


def read_report(report, system, sent: int) -> dict:
    """The run's simulated figures and counters; exact for a given seed."""
    pct = report.latency_percentiles((50.0, 99.0))
    wire_bytes = sum(link.bytes_carried for link in system.cluster.shared_links.values())
    queueing = report.mean_queueing_delay_s()
    lookups = report.cache_hits + report.cache_misses
    return {
        # End to end.
        "sim_p50_ms": pct["p50"] * 1e3,
        "sim_p99_ms": pct["p99"] * 1e3,
        "sim_goodput_rps": report.goodput_rps,
        "sim_slo_miss_share": (sent - report.num_met_slo) / sent,
        "completed_share": report.num_completed / sent,
        "sim_wire_kb_per_request": wire_bytes / 1e3 / sent,
        "sim_energy_j_per_request": report.energy_per_request_j,
        # Counters by layer.
        "sent": sent,
        "completed": report.num_completed,
        "latency_samples": len(report.latencies_s),
        "plans_computed": report.plans_computed,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "repartitions": report.repartitions,
        "invalidations": report.cache_invalidations,
        "plan_cache.hit_share": report.cache_hits / lookups if lookups else 0.0,
        "failed": report.num_failed,
        "retried": report.num_retried,
        "failover_replans": report.failover_replans,
        "util_device": _tier_utilisation(report, system, "device"),
        "util_edge": _tier_utilisation(report, system, "edge"),
        "util_cloud": _tier_utilisation(report, system, "cloud"),
        "queue_wait_ms": max(0.0, queueing or 0.0) * 1e3,
        "backbone_mb": report.bytes_to_cloud / 1e6,
        "rejected": report.num_rejected,
        "mean_batch_occupancy": report.mean_batch_occupancy,
        "scale_ups": report.scale_up_events,
        "scale_downs": report.scale_down_events,
        "node_hours": report.node_hours,
        "cold_starts": report.cold_starts,
        "weight_cache_hit_share": report.weight_cache_hit_rate,
        "evictions": report.weight_evictions,
        "cold_start_s": report.cold_start_s,
        "calibration_updates": report.calibration_updates,
        "proactive": report.proactive_repartitions,
        "reactive": report.reactive_repartitions,
        "mispredicts": report.forecast_mispredicts,
        "compute_j": report.compute_energy_j,
        "radio_j": report.radio_energy_j,
        "idle_j": report.idle_energy_j,
    }


def check_report(report, system, sent: int) -> list:
    """Invariants every run must hold; returns the ones that failed."""
    failures = []
    outcomes = report.num_completed + report.num_failed + report.num_rejected
    if outcomes != sent or report.num_requests != sent:
        failures.append(
            f"completed {report.num_completed} + failed {report.num_failed} + "
            f"rejected {report.num_rejected} = {outcomes}, "
            f"report counts {report.num_requests}, sent {sent}"
        )
    slack = 1e-9 * max(1.0, report.makespan_s)
    for name, busy in report.node_busy_s.items():
        if busy > report.makespan_s + slack:
            failures.append(f"node {name} busy {busy!r} s > makespan {report.makespan_s!r} s")
    # The report counts the serve call's lookups as the difference of the
    # plan cache's counters before and after it; the system is fresh, so they
    # must equal the cache's totals.  Traced children also count the lookups
    # and computed plans independently (see ``layer_figures``).
    cache = system.plan_cache
    if (report.cache_hits, report.cache_misses, report.repartitions) != (
        cache.hits, cache.misses, cache.repartitions
    ) or report.plans_computed != cache.misses + cache.repartitions:
        failures.append(
            f"report: plans computed {report.plans_computed}, hits {report.cache_hits}, "
            f"misses {report.cache_misses}, repartitions {report.repartitions}; "
            f"plan cache: {cache.stats()}"
        )
    if report.num_completed < 1:
        failures.append("no request completed")
    pct = report.latency_percentiles((50.0, 99.0))
    if not 0.0 < pct["p50"] <= pct["p99"]:
        failures.append(f"latency percentiles out of order: {pct}")
    return failures


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
def _install(tracer) -> dict:
    """Wrap the program's public calls; returns the hooks' shared counters."""
    from repro.core.d3 import D3System
    from repro.core.dynamic import DynamicRepartitioner
    from repro.core.hpa import HorizontalPartitioner
    from repro.core.plan_cache import PlanCache
    from repro.core.vsm import VerticalSeparationModule
    from repro.network.conditions import BandwidthTrace
    from repro.network.faults import FaultSchedule
    from repro.runtime.executor import DistributedExecutor
    from repro.runtime.serving import ServingSimulator

    hooks = {"events": 0, "run_self_s": 0.0, "triggered": 0, "serve": None}

    def on_run(simulator, _result, span):
        if span.parent == "D3System.serve":
            hooks["events"] += simulator.events_processed
            hooks["run_self_s"] += span.self_s

    def on_observe(_repartitioner, event, _span):
        if event is not None and event.triggered:
            hooks["triggered"] += 1

    def on_serve(_system, _report, span):
        hooks["serve"] = span

    tracer.wrap(D3System, "__init__")
    tracer.wrap(D3System, "serve", on_serve)
    tracer.wrap(PlanCache, "get")
    tracer.wrap(PlanCache, "store")
    tracer.wrap(BandwidthTrace, "condition_at")
    tracer.wrap(BandwidthTrace, "sample_at")
    tracer.wrap(FaultSchedule, "state_at")
    tracer.wrap(DynamicRepartitioner, "observe", on_observe)
    tracer.wrap(DynamicRepartitioner, "observe_topology", on_observe)
    tracer.wrap(HorizontalPartitioner, "partition")
    tracer.wrap(VerticalSeparationModule, "plan")
    tracer.wrap(ServingSimulator, "run", on_run)
    tracer.wrap(ServingSimulator, "build_report")
    tracer.wrap(DistributedExecutor, "execute")
    return hooks


def _snapshot(tracer):
    if tracer is None:
        return None
    return (
        dict(tracer.calls),
        dict(tracer.self_s),
        dict(tracer.layer_calls),
        dict(tracer.layer_self_s),
    )


def layer_figures(tracer, hooks, before, after, serve_s: float, counters: dict):
    """Per-layer figures of the serve phase, and the tracing checks.

    ``before`` and ``after`` are the tracer's aggregates just before and
    just after the serve call; the serve phase is their difference.
    ``counters`` are the report's figures (see :func:`read_report`).
    """
    calls1, self1, layer_calls1, layer_self1 = after
    calls0, self0, layer_calls0, layer_self0 = before

    def calls(name):
        return calls1.get(name, 0) - calls0.get(name, 0)

    def self_s(name):
        return self1.get(name, 0.0) - self0.get(name, 0.0)

    def layer_calls(layer):
        return layer_calls1.get(layer, 0) - layer_calls0.get(layer, 0)

    def layer_self(layer):
        return layer_self1.get(layer, 0.0) - layer_self0.get(layer, 0.0)

    serve = hooks["serve"]
    wall = serve.duration_s
    observed = calls("DynamicRepartitioner.observe") + calls(
        "DynamicRepartitioner.observe_topology"
    )
    engine_self = layer_self("runtime.serving") - self_s("ServingSimulator.build_report")
    serve_layers = {
        layer: {"calls": layer_calls(layer), "self_s": layer_self(layer)}
        for layer in sorted(layer_self1)
        if layer_calls(layer)
    }
    figures = {
        "serve_wall_s": wall,
        "d3.build_s": tracer.self_s["D3System.__init__"],
        "d3.serve_self_s": self_s("D3System.serve"),
        "workload.build_s": tracer.self_s["Workload.build"],
        "plan_cache.get_calls": calls("PlanCache.get"),
        "plan_cache.get_s": self_s("PlanCache.get"),
        "trace.lookup_calls": layer_calls("network.conditions"),
        "trace.lookup_share": layer_self("network.conditions") / wall,
        "faults.state_calls": layer_calls("network.faults"),
        "faults.state_share": layer_self("network.faults") / wall,
        "dynamic.observe_calls": observed,
        "dynamic.observe_share": layer_self("core.dynamic") / wall,
        "dynamic.triggered_share": hooks["triggered"] / observed if observed else 0.0,
        "hpa.partition_calls": layer_calls("core.hpa"),
        "hpa.partition_s": layer_self("core.hpa"),
        "vsm.plan_calls": layer_calls("core.vsm"),
        "vsm.plan_s": layer_self("core.vsm"),
        "engine.run_calls": calls("ServingSimulator.run"),
        "engine.run_s": engine_self,
        "engine.events": hooks["events"],
        "engine.events_per_s": hooks["events"] / hooks["run_self_s"],
        "engine.report_s": self_s("ServingSimulator.build_report"),
        "serve_layers": serve_layers,
    }
    checks = []
    # Every lookup ends as exactly one hit, miss or repartition, and every
    # computed plan is stored once: the counts of calls into the plan cache
    # must match the report's counters.
    lookups = counters["cache_hits"] + counters["cache_misses"] + counters["repartitions"]
    if calls("PlanCache.get") != lookups:
        checks.append(
            f"{calls('PlanCache.get')} plan-cache lookups, but the report counts "
            f"{lookups} hits + misses + repartitions"
        )
    if calls("PlanCache.store") != counters["plans_computed"]:
        checks.append(
            f"{calls('PlanCache.store')} plans stored, but the report counts "
            f"{counters['plans_computed']} plans computed"
        )
    # The layers' self times cover the serve call as timed from outside.
    summed = sum(entry["self_s"] for entry in serve_layers.values())
    if not 0.0 <= serve_s - summed <= SPAN_SLACK_S:
        checks.append(
            f"layer self times sum to {summed!r} s, the timed serve call took {serve_s!r} s"
        )
    return figures, checks


if __name__ == "__main__":
    raise SystemExit(main())
