"""Benchmark of ``D3System.serve``, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload overload --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``overload``, ``drift`` and ``fleet``.
The metrics and their units are those ``BENCHMARK.json`` lists.  The seed
fixes every input: the request stream, the bandwidth trace and the fault
schedule.
``predictions.json`` records which end-to-end metric each layer's figures
should move on which workload, and the held-out seed for confirming claims.

A run executes one serve call at a time, each in a fresh single-threaded
child process (``child.py``), for about ``--seconds`` seconds and at least
:data:`MIN_CHILDREN` times:

* ``--trace 0`` runs untraced children only and reports the end-to-end
  metrics: the medians of the host-time figures (set-up time, requests per
  second, peak RSS) and the simulated figures, which are exact per seed;
* ``--trace 1`` alternates untraced and traced children and reports the
  per-layer metrics of the traced children plus the tracing overhead
  (traced versus untraced requests per second).  The traced children's
  Chrome trace and a per-layer self-time table are written under
  ``.perfbench_out/<workload>/seed<seed>/``.

Every child checks the report's invariants; a child that fails one counts as
failed, not as a measurement.  The simulated figures and counters must be
identical in every child of the run, traced or not.  Each child also times a
fixed pure-Python loop first (``host_probe_s``): a diagnostic for telling host
drift from regressions, recorded in ``runs-trace<0|1>.json`` beside the
results and never used to scale a metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (children run), ``failed`` (children that failed a
check or disagreed with the others) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SIZES  # noqa: E402

#: Fewest children per run, unless :data:`HARD_LIMIT_S` comes first.
MIN_CHILDREN = 3
#: No child runs past this many seconds after the run started: a child still
#: running then is killed and counts failed, so a run always ends in time.
HARD_LIMIT_S = 150.0
#: Where traced runs leave their Chrome trace, layer table and child records.
OUT_DIR = ROOT / ".perfbench_out"

#: The metrics reported, with their units: ``end_to_end`` with ``--trace 0``,
#: ``per_layer`` with ``--trace 1``.  Simulated times carry the units
#: ``sim_ms``/``sim_s`` so that they are never mistaken for host time.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Host-time figures of the children's ``timing`` records; each is reported
#: as the median over the run's untraced children.  Every other metric is a
#: figure of the run itself, a per-layer figure (median over the traced
#: children) or a simulated figure, which is exact for a seed.
TIMED = ("setup_s", "requests_per_s", "peak_rss_mb")


def run_child(workload: str, seed: int, timeout_s: float, trace_dir=None) -> dict:
    """One child process; returns its result, or a failed record."""
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)
    ]
    if trace_dir is not None:
        command += ["--trace", str(trace_dir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One thread per child: numpy's BLAS pools must not compete with it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        return {"checks": [f"child killed after {timeout_s:.0f} s"]}
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {
            "checks": [f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"],
            "wall_s": elapsed,
        }
    result = json.loads(lines[-1])
    result["wall_s"] = elapsed
    return result


def run_children(workload: str, seed: int, seconds: float, traced: bool, out: Path):
    """Children for about ``seconds``; traced runs alternate with untraced."""
    children = []
    started = time.perf_counter()
    while True:
        trace_dir = out if traced and len(children) % 2 == 1 else None
        budget = HARD_LIMIT_S - (time.perf_counter() - started)
        child = run_child(workload, seed, budget, trace_dir)
        children.append(child)
        print(_describe(child), file=sys.stderr)
        if "wall_s" not in child:
            break  # killed at the hard limit
        walls = [c["wall_s"] for c in children if "wall_s" in c]
        next_end = time.perf_counter() - started + statistics.median(walls)
        if next_end > HARD_LIMIT_S or (
            len(children) >= MIN_CHILDREN
            and next_end > seconds
            # A traced run ends on a traced child.
            and (not traced or len(children) % 2 == 0)
        ):
            break
    return children


def _describe(child: dict) -> str:
    if child.get("checks") or "timing" not in child:
        return f"  child FAILED: {child.get('checks')}"
    timing = child["timing"]
    return (
        f"  child {'traced' if child['traced'] else 'untraced'}: "
        f"probe {child['host_probe_s']:.3f} s, setup {timing['setup_s']:.3f} s, "
        f"serve {timing['serve_s']:.3f} s, {timing['requests_per_s']:.1f} req/s, "
        f"rss {timing['peak_rss_mb']:.1f} MB"
    )


def _median(children, source: str, key: str) -> float:
    return statistics.median(child[source][key] for child in children)


def summarize(children: list, traced: bool):
    """``(correct, failed, metrics)`` of one run's children."""
    good = [c for c in children if "timing" in c and not c["checks"]]
    failed = len(children) - len(good)
    reference = good[0]["deterministic"] if good else None
    for child in good:
        if child["deterministic"] != reference:
            diff = sorted(
                key for key in reference if child["deterministic"].get(key) != reference[key]
            )
            print(f"  nondeterministic figures across children: {diff}", file=sys.stderr)
            failed += 1
    untraced = [c for c in good if not c["traced"]]
    with_layers = [c for c in good if c["traced"]]
    if failed or not untraced or (traced and not with_layers):
        return False, max(failed, 1), {}

    run_figures = {"host.probe_s": statistics.median(c["host_probe_s"] for c in good)}
    if traced:
        run_figures["tracing.overhead_share"] = 1.0 - (
            _median(with_layers, "timing", "requests_per_s")
            / _median(untraced, "timing", "requests_per_s")
        )
    metrics = {}
    for metric in BENCHMARK["per_layer" if traced else "end_to_end"]:
        name = metric["name"]
        if name in run_figures:
            value = run_figures[name]
        elif name in TIMED:
            value = _median(untraced, "timing", name)
        elif name in reference:
            value = reference[name]
        else:
            value = _median(with_layers, "layers", name)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return True, 0, metrics


def layer_table(children: list) -> str:
    """Per-layer self time of the serve phase, median over traced children."""
    traced = [c for c in children if c.get("traced") and not c.get("checks")]
    if not traced:
        return ""
    wall = statistics.median(c["timing"]["serve_s"] for c in traced)
    layers = sorted({layer for c in traced for layer in c["layers"]["serve_layers"]})
    rows = []
    absent = {"calls": 0, "self_s": 0.0}
    for layer in layers:
        entries = [c["layers"]["serve_layers"].get(layer, absent) for c in traced]
        self_s = statistics.median(e["self_s"] for e in entries)
        rows.append((layer, entries[0]["calls"], self_s))
    lines = [f"{'layer':<20} {'calls in':>10} {'self s':>10} {'share':>7}"]
    for layer, calls, self_s in sorted(rows, key=lambda row: -row[2]):
        lines.append(f"{layer:<20} {calls:>10} {self_s:>10.4f} {self_s / wall:>7.1%}")
    total = statistics.median(
        sum(e["self_s"] for e in c["layers"]["serve_layers"].values()) for c in traced
    )
    lines.append(f"{'sum of self times':<31} {total:>10.4f}")
    lines.append(f"{'serve call, timed from outside':<31} {wall:>10.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "core" / "d3.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    out = OUT_DIR / args.workload / f"seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    print(
        f"{args.workload} seed {args.seed}: {SIZES[args.workload]} requests "
        f"per serve call, {'traced' if args.trace else 'untraced'}",
        file=sys.stderr,
    )
    children = run_children(args.workload, args.seed, args.seconds, bool(args.trace), out)
    correct, failed, metrics = summarize(children, bool(args.trace))
    with open(out / f"runs-trace{args.trace}.json", "w") as handle:
        json.dump(children, handle, indent=1)
    if args.trace:
        table = layer_table(children)
        (out / "layers.txt").write_text(table + "\n")
        print(table, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(children),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
