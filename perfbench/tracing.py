"""Span tracing around the program's public calls, from outside the program.

:class:`Tracer` wraps methods of the program's classes so that every call
records a span: name, start, end and the span that was open when it began.
Self time (a span's duration minus the time its child spans cover) and call
counts are aggregated exactly as spans close.  The first
:data:`KEPT_SPANS_PER_NAME` spans of each name are also kept in memory, so
memory stays bounded however long the run while every layer still appears,
and are written at the end as Chrome Trace Event JSON, which Perfetto and
``chrome://tracing`` open.

Tracing is only installed in the traced run: the untraced runs that give
the end-to-end metrics execute the program unmodified.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Spans of one name kept for the Chrome trace; later ones are only counted.
KEPT_SPANS_PER_NAME = 2_000

#: Span name -> layer (the module whose public call the span wraps).
LAYERS: Dict[str, str] = {
    "import repro": "import",
    "D3System.__init__": "core.d3",
    "D3System.serve": "core.d3",
    "Workload.build": "runtime.workload",
    "BandwidthTrace.build": "network.conditions",
    "FaultSchedule.chaos": "network.faults",
    "PlanCache.get": "core.plan_cache",
    "PlanCache.store": "core.plan_cache",
    "BandwidthTrace.condition_at": "network.conditions",
    "BandwidthTrace.sample_at": "network.conditions",
    "FaultSchedule.state_at": "network.faults",
    "DynamicRepartitioner.observe": "core.dynamic",
    "DynamicRepartitioner.observe_topology": "core.dynamic",
    "HorizontalPartitioner.partition": "core.hpa",
    "VerticalSeparationModule.plan": "core.vsm",
    "ServingSimulator.run": "runtime.serving",
    "ServingSimulator.build_report": "runtime.serving",
    "DistributedExecutor.execute": "runtime.serving",
    "read report": "bench",
}


class Span:
    """A closed span, as handed to ``on_end`` hooks."""

    __slots__ = ("name", "parent", "duration_s", "self_s")

    def __init__(self, name, parent, duration_s, self_s):
        self.name = name
        self.parent = parent
        self.duration_s = duration_s
        self.self_s = self_s


class Tracer:
    """Records spans at layer boundaries and aggregates them per layer."""

    def __init__(self) -> None:
        #: Kept spans: (id, name, start, end, parent id or -1).
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.dropped = 0
        #: Per span name: calls and summed self time.
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Per layer: calls entering it from another layer, and self time.
        self.layer_calls: Dict[str, int] = defaultdict(int)
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        #: Open spans: [id, name, start, time covered by child spans].
        self._stack: List[list] = []
        self._next_id = 0
        self._patched: List[Tuple[type, str, object]] = []
        self.origin = time.perf_counter()

    # ------------------------------------------------------------------ #
    def begin(self, name: str, start: Optional[float] = None) -> None:
        span_id = self._next_id
        self._next_id += 1
        if start is None:
            start = time.perf_counter()
        self._stack.append([span_id, name, start, 0.0])

    def end(self, end: Optional[float] = None) -> Span:
        stop = time.perf_counter() if end is None else end
        span_id, name, start, children_s = self._stack.pop()
        duration = stop - start
        own = duration - children_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        layer = LAYERS[name]
        self.calls[name] += 1
        self.self_s[name] += own
        self.layer_self_s[layer] += own
        parent_name = parent[1] if parent is not None else None
        if parent_name is None or LAYERS[parent_name] != layer:
            self.layer_calls[layer] += 1
        if self.calls[name] <= KEPT_SPANS_PER_NAME:
            self.spans.append(
                (span_id, name, start, stop, parent[0] if parent is not None else -1)
            )
        else:
            self.dropped += 1
        return Span(name, parent_name, duration, own)

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    # ------------------------------------------------------------------ #
    def wrap(
        self,
        cls: type,
        attr: str,
        on_end: Optional[Callable[[object, object, Span], None]] = None,
    ) -> None:
        """Record a span named ``Class.attr`` around every call of the method.

        ``on_end(instance, result, span)`` runs after each call (``result``
        is ``None`` when the call raised).
        """
        original = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if name not in LAYERS:
            raise KeyError(f"no layer declared for span {name!r}")
        begin, end = self.begin, self.end

        @functools.wraps(original)
        def traced(instance, *args, **kwargs):
            begin(name)
            result = None
            try:
                result = original(instance, *args, **kwargs)
                return result
            finally:
                span = end()
                if on_end is not None:
                    on_end(instance, result, span)

        setattr(cls, attr, traced)
        self._patched.append((cls, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    # ------------------------------------------------------------------ #
    def chrome_trace(self, metadata: Dict[str, object]) -> Dict[str, object]:
        """The kept spans as a Chrome Trace Event document."""
        events = [
            {
                "name": name,
                "cat": LAYERS[name],
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((stop - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, name, start, stop, parent in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, kept_spans=len(self.spans), dropped_spans=self.dropped),
        }

    def write_chrome_trace(self, path, metadata: Dict[str, object]) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(metadata), handle)
