"""Layer attribution from outside: wrap public callables, record spans.

For the traced repetition only, every callable named in :data:`TRACED` is
replaced in place by a wrapper that logs its entry and exit in memory; the
originals are put back afterwards.  The log becomes one span ``(name,
start, end, parent)`` per call once the repetition has ended, and nothing
is written before that.  A span's *self* time is its duration minus the
part covered by its child spans, so self times sum to the root span
exactly.

Hot dunder methods are deliberately not wrapped (``BlockPool.__contains__``
runs 6.5 M times on ``evict-pressure``); their time stays in the caller's
self time.  The one dunder in the table, ``LightTrafficEngine.__init__``,
runs once per engine and is what separates engine set-up from the serve
front-end on ``serve-mixed``.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Span of the benchmark's own repetition; its self time is whatever ran
#: outside every wrapped callable (algorithm construction, result
#: collection).
ROOT_LAYER = "bench.harness"

#: layer -> rows of (module, class or None, attribute, span suffix).  The
#: span is ``layer`` or ``layer.suffix``; an attribute may end in ``*``.
#: A module-level function is patched where it is *looked up*, so a
#: ``from x import f`` binding is named by the importing module.
TRACED: Dict[str, Tuple[Tuple[str, Optional[str], str, str], ...]] = {
    "core.engine": (
        ("repro.core.engine", "LightTrafficEngine", "__init__", "init"),
        ("repro.core.engine", "LightTrafficEngine", "run", "run"),
    ),
    "core.cluster": (
        ("repro.core.cluster", "MultiDeviceEngine", "run", "loop"),
        ("repro.core.cluster", "WalkMigrator", "route", "migrator"),
    ),
    "core.scheduler": (
        ("repro.core.scheduler", "Scheduler", "select_partition", "select_partition"),
        ("repro.core.scheduler", "Scheduler", "graph_victim", "graph_victim"),
        ("repro.core.scheduler", "Scheduler", "pick_preemptive_partition", "pick_preemptive"),
        ("repro.core.scheduler", "Scheduler", "walk_evict_partition", "walk_evict"),
    ),
    "core.stages.graph_server": (
        ("repro.core.stages.graph_server", "GraphServer", "serve", ""),
    ),
    "core.stages.walk_loader": (
        ("repro.core.stages.walk_loader", "WalkLoader", "stream", ""),
    ),
    "core.stages.preemptive": (
        ("repro.core.stages.preemptive", "PreemptiveDispatcher", "fill", ""),
    ),
    "core.stages.compute": (
        ("repro.core.stages.compute", "ComputeDispatcher", "dispatch", ""),
        ("repro.core.stages.compute", "ComputeDispatcher", "enforce_walk_capacity", ""),
    ),
    "backends": (
        ("repro.backends.simulated", "SimulatedBackend", "advance", "advance"),
        ("repro.backends.base", "ExecutionBackend", "group_order", "group_order"),
        ("repro.backends.base", "ExecutionBackend", "bind", "setup"),
        ("repro.backends.base", "ExecutionBackend", "on_walks_seeded", "setup"),
    ),
    "algorithms": (
        ("repro.algorithms.uniform", "UniformSampling", "step_once", "step"),
        ("repro.algorithms.pagerank", "PageRank", "step_once", "step"),
        ("repro.algorithms.ppr", "PersonalizedPageRank", "step_once", "step"),
        ("repro.algorithms.metapath", "MetapathWalk", "step_once", "step"),
        ("repro.algorithms.node2vec", "Node2Vec", "step_once", "step"),
        ("repro.algorithms.pagerank", "PageRank", "observe", "observe"),
        ("repro.algorithms.ppr", "PersonalizedPageRank", "observe", "observe"),
    ),
    "core.prng": (
        ("repro.core.prng", "CounterRNG", "random", ""),
        ("repro.core.prng", "CounterRNG", "integers", ""),
        ("repro.core.prng", "CounterRNG", "set_context", ""),
        ("repro.core.prng", "TenantCounterRNG", "set_context", ""),
    ),
    "walks.reshuffle": (
        ("repro.walks.reshuffle", "TwoLevelReshuffler", "reshuffle", ""),
    ),
    "walks.pool": (
        ("repro.walks.pool", "DeviceWalkPool", "scatter_sorted", "scatter_sorted"),
        ("repro.walks.pool", "DeviceWalkPool", "evict_batch", "evict_batch"),
        ("repro.walks.pool", "DeviceWalkPool", "pop_*", "pop"),
        ("repro.walks.pool", "DeviceWalkPool", "load_batch", "load_batch"),
        ("repro.walks.pool", "DeviceWalkPool", "append_walks", "append_walks"),
        ("repro.walks.pool", "HostWalkPool", "append_walks", "host"),
        ("repro.walks.pool", "HostWalkPool", "push_batch", "host"),
        ("repro.walks.pool", "HostWalkPool", "pop_batch", "host"),
    ),
    "gpu.memory": (
        ("repro.gpu.memory", "BlockPool", "lookup", ""),
        ("repro.gpu.memory", "BlockPool", "insert", ""),
        ("repro.gpu.memory", "BlockPool", "evict", ""),
        ("repro.gpu.memory", "BlockPool", "keys", ""),
    ),
    "gpu.timeline": (
        ("repro.gpu.timeline", "Stream", "schedule", ""),
    ),
    "core.events": (
        ("repro.core.events", "EventBus", "emit", "emit"),
    ),
    "core.stats": (
        ("repro.core.stats", "StatsCollector", "on_*", ""),
    ),
    "core.metrics": (
        ("repro.core.metrics", "MetricsCollector", "on_*", ""),
    ),
    "analysis.sanitizer": (
        ("repro.analysis.sanitizer", "Sanitizer", "on_*", ""),
        ("repro.analysis.sanitizer", "Sanitizer", "stream_op", ""),
        ("repro.analysis.sanitizer", "Sanitizer", "pool_*", ""),
        ("repro.analysis.sanitizer", "Sanitizer", "device_*", ""),
    ),
    "graph.partition": (
        ("repro.graph.partition", "PartitionedGraph", "find_partitions", "find_partitions"),
        ("repro.core.engine", None, "partition_by_range", "partition_by_range"),
    ),
    "serve": (
        ("repro.serve.session", "ServeSession", "run", "session"),
        ("repro.serve.session", None, "run_standalone", "batch"),
        ("repro.serve.batch", None, "run_standalone", "batch"),
        ("repro.serve.batch", "CoalescedBatch", "start_vertices", "batch"),
        ("repro.serve.batch", "CoalescedBatch", "observe", "batch"),
        ("repro.serve.batch", "RecordingAlgorithm", "observe", "batch"),
    ),
}

EMIT_SPAN = "core.events.emit"

#: Per-layer counts that come from a repetition's outcome, not its spans
#: (``Facts.layer_counts``); zero on the workloads that do not have them.
OUTCOME_COUNTS = (
    "analysis.sanitizer.checks",
    "analysis.sanitizer.violations",
    "serve.session.batches",
    "serve.session.coalesced_queries",
)

#: One patched attribute: (owner namespace, attribute name, original).
Patch = Tuple[Any, str, Callable[..., Any]]


def span_names() -> List[str]:
    """Every span the table can produce, plus the root, in table order."""
    names = [ROOT_LAYER]
    for layer, rows in TRACED.items():
        for __, __, __, suffix in rows:
            span = f"{layer}.{suffix}" if suffix else layer
            if span not in names:
                names.append(span)
    return names


def resolve_targets() -> List[Tuple[Any, str, Callable[..., Any], str]]:
    """Expand :data:`TRACED` to ``(owner, attribute, original, span)``.

    A class row is resolved to the class in the MRO that *defines* the
    attribute, so restoring is a plain ``setattr`` of the original and a
    method inherited by several public classes is patched once.
    """
    targets: List[Tuple[Any, str, Callable[..., Any], str]] = []
    seen = set()
    for layer, rows in TRACED.items():
        for module_name, class_name, pattern, suffix in rows:
            span = f"{layer}.{suffix}" if suffix else layer
            module = importlib.import_module(module_name)
            scope = module if class_name is None else getattr(module, class_name)
            if pattern.endswith("*"):
                attributes = sorted(
                    name
                    for name in dir(scope)
                    if fnmatch.fnmatchcase(name, pattern)
                )
            else:
                attributes = [pattern]
            if not attributes:
                raise LookupError(f"{module_name}.{class_name}.{pattern} matches nothing")
            for attribute in attributes:
                owner = scope
                if class_name is not None:
                    owner = next(
                        klass for klass in scope.__mro__ if attribute in vars(klass)
                    )
                original = vars(owner)[attribute]
                if not inspect.isfunction(original):
                    raise TypeError(
                        f"{module_name}.{class_name}.{attribute} is not a plain function"
                    )
                if (id(owner), attribute) in seen:
                    continue
                seen.add((id(owner), attribute))
                targets.append((owner, attribute, original, span))
    return targets


class Tracer:
    """In-memory span log: two flat lists, two entries per call.

    A wrapper appends ``(span id, clock)`` on entry and ``(-1, clock)`` on
    exit and nothing else — the cheapest recording found (about a third
    less overhead than keeping the span stack while running).  The spans
    ``(name, start, end, parent)`` are rebuilt from the log afterwards.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        #: every event handed to ``EventBus.emit``, for the layer counts.
        self.events: List[object] = []
        self._marks: List[int] = []
        self._stamps: List[float] = []
        self._spans: Optional[Tuple[np.ndarray, ...]] = None

    def _name_id(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    def wrap(self, function: Callable[..., Any], span: str) -> Callable[..., Any]:
        """The recording stand-in for ``function``."""
        name_id = self._name_id(span)
        mark, stamp = self._marks.append, self._stamps.append
        clock = time.perf_counter
        if span == EMIT_SPAN:
            tap = self.events.append

            @functools.wraps(function)
            def traced_emit(bus: Any, event: Any) -> Any:
                tap(event)
                mark(name_id)
                stamp(clock())
                try:
                    return function(bus, event)
                finally:
                    mark(-1)
                    stamp(clock())

            return traced_emit

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            mark(name_id)
            stamp(clock())
            try:
                return function(*args, **kwargs)
            finally:
                mark(-1)
                stamp(clock())

        return traced

    @contextmanager
    def root(self) -> Iterator[None]:
        """The benchmark's own span around one traced repetition."""
        self._marks.append(self._name_id(ROOT_LAYER))
        self._stamps.append(time.perf_counter())
        try:
            yield
        finally:
            self._marks.append(-1)
            self._stamps.append(time.perf_counter())

    # ------------------------------------------------------------------
    def spans(self) -> Tuple[np.ndarray, ...]:
        """``(name_ids, starts, ends, parents)``, one entry per call."""
        if self._spans is None:
            name_ids: List[int] = []
            starts: List[float] = []
            ends: List[float] = []
            parents: List[int] = []
            stack = [-1]
            for mark, stamp in zip(self._marks, self._stamps):
                if mark >= 0:
                    stack.append(len(starts))
                    name_ids.append(mark)
                    parents.append(stack[-2])
                    starts.append(stamp)
                    ends.append(stamp)
                else:
                    ends[stack.pop()] = stamp
            self._spans = (
                np.asarray(name_ids, dtype=np.int64),
                np.asarray(starts),
                np.asarray(ends),
                np.asarray(parents, dtype=np.int64),
            )
        return self._spans

    def self_seconds(self) -> np.ndarray:
        """Per-span self time: duration minus what child spans cover."""
        __, starts, ends, parents = self.spans()
        durations = ends - starts
        covered = np.zeros_like(durations)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], durations[has_parent])
        return durations - covered

    def totals(self) -> Dict[str, Dict[str, float]]:
        """span name -> ``{"self_s", "busy_s", "calls"}`` over the run.

        ``busy_s`` is the span's own duration, children included.  Every
        name of :func:`span_names` is present, zero when never called.
        """
        ids, starts, ends, __ = self.spans()
        size = len(self.names)
        self_s = np.bincount(ids, weights=self.self_seconds(), minlength=size)
        busy_s = np.bincount(ids, weights=ends - starts, minlength=size)
        calls = np.bincount(ids, minlength=size)
        out = {
            name: {"self_s": 0.0, "busy_s": 0.0, "calls": 0.0}
            for name in span_names()
        }
        for index, name in enumerate(self.names):
            out[name] = {
                "self_s": float(self_s[index]),
                "busy_s": float(busy_s[index]),
                "calls": float(calls[index]),
            }
        return out

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as Chrome trace-event JSON (``chrome://tracing``)."""
        name_ids, starts, ends, __ = self.spans()
        origin = float(starts[0]) if len(starts) else 0.0
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": self.names[name_id],
                    "cat": layer_of(self.names[name_id]),
                    "ph": "X",
                    "pid": 0,
                    "tid": 0,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                }
                for name_id, start, end in zip(
                    name_ids.tolist(), starts.tolist(), ends.tolist()
                )
            ],
        }

    def dump_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def layer_of(span: str) -> str:
    """The :data:`TRACED` layer a span name belongs to."""
    if span == ROOT_LAYER:
        return ROOT_LAYER
    return max(
        (layer for layer in TRACED if span == layer or span.startswith(layer + ".")),
        key=len,
    )


@contextmanager
def traced_calls() -> Iterator[Tracer]:
    """Wrap every table entry, open the root span, restore on exit."""
    tracer = Tracer()
    patches: List[Patch] = []
    try:
        for owner, attribute, original, span in resolve_targets():
            setattr(owner, attribute, tracer.wrap(original, span))
            patches.append((owner, attribute, original))
        with tracer.root():
            yield tracer
    finally:
        for owner, attribute, original in patches:
            setattr(owner, attribute, original)


def layer_metrics(
    tracer: Tracer, layer_counts: Dict[str, float], untraced_wall_s: float
) -> Dict[str, float]:
    """Every per-layer number of one traced repetition, by metric name.

    ``<span>.self_s`` / ``<span>.calls`` for each span, the same summed per
    layer, the work counts read off the events that went through
    ``EventBus.emit``, and ``layer_counts`` — what only the repetition's
    outcome knows.  ``untraced_wall_s`` is the same repetition timed with
    tracing off, the base of ``trace.overhead_ratio``.
    """
    totals = tracer.totals()
    metrics: Dict[str, float] = {}
    for layer in (ROOT_LAYER, *TRACED):
        members = [t for span, t in totals.items() if layer_of(span) == layer]
        metrics[f"{layer}.self_s"] = sum(t["self_s"] for t in members)
        metrics[f"{layer}.calls"] = sum(t["calls"] for t in members)
    for span, total in totals.items():
        metrics[f"{span}.self_s"] = total["self_s"]
        metrics[f"{span}.calls"] = total["calls"]

    by_type: Dict[str, List[Any]] = {}
    for event in tracer.events:
        by_type.setdefault(type(event).__name__, []).append(event)
    served = [event.mode for event in by_type.get("GraphServed", ())]
    kernels = by_type.get("KernelDispatched", ())
    completed = by_type.get("RunCompleted", ())
    hits = sum(event.graph_pool_hits for event in completed)
    lookups = hits + sum(event.graph_pool_misses for event in completed)
    steps = float(sum(event.steps for event in kernels))
    advance = totals["backends.advance"]
    wall_s = totals[ROOT_LAYER]["busy_s"]
    metrics.update(dict.fromkeys(OUTCOME_COUNTS, 0.0))
    metrics.update(layer_counts)
    metrics.update(
        {
            "core.engine.iterations": len(by_type.get("IterationStarted", ())),
            "core.stages.graph_server.explicit_loads": served.count("explicit"),
            "core.stages.graph_server.zero_copy_serves": served.count("zero_copy"),
            "core.stages.graph_server.pool_hit_rate": hits / lookups if lookups else 0.0,
            "core.stages.walk_loader.batches_loaded": len(by_type.get("BatchLoaded", ())),
            "core.stages.preemptive.kernels": sum(1 for event in kernels if event.preemptive),
            "core.stages.compute.dispatches": len(kernels),
            "core.stages.compute.batches_evicted": len(by_type.get("BatchEvicted", ())),
            "backends.steps": steps,
            "backends.steps_per_busy_s": steps / advance["busy_s"] if advance["busy_s"] else 0.0,
            "backends.mean_steps_per_call": steps / advance["calls"] if advance["calls"] else 0.0,
            "walks.reshuffle.walks": sum(event.walks for event in by_type.get("Reshuffled", ())),
            "gpu.timeline.ops": totals["gpu.timeline"]["calls"],
            "core.events.emitted": len(tracer.events),
            "core.cluster.walks_migrated": sum(event.walks for event in by_type.get("WalksMigrated", ())),
            "serve.session.engine_runs": totals["core.engine.run"]["calls"],
            "trace.wall_s": wall_s,
            "trace.overhead_ratio": wall_s / untraced_wall_s - 1.0,
            "trace.spans": len(tracer.spans()[0]),
        }
    )
    return {name: float(value) for name, value in metrics.items()}
