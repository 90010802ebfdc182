"""The bus recorder: one subscriber, three views of the same records.

A :class:`MetricsCollector` is the only observation subscriber a run
attaches to its :class:`~repro.core.events.EventBus`.  It accumulates,
per partition:

* how its graph data was served (hit / explicit / zero-copy counts),
* time spent loading (graph copies + walk batches), computing (kernels)
  and evicting walk batches,
* walks computed, walk steps executed, and walks finished,
* how many of its computed walks were preemptive dispatches,

per device the iteration / step / migration / recovery counts and the
pending-walk series, and per run the end-of-run totals ``RunCompleted``
carries (makespan, time breakdown, graph-pool hits and misses).  What the
user sees are views of those records: :meth:`MetricsCollector.fill_stats`
sums them into the :class:`~repro.core.stats.RunStats` counters,
:meth:`MetricsCollector.snapshot` is ``RunStats.metrics`` (what ``repro
run --metrics-json`` serializes — one uniform observation format for the
LightTraffic engine and the baselines alike), and a caller-supplied
:class:`~repro.core.trace.TraceRecorder` receives the per-iteration
records.  :func:`prometheus_text` renders the snapshot in the Prometheus
text exposition format (``repro run --metrics-prom``), including the
per-device pending-walk *time series* (one sample per iteration,
iteration index as the sample timestamp).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.core.events import (
    SERVED_EXPLICIT,
    SERVED_MODES,
    SERVED_ZERO_COPY,
    BatchEvicted,
    BatchLoaded,
    DeviceFailed,
    DeviceRecoveredWalks,
    GraphServed,
    IterationStarted,
    KernelDispatched,
    QueryAdmitted,
    QueryCompleted,
    Reshuffled,
    RunCompleted,
    ShardRebalanced,
    WalkFinished,
    WalksDelivered,
    WalksMigrated,
)

if TYPE_CHECKING:
    from repro.core.stats import RunStats
    from repro.core.trace import TraceRecorder


@dataclass
class PartitionMetrics:
    """Accumulated observations for one graph partition."""

    serve_modes: Dict[str, int] = field(
        default_factory=lambda: {mode: 0 for mode in SERVED_MODES}
    )
    load_seconds: float = 0.0
    compute_seconds: float = 0.0
    evict_seconds: float = 0.0
    batches_loaded: int = 0
    batches_evicted: int = 0
    walks_computed: int = 0
    walks_preempted: int = 0
    steps: int = 0
    walks_finished: int = 0
    sampler_fallbacks: int = 0

    def as_dict(self) -> dict:
        return {
            "serve_modes": dict(self.serve_modes),
            "load_seconds": self.load_seconds,
            "compute_seconds": self.compute_seconds,
            "evict_seconds": self.evict_seconds,
            "batches_loaded": self.batches_loaded,
            "batches_evicted": self.batches_evicted,
            "walks_computed": self.walks_computed,
            "walks_preempted": self.walks_preempted,
            "steps": self.steps,
            "walks_finished": self.walks_finished,
            "sampler_fallbacks": self.sampler_fallbacks,
        }


@dataclass
class DeviceMetrics:
    """Accumulated observations for one device shard.

    ``pending_samples`` is the shard's pending-walk time series — one
    ``(iteration, pending_walks)`` point per iteration the shard ran,
    the raw signal behind the elastic controller's skew detection and
    the per-device series :func:`prometheus_text` exports.
    """

    iterations: int = 0
    walks_computed: int = 0
    steps: int = 0
    walks_migrated_out: int = 0
    walks_migrated_in: int = 0
    migrate_seconds: float = 0.0
    #: walks this shard absorbed from a failed peer.
    walks_recovered: int = 0
    #: global iteration at which this shard failed; ``None`` = alive.
    failed_at_iteration: Optional[int] = None
    pending_samples: List[Tuple[int, int]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "walks_computed": self.walks_computed,
            "steps": self.steps,
            "walks_migrated_out": self.walks_migrated_out,
            "walks_migrated_in": self.walks_migrated_in,
            "migrate_seconds": self.migrate_seconds,
            "walks_recovered": self.walks_recovered,
            "failed_at_iteration": self.failed_at_iteration,
            "pending_samples": [
                [iteration, pending]
                for iteration, pending in self.pending_samples
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DeviceMetrics":
        """Inverse of :meth:`as_dict` (JSON round-trip safe)."""
        failed_at = data.get("failed_at_iteration")
        return cls(
            iterations=int(data.get("iterations", 0)),  # type: ignore[arg-type]
            walks_computed=int(data.get("walks_computed", 0)),  # type: ignore[arg-type]
            steps=int(data.get("steps", 0)),  # type: ignore[arg-type]
            walks_migrated_out=int(data.get("walks_migrated_out", 0)),  # type: ignore[arg-type]
            walks_migrated_in=int(data.get("walks_migrated_in", 0)),  # type: ignore[arg-type]
            migrate_seconds=float(data.get("migrate_seconds", 0.0)),  # type: ignore[arg-type]
            walks_recovered=int(data.get("walks_recovered", 0)),  # type: ignore[arg-type]
            failed_at_iteration=(
                None if failed_at is None else int(failed_at)  # type: ignore[arg-type]
            ),
            pending_samples=[
                (int(sample[0]), int(sample[1]))  # type: ignore[index]
                for sample in data.get("pending_samples", [])  # type: ignore[union-attr]
            ],
        )


class MetricsCollector:
    """The run's one observation subscriber (the bus recorder).

    Every run site attaches exactly one of these with ``bus.attach`` and
    reads its three views when the run is over: :meth:`fill_stats` (the
    :class:`~repro.core.stats.RunStats` counters), :meth:`snapshot` (the
    per-partition / per-device histograms behind ``RunStats.metrics``)
    and, when the caller supplied a ``trace``, the per-iteration records
    appended to it.  Every counter *accumulates*, so one recorder attached
    across several runs on a shared bus (e.g. the multi-round baseline's
    rounds) yields the aggregate of all of them.
    """

    def __init__(self, trace: "Optional[TraceRecorder]" = None) -> None:
        self.trace = trace
        self.partitions: Dict[int, PartitionMetrics] = {}
        self.devices: Dict[int, DeviceMetrics] = {}
        self.iterations = 0
        self.runs_completed = 0
        self.rebalances = 0
        self.walks_rebalanced = 0
        self.total_time = 0.0
        self.breakdown: Dict[str, float] = {}
        self.graph_pool_hits = 0
        self.graph_pool_misses = 0
        self.queries_admitted = 0
        self.queries_completed = 0
        self.queries_by_kind: Dict[str, int] = {}
        self.query_walks_served = 0
        self.query_queue_seconds = 0.0
        self.query_service_seconds = 0.0
        self.query_total_seconds = 0.0

    def _partition(self, index: int) -> PartitionMetrics:
        metrics = self.partitions.get(index)
        if metrics is None:
            metrics = self.partitions[index] = PartitionMetrics()
        return metrics

    def _device(self, index: int) -> DeviceMetrics:
        metrics = self.devices.get(index)
        if metrics is None:
            metrics = self.devices[index] = DeviceMetrics()
        return metrics

    # -- event handlers (bound by EventBus.attach) ----------------------
    def on_iteration_started(self, event: IterationStarted) -> None:
        self.iterations += 1
        device = self._device(event.device)
        device.iterations += 1
        device.pending_samples.append((event.iteration, event.pending_walks))

    def on_graph_served(self, event: GraphServed) -> None:
        metrics = self._partition(event.partition)
        metrics.serve_modes[event.mode] = (
            metrics.serve_modes.get(event.mode, 0) + 1
        )
        metrics.load_seconds += event.copy_seconds
        # GraphServed carries the served mode, so it opens the iteration's
        # trace record; kernel dispatches and evictions fill it in.
        if self.trace is not None:
            self.trace.begin_iteration(
                event.iteration, event.partition, event.mode
            )

    def on_batch_loaded(self, event: BatchLoaded) -> None:
        metrics = self._partition(event.partition)
        metrics.batches_loaded += 1
        metrics.load_seconds += event.seconds

    def on_kernel_dispatched(self, event: KernelDispatched) -> None:
        metrics = self._partition(event.partition)
        metrics.walks_computed += event.walks
        metrics.steps += event.steps
        metrics.compute_seconds += event.seconds
        metrics.sampler_fallbacks += event.sampler_fallbacks
        if event.preemptive:
            metrics.walks_preempted += event.walks
        device = self._device(event.device)
        device.walks_computed += event.walks
        device.steps += event.steps
        if self.trace is not None:
            self.trace.record_compute(
                event.partition, event.walks, event.steps, event.preemptive
            )

    def on_walks_migrated(self, event: WalksMigrated) -> None:
        device = self._device(event.src_device)
        device.walks_migrated_out += event.walks
        device.migrate_seconds += event.seconds

    def on_walks_delivered(self, event: WalksDelivered) -> None:
        self._device(event.dst_device).walks_migrated_in += event.walks

    # Pure observer: conservation across the failure is asserted by the
    # engine's recovery path and audited by the sanitizer, not here.
    def on_device_failed(  # lint: allow-device-failure-conservation
        self, event: DeviceFailed
    ) -> None:
        self._device(event.device).failed_at_iteration = event.iteration

    def on_device_recovered_walks(self, event: DeviceRecoveredWalks) -> None:
        self._device(event.dst_device).walks_recovered += event.walks

    def on_shard_rebalanced(self, event: ShardRebalanced) -> None:
        self.rebalances += 1
        self.walks_rebalanced += event.walks_moved

    def on_query_admitted(self, event: QueryAdmitted) -> None:
        self.queries_admitted += 1
        self.queries_by_kind[event.kind] = (
            self.queries_by_kind.get(event.kind, 0) + 1
        )

    def on_query_completed(self, event: QueryCompleted) -> None:
        self.queries_completed += 1
        self.query_walks_served += event.walks
        self.query_queue_seconds += event.queue_seconds
        self.query_service_seconds += event.service_seconds
        self.query_total_seconds += event.total_seconds

    def on_reshuffled(self, event: Reshuffled) -> None:
        self._partition(event.partition).compute_seconds += event.seconds

    def on_batch_evicted(self, event: BatchEvicted) -> None:
        metrics = self._partition(event.partition)
        metrics.batches_evicted += 1
        metrics.evict_seconds += event.seconds
        if self.trace is not None:
            self.trace.record_eviction()

    def on_walk_finished(self, event: WalkFinished) -> None:
        self._partition(event.partition).walks_finished += event.count

    def on_run_completed(self, event: RunCompleted) -> None:
        self.runs_completed += 1
        self.total_time += event.total_time
        self.graph_pool_hits += event.graph_pool_hits
        self.graph_pool_misses += event.graph_pool_misses
        for category, seconds in event.breakdown.items():
            self.breakdown[category] = (
                self.breakdown.get(category, 0.0) + seconds
            )

    # -- views ----------------------------------------------------------
    @property
    def preemption_fraction(self) -> float:
        """Fraction of computed walks dispatched preemptively."""
        total = sum(p.walks_computed for p in self.partitions.values())
        if total == 0:
            return 0.0
        preempted = sum(
            p.walks_preempted for p in self.partitions.values()
        )
        return preempted / total

    def serve_mode_totals(self) -> Dict[str, int]:
        totals = {mode: 0 for mode in SERVED_MODES}
        for metrics in self.partitions.values():
            for mode, count in metrics.serve_modes.items():
                totals[mode] = totals.get(mode, 0) + count
        return totals

    def fill_stats(self, stats: "RunStats") -> None:
        """The :class:`RunStats` view: every counter read off the records.

        Call once the recorder has seen the run's ``RunCompleted`` —
        ``stats.metrics`` is :meth:`snapshot` as of this call.
        """
        partitions = self.partitions.values()
        devices = self.devices.values()
        snapshot = stats.metrics = self.snapshot()
        modes = snapshot["serve_mode_totals"]
        stats.iterations = self.iterations
        stats.explicit_copies = modes[SERVED_EXPLICIT]
        stats.zero_copy_iterations = modes[SERVED_ZERO_COPY]
        stats.walk_batches_loaded = sum(p.batches_loaded for p in partitions)
        stats.walk_batches_evicted = sum(
            p.batches_evicted for p in partitions
        )
        stats.total_steps = sum(p.steps for p in partitions)
        stats.sampler_fallbacks = sum(
            p.sampler_fallbacks for p in partitions
        )
        stats.walks_migrated = sum(d.walks_migrated_out for d in devices)
        stats.walks_recovered = sum(d.walks_recovered for d in devices)
        stats.device_failures = sum(
            d.failed_at_iteration is not None for d in devices
        )
        stats.rebalances = self.rebalances
        stats.walks_rebalanced = self.walks_rebalanced
        stats.queries_admitted = self.queries_admitted
        stats.queries_completed = self.queries_completed
        stats.total_time = self.total_time
        stats.breakdown = dict(self.breakdown)
        stats.graph_pool_hits = self.graph_pool_hits
        stats.graph_pool_misses = self.graph_pool_misses

    def snapshot(self) -> dict:
        """JSON-serializable view (``RunStats.metrics`` / --metrics-json)."""
        return {
            "iterations": self.iterations,
            "runs_completed": self.runs_completed,
            "rebalances": self.rebalances,
            "total_time": self.total_time,
            "preemption_fraction": self.preemption_fraction,
            "serve_mode_totals": self.serve_mode_totals(),
            "queries": {
                "admitted": self.queries_admitted,
                "completed": self.queries_completed,
                "by_kind": dict(sorted(self.queries_by_kind.items())),
                "walks_served": self.query_walks_served,
                "queue_seconds": self.query_queue_seconds,
                "service_seconds": self.query_service_seconds,
                "total_seconds": self.query_total_seconds,
            },
            "partitions": {
                str(index): metrics.as_dict()
                for index, metrics in sorted(self.partitions.items())
            },
            "devices": {
                str(index): metrics.as_dict()
                for index, metrics in sorted(self.devices.items())
            },
        }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote and newline are the three characters the
    format requires escaping inside quoted label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels(pairs: Mapping[str, str]) -> str:
    if not pairs:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(pairs.items())
    )
    return "{" + body + "}"


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))  # type: ignore[arg-type]


class _PromWriter:
    """Accumulates one metric family (HELP/TYPE header + sample lines)."""

    def __init__(self, namespace: str, extra: Mapping[str, str]) -> None:
        self.namespace = namespace
        self.extra = dict(extra)
        self.lines: List[str] = []

    def family(self, name: str, kind: str, help_text: str) -> str:
        full = f"{self.namespace}_{name}"
        self.lines.append(f"# HELP {full} {help_text}")
        self.lines.append(f"# TYPE {full} {kind}")
        return full

    def sample(
        self,
        full_name: str,
        value: object,
        labels: Optional[Mapping[str, str]] = None,
        timestamp: Optional[int] = None,
    ) -> None:
        merged = dict(self.extra)
        if labels:
            merged.update(labels)
        line = f"{full_name}{_labels(merged)} {_fmt(value)}"
        if timestamp is not None:
            line = f"{line} {timestamp}"
        self.lines.append(line)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def prometheus_text(
    snapshot: Mapping[str, object],
    namespace: str = "repro",
    extra_labels: Optional[Mapping[str, str]] = None,
) -> str:
    """Render a :meth:`MetricsCollector.snapshot` as Prometheus text.

    Cumulative counts become ``_total`` counters; instantaneous values
    become gauges.  The per-device pending-walk series is exported with
    one sample line per iteration, using the iteration index as the
    sample timestamp (monotonically increasing per series, as the
    exposition format requires).  ``extra_labels`` (e.g. ``run``/
    ``graph`` identifiers) are merged into every sample, values escaped.
    """
    writer = _PromWriter(namespace, extra_labels or {})

    name = writer.family(
        "iterations_total", "counter", "Engine iterations executed."
    )
    writer.sample(name, int(snapshot.get("iterations", 0)))  # type: ignore[arg-type]
    name = writer.family(
        "runs_completed_total", "counter", "Engine runs completed."
    )
    writer.sample(name, int(snapshot.get("runs_completed", 0)))  # type: ignore[arg-type]
    name = writer.family(
        "rebalances_total", "counter", "Elastic shard rebalance operations."
    )
    writer.sample(name, int(snapshot.get("rebalances", 0)))  # type: ignore[arg-type]
    name = writer.family(
        "total_time_seconds", "gauge", "Simulated end-to-end makespan."
    )
    writer.sample(name, float(snapshot.get("total_time", 0.0)))  # type: ignore[arg-type]
    name = writer.family(
        "preemption_fraction",
        "gauge",
        "Fraction of computed walks dispatched preemptively.",
    )
    writer.sample(name, float(snapshot.get("preemption_fraction", 0.0)))  # type: ignore[arg-type]

    serve_modes = snapshot.get("serve_mode_totals") or {}
    name = writer.family(
        "serve_mode_total", "counter", "Graph serves by mode."
    )
    for mode, count in sorted(serve_modes.items()):  # type: ignore[union-attr]
        writer.sample(name, int(count), {"mode": str(mode)})

    queries = snapshot.get("queries") or {}
    if queries:
        name = writer.family(
            "queries_admitted_total", "counter", "Serve queries admitted."
        )
        writer.sample(name, int(queries.get("admitted", 0)))  # type: ignore[union-attr]
        name = writer.family(
            "queries_completed_total", "counter", "Serve queries completed."
        )
        writer.sample(name, int(queries.get("completed", 0)))  # type: ignore[union-attr]
        name = writer.family(
            "queries_by_kind_total", "counter", "Serve queries by kind."
        )
        by_kind = queries.get("by_kind") or {}  # type: ignore[union-attr]
        for kind, count in sorted(by_kind.items()):  # type: ignore[union-attr]
            writer.sample(name, int(count), {"kind": str(kind)})
        name = writer.family(
            "query_walks_served_total",
            "counter",
            "Walks routed back to completed queries.",
        )
        writer.sample(name, int(queries.get("walks_served", 0)))  # type: ignore[union-attr]
        for key, metric, help_text in (
            (
                "queue_seconds",
                "query_queue_seconds_total",
                "Simulated queue time summed over completed queries.",
            ),
            (
                "service_seconds",
                "query_service_seconds_total",
                "Simulated service time summed over completed queries.",
            ),
            (
                "total_seconds",
                "query_total_seconds_total",
                "Simulated total latency summed over completed queries.",
            ),
        ):
            name = writer.family(metric, "counter", help_text)
            writer.sample(name, float(queries.get(key, 0.0)))  # type: ignore[union-attr]

    devices = snapshot.get("devices") or {}
    device_items = sorted(
        devices.items(), key=lambda kv: int(kv[0])  # type: ignore[union-attr]
    )
    device_counters = (
        ("iterations", "device_iterations_total", "Iterations run by shard."),
        (
            "walks_computed",
            "device_walks_computed_total",
            "Walks computed by shard.",
        ),
        ("steps", "device_steps_total", "Walk steps executed by shard."),
        (
            "walks_migrated_out",
            "device_walks_migrated_out_total",
            "Walks migrated out of the shard.",
        ),
        (
            "walks_migrated_in",
            "device_walks_migrated_in_total",
            "Walks migrated into the shard.",
        ),
        (
            "walks_recovered",
            "device_walks_recovered_total",
            "Walks absorbed from failed peers.",
        ),
    )
    for key, metric, help_text in device_counters:
        name = writer.family(metric, "counter", help_text)
        for device_id, data in device_items:
            writer.sample(
                name, int(data.get(key, 0)), {"device": str(device_id)}
            )
    name = writer.family(
        "device_migrate_seconds_total",
        "counter",
        "Migration send time accounted to the shard.",
    )
    for device_id, data in device_items:
        writer.sample(
            name,
            float(data.get("migrate_seconds", 0.0)),
            {"device": str(device_id)},
        )
    name = writer.family(
        "device_failed", "gauge", "Whether the shard failed mid-run."
    )
    for device_id, data in device_items:
        writer.sample(
            name,
            data.get("failed_at_iteration") is not None,
            {"device": str(device_id)},
        )
    name = writer.family(
        "device_pending_walks",
        "gauge",
        "Pending walks at each iteration (iteration index as timestamp).",
    )
    for device_id, data in device_items:
        for iteration, pending in data.get("pending_samples", []):
            writer.sample(
                name,
                int(pending),
                {"device": str(device_id)},
                timestamp=int(iteration),
            )
    return writer.text()
