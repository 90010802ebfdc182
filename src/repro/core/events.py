"""Typed engine events and the :class:`EventBus`.

Every system in this repository (the LightTraffic engine, the out-of-memory
baselines, the benchmark harness) reports what it is doing through one
shared vocabulary of events instead of mutating counters inline.  The
engine's main loop emits events at each phase boundary of Algorithm 2;
observers — the run's one recorder
(:class:`~repro.core.metrics.MetricsCollector`, whose views are the
``RunStats`` counters, the metrics snapshot and the per-iteration trace),
the sanitizer, or any user code — subscribe to the types they care about.
This keeps the hot loop free of observation logic and makes new
instrumentation a subscriber away.

Delivery semantics
------------------
* Events are delivered *synchronously*, in emission order.
* Handlers for one event type run in subscription order.
* :meth:`EventBus.emit` with no subscribers for the event's type is a
  single dict lookup (the no-op fast path); emitters that want to skip
  event construction entirely can guard with :meth:`EventBus.wants`.

Event taxonomy (one engine iteration, in emission order)
--------------------------------------------------------
``IterationStarted``  → ``GraphServed`` (hit | explicit | zero_copy)
→ preemptive ``KernelDispatched``\\ s → ``BatchLoaded``\\ s
→ ``KernelDispatched`` → ``Reshuffled`` / ``WalkFinished`` /
``BatchEvicted`` … and one final ``RunCompleted`` carrying the timeline
totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Tuple, Type

#: How the selected partition's graph data was served (GraphServed.mode).
SERVED_HIT = "hit"
SERVED_EXPLICIT = "explicit"
SERVED_ZERO_COPY = "zero_copy"

SERVED_MODES = (SERVED_HIT, SERVED_EXPLICIT, SERVED_ZERO_COPY)


@dataclass(frozen=True)
class EngineEvent:
    """Base class of every event carried by the :class:`EventBus`."""


@dataclass(frozen=True)
class WalksSeeded(EngineEvent):
    """All of a run's walks were seeded into host pools, pre-iteration.

    Emitted exactly once per run, after
    :meth:`~repro.core.engine.LightTrafficEngine._seed_shards` populates
    every shard's host pool — the one mutation of shared pipeline state
    that happens before the iteration loop, made observable so subscribers
    (notably the runtime sanitizer's walk-conservation check) see the run's
    true starting population.
    ``partitions`` is the number of distinct start partitions.
    """

    walks: int
    partitions: int = 0


@dataclass(frozen=True)
class IterationStarted(EngineEvent):
    """One iteration of the engine's main loop began.

    ``pending_walks`` is the number of walks (host + device) of the
    selected partition at selection time.
    """

    iteration: int
    partition: int
    pending_walks: int = 0
    device: int = 0


@dataclass(frozen=True)
class GraphServed(EngineEvent):
    """The selected partition's graph data was made available.

    ``mode`` is one of :data:`SERVED_HIT` (graph-pool cache hit),
    :data:`SERVED_EXPLICIT` (explicit copy on the load stream) or
    :data:`SERVED_ZERO_COPY` (adaptive rule ``alpha * w < S_p``).
    ``copy_seconds`` is the transfer cost paid this event (0 for hits and
    zero-copy serves — zero-copy PCIe occupancy is accounted per kernel).
    ``ready_time`` is the simulated time at which dependent kernels may
    start.
    """

    iteration: int
    partition: int
    mode: str
    copy_seconds: float = 0.0
    ready_time: float = 0.0
    device: int = 0


@dataclass(frozen=True)
class BatchLoaded(EngineEvent):
    """One host-resident walk batch was streamed to the device."""

    partition: int
    walks: int
    seconds: float = 0.0
    device: int = 0


@dataclass(frozen=True)
class KernelDispatched(EngineEvent):
    """One walk-update kernel was dispatched for a partition's walks.

    ``sampler_fallbacks`` counts walks whose bounded rejection sampler
    saturated during this kernel and accepted an unvetted candidate —
    nonzero values flag distribution-quality degradation.
    """

    partition: int
    walks: int
    steps: int
    preemptive: bool = False
    zero_copy: bool = False
    seconds: float = 0.0
    sampler_fallbacks: int = 0
    device: int = 0


@dataclass(frozen=True)
class Reshuffled(EngineEvent):
    """Surviving walks were reshuffled into their new partitions' frontiers."""

    partition: int
    walks: int
    seconds: float = 0.0
    device: int = 0


@dataclass(frozen=True)
class BatchEvicted(EngineEvent):
    """One walk batch was evicted to the host (walk pool over ``m_w``)."""

    partition: int
    walks: int
    seconds: float = 0.0
    device: int = 0


@dataclass(frozen=True)
class WalkFinished(EngineEvent):
    """``count`` walks terminated while computing ``partition``."""

    partition: int
    count: int
    device: int = 0


@dataclass(frozen=True)
class WalksMigrated(EngineEvent):
    """``walks`` walks left ``src_device`` over a peer channel.

    Emitted once per (kernel, destination device) by the source shard.
    ``seconds`` is the send cost accounted on the source evict stream;
    ``nbytes`` the payload riding the channel.
    """

    src_device: int
    dst_device: int
    walks: int
    nbytes: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class WalksDelivered(EngineEvent):
    """``walks`` migrated walks landed in ``dst_device``'s walk pool.

    ``arrival`` is the simulated time the peer channel finished carrying
    the payload; the destination shard may not schedule kernels over
    these walks earlier.
    """

    src_device: int
    dst_device: int
    walks: int
    arrival: float = 0.0


@dataclass(frozen=True)
class DeviceFailed(EngineEvent):
    """``device`` failed at the sweep boundary before ``iteration``.

    ``pending_walks`` is the shard's unfinished-walk population drained
    for recovery; ``partitions`` the owned partitions reassigned to
    survivors.  Emitted *after* the recovered walks have been appended
    to surviving shards, so conservation-auditing subscribers observe a
    consistent cluster.
    """

    device: int
    iteration: int
    pending_walks: int = 0
    partitions: int = 0


@dataclass(frozen=True)
class DeviceRecoveredWalks(EngineEvent):
    """``walks`` walks of failed ``src_device`` landed on ``dst_device``.

    Emitted once per surviving destination after a failure; the sum of
    ``walks`` over destinations must equal the failure's
    ``pending_walks`` (audited by the sanitizer's recovery extension of
    the migration-conservation rule).
    """

    src_device: int
    dst_device: int
    walks: int
    partitions: int = 0


@dataclass(frozen=True)
class ShardRebalanced(EngineEvent):
    """The elastic controller moved partition ownership between shards.

    One event per rebalance operation; cluster-scoped by design, so the
    one iteration event without a device field — a rebalance spans many
    shards at once, and the per-pair payload movement is reported
    through the ordinary ``WalksMigrated`` / ``WalksDelivered`` pair so
    the migration-conservation machinery covers the rebalance path
    unchanged.
    """

    iteration: int
    moved_partitions: int = 0
    walks_moved: int = 0


@dataclass(frozen=True)
class QueryAdmitted(EngineEvent):
    """The serve front-end admitted one client query into a batch.

    Emitted by the admission controller on the serve session's bus the
    moment a query leaves its client and joins the pending frontier.
    ``request_id`` is unique within the session, ``walks`` the number of
    walks the query asked for, and ``arrival`` the simulated submission
    time.  Session-scoped (no iteration/device identity): a query spans
    whole engine runs, not shard iterations.
    """

    request_id: int
    kind: str
    walks: int
    arrival: float = 0.0


@dataclass(frozen=True)
class QueryCompleted(EngineEvent):
    """All walks of one admitted query finished and were routed back.

    Emitted by the completion router after demultiplexing a finished
    coalesced batch.  ``walks`` is the number of walks actually routed
    to the request (the sanitizer's request-conservation rule audits it
    against the admitted count), ``batch`` the coalesced batch index the
    query rode in, and the three latency fields satisfy
    ``queue_seconds + service_seconds == total_seconds`` exactly.
    """

    request_id: int
    kind: str
    walks: int
    batch: int = 0
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    total_seconds: float = 0.0


@dataclass(frozen=True)
class RunCompleted(EngineEvent):
    """The run drained every walk; carries the end-of-run totals."""

    total_time: float
    breakdown: Mapping[str, float] = field(default_factory=dict)
    graph_pool_hits: int = 0
    graph_pool_misses: int = 0
    finished_walks: int = 0


#: Every event type, in rough emission order (drives subscriber binding).
EVENT_TYPES = (
    WalksSeeded,
    IterationStarted,
    GraphServed,
    BatchLoaded,
    KernelDispatched,
    Reshuffled,
    BatchEvicted,
    WalkFinished,
    WalksMigrated,
    WalksDelivered,
    DeviceFailed,
    DeviceRecoveredWalks,
    ShardRebalanced,
    QueryAdmitted,
    QueryCompleted,
    RunCompleted,
)

#: ``(event type, subscriber method name)`` per event type, e.g.
#: ``KernelDispatched`` → ``on_kernel_dispatched`` (drives attach/detach).
_HANDLER_NAMES = tuple(
    (
        event_type,
        "on" + "".join(
            "_" + char.lower() if char.isupper() else char
            for char in event_type.__name__
        ),
    )
    for event_type in EVENT_TYPES
)


class EventBus:
    """Synchronous publish/subscribe hub for :class:`EngineEvent` types.

    Subscribe either per event type (:meth:`subscribe`) or by attaching an
    object whose ``on_<event_name>`` methods are bound automatically
    (:meth:`attach`) — e.g. ``on_graph_served`` receives every
    :class:`GraphServed`.

    Lifecycle contract: register all subscribers *before* the first
    :meth:`emit` of the event type they care about — the bus keeps no
    history, so a late subscriber silently misses everything already
    published.
    """

    __slots__ = ("_handlers",)

    def __init__(self) -> None:
        #: handlers per event type, as a tuple rebuilt on (un)subscribe, so
        #: an emit iterates a snapshot without copying it.
        self._handlers: Dict[Type[EngineEvent], Tuple[Callable, ...]] = {}

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    def subscribe(
        self, event_type: Type[EngineEvent], handler: Callable
    ) -> Callable:
        """Register ``handler`` for ``event_type``; returns the handler."""
        if not (
            isinstance(event_type, type)
            and issubclass(event_type, EngineEvent)
        ):
            raise TypeError(f"not an EngineEvent type: {event_type!r}")
        if not callable(handler):
            raise TypeError("handler must be callable")
        self._handlers[event_type] = self._handlers.get(event_type, ()) + (
            handler,
        )
        return handler

    def unsubscribe(
        self, event_type: Type[EngineEvent], handler: Callable
    ) -> None:
        if not self._drop(event_type, handler):
            raise KeyError(
                f"handler not subscribed to {event_type.__name__}"
            )

    def _drop(self, event_type: Type[EngineEvent], handler: Callable) -> bool:
        """Remove the first registration of ``handler``; whether there was one."""
        handlers = self._handlers.get(event_type, ())
        if handler not in handlers:
            return False
        k = handlers.index(handler)
        rest = handlers[:k] + handlers[k + 1 :]
        if rest:
            self._handlers[event_type] = rest
        else:
            del self._handlers[event_type]
        return True

    def attach(self, subscriber: Any) -> Any:
        """Bind every ``on_<event>`` method of ``subscriber``; returns it."""
        bound = 0
        for event_type, name in _HANDLER_NAMES:
            method = getattr(subscriber, name, None)
            if callable(method):
                self.subscribe(event_type, method)
                bound += 1
        if not bound:
            raise TypeError(
                f"{type(subscriber).__name__} defines no on_<event> handler"
            )
        return subscriber

    def detach(self, subscriber: Any) -> None:
        """Remove every handler previously bound by :meth:`attach`."""
        for event_type, name in _HANDLER_NAMES:
            method = getattr(subscriber, name, None)
            if callable(method):
                self._drop(event_type, method)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def wants(self, event_type: Type[EngineEvent]) -> bool:
        """Whether any subscriber listens for ``event_type``."""
        return event_type in self._handlers

    @property
    def active(self) -> bool:
        """Whether any subscriber is attached at all."""
        return bool(self._handlers)

    def emit(self, event: EngineEvent) -> None:
        """Deliver ``event`` to its subscribers (no-op when there are none)."""
        for handler in self._handlers.get(type(event), ()):
            handler(event)
