"""Tests for the engine event bus (repro.core.events)."""

import dataclasses

import pytest

from repro.algorithms import PageRank
from repro.core import events
from repro.core.config import EngineConfig
from repro.core.engine import LightTrafficEngine
from repro.core.events import (
    EVENT_TYPES,
    SERVED_MODES,
    BatchEvicted,
    BatchLoaded,
    EngineEvent,
    EventBus,
    GraphServed,
    IterationStarted,
    KernelDispatched,
    Reshuffled,
    RunCompleted,
    WalkFinished,
)
from repro.graph import generators


class TestSubscribe:
    def test_subscribe_and_emit(self):
        bus = EventBus()
        seen = []
        bus.subscribe(IterationStarted, seen.append)
        event = IterationStarted(iteration=1, partition=3, pending_walks=7)
        bus.emit(event)
        assert seen == [event]

    def test_emission_order_preserved(self):
        bus = EventBus()
        seen = []
        bus.subscribe(IterationStarted, seen.append)
        bus.subscribe(KernelDispatched, seen.append)
        events = [
            IterationStarted(1, 0),
            KernelDispatched(partition=0, walks=4, steps=4),
            IterationStarted(2, 1),
        ]
        for event in events:
            bus.emit(event)
        assert seen == events

    def test_handlers_run_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(WalkFinished, lambda e: order.append("first"))
        bus.subscribe(WalkFinished, lambda e: order.append("second"))
        bus.emit(WalkFinished(partition=0, count=1))
        assert order == ["first", "second"]

    def test_only_matching_type_delivered(self):
        bus = EventBus()
        seen = []
        bus.subscribe(BatchLoaded, seen.append)
        bus.emit(BatchEvicted(partition=0, walks=8))
        bus.emit(BatchLoaded(partition=0, walks=8))
        assert [type(e) for e in seen] == [BatchLoaded]

    def test_subscribe_rejects_non_event_type(self):
        with pytest.raises(TypeError, match="not an EngineEvent"):
            EventBus().subscribe(int, print)

    def test_subscribe_rejects_non_callable(self):
        with pytest.raises(TypeError, match="callable"):
            EventBus().subscribe(IterationStarted, 42)

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        handler = bus.subscribe(Reshuffled, seen.append)
        bus.unsubscribe(Reshuffled, handler)
        bus.emit(Reshuffled(partition=0, walks=2))
        assert seen == []
        assert not bus.active

    def test_unsubscribe_unknown_raises(self):
        with pytest.raises(KeyError):
            EventBus().unsubscribe(Reshuffled, print)

    def test_unsubscribe_removes_one_registration(self):
        bus = EventBus()
        seen = []
        bus.subscribe(Reshuffled, seen.append)
        bus.subscribe(Reshuffled, seen.append)
        bus.unsubscribe(Reshuffled, seen.append)
        bus.emit(Reshuffled(partition=0, walks=2))
        assert len(seen) == 1

    def test_delivery_reads_the_handlers_of_emit_time(self):
        """A handler (un)subscribed while an event is delivered changes
        the next emit, not the current one."""
        bus = EventBus()
        order = []

        def late(event):
            order.append("late")

        def second(event):
            order.append("second")

        def first(event):
            order.append("first")
            bus.subscribe(WalkFinished, late)
            bus.unsubscribe(WalkFinished, second)

        bus.subscribe(WalkFinished, first)
        bus.subscribe(WalkFinished, second)
        bus.emit(WalkFinished(partition=0, count=1))
        assert order == ["first", "second"]
        order.clear()
        bus.unsubscribe(WalkFinished, first)
        bus.emit(WalkFinished(partition=0, count=1))
        assert order == ["late"]


class TestNoSubscriberFastPath:
    def test_emit_without_subscribers_is_noop(self):
        bus = EventBus()
        bus.emit(RunCompleted(total_time=1.0))  # must not raise

    def test_wants_and_active(self):
        bus = EventBus()
        assert not bus.active
        assert not bus.wants(GraphServed)
        handler = bus.subscribe(GraphServed, lambda e: None)
        assert bus.active
        assert bus.wants(GraphServed)
        assert not bus.wants(RunCompleted)
        bus.unsubscribe(GraphServed, handler)
        assert not bus.active

    def test_emit_skips_handler_lists_of_other_types(self):
        bus = EventBus()
        calls = []
        bus.subscribe(IterationStarted, calls.append)
        bus.emit(RunCompleted(total_time=0.0))
        assert calls == []


class TestAttach:
    class Recorder:
        def __init__(self):
            self.events = []

        def on_iteration_started(self, event):
            self.events.append(event)

        def on_graph_served(self, event):
            self.events.append(event)

        def on_run_completed(self, event):
            self.events.append(event)

    def test_attach_binds_on_methods(self):
        bus = EventBus()
        recorder = bus.attach(self.Recorder())
        bus.emit(IterationStarted(1, 0))
        bus.emit(GraphServed(iteration=1, partition=0, mode="hit"))
        bus.emit(KernelDispatched(partition=0, walks=1, steps=1))  # unbound
        bus.emit(RunCompleted(total_time=2.0))
        assert [type(e).__name__ for e in recorder.events] == [
            "IterationStarted", "GraphServed", "RunCompleted",
        ]

    def test_attach_requires_a_handler(self):
        with pytest.raises(TypeError, match="no on_<event> handler"):
            EventBus().attach(object())

    def test_detach_removes_all_bound_handlers(self):
        bus = EventBus()
        recorder = bus.attach(self.Recorder())
        bus.detach(recorder)
        bus.emit(IterationStarted(1, 0))
        bus.emit(RunCompleted(total_time=0.0))
        assert recorder.events == []
        assert not bus.active

    def test_detach_leaves_other_subscribers(self):
        bus = EventBus()
        survivor = []
        bus.subscribe(IterationStarted, survivor.append)
        recorder = bus.attach(self.Recorder())
        bus.detach(recorder)
        bus.emit(IterationStarted(1, 0))
        assert len(survivor) == 1

    def test_every_event_type_is_attachable(self):
        bus = EventBus()

        class Everything:
            pass

        seen = []
        for event_type in EVENT_TYPES:
            name = "on_" + "".join(
                ("_" + c.lower()) if c.isupper() else c
                for c in event_type.__name__
            ).lstrip("_")
            setattr(Everything, name, lambda self, e, _s=seen: _s.append(e))
        bus.attach(Everything())
        bus.emit(IterationStarted(1, 0))
        bus.emit(BatchLoaded(partition=0, walks=1))
        bus.emit(WalkFinished(partition=0, count=1))
        assert len(seen) == 3


class TestEventShapes:
    def test_events_are_frozen(self):
        event = IterationStarted(1, 0)
        with pytest.raises(AttributeError):
            event.iteration = 2

    def test_served_modes(self):
        assert SERVED_MODES == ("hit", "explicit", "zero_copy")

    def test_run_completed_defaults(self):
        event = RunCompleted(total_time=1.5)
        assert event.breakdown == {}
        assert event.graph_pool_hits == 0
        assert event.finished_walks == 0


class TestEventInvariants:
    #: Iteration-scoped events without a device field, and why.
    CLUSTER_SCOPED = {
        "ShardRebalanced": (
            "one rebalance moves partitions between many shards; the "
            "per-pair payload goes through WalksMigrated / WalksDelivered"
        ),
    }

    def test_every_iteration_event_names_its_device(self):
        # Per-device views (metrics, sanitizer, trace) attribute an
        # iteration event to a shard by its device field.
        deviceless = []
        for obj in vars(events).values():
            if not (
                isinstance(obj, type)
                and issubclass(obj, EngineEvent)
                and obj is not EngineEvent
            ):
                continue
            names = {f.name for f in dataclasses.fields(obj)}
            if "iteration" in names and not names & {
                "device",
                "src_device",
                "dst_device",
            }:
                deviceless.append(obj.__name__)
        assert sorted(deviceless) == sorted(self.CLUSTER_SCOPED)

    def test_no_handler_emits_during_delivery(self):
        # Delivery is synchronous: a handler that emits would reorder
        # events for every subscriber after it.  Run one engine-golden
        # config on two sanitized devices with every observer attached.
        class ReentryGuardBus(EventBus):
            __slots__ = ("delivering", "delivered")

            def __init__(self):
                super().__init__()
                self.delivering = False
                self.delivered = 0

            def emit(self, event):
                if self.delivering:
                    raise AssertionError(
                        f"a handler emitted {type(event).__name__}"
                    )
                self.delivering = True
                try:
                    super().emit(event)
                finally:
                    self.delivering = False
                self.delivered += 1

        graph = generators.rmat(scale=10, edge_factor=6, seed=7)
        config = EngineConfig(
            partition_bytes=2048,
            batch_walks=32,
            graph_pool_partitions=4,
            walk_pool_walks=256,
            selective=True,
            preemptive=True,
            seed=123,
            devices=2,
            sanitize=True,
        )
        bus = ReentryGuardBus()
        stats = LightTrafficEngine(
            graph, PageRank(length=8), config, bus=bus
        ).run(300)
        assert stats.total_steps > 0
        assert stats.sanitizer["violation_count"] == 0
        assert bus.delivered > 1000
