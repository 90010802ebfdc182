"""Isolation tests for the engine's pipeline stages (repro.core.stages)."""

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.core.config import COPY_EXPLICIT, COPY_ZERO
from repro.core.engine import LightTrafficEngine
from repro.core.events import (
    SERVED_EXPLICIT,
    SERVED_HIT,
    SERVED_ZERO_COPY,
    BatchEvicted,
    BatchLoaded,
    EventBus,
    GraphServed,
    KernelDispatched,
    Reshuffled,
    WalkFinished,
)
from repro.core.stages import (
    ComputeDispatcher,
    GraphServer,
    PreemptiveDispatcher,
    WalkLoader,
)
from repro.core.stats import CAT_GRAPH_LOAD, CAT_WALK_LOAD
from repro.walks.state import WalkArrays


_open_backends = []


@pytest.fixture(autouse=True)
def _close_backends():
    """Close every backend :func:`build_ctx` opened during the test."""
    yield
    while _open_backends:
        _open_backends.pop().close()


def build_ctx(graph, config, num_walks=96, length=4, algorithm=None):
    """A seeded StageContext plus an event recorder, no engine loop."""
    if algorithm is None:
        algorithm = PageRank(length=length)
    engine = LightTrafficEngine(graph, algorithm, config)
    bus = EventBus()
    cluster = engine._build_cluster()
    rng = engine._make_rng()
    backend = engine._make_backend()
    _open_backends.append(backend)
    shard = engine._build_shard(0, cluster, rng, num_walks, bus, backend)
    engine._seed_shards([shard], cluster, num_walks)
    ctx = shard.ctx
    events = []
    for event_type in (
        GraphServed, BatchLoaded, KernelDispatched,
        Reshuffled, BatchEvicted, WalkFinished,
    ):
        bus.subscribe(event_type, events.append)
    return ctx, events


def first_populated(ctx):
    """A partition index that got seeded walks."""
    return int(np.flatnonzero(ctx.host.counts)[0])


class TestGraphServer:
    def test_explicit_cold_load(self, small_graph, tiny_config):
        config = tiny_config.with_options(copy_mode=COPY_EXPLICIT)
        ctx, events = build_ctx(small_graph, config)
        part = first_populated(ctx)
        served = GraphServer(ctx).serve(part)
        assert served.mode == SERVED_EXPLICIT
        assert not served.zero_copy
        assert served.ready_time > 0
        assert ctx.graph_pool.lookup(part) is not None
        assert ctx.graph_ready[part] == served.ready_time
        assert ctx.timeline.breakdown.as_dict()[CAT_GRAPH_LOAD] > 0
        (event,) = events
        assert isinstance(event, GraphServed)
        assert event.mode == SERVED_EXPLICIT
        assert event.copy_seconds > 0

    def test_hit_on_second_serve(self, small_graph, tiny_config):
        config = tiny_config.with_options(copy_mode=COPY_EXPLICIT)
        ctx, events = build_ctx(small_graph, config)
        part = first_populated(ctx)
        server = GraphServer(ctx)
        explicit = server.serve(part)
        hit = server.serve(part)
        assert hit.mode == SERVED_HIT
        assert hit.ready_time == explicit.ready_time
        assert events[1].copy_seconds == 0.0
        assert ctx.graph_pool.hits == 1

    def test_zero_copy_mode(self, small_graph, tiny_config):
        config = tiny_config.with_options(copy_mode=COPY_ZERO)
        ctx, events = build_ctx(small_graph, config)
        part = first_populated(ctx)
        served = GraphServer(ctx).serve(part)
        assert served.mode == SERVED_ZERO_COPY
        assert served.zero_copy
        assert served.ready_time == 0.0
        assert ctx.graph_pool.lookup(part) is None  # nothing cached
        assert events[0].copy_seconds == 0.0

    def test_full_pool_evicts_victim(self, small_graph, tiny_config):
        config = tiny_config.with_options(
            graph_pool_partitions=2, copy_mode=COPY_EXPLICIT
        )
        ctx, __ = build_ctx(small_graph, config)
        server = GraphServer(ctx)
        parts = [int(p) for p in np.flatnonzero(ctx.host.counts)[:3]]
        assert len(parts) == 3
        for part in parts:
            server.serve(part)
        assert ctx.graph_pool.is_full
        cached = set(ctx.graph_pool.keys())
        assert len(cached) == 2
        assert parts[2] in cached  # newest always resident
        evicted = set(parts) - cached
        assert len(evicted) == 1
        assert not (evicted & set(ctx.graph_ready))


class TestWalkLoader:
    def test_streams_all_host_batches(self, small_graph, tiny_config):
        ctx, events = build_ctx(small_graph, tiny_config)
        part = first_populated(ctx)
        expected_walks = int(ctx.host.counts[part])
        expected_batches = ctx.host.num_batches(part)
        contents, ready_time = WalkLoader(ctx).stream(part)
        assert len(contents) == expected_walks
        assert not ctx.host.has_walks(part)
        assert ready_time > 0
        loads = [e for e in events if isinstance(e, BatchLoaded)]
        assert len(loads) == expected_batches
        assert sum(e.walks for e in loads) == expected_walks
        assert all(e.partition == part and e.seconds > 0 for e in loads)
        assert ctx.timeline.breakdown.as_dict()[CAT_WALK_LOAD] > 0

    def test_empty_partition_loads_nothing(self, small_graph, tiny_config):
        ctx, events = build_ctx(small_graph, tiny_config)
        empty = int(np.nonzero(ctx.host.counts == 0)[0][0])
        contents, ready_time = WalkLoader(ctx).stream(empty)
        assert contents is None
        assert ready_time == 0.0
        assert events == []


class TestComputeDispatcher:
    def test_dispatch_emits_kernel_and_advances(self, small_graph, tiny_config):
        ctx, events = build_ctx(small_graph, tiny_config)
        part = first_populated(ctx)
        contents, __ = WalkLoader(ctx).stream(part)
        before = len(contents)
        ComputeDispatcher(ctx).dispatch(
            part, contents, earliest=0.0, zero_copy=False
        )
        kernels = [e for e in events if isinstance(e, KernelDispatched)]
        (kernel,) = kernels
        assert kernel.partition == part
        assert kernel.walks == before
        assert kernel.steps > 0
        assert not kernel.preemptive and not kernel.zero_copy
        # every walk either finished or was reshuffled onward
        finished = sum(
            e.count for e in events if isinstance(e, WalkFinished)
        )
        reshuffled = sum(
            e.walks for e in events if isinstance(e, Reshuffled)
        )
        assert finished + reshuffled == before
        assert ctx.finished == finished
        assert ctx.device.cached_walks == reshuffled

    def test_empty_contents_noop(self, small_graph, tiny_config):
        ctx, events = build_ctx(small_graph, tiny_config)
        ComputeDispatcher(ctx).dispatch(
            0, WalkArrays.empty(), earliest=0.0, zero_copy=False
        )
        assert events == []
        assert ctx.timeline.total_time() == 0.0

    def test_zero_copy_dispatch_occupies_link(self, small_graph, tiny_config):
        from repro.core.stats import CAT_ZERO_COPY

        config = tiny_config.with_options(copy_mode=COPY_ZERO)
        ctx, events = build_ctx(small_graph, config)
        part = first_populated(ctx)
        contents, __ = WalkLoader(ctx).stream(part)
        ComputeDispatcher(ctx).dispatch(
            part, contents, earliest=0.0, zero_copy=True
        )
        (kernel,) = [e for e in events if isinstance(e, KernelDispatched)]
        assert kernel.zero_copy
        assert ctx.timeline.breakdown.as_dict()[CAT_ZERO_COPY] > 0

    def test_capacity_enforcement_evicts(self, small_graph, tiny_config):
        config = tiny_config.with_options(walk_pool_walks=32)
        ctx, events = build_ctx(small_graph, config, num_walks=1500, length=8)
        dispatcher = ComputeDispatcher(ctx)
        loader = WalkLoader(ctx)
        evicted = []
        for part in [int(p) for p in np.flatnonzero(ctx.host.counts)]:
            contents, __ = loader.stream(part)
            dispatcher.dispatch(part, contents, earliest=0.0, zero_copy=False)
            assert ctx.device.overflow == 0
            evicted.extend(
                e for e in events if isinstance(e, BatchEvicted)
            )
            if evicted:
                break
        assert evicted, "expected the 32-walk pool to overflow"
        for event in evicted:
            assert event.walks > 0
            assert event.seconds > 0
            # evicted batches land back in the host pool
            assert ctx.host.counts[event.partition] > 0


def pool_snapshot(ctx):
    """Every live walk of both pools, per partition in order, plus the
    arena's segment bookkeeping and the run counters."""
    device = ctx.device
    live = [
        device._view(lo, hi)
        for lo, hi in zip(device.head.tolist(), device.tail.tolist())
    ]
    return (
        [(w.vertices.tolist(), w.steps.tolist(), w.ids.tolist()) for w in live],
        [b.ids.tolist() for b in ctx.host.iter_walks()],
        device.counts.tolist(), device.head.tolist(), device.tail.tolist(),
        ctx.host.counts.tolist(), ctx.finished,
    )


def crowd(device, skip, first_id):
    """Fill every segment but ``skip``'s to its capacity, so the next
    insert anywhere else takes the make-room path."""
    for part in range(device.num_partitions):
        room = int(device.base[part] + device.cap[part] - device.tail[part])
        if part != skip and room:
            ids = np.arange(first_id, first_id + room)
            device.append_walks(part, WalkArrays(ids % 7, ids % 5, ids))
            first_id += room


@pytest.mark.parametrize("pop", ["pop_all", "pop_preemptible"])
@pytest.mark.parametrize("pool_walks", [None, 2000])
@pytest.mark.parametrize("crowded", [False, True])
def test_all_survivors_leave_the_state_of_a_copied_batch(
    pop, pool_walks, crowded
):
    """Every lane survives its kernel, so the dispatch reshuffles the
    popped arena views themselves.  The pools (frontier left in place by a
    preemptive pop, a make-room rebuild and evictions included) and the
    events end as if the batch had been a copy."""
    from repro.algorithms import UniformSampling
    from repro.core.config import EngineConfig
    from repro.graph import generators

    graph = generators.ring(300)
    config = EngineConfig(
        partition_bytes=512, batch_walks=8, graph_pool_partitions=4,
        walk_pool_walks=pool_walks, seed=5,
    )
    ends = []
    for copied in (False, True):
        ctx, events = build_ctx(
            graph, config, num_walks=600,
            algorithm=UniformSampling(length=10_000),
        )
        part = first_populated(ctx)
        for batch in ctx.host.pop_batches(part):
            ctx.device.load_batch(part, batch)
        held = int(ctx.device.counts[part])
        if crowded:
            crowd(ctx.device, part, first_id=10**6)
        contents = getattr(ctx.device, pop)(part)
        assert 0 < len(contents) <= held
        if copied:
            contents = contents.copy()
        ComputeDispatcher(ctx).dispatch(
            part, contents, earliest=0.0, zero_copy=False
        )
        assert not [e for e in events if isinstance(e, WalkFinished)]
        ends.append((pool_snapshot(ctx), events))
    assert ends[0] == ends[1]
    if pop == "pop_preemptible":
        # The frontier stayed where it was and kept its walks.
        assert 0 < ends[0][0][2][part] < config.batch_walks


class TestPreemptiveDispatcher:
    def make_ready(self, ctx, exclude):
        """Cache partition B's graph + a full batch of its walks on-device."""
        counts = ctx.host.counts.copy()
        counts[exclude] = -1
        ready = int(np.argmax(counts))  # most walks -> fullest device batch
        ctx.graph_pool.insert(ready, ctx.pgraph.partitions[ready])
        contents, __ = WalkLoader(ctx).stream(ready)
        ctx.device.append_walks(ready, contents)
        return ready

    def test_disabled_without_preemptive_flag(self, small_graph, tiny_config):
        ctx, events = build_ctx(small_graph, tiny_config)
        compute = ComputeDispatcher(ctx)
        selected = first_populated(ctx)
        self.make_ready(ctx, selected)
        ctx.timeline.load.schedule(1.0, CAT_GRAPH_LOAD)
        n_before = len(events)
        PreemptiveDispatcher(ctx, compute).fill(exclude=selected)
        assert len(events) == n_before  # no kernels dispatched

    def test_fills_load_window(self, small_graph, tiny_config):
        config = tiny_config.with_options(preemptive=True, selective=True)
        ctx, events = build_ctx(small_graph, config, num_walks=1500)
        compute = ComputeDispatcher(ctx)
        selected = first_populated(ctx)
        ready = self.make_ready(ctx, selected)
        hits_before = ctx.graph_pool.hits
        ctx.timeline.load.schedule(1.0, CAT_GRAPH_LOAD)
        assert ctx.timeline.load.leads(ctx.timeline.compute)
        PreemptiveDispatcher(ctx, compute).fill(exclude=selected)
        kernels = [e for e in events if isinstance(e, KernelDispatched)]
        preempted = [e for e in kernels if e.preemptive]
        assert preempted
        assert all(e.partition != selected for e in preempted)
        assert preempted[0].partition == ready
        assert ctx.graph_pool.hits > hits_before
