"""Planned eviction and loading against the batch-at-a-time loops.

``ComputeDispatcher.enforce_walk_capacity`` evicts by plan (the
scheduler's drain order, one gather, one stream run) and
``WalkLoader.stream`` loads a partition's batches in one call.  The loops
they replaced live on, verbatim, in ``tests/evict_oracle.py``.  Random
pool states must leave both in exactly the same place — the same events
in the same order, host queues, device arena, stream clocks, breakdown
and observer calls — and whole engine runs must publish the same event
stream.  Seeded mutants of the plan must be told apart.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import UniformSampling
from repro.core.config import EngineConfig
from repro.core.engine import LightTrafficEngine
from repro.core.events import EVENT_TYPES, EventBus
from repro.core.scheduler import Scheduler
from repro.core.stages import ComputeDispatcher, WalkLoader, compute
from repro.core.stages.context import StageContext
from repro.gpu.memory import BlockPool
from repro.gpu.pcie import resolve_interconnect
from repro.gpu.timeline import Timeline
from repro.graph import generators
from repro.walks.pool import DeviceWalkPool, HostWalkPool
from repro.walks.state import WalkArrays

from tests import evict_oracle
from tests.test_engine_parity import GOLDEN, _build_engine, _case_id


def walk_state(first_id, n):
    """Walks whose vertices and steps derive from their ids."""
    ids = np.arange(first_id, first_id + n, dtype=np.int64)
    return WalkArrays(ids * 7 % 1009, ids % 53, ids)


@st.composite
def cases(draw):
    """One pool state at an ``enforce_walk_capacity`` call, as plain data."""
    n = draw(st.integers(1, 7))
    batch = draw(st.integers(1, 4))
    # Few distinct levels, so fewest-walks ties are common; up to 3B + 1
    # walks, so victims span several batches and the last one stops
    # part-way through its walks.
    levels = draw(st.lists(st.integers(0, 3 * batch + 1), min_size=1, max_size=3))
    held = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    on_host = draw(st.lists(st.integers(0, batch + 1), min_size=n, max_size=n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    owned = None if not any(mask) or draw(st.booleans()) else mask
    cached = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    holding = [p for p in range(n) if held[p]]
    empty = [p for p in range(n) if not held[p]]
    protect = draw(
        st.sampled_from(
            [None]
            + ([draw(st.sampled_from(holding))] if holding else [])
            + ([draw(st.sampled_from(empty))] if empty else [])
        )
    )
    total = sum(held)
    capacity = draw(st.integers(batch, max(batch, total)))
    return dict(
        n=n, batch=batch, held=held, on_host=on_host, owned=owned,
        cached=cached, protect=protect, capacity=capacity,
        selective=draw(st.booleans()), pipeline=draw(st.booleans()),
        record_ops=draw(st.booleans()),
        # Busy streams, so a release time of "the makespan so far" matters.
        busy=draw(st.tuples(*[st.sampled_from((0.0, 1e-6, 3e-5))] * 3)),
        load=draw(st.integers(0, n - 1)),
    )


def build(case, observe):
    """A context holding ``case``'s pools; ``observe`` gets stream calls."""
    n, batch = case["n"], case["batch"]
    device = DeviceWalkPool(n, batch, case["capacity"])
    host = HostWalkPool(n, batch)
    next_id = 0
    for p in range(n):
        for pool, count in ((host, case["on_host"][p]), (device, case["held"][p])):
            if count:
                pool.append_walks(p, walk_state(next_id, count))
                next_id += count
    graph_pool = BlockPool(n, name="gp", num_keys=n)
    for key in case["cached"]:
        graph_pool.insert(key, key)
    owned = None if case["owned"] is None else np.array(case["owned"])
    timeline = Timeline(record_ops=case["record_ops"])
    for stream, busy in zip(timeline.streams, case["busy"]):
        stream.schedule(busy, "setup")
    timeline.install_observer(
        lambda stream, *args: observe((stream.name, *args))
    )
    config = EngineConfig(batch_walks=batch, pipeline=case["pipeline"])
    bus = EventBus()
    events = []
    for event_type in EVENT_TYPES:
        bus.subscribe(event_type, events.append)
    ctx = StageContext(
        config=config, graph=None, algorithm=None, pgraph=None, rng=None,
        scheduler=Scheduler(n, case["selective"], True, owned=owned),
        host=host, device=device, graph_pool=graph_pool, timeline=timeline,
        bus=bus, reshuffler=None, kernel_model=None,
        pcie=resolve_interconnect(config.interconnect), ship_link=None,
        bytes_per_walk=16, adaptive=None, backend=None, device_id=1,
    )
    return ctx, events


def typed(value):
    """A value with its type, so ``np.int64(3)`` and ``3`` differ."""
    return (type(value).__name__, value)


def walks_of(walks):
    if walks is None:
        return None
    return [a.tolist() for a in (walks.vertices, walks.steps, walks.ids)]


def snapshot(ctx, events, calls, outcome, loaded):
    device, host = ctx.device, ctx.host
    return {
        "outcome": outcome,
        "events": [
            (type(e).__name__, [typed(v) for v in dataclasses.astuple(e)])
            for e in events
        ],
        "host": [
            [walks_of(b) for b in host._queues.get(p, ())]
            for p in range(host.num_partitions)
        ],
        "host_counts": host.counts.tolist(),
        "device": [
            walks_of(device._view(device.head[p], device.tail[p]))
            for p in range(device.num_partitions)
        ],
        "device_state": [
            a.tolist() for a in (device.counts, device.head, device.tail)
        ],
        "busy": [typed(s.busy_until) for s in ctx.timeline.streams],
        "breakdown": ctx.timeline.breakdown.as_dict(),
        "ops": [s.ops for s in ctx.timeline.streams],
        "stream_calls": calls,
        "loaded": loaded,
    }


def replay(case, enforce, stream):
    """Evict per ``case`` with ``enforce``, then load one partition."""
    calls = []
    ctx, events = build(case, calls.append)
    try:
        enforce(ComputeDispatcher(ctx), case["protect"])
        outcome = "ok"
    except KeyError as error:
        outcome = f"KeyError: {error}"
    contents, ready = stream(WalkLoader(ctx), case["load"])
    loaded = (walks_of(contents), typed(ready))
    return snapshot(ctx, events, calls, outcome, loaded)


def disagreement(case):
    want = replay(
        case, evict_oracle.enforce_walk_capacity, evict_oracle.stream
    )
    got = replay(
        case, ComputeDispatcher.enforce_walk_capacity, WalkLoader.stream
    )
    for key in want:
        if got[key] != want[key]:
            return f"{key}: {got[key]} != {want[key]}"
    return None


@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_plan_matches_the_batch_at_a_time_loop(case):
    assert disagreement(case) is None


def test_cases_reach_every_shape():
    """The property covers what it claims: multi-batch and part-way
    victims, every kind of ``protect``, and a foreign-walk ``KeyError``."""
    seen = set()

    @settings(max_examples=400, deadline=None)
    @given(case=cases())
    def probe(case):
        calls = []
        ctx, events = build(case, calls.append)
        try:
            ComputeDispatcher(ctx).enforce_walk_capacity(case["protect"])
        except KeyError:
            seen.add("KeyError")
        protect = case["protect"]
        if protect is not None:
            seen.add("protect holding" if case["held"][protect] else "protect empty")
        by_part = {}
        for event in events:
            by_part.setdefault(event.partition, []).append(event.walks)
        for part, sizes in by_part.items():
            if len(sizes) > 1:
                seen.add("multi-batch victim")
            if ctx.device.counts[part]:
                seen.add("part-way victim")

    probe()
    assert seen == {
        "KeyError", "protect holding", "protect empty",
        "multi-batch victim", "part-way victim",
    }


# ----------------------------------------------------------------------
# Seeded mutants of the plan: each must be told apart by the same check.
# ----------------------------------------------------------------------
def _order(sched, graph_pool, device, protect, key):
    counts = device.counts
    mask = (counts > 0) & sched.owned
    if protect is not None:
        mask[protect] = False
    order = sorted(np.flatnonzero(mask).tolist(), key=key(graph_pool, counts))
    if protect is not None and counts[protect] > 0:
        order.append(protect)
    if not order:
        raise KeyError("walk pool has nothing to evict")
    return np.array(order)


def ties_to_higher_index(sched, graph_pool, device, protect=None):
    return _order(
        sched, graph_pool, device, protect,
        lambda pool, counts: lambda p: (pool.resident[p], counts[p], -p),
    )


def cached_first(sched, graph_pool, device, protect=None):
    return _order(
        sched, graph_pool, device, protect,
        lambda pool, counts: lambda p: (not pool.resident[p], counts[p], p),
    )


_SHIPPED_ORDER = Scheduler.walk_evict_partition


def protect_first(sched, graph_pool, device, protect=None):
    order = _SHIPPED_ORDER(sched, graph_pool, device, protect)
    if protect is not None and device.counts[protect] > 0:
        order = np.concatenate([[protect], order[:-1]])
    return order


def unrounded_last_victim(held, overflow, batch):
    """Stops at exactly the overflow instead of the batch covering it."""
    take = held.copy()
    left = overflow
    for k in range(take.size):
        take[k] = min(take[k], left)
        left -= take[k]
        if not left:
            return take[: k + 1]
    return take


def mutant_case(held, capacity, batch=2, protect=None, cached=()):
    return dict(
        n=len(held), batch=batch, held=held, on_host=[1] * len(held),
        owned=None, cached=list(cached), protect=protect, capacity=capacity,
        selective=True, pipeline=True, record_ops=False,
        busy=(0.0, 0.0, 0.0), load=0,
    )


MUTANTS = [
    # equal counts: the lowest index goes first
    (Scheduler, "walk_evict_partition", ties_to_higher_index,
     mutant_case([1, 1, 1], capacity=2)),
    # partition 0's graph is cached: uncached 1 goes first despite more walks
    (Scheduler, "walk_evict_partition", cached_first,
     mutant_case([1, 2], capacity=2, cached=[0])),
    # protect only once nothing else holds walks
    (Scheduler, "walk_evict_partition", protect_first,
     mutant_case([2, 1], capacity=2, protect=1)),
    # one walk over: the victim still gives a whole batch of two
    (compute, "drain_counts", unrounded_last_victim,
     mutant_case([3], capacity=2)),
]


@pytest.mark.parametrize(
    "owner, name, mutant, case", MUTANTS, ids=[m[2].__name__ for m in MUTANTS]
)
def test_mutants_are_told_apart(owner, name, mutant, case, monkeypatch):
    assert disagreement(case) is None
    monkeypatch.setattr(owner, name, mutant)
    assert disagreement(case) is not None


# ----------------------------------------------------------------------
# Whole runs: the same event stream, stats and breakdown as the loops.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def parity_graph():
    return generators.rmat(scale=10, edge_factor=6, seed=7, name="small")


def evict_pressure_smoke():
    """The ``evict-pressure`` benchmark's smoke shape, sanitized."""
    graph = generators.rmat(9, 8, seed=7)
    config = EngineConfig(
        partition_bytes=1024, batch_walks=256, graph_pool_partitions=4,
        walk_pool_walks=512, rng_mode="counter", backend="simulated",
        sanitize=True, seed=7,
    )
    engine = LightTrafficEngine(graph, UniformSampling(length=8), config)
    return engine, 2 * graph.num_vertices


def recorded_run(make, monkeypatch, oracle):
    with monkeypatch.context() as patch:
        if oracle:
            patch.setattr(
                ComputeDispatcher, "enforce_walk_capacity",
                evict_oracle.enforce_walk_capacity,
            )
            patch.setattr(WalkLoader, "stream", evict_oracle.stream)
        engine, num_walks = make()
        engine.bus = EventBus()
        events = []
        for event_type in EVENT_TYPES:
            engine.bus.subscribe(event_type, events.append)
        stats = engine.run(num_walks)
    stream = [
        (type(e).__name__, [typed(v) for v in dataclasses.astuple(e)])
        for e in events
    ]
    values = dataclasses.asdict(stats)
    values.pop("measured")  # host wall-clock
    assert stats.sanitizer is None or stats.sanitizer["clean"], stats.sanitizer
    return stream, values


RUNS = [
    pytest.param(record, id=_case_id(record)) for record in GOLDEN
] + [pytest.param(None, id="evict-pressure-smoke-sanitized")]


@pytest.mark.parametrize("record", RUNS)
def test_run_event_stream_matches_the_loops(record, parity_graph, monkeypatch):
    if record is None:
        make = evict_pressure_smoke
    else:
        def make():
            return _build_engine(record, parity_graph)
    want = recorded_run(make, monkeypatch, oracle=True)
    got = recorded_run(make, monkeypatch, oracle=False)
    assert got[0] == want[0]
    assert got[1] == want[1]
    if record is None:
        evicted = [e for e in got[0] if e[0] == "BatchEvicted"]
        assert len(evicted) > 100  # the plan ran, many times over
