"""Unit and property tests for the host and device walk pools.

The central invariant is *walk conservation*: no walk is ever lost or
duplicated by loading, eviction, frontier rollover, or scatter insertion.
The device arena is also checked op by op against a reference model: a
dict of per-partition FIFO lists.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.walks.pool import DeviceWalkPool, HostWalkPool
from repro.walks.state import WalkArrays


def walks(*vertices, first_id=0):
    return WalkArrays.fresh(np.asarray(vertices, dtype=np.int64), first_id)


class TestHostWalkPool:
    def test_append_and_counts(self):
        pool = HostWalkPool(num_partitions=4, batch_capacity=2)
        pool.append_walks(1, walks(10, 11, 12))
        assert pool.counts[1] == 3
        assert pool.total_walks == 3
        assert pool.has_walks(1)
        assert not pool.has_walks(0)
        assert pool.num_batches(1) == 2
        assert pool.num_batches(0) == 0

    def test_pop_decrements(self):
        pool = HostWalkPool(4, 2)
        pool.append_walks(0, walks(1, 2, 3))
        batch = pool.pop_batch(0)
        assert len(batch) == 2
        assert pool.counts[0] == 1

    def test_push_batch(self):
        pool = HostWalkPool(4, 2)
        pool.push_batch(2, walks(5))
        assert pool.counts[2] == 1

    def test_partitions_with_walks(self):
        pool = HostWalkPool(4, 2)
        pool.append_walks(3, walks(1))
        assert np.flatnonzero(pool.counts).tolist() == [3]

    def test_partition_out_of_range(self):
        pool = HostWalkPool(2, 2)
        with pytest.raises(IndexError):
            pool.append_walks(5, walks(1))

    def test_iter_walks_conservation(self):
        pool = HostWalkPool(4, 2)
        pool.append_walks(0, walks(1, 2, first_id=0))
        pool.append_walks(1, walks(3, first_id=2))
        ids = set()
        for chunk in pool.iter_walks():
            ids |= chunk.id_set()
        assert ids == {0, 1, 2}

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HostWalkPool(0, 2)

    @pytest.mark.parametrize("capacity", [0, -3])
    def test_batch_capacity_validated_at_construction(self, capacity):
        with pytest.raises(ValueError, match="batch_capacity"):
            HostWalkPool(4, capacity)


class TestDeviceWalkPool:
    def make(self, partitions=4, capacity=4, walks_cap=100):
        return DeviceWalkPool(partitions, capacity, walks_cap)

    def test_append_and_accounting(self):
        pool = self.make(capacity=4)
        pool.append_walks(0, walks(1, 2, 3, 4, 5))
        assert pool.counts[0] == 5
        assert pool.full_batches(0) == 1
        assert pool.counts[0] % pool.batch_capacity == 1
        assert pool.cached_walks == 5

    def test_pop_all_drains(self):
        pool = self.make()
        pool.append_walks(2, walks(1, 2, 3, first_id=5))
        out = pool.pop_all(2)
        assert out.id_set() == {5, 6, 7}
        assert pool.counts[2] == 0
        assert len(pool.pop_all(2)) == 0

    def test_fifo_order(self):
        pool = self.make(capacity=2)
        pool.append_walks(0, walks(1, 2))
        pool.append_walks(0, walks(3, 4))
        first = pool.pop_preemptible(0)
        assert first.vertices.tolist() == [1, 2, 3, 4]

    def test_pop_full_batches_leaves_frontier(self):
        pool = self.make(capacity=2)
        pool.append_walks(0, walks(1, 2, 3))
        out = pool.pop_preemptible(0)
        assert len(out) == 2
        assert pool.counts[0] == 1
        assert pool.full_batches(0) == 0

    def test_pop_preemptible_prefers_full(self):
        pool = self.make(capacity=2)
        pool.append_walks(0, walks(1, 2, 3))
        out = pool.pop_preemptible(0)
        assert len(out) == 2  # full batch only, frontier stays
        assert pool.counts[0] == 1

    def test_pop_preemptible_falls_back_to_frontier(self):
        pool = self.make(capacity=4)
        pool.append_walks(0, walks(1))
        out = pool.pop_preemptible(0)
        assert len(out) == 1
        assert pool.counts[0] == 0

    def test_evict_batch(self):
        pool = self.make(capacity=2, walks_cap=4)
        pool.append_walks(1, walks(1, 2, 3, first_id=0))
        batch = pool.evict_batch(1)
        assert batch.ids.tolist() == [0, 1]
        assert len(batch) == 2
        assert pool.counts[1] == 1

    def test_evict_empty_raises(self):
        with pytest.raises(IndexError):
            self.make().evict_batch(0)

    def test_overflow_accounting(self):
        pool = self.make(capacity=2, walks_cap=4)
        pool.append_walks(0, walks(1, 2, 3, 4, 5, 6))
        assert pool.overflow == 2
        assert pool.cached_walks > pool.capacity_walks
        pool.evict_batch(0)
        assert pool.overflow == 0

    def test_load_batch(self):
        pool = self.make(capacity=4)
        pool.load_batch(3, walks(9, 8))
        assert pool.counts[3] == 2

    def test_load_empty_batch_noop(self):
        pool = self.make()
        pool.load_batch(0, WalkArrays.empty())
        assert pool.cached_walks == 0

    def test_reserved_bytes_bound(self):
        pool = self.make(partitions=10, capacity=8)
        # (2P + 1) * B * S_w — the paper's §III-B reservation bound.
        assert pool.reserved_bytes(8) == (2 * 10 + 1) * 8 * 8

    def test_buffer_growth_and_compaction(self):
        pool = self.make(capacity=2, walks_cap=10_000)
        # Interleave inserts and pops to force head movement + compaction.
        next_id = 0
        popped = 0
        for round_idx in range(50):
            pool.append_walks(0, walks(*range(3), first_id=next_id))
            next_id += 3
            if round_idx % 2:
                popped += len(pool.pop_preemptible(0))
        assert pool.counts[0] == next_id - popped
        pool.append_walks(0, walks(7, first_id=next_id))
        assert pool.counts[0] == next_id - popped + 1

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DeviceWalkPool(0, 2, 10)
        with pytest.raises(ValueError):
            DeviceWalkPool(2, 0, 10)
        with pytest.raises(ValueError):
            DeviceWalkPool(2, 8, 4)

    def test_partition_range_checked(self):
        with pytest.raises(IndexError):
            self.make(partitions=2).append_walks(5, walks(1))


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["append", "pop_all", "preempt", "evict"]),
            st.integers(0, 3),
            st.integers(1, 7),
        ),
        max_size=60,
    )
)
@settings(max_examples=80, deadline=None)
def test_device_pool_conserves_walks(ops):
    """Property: ids in = ids out + ids still cached, under any op mix."""
    pool = DeviceWalkPool(num_partitions=4, batch_capacity=3, capacity_walks=10_000)
    next_id = 0
    inserted = set()
    removed = set()
    for op, part, count in ops:
        if op == "append":
            w = WalkArrays.fresh(
                np.full(count, part, dtype=np.int64), first_id=next_id
            )
            inserted |= set(range(next_id, next_id + count))
            next_id += count
            pool.append_walks(part, w)
        elif op == "pop_all":
            removed |= pool.pop_all(part).id_set()
        elif op == "preempt":
            if pool.full_batches(part) or pool.counts[part]:
                removed |= pool.pop_preemptible(part).id_set()
        elif op == "evict":
            if pool.counts[part]:
                removed |= pool.evict_batch(part).id_set()
        # Global accounting always consistent.
        cached = set()
        for chunk in pool.iter_walks():
            cached |= chunk.id_set()
        assert cached | removed == inserted
        assert not (cached & removed)
        assert pool.cached_walks == len(cached)


class TestFrontierAccounting:
    def test_frontier_size_tracks_modulo(self):
        pool = DeviceWalkPool(2, batch_capacity=4, capacity_walks=100)
        pool.append_walks(0, walks(1, 2, 3, 4, 5, 6))
        assert pool.full_batches(0) == 1
        assert pool.counts[0] % pool.batch_capacity == 2
        pool.pop_preemptible(0)
        assert pool.full_batches(0) == 0
        assert pool.counts[0] % pool.batch_capacity == 2


def test_host_memory_follows_walks_not_batch_capacity():
    """A held one-walk evicted batch costs its walk, not B slots.

    With B = 4 096 a capacity-B batch would reserve 4 096 x 20 B = 80 KiB
    of host memory; an exact-size one costs a few hundred bytes of array
    headers.
    """
    import tracemalloc

    capacity = 4096
    device = DeviceWalkPool(1, capacity, 4 * capacity)
    host = HostWalkPool(1, capacity)
    device.append_walks(0, walks(0))  # allocate the device buffer first
    host.push_batch(0, device.evict_batch(0))
    held = 1000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for walk_id in range(1, held + 1):
            device.append_walks(0, walks(walk_id, first_id=walk_id))
            host.push_batch(0, device.evict_batch(0))
        per_batch = (tracemalloc.get_traced_memory()[0] - before) / held
    finally:
        tracemalloc.stop()
    assert host.num_batches(0) == held + 1
    assert per_batch < 4096


# ----------------------------------------------------------------------
# The device arena against a reference model: per-partition FIFO lists.
# ----------------------------------------------------------------------
def walk_state(ids):
    """Vertices and steps derived from the ids, so contents are checkable."""
    ids = np.asarray(ids, dtype=np.int64)
    return WalkArrays(ids * 7 % 1009, ids % 53, ids)


class ArenaModel:
    """Drives a :class:`DeviceWalkPool` and a dict of FIFO lists in step.

    ``held`` keeps every popped view with a snapshot: a view must stay
    byte-identical until the next insert into its own partition.
    """

    def __init__(self, partitions, batch):
        self.pool = DeviceWalkPool(partitions, batch, capacity_walks=1 << 30)
        self.fifo = {p: [] for p in range(partitions)}
        self.next_id = 0
        self.held = []

    def fresh(self, n):
        walks = walk_state(np.arange(self.next_id, self.next_id + n))
        self.next_id += n
        return walks

    def inserted(self, parts):
        self.held = [(p, v, s) for p, v, s in self.held if p not in parts]
        for __, view, snapshot in self.held:
            for array, copy in zip((view.vertices, view.steps, view.ids), snapshot):
                assert np.array_equal(array, copy), "a popped view was overwritten"

    def scatter(self, targets):
        """One reshuffle-style call: walk i goes to partition targets[i]."""
        walks = self.fresh(len(targets))
        targets = np.asarray(targets, dtype=np.int64)
        order = np.argsort(targets, kind="stable")
        touched = self.pool.scatter_sorted(walks, order, targets[order])
        parts = np.unique(targets)
        assert touched == parts.size
        first = self.next_id - len(targets)
        for offset, part in enumerate(targets.tolist()):
            self.fifo[part].append(first + offset)
        self.inserted(set(parts.tolist()))

    def append(self, part, n, load):
        walks = self.fresh(n)
        (self.pool.load_batch if load else self.pool.append_walks)(part, walks)
        self.fifo[part].extend(walks.ids.tolist())
        self.inserted({part})

    def take(self, part, op):
        fifo = self.fifo[part]
        if op == "pop_all":
            out, expected = self.pool.pop_all(part), len(fifo)
        elif op == "preempt":
            full = len(fifo) // self.pool.batch_capacity
            out = self.pool.pop_preemptible(part)
            expected = full * self.pool.batch_capacity if full else len(fifo)
        else:
            if not fifo:
                return
            out = self.pool.evict_batch(part)
            expected = min(len(fifo), self.pool.batch_capacity)
        assert out.ids.tolist() == fifo[:expected]
        assert np.array_equal(out.vertices, walk_state(out.ids).vertices)
        assert np.array_equal(out.steps, walk_state(out.ids).steps)
        del fifo[:expected]
        if op != "evict" and len(out):
            copies = (out.vertices.copy(), out.steps.copy(), out.ids.copy())
            self.held.append((part, out, copies))

    def check(self):
        pool = self.pool
        assert pool.counts.tolist() == [len(f) for f in self.fifo.values()]
        assert np.array_equal(pool.counts, pool.tail - pool.head)
        for part, fifo in self.fifo.items():
            live = pool._view(pool.head[part], pool.tail[part])
            assert live.ids.tolist() == fifo
            assert np.array_equal(live.vertices, walk_state(fifo).vertices)
            assert np.array_equal(live.steps, walk_state(fifo).steps)


def arena_ops(partitions):
    hot = st.integers(0, partitions - 1)
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("scatter"),
                st.lists(hot, min_size=1, max_size=4),
                st.integers(1, 400),
                st.integers(0, 2**31),
            ),
            st.tuples(
                st.sampled_from(["append", "load"]), hot, st.integers(1, 300)
            ),
            st.tuples(st.sampled_from(["pop_all", "preempt", "evict"]), hot),
        ),
        max_size=30,
    )


@st.composite
def arena_cases(draw):
    partitions = draw(st.integers(1, 300))
    return partitions, draw(st.integers(1, 64)), draw(arena_ops(partitions))


def run_arena(partitions, batch, ops):
    model = ArenaModel(partitions, batch)
    for op in ops:
        if op[0] == "scatter":
            __, hot, n, seed = op
            pick = np.random.default_rng(seed).integers(0, len(hot), size=n)
            model.scatter(np.asarray(hot)[pick])
        elif op[0] in ("append", "load"):
            model.append(op[1], op[2], load=op[0] == "load")
        else:
            model.take(op[1], op[0])
        model.check()
    return model


@given(case=arena_cases())
@settings(max_examples=150, deadline=None)
def test_device_arena_matches_fifo_model(case):
    """Counts, exact FIFO contents and returned ids after every op; popped
    views survive inserts into other partitions (make-room, moves and
    rebuilds included: up to 400 walks an op into 1-4 hot partitions)."""
    run_arena(*case)


def test_make_room_takes_every_path():
    """Each make-room outcome on a 16-partition arena (segments start at
    the 128-walk floor, plus a quarter of slack), checked against the model
    after every op."""
    model = ArenaModel(16, batch=10)
    pool = model.pool

    def do(action, *args):
        action(*args)
        model.check()

    # The last segment grows where it is: no copy, the arena end moves.
    do(model.append, 15, 130, False)
    assert (pool.base[15], pool.cap[15]) == (15 * 128, 260)
    # A short segment whose dead head is smaller than its live walks moves
    # to the arena end at twice what it needs.
    do(model.append, 0, 120, False)
    do(model.take, 0, "evict")
    do(model.append, 0, 15, False)
    assert (pool.base[0], pool.cap[0]) == (15 * 128 + 260, 250)
    # One whose dead head is as large as its live walks compacts in place.
    do(model.append, 1, 120, False)
    for __ in range(6):
        do(model.take, 1, "evict")
    do(model.append, 1, 20, False)
    assert (pool.base[1], pool.head[1], pool.counts[1]) == (128, 128, 80)
    # Past the slack, one rebuild reserves every group of the call ...
    arena = pool.ids
    do(model.scatter, [2] * 300 + [3] * 300)
    assert pool.ids is not arena
    assert (pool.cap[2:4] >= 300).all()
    # ... so the neighbours of both segments stay intact.
    do(model.scatter, [3, 4] * 100)
