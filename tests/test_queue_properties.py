"""Model-based property tests: the host pool's batch queues against a
reference model written from their semantics.

The batch boundaries are observable — each host batch is one load
transfer and one ``BatchLoaded`` event — so the model pins them exactly:
``append_walks`` fills the tail batch up to B (an evicted partial batch
too) and rolls over to new batches, ``push_batch`` puts an evicted batch
at the head, ``pop_batch`` takes the head, and no batch is ever empty.
"""

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.walks.pool import HostWalkPool
from repro.walks.state import WalkArrays


def fresh(count, first_id):
    return WalkArrays.fresh(np.zeros(count, dtype=np.int64), first_id=first_id)


def held_ids(pool, partition):
    """The partition's batches head to tail, as id lists."""
    return [b.ids.tolist() for b in pool._queues.get(partition, ())]


class BatchModel:
    """One partition's batches as a deque of id lists."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.batches = deque()

    def append(self, ids):
        if self.batches and len(self.batches[-1]) < self.capacity:
            room = self.capacity - len(self.batches[-1])
            self.batches[-1].extend(ids[:room])
            ids = ids[room:]
        for lo in range(0, len(ids), self.capacity):
            self.batches.append(ids[lo : lo + self.capacity])

    def push(self, ids):
        self.batches.appendleft(ids)

    def pop(self):
        return self.batches.popleft()


PARTITIONS = 2


@given(
    capacity=st.integers(1, 6),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["append", "push", "pop"]),
            st.integers(0, PARTITIONS - 1),
            st.integers(1, 13),
        ),
        max_size=60,
    ),
)
@settings(max_examples=150, deadline=None)
def test_host_pool_matches_batch_model(capacity, ops):
    """Property: exact batch sizes, id order and counts after every op."""
    pool = HostWalkPool(PARTITIONS, batch_capacity=capacity)
    models = [BatchModel(capacity) for __ in range(PARTITIONS)]
    next_id = 0
    for op, part, count in ops:
        model = models[part]
        if op == "append":
            pool.append_walks(part, fresh(count, next_id))
            model.append(list(range(next_id, next_id + count)))
            next_id += count
        elif op == "push":
            # An evicted batch holds 1..B walks.
            count = min(count, capacity)
            pool.push_batch(part, fresh(count, next_id))
            model.push(list(range(next_id, next_id + count)))
            next_id += count
        elif model.batches:
            assert pool.pop_batch(part).ids.tolist() == model.pop()
        for p in range(PARTITIONS):
            assert held_ids(pool, p) == list(models[p].batches)
            assert pool.num_batches(p) == len(models[p].batches)
            assert pool.counts[p] == sum(map(len, models[p].batches))


@given(
    capacity=st.integers(1, 6),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers(1, 9)),
            st.tuples(st.just("pop"), st.just(0)),
        ),
        max_size=60,
    ),
)
@settings(max_examples=80, deadline=None)
def test_queue_matches_fifo_model(capacity, ops):
    """Property: batch queue pops walks in exact FIFO order, none lost."""
    pool = HostWalkPool(1, batch_capacity=capacity)
    model = deque()  # expected walk ids, FIFO
    next_id = 0
    for op, count in ops:
        if op == "append":
            model.extend(range(next_id, next_id + count))
            pool.append_walks(0, fresh(count, next_id))
            next_id += count
        else:
            if not model:
                continue
            ids = pool.pop_batch(0).ids.tolist()
            expected = [model.popleft() for __ in range(len(ids))]
            assert ids == expected
        assert pool.counts[0] == len(model)
    # Drain the remainder and verify total conservation.
    drained = []
    while pool.has_walks(0):
        drained.extend(pool.pop_batch(0).ids.tolist())
    assert drained == list(model)


@given(
    chunks=st.lists(st.integers(1, 7), min_size=1, max_size=20),
    capacity=st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_rollover_batch_count(chunks, capacity):
    """Property: batches used = ceil(total / capacity) under append-only."""
    pool = HostWalkPool(1, batch_capacity=capacity)
    total = 0
    for count in chunks:
        pool.append_walks(0, fresh(count, total))
        total += count
    expected_batches = -(-total // capacity)  # ceil division
    assert pool.num_batches(0) == expected_batches
    assert pool.counts[0] == total
    # Frontier is the only batch allowed to be partially full.
    for batch in list(pool.iter_walks())[:-1]:
        assert len(batch) == capacity
