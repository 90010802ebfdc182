"""Unit tests for a partition's batch queue in the host walk pool.

Each host batch is a plain :class:`WalkArrays` of 1..B walks; the tail
batch is the write frontier, evicted batches re-enter at the head.
"""

import numpy as np
import pytest

from repro.walks.pool import HostWalkPool
from repro.walks.state import WalkArrays


def walks(*vertices, first_id=0):
    return WalkArrays.fresh(np.asarray(vertices, dtype=np.int64), first_id)


def held(pool, partition=0):
    """The partition's batches head to tail, as vertex lists."""
    return [b.vertices.tolist() for b in pool._queues.get(partition, ())]


class TestAppend:
    def test_frontier_rollover(self):
        q = HostWalkPool(1, batch_capacity=2)
        q.append_walks(0, walks(1, 2, 3))
        assert q.num_batches(0) == 2
        assert q.counts[0] == 3
        assert held(q) == [[1, 2], [3]]  # tail batch holds the overflow

    def test_append_fills_existing_frontier(self):
        q = HostWalkPool(1, batch_capacity=4)
        q.append_walks(0, walks(1))
        q.append_walks(0, walks(2, 3))
        assert q.num_batches(0) == 1
        assert held(q) == [[1, 2, 3]]

    def test_empty_queue_state(self):
        q = HostWalkPool(1, batch_capacity=2)
        assert not q.has_walks(0)
        assert q.num_batches(0) == 0
        assert list(q.iter_walks()) == []
        assert q.counts[0] == 0


class TestPop:
    def test_fifo_order(self):
        q = HostWalkPool(1, batch_capacity=2)
        q.append_walks(0, walks(1, 2, 3, 4))
        first = q.pop_batch(0)
        assert first.vertices.tolist() == [1, 2]
        second = q.pop_batch(0)
        assert second.vertices.tolist() == [3, 4]

    def test_pop_skips_empty(self):
        q = HostWalkPool(1, batch_capacity=2)
        q.append_walks(0, walks(1))
        q.pop_batch(0)
        with pytest.raises(IndexError):
            q.pop_batch(0)

    def test_pop_all(self):
        q = HostWalkPool(1, batch_capacity=2)
        q.append_walks(0, walks(1, 2, 3))
        batches = []
        while q.has_walks(0):
            batches.append(q.pop_batch(0))
        assert sum(len(b) for b in batches) == 3
        assert q.num_batches(0) == 0


class TestPushBatch:
    def test_push_to_head(self):
        q = HostWalkPool(4, batch_capacity=2)
        q.append_walks(3, walks(9))
        q.push_batch(3, walks(1, 2))
        # Head pops the pushed batch first (it was computed earlier).
        assert q.pop_batch(3).vertices.tolist() == [1, 2]


class TestCompact:
    def test_drops_empty_non_frontier(self):
        # No batch is ever left empty, so nothing needs compacting.
        q = HostWalkPool(1, batch_capacity=2)
        q.append_walks(0, walks(1, 2, 3))
        q.pop_batch(0)
        q.append_walks(0, walks(4, 5, 6, 7))
        q.push_batch(0, walks(8))
        q.pop_batch(0)
        assert held(q) == [[3, 4], [5, 6], [7]]
        assert all(len(b) for b in q.iter_walks())

    def test_compact_empty_queue(self):
        q = HostWalkPool(1, batch_capacity=2)
        q.push_batch(0, WalkArrays.empty())
        q.append_walks(0, WalkArrays.empty())
        assert q.num_batches(0) == 0


class TestValidation:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            HostWalkPool(1, batch_capacity=0)
