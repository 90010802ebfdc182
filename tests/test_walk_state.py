"""Unit tests for walk state arrays and walk batches."""

import numpy as np
import pytest

from repro.walks.pool import DeviceWalkPool, HostWalkPool
from repro.walks.state import WalkArrays, index_bytes_per_walk


class TestWalkArrays:
    def test_fresh(self):
        w = WalkArrays.fresh(np.array([3, 1, 4]), first_id=10)
        assert w.vertices.tolist() == [3, 1, 4]
        assert w.steps.tolist() == [0, 0, 0]
        assert w.ids.tolist() == [10, 11, 12]

    def test_empty(self):
        assert len(WalkArrays.empty()) == 0

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            WalkArrays(np.array([1, 2]), np.array([0]), np.array([0]))

    def test_concat(self):
        a = WalkArrays.fresh(np.array([1]), first_id=0)
        b = WalkArrays.fresh(np.array([2, 3]), first_id=1)
        c = WalkArrays.concat([a, WalkArrays.empty(), b])
        assert c.vertices.tolist() == [1, 2, 3]
        assert c.ids.tolist() == [0, 1, 2]

    def test_concat_empty(self):
        assert len(WalkArrays.concat([])) == 0

    def test_select_by_mask(self):
        w = WalkArrays.fresh(np.array([5, 6, 7]))
        sel = w.select(np.array([True, False, True]))
        assert sel.vertices.tolist() == [5, 7]
        # Copies: mutating the selection does not touch the original.
        sel.vertices[0] = 99
        assert w.vertices[0] == 5

    def test_slice_copies(self):
        w = WalkArrays.fresh(np.array([5, 6, 7]))
        s = w.slice(1, 3)
        s.vertices[0] = 42
        assert w.vertices[1] == 6

    def test_copy_and_id_set(self):
        w = WalkArrays.fresh(np.array([1, 2]), first_id=7)
        assert w.copy().id_set() == {7, 8}

    def test_index_bytes(self):
        assert index_bytes_per_walk(False) == 8
        assert index_bytes_per_walk(True) == 16


class TestWalkBatch:
    """A walk batch is a plain WalkArrays of 1..B walks."""

    def test_append_until_full(self):
        pool = HostWalkPool(1, batch_capacity=3)
        pool.append_walks(0, WalkArrays.fresh(np.array([1, 2, 3, 4])))
        assert [len(b) for b in pool.iter_walks()] == [3, 1]

    def test_append_with_start(self):
        pool = HostWalkPool(1, batch_capacity=4)
        pool.append_walks(0, WalkArrays.fresh(np.array([9, 9, 9])))
        pool.append_walks(0, WalkArrays.fresh(np.array([1, 2, 3])))
        # The tail takes one walk; the rollover batch starts at the next.
        tail, rollover = pool.iter_walks()
        assert tail.vertices.tolist() == [9, 9, 9, 1]
        assert rollover.vertices[0] == 2

    def test_drain_transfers_ownership(self):
        pool = HostWalkPool(4, batch_capacity=4)
        pool.append_walks(2, WalkArrays.fresh(np.array([7, 8])))
        drained = pool.pop_batch(2)
        assert drained.vertices.tolist() == [7, 8]
        assert not pool.has_walks(2)
        assert pool.num_batches(2) == 0

    def test_contents_copies(self):
        source = WalkArrays.fresh(np.array([7]))
        pool = HostWalkPool(1, batch_capacity=4)
        pool.append_walks(0, source)
        source.vertices[0] = 99
        assert pool.pop_batch(0).vertices[0] == 7
        device = DeviceWalkPool(1, batch_capacity=4, capacity_walks=4)
        device.append_walks(0, WalkArrays.fresh(np.array([7])))
        evicted = device.evict_batch(0)
        assert not np.shares_memory(evicted.vertices, device.vertices)

    def test_nbytes(self):
        device = DeviceWalkPool(1, batch_capacity=8, capacity_walks=8)
        device.append_walks(0, WalkArrays.fresh(np.array([1, 2, 3])))
        batch = device.evict_batch(0)
        # Exact size: 3 walks of int64 vertex + int32 steps + int64 id.
        assert batch.vertices.nbytes + batch.steps.nbytes == 3 * 12
        assert batch.ids.nbytes == 3 * 8

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HostWalkPool(1, batch_capacity=0)
        with pytest.raises(IndexError):
            HostWalkPool(1, batch_capacity=4).push_batch(
                -1, WalkArrays.fresh(np.array([1]))
            )

    def test_len(self):
        device = DeviceWalkPool(1, batch_capacity=4, capacity_walks=4)
        device.append_walks(0, WalkArrays.fresh(np.array([1])))
        assert len(device.evict_batch(0)) == 1
        assert len(WalkArrays.empty()) == 0
