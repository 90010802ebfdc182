"""Unit and property tests for the device memory block pools."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.memory import BlockPool, PoolFullError


class TestBlockPool:
    def test_insert_and_lookup(self):
        pool = BlockPool(2)
        pool.insert("a", 1)
        assert pool.lookup("a") == 1
        assert pool.lookup("b") is None
        assert pool.hits == 1 and pool.misses == 1

    def test_peek_does_not_count(self):
        pool = BlockPool(2)
        pool.insert("a", 1)
        assert pool.peek("a") == 1
        assert pool.peek("b") is None
        assert pool.hits == 0 and pool.misses == 0

    def test_full_raises(self):
        pool = BlockPool(1)
        pool.insert("a", 1)
        with pytest.raises(PoolFullError):
            pool.insert("b", 2)

    def test_duplicate_key_rejected(self):
        pool = BlockPool(2)
        pool.insert("a", 1)
        with pytest.raises(KeyError):
            pool.insert("a", 2)

    def test_evict(self):
        pool = BlockPool(1)
        pool.insert("a", 1)
        assert pool.evict("a") == 1
        assert "a" not in pool
        pool.insert("b", 2)  # space freed

    def test_evict_missing(self):
        with pytest.raises(KeyError):
            BlockPool(1).evict("a")

    def test_fifo_victim_order(self):
        pool = BlockPool(3)
        for key in ("x", "y", "z"):
            pool.insert(key, key)
        assert pool.fifo_victim() == "x"
        pool.evict("x")
        assert pool.fifo_victim() == "y"

    def test_fifo_victim_empty(self):
        with pytest.raises(KeyError):
            BlockPool(1).fifo_victim()

    def test_hit_rate(self):
        pool = BlockPool(2)
        pool.insert("a", 1)
        pool.lookup("a")
        pool.lookup("a")
        pool.lookup("b")
        assert pool.hit_rate == pytest.approx(2 / 3)
        pool.reset_counters()
        assert pool.hit_rate == 0.0

    def test_capacity_zero(self):
        pool = BlockPool(0)
        with pytest.raises(PoolFullError):
            pool.insert("a", 1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BlockPool(-1)

    def test_keys_and_len(self):
        pool = BlockPool(3)
        pool.insert(1, "a")
        pool.insert(2, "b")
        assert pool.keys() == [1, 2]
        assert len(pool) == 2
        assert pool.free_blocks == 1
        assert not pool.is_full


@given(
    capacity=st.integers(1, 8),
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "evict", "lookup"]),
                  st.integers(0, 12)),
        max_size=80,
    ),
)
@settings(max_examples=80, deadline=None)
def test_pool_never_exceeds_capacity(capacity, ops):
    """Property: occupancy stays within [0, capacity] under any op sequence."""
    pool = BlockPool(capacity)
    shadow = {}
    for op, key in ops:
        if op == "insert":
            if key in shadow:
                with pytest.raises(KeyError):
                    pool.insert(key, key)
            elif len(shadow) >= capacity:
                with pytest.raises(PoolFullError):
                    pool.insert(key, key)
            else:
                pool.insert(key, key)
                shadow[key] = key
        elif op == "evict":
            if key in shadow:
                assert pool.evict(key) == key
                del shadow[key]
            else:
                with pytest.raises(KeyError):
                    pool.evict(key)
        else:
            assert pool.lookup(key) == shadow.get(key)
        assert len(pool) == len(shadow) <= capacity
        assert set(pool.keys()) == set(shadow)


@given(
    capacity=st.integers(1, 8),
    track_recency=st.booleans(),
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "evict", "lookup"]),
                  st.integers(0, 12)),
        max_size=80,
    ),
)
@settings(max_examples=80, deadline=None)
def test_keyed_pool_arrays_mirror_the_keys(capacity, track_recency, ops):
    """Property: ``resident`` is the cached-key set and ``key_order()`` is
    ``keys()`` (insertion, or recency on hit) as a read-only array."""
    pool = BlockPool(capacity, track_recency=track_recency, num_keys=13)
    for op, key in ops:
        if op == "insert" and key not in pool and not pool.is_full:
            pool.insert(key, key)
        elif op == "evict" and key in pool:
            pool.evict(key)
        elif op == "lookup":
            pool.lookup(key)
        keys = pool.keys()
        assert pool.resident.nonzero()[0].tolist() == sorted(keys)
        order = pool.key_order()
        assert order.tolist() == keys and not order.flags.writeable


def test_keyed_pool_rejects_keys_out_of_range():
    pool = BlockPool(2, num_keys=3)
    for key in (-1, 3):
        with pytest.raises(KeyError, match="key range"):
            pool.insert(key, key)
    assert len(pool) == 0 and not pool.resident.any()


@pytest.mark.parametrize("track_recency", [False, True])
def test_keyed_pool_order_follows_recency_only_when_tracked(track_recency):
    pool = BlockPool(3, track_recency=track_recency, num_keys=4)
    for key in (2, 0, 3):
        pool.insert(key, key)
    before = pool.key_order()
    pool.lookup(2)
    order = [2, 0, 3] if not track_recency else [0, 3, 2]
    assert pool.keys() == order
    assert pool.key_order().tolist() == order
    # The cached array is reused until the order changes.
    assert (pool.key_order() is before) == (not track_recency)
