"""Unit tests for the scheduling policies (§III-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import Scheduler
from repro.gpu.memory import BlockPool
from repro.walks.pool import DeviceWalkPool, HostWalkPool
from repro.walks.state import WalkArrays


def walks(n, first_id=0):
    return WalkArrays.fresh(np.zeros(n, dtype=np.int64), first_id)


@pytest.fixture()
def pools():
    host = HostWalkPool(num_partitions=6, batch_capacity=4)
    device = DeviceWalkPool(6, batch_capacity=4, capacity_walks=10_000)
    return host, device


class TestSelectPartition:
    def test_selective_picks_most_walks(self, pools):
        host, device = pools
        host.append_walks(1, walks(3))
        host.append_walks(4, walks(9))
        device.append_walks(2, walks(5))
        sched = Scheduler(6, selective=True, preemptive=True)
        assert sched.select_partition(host, device) == 4

    def test_selective_counts_host_plus_device(self, pools):
        host, device = pools
        host.append_walks(1, walks(3))
        device.append_walks(1, walks(3))
        host.append_walks(2, walks(5))
        sched = Scheduler(6, selective=True, preemptive=True)
        assert sched.select_partition(host, device) == 1

    def test_round_robin_cycles_nonempty(self, pools):
        host, device = pools
        for p in (0, 2, 5):
            host.append_walks(p, walks(2))
        sched = Scheduler(6, selective=False, preemptive=False)
        order = [sched.select_partition(host, device) for __ in range(4)]
        assert order == [0, 2, 5, 0]

    def test_none_when_empty(self, pools):
        host, device = pools
        for selective in (True, False):
            sched = Scheduler(6, selective=selective, preemptive=False)
            assert sched.select_partition(host, device) is None

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            Scheduler(0, True, True)


class TestGraphVictim:
    def test_fifo_when_not_selective(self, pools):
        host, device = pools
        pool = BlockPool(3, num_keys=6)
        for key in (4, 1, 2):
            pool.insert(key, key)
        sched = Scheduler(6, selective=False, preemptive=False)
        assert sched.graph_victim(pool, host, device) == 4

    def test_selective_evicts_fewest_walks(self, pools):
        host, device = pools
        pool = BlockPool(3, num_keys=6)
        for key in (0, 1, 2):
            pool.insert(key, key)
        host.append_walks(0, walks(9))
        host.append_walks(1, walks(1))
        host.append_walks(2, walks(5))
        sched = Scheduler(6, selective=True, preemptive=True)
        assert sched.graph_victim(pool, host, device) == 1

    def test_protect_excluded(self, pools):
        host, device = pools
        pool = BlockPool(2, num_keys=6)
        pool.insert(0, 0)
        pool.insert(1, 1)
        sched = Scheduler(6, selective=True, preemptive=True)
        assert sched.graph_victim(pool, host, device, protect=0) == 1

    def test_no_candidates(self, pools):
        host, device = pools
        pool = BlockPool(1, num_keys=6)
        pool.insert(0, 0)
        sched = Scheduler(6, selective=True, preemptive=True)
        with pytest.raises(KeyError):
            sched.graph_victim(pool, host, device, protect=0)


class TestPreemptivePick:
    def test_requires_cached_graph_and_full_batch(self, pools):
        host, device = pools
        pool = BlockPool(4, num_keys=6)
        pool.insert(1, 1)
        sched = Scheduler(6, selective=True, preemptive=True)
        assert sched.pick_preemptive_partition(pool, host, device) is None
        device.append_walks(1, walks(4))  # one full batch
        assert sched.pick_preemptive_partition(pool, host, device) == 1

    def test_uncached_graph_not_ready(self, pools):
        host, device = pools
        pool = BlockPool(4, num_keys=6)
        device.append_walks(2, walks(8))  # graph for 2 not cached
        sched = Scheduler(6, selective=True, preemptive=True)
        assert sched.pick_preemptive_partition(pool, host, device) is None

    def test_full_batches_prefer_fewest_total_walks(self, pools):
        host, device = pools
        pool = BlockPool(4, num_keys=6)
        pool.insert(1, 1)
        pool.insert(2, 2)
        device.append_walks(1, walks(4))
        device.append_walks(2, walks(4))
        host.append_walks(1, walks(10))  # partition 1 has more total
        sched = Scheduler(6, selective=True, preemptive=True)
        assert sched.pick_preemptive_partition(pool, host, device) == 2

    def test_partial_fallback_half_full(self, pools):
        host, device = pools
        pool = BlockPool(4, num_keys=6)
        pool.insert(3, 3)
        device.append_walks(3, walks(1))  # < B/2: not worth preempting
        sched = Scheduler(6, selective=True, preemptive=True)
        assert sched.pick_preemptive_partition(pool, host, device) is None
        device.append_walks(3, walks(1))  # now B/2
        assert sched.pick_preemptive_partition(pool, host, device) == 3

    def test_exclude_selected(self, pools):
        host, device = pools
        pool = BlockPool(4, num_keys=6)
        pool.insert(1, 1)
        device.append_walks(1, walks(4))
        sched = Scheduler(6, selective=True, preemptive=True)
        assert (
            sched.pick_preemptive_partition(pool, host, device, exclude=1)
            is None
        )

    def test_non_selective_takes_first(self, pools):
        host, device = pools
        pool = BlockPool(4, num_keys=6)
        pool.insert(2, 2)
        pool.insert(1, 1)
        device.append_walks(1, walks(4))
        device.append_walks(2, walks(4))
        sched = Scheduler(6, selective=False, preemptive=True)
        assert sched.pick_preemptive_partition(pool, host, device) == 2


class TestWalkEviction:
    def test_prefers_uncached_graph_partitions(self, pools):
        host, device = pools
        pool = BlockPool(4, num_keys=6)
        pool.insert(1, 1)
        device.append_walks(1, walks(2))
        device.append_walks(3, walks(9))  # graph not cached
        sched = Scheduler(6, selective=True, preemptive=True)
        assert sched.walk_evict_partition(pool, device).tolist() == [3, 1]

    def test_fewest_walks_among_uncached(self, pools):
        host, device = pools
        pool = BlockPool(4, num_keys=6)
        device.append_walks(2, walks(9))
        device.append_walks(3, walks(2))
        sched = Scheduler(6, selective=True, preemptive=True)
        assert sched.walk_evict_partition(pool, device).tolist() == [3, 2]

    def test_protect_fallback(self, pools):
        host, device = pools
        pool = BlockPool(4, num_keys=6)
        device.append_walks(2, walks(5))
        sched = Scheduler(6, selective=True, preemptive=True)
        # Only the protected partition has walks: it is still returned.
        assert sched.walk_evict_partition(pool, device, protect=2).tolist() == [2]

    def test_nothing_to_evict(self, pools):
        host, device = pools
        sched = Scheduler(6, selective=True, preemptive=True)
        with pytest.raises(KeyError):
            sched.walk_evict_partition(BlockPool(2, num_keys=6), device)

    def test_non_selective_first_candidate(self, pools):
        host, device = pools
        device.append_walks(4, walks(1))
        device.append_walks(1, walks(9))
        sched = Scheduler(6, selective=False, preemptive=False)
        order = sched.walk_evict_partition(BlockPool(2, num_keys=6), device)
        assert order.tolist() == [1, 4]


# ----------------------------------------------------------------------
# Each rule against a brute-force oracle.  The oracles are plain loops
# written from the module docstring of ``repro.core.scheduler`` (rules
# 1-4 and their tie-breaks), not from its array code.  The count range
# and the batch capacity vary per example so that ties, and each of "full
# batch", "half full" and "neither", are common cases, not rare ones.
# ----------------------------------------------------------------------
SIZES = st.integers(1, 8)
POLICIES = ("fifo", "lru", "min_walks")


@st.composite
def states(draw, sizes=SIZES):
    """Random counts, owned mask (``None`` = all), pool order, skip key."""
    n = draw(sizes)
    batch = draw(st.sampled_from((4, 8)))
    host = HostWalkPool(n, batch)
    device = DeviceWalkPool(n, batch, capacity_walks=10_000)
    # At most three distinct levels per pool, so most decisions are ties;
    # a ceiling of batch - 1 gives half-full batches and no full one.
    ceiling = draw(st.sampled_from((batch - 1, 2 * batch)))
    levels = st.lists(st.integers(0, ceiling), min_size=1, max_size=3)
    for walk_pool in (host, device):
        walk_pool.counts[:] = draw(
            st.lists(st.sampled_from(draw(levels)), min_size=n, max_size=n)
        )
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    owned = None if not any(mask) or draw(st.booleans()) else np.array(mask)
    order = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    pool = BlockPool(n, num_keys=n)
    for key in order:
        pool.insert(key, key)
    skip = draw(st.none() | st.integers(0, n - 1))
    is_owned = [True] * n if owned is None else list(mask)
    return host, device, owned, is_owned, pool, list(order), skip


def outcome(call):
    """The call's return value, or ``KeyError`` if that is what it raised."""
    try:
        return call()
    except KeyError:
        return KeyError


def first_min(keys, rank, empty=KeyError):
    """First key with the smallest rank (strict ``<`` keeps the earliest)."""
    best = empty
    for k in keys:
        if best is empty or rank(k) < rank(best):
            best = k
    return best


@settings(max_examples=300, deadline=None)
@given(
    SIZES.flatmap(
        lambda n: st.lists(states(st.just(n)), min_size=1, max_size=4)
    ),
    st.booleans(),
)
def test_select_partition_matches_oracle(rounds, selective):
    n = len(rounds[0][3])
    sched = Scheduler(n, selective, preemptive=False)
    cursor = -1
    for host, device, owned, is_owned, *_ in rounds:
        # Re-masking between calls: the cursor must survive set_owned.
        sched.set_owned(owned)
        totals = [int(h + d) for h, d in zip(host.counts, device.counts)]
        live = [p for p in range(n) if is_owned[p] and totals[p] > 0]
        if selective:
            expect = first_min(live, lambda p: -totals[p], None)
        else:
            expect = first_min(live, lambda p: (p - cursor - 1) % n, None)
            cursor = cursor if expect is None else expect
        assert sched.select_partition(host, device) == expect


@settings(max_examples=300, deadline=None)
@given(states())
def test_graph_victim_matches_oracle(state):
    host, device, owned, is_owned, pool, order, protect = state
    cached = [k for k in order if k != protect and is_owned[k]]
    fewest = first_min(
        cached, lambda k: (host.counts[k] + device.counts[k], k)
    )
    oldest = cached[0] if cached else KeyError
    for policy in POLICIES:
        sched = Scheduler(len(is_owned), True, True, policy, owned=owned)
        got = outcome(lambda: sched.graph_victim(pool, host, device, protect))
        assert got == (fewest if policy == "min_walks" else oldest), policy


@settings(max_examples=300, deadline=None)
@given(states())
def test_pick_preemptive_matches_oracle(state):
    host, device, owned, is_owned, pool, order, exclude = state
    capacity = device.batch_capacity
    cached = [k for k in order if k != exclude and is_owned[k]]
    full = [k for k in cached if device.counts[k] >= capacity]
    half = [k for k in cached if 2 * device.counts[k] >= capacity]
    if full:
        best = first_min(full, lambda k: host.counts[k] + device.counts[k])
    else:
        best = first_min(half, lambda k: -device.counts[k], None)
    for selective in (True, False):
        sched = Scheduler(len(is_owned), selective, True, owned=owned)
        got = sched.pick_preemptive_partition(pool, host, device, exclude)
        assert got == (best if selective else (full or half or [None])[0])


def evict_choice(counts, is_owned, cached, protect, selective):
    """Rule 4's one-batch victim, or ``KeyError`` when nothing is held."""
    holding = [p for p in range(len(counts)) if counts[p] > 0]
    cands = [p for p in holding if is_owned[p] and p != protect]
    if not cands:
        return protect if protect in holding else KeyError
    if not selective:
        return cands[0]
    uncached = [p for p in cands if p not in cached]
    return first_min(uncached or cands, lambda p: (counts[p], p))


@settings(max_examples=300, deadline=None)
@given(states())
def test_walk_evict_matches_oracle(state):
    host, device, owned, is_owned, pool, order, protect = state
    n = len(is_owned)
    for selective in (True, False):
        sched = Scheduler(n, selective, True, owned=owned)
        got = outcome(
            lambda: sched.walk_evict_partition(pool, device, protect)
        )
        counts = device.counts.tolist()
        expect = evict_choice(counts, is_owned, order, protect, selective)
        if expect is KeyError:
            assert got is KeyError, selective
            continue
        assert got[0] == expect, selective
        # The rest of the drain order: the same choice with every earlier
        # victim emptied, until nothing evictable is left.
        drained = []
        while expect is not KeyError:
            drained.append(expect)
            counts[expect] = 0
            expect = evict_choice(counts, is_owned, order, protect, selective)
        assert got.tolist() == drained, selective


@settings(max_examples=200, deadline=None)
@given(
    n=SIZES,
    policy=st.sampled_from(POLICIES),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "evict", "lookup", "mask", "none"]),
            st.integers(0, 7),
            st.none() | st.integers(0, 7),
        ),
        max_size=30,
    ),
)
def test_one_scheduler_answers_as_a_fresh_one(n, policy, ops):
    """A scheduler reuses its list of cached partitions while the pool's
    order, the skipped partition and the owned mask stay the same.  Across
    inserts, evictions, LRU hits, re-masking and changing skips, its
    victims and preemptive picks equal those of a fresh scheduler."""
    counts = np.random.default_rng(n).integers(0, 9, size=(2, n))
    host = HostWalkPool(n, 4)
    device = DeviceWalkPool(n, 4, capacity_walks=10_000)
    host.counts[:], device.counts[:] = counts
    pool = BlockPool(n, track_recency=policy == "lru", num_keys=n)
    sched = Scheduler(n, True, True, policy)
    owned = None
    for op, key, skip in ops:
        key %= n
        skip = None if skip is None else skip % n
        if op == "insert" and key not in pool and not pool.is_full:
            pool.insert(key, key)
        elif op == "evict" and key in pool:
            pool.evict(key)
        elif op == "lookup":
            pool.lookup(key)
        elif op == "mask":
            owned = np.arange(n) % 2 == key % 2  # key itself is owned
            sched.set_owned(owned)
        fresh = Scheduler(n, True, True, policy, owned=owned)
        for call in (
            lambda s: s.graph_victim(pool, host, device, skip),
            lambda s: s.pick_preemptive_partition(pool, host, device, skip),
        ):
            assert outcome(lambda: call(sched)) == outcome(lambda: call(fresh))
