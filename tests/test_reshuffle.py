"""Unit and property tests for walk reshuffling (§III-C, Algorithm 1)."""

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import RTX3090
from repro.gpu.kernels import KernelModel
from repro.walks.pool import DeviceWalkPool
from repro.walks.reshuffle import (
    DirectWriteReshuffler,
    TwoLevelReshuffler,
    group_by_partition,
    group_order,
)
from repro.walks.state import WalkArrays


class LocalIndex:
    """The shared-memory structure of Algorithm 1 (one SM's view).

    ``add(part, tid)`` mimics ``pos = atomicAdd(&localLen[part], 1);
    invertedMap.add(part, pos, tid)``; ``sorted_entries`` mimics
    ``invertedMap.sort()`` via counting sort over the prefix sums of the
    local counters, yielding ``(part, pos, tid)`` triples ordered so that
    threads writing to the same frontier get adjacent target addresses.
    A faithful port kept as the oracle for :func:`group_order`.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        self.local_len = np.zeros(num_partitions, dtype=np.int64)
        self._entries: List[Tuple[int, int, int]] = []

    def add(self, partition: int, tid: int) -> int:
        """Atomic-add into the local counter; returns the walk's local pos."""
        if not 0 <= partition < self.num_partitions:
            raise IndexError(f"partition {partition} out of range")
        pos = int(self.local_len[partition])
        self.local_len[partition] += 1
        self._entries.append((partition, pos, tid))
        return pos

    def sorted_entries(self) -> List[Tuple[int, int, int]]:
        """Counting-sort the inverted map by (partition, pos)."""
        prefix = np.zeros(self.num_partitions + 1, dtype=np.int64)
        np.cumsum(self.local_len, out=prefix[1:])
        out: List[Tuple[int, int, int]] = [None] * len(self._entries)  # type: ignore
        for part, pos, tid in self._entries:
            out[int(prefix[part]) + pos] = (part, pos, tid)
        return out

    def __len__(self) -> int:
        return len(self._entries)


class TestLocalIndex:
    def test_atomic_counter_semantics(self):
        idx = LocalIndex(num_partitions=3)
        assert idx.add(1, tid=0) == 0
        assert idx.add(1, tid=1) == 1
        assert idx.add(0, tid=2) == 0
        assert idx.local_len.tolist() == [1, 2, 0]
        assert len(idx) == 3

    def test_counting_sort_groups_partitions(self):
        idx = LocalIndex(num_partitions=3)
        order = [(2, 0), (0, 1), (2, 2), (1, 3), (0, 4)]
        for part, tid in order:
            idx.add(part, tid)
        entries = idx.sorted_entries()
        parts = [e[0] for e in entries]
        assert parts == sorted(parts)  # coalesced per partition
        # Within a partition, positions are 0..len-1 in insertion order.
        for part in range(3):
            positions = [pos for p, pos, __ in entries if p == part]
            assert positions == list(range(len(positions)))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            LocalIndex(2).add(5, 0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            LocalIndex(0)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
@given(
    partitions=st.sampled_from([1, 7, 233, 40_000]),
    n=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_group_order_is_the_stable_argsort(dtype, partitions, n, seed):
    """The counting sort equals ``np.argsort(kind="stable")`` and the
    shared-memory local index's order, for any key width that holds P."""
    top = min(partitions, np.iinfo(dtype).max + 1)
    keys = np.random.default_rng(seed).integers(0, top, size=n).astype(dtype)
    order = group_order(keys)
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    index = LocalIndex(top)
    for tid, part in enumerate(keys.tolist()):
        index.add(part, tid)
    assert order.tolist() == [tid for __, __, tid in index.sorted_entries()]


def test_group_order_empty_and_wide_keys():
    assert group_order(np.empty(0, dtype=np.int64)).size == 0
    # Keys past int16 (P >= 32 768) take the comparison-sort fallback.
    keys = np.array([40_000, 3, 40_000, -5, 3], dtype=np.int64)
    assert group_order(keys).tolist() == [3, 1, 4, 0, 2]


class TestGroupByPartition:
    def test_basic_grouping(self):
        w = WalkArrays.fresh(np.array([10, 20, 30, 40]))
        parts = np.array([1, 0, 1, 2])
        groups = group_by_partition(w, parts)
        assert set(groups) == {0, 1, 2}
        assert groups[1].vertices.tolist() == [10, 30]
        assert groups[0].vertices.tolist() == [20]

    def test_empty(self):
        assert group_by_partition(WalkArrays.empty(), np.array([], dtype=int)) == {}

    def test_misaligned(self):
        with pytest.raises(ValueError):
            group_by_partition(WalkArrays.fresh(np.array([1])), np.array([0, 1]))

    def test_stable_within_group(self):
        w = WalkArrays.fresh(np.array([5, 6, 7]), first_id=0)
        groups = group_by_partition(w, np.array([0, 0, 0]))
        assert groups[0].ids.tolist() == [0, 1, 2]


class TestReshufflers:
    def make_pool(self, partitions=8):
        return DeviceWalkPool(partitions, batch_capacity=4, capacity_walks=1000)

    def test_semantics_identical_across_modes(self):
        model = KernelModel(RTX3090)
        for cls in (TwoLevelReshuffler, DirectWriteReshuffler):
            pool = self.make_pool()
            shuffler = cls(model, num_partitions=8)
            w = WalkArrays.fresh(np.arange(20), first_id=0)
            parts = np.arange(20) % 8
            seconds, touched = shuffler.reshuffle(pool, w, parts)
            assert touched == 8
            assert seconds > 0
            assert pool.cached_walks == 20
            for p in range(8):
                for chunk in [pool.pop_all(p)]:
                    assert np.all(parts[np.isin(w.ids, chunk.ids)] == p)

    def test_two_level_faster(self):
        model = KernelModel(RTX3090)
        two = TwoLevelReshuffler(model, num_partitions=128)
        direct = DirectWriteReshuffler(model, num_partitions=128)
        assert two.seconds_for(10_000) < direct.seconds_for(10_000)

    def test_seconds_match_kernel_model(self):
        model = KernelModel(RTX3090)
        shuffler = TwoLevelReshuffler(model, num_partitions=64)
        assert shuffler.seconds_for(5_000) == pytest.approx(
            model.reshuffle_time(5_000, 64, "two_level"), rel=1e-9
        )

    def test_zero_walks(self):
        model = KernelModel(RTX3090)
        shuffler = TwoLevelReshuffler(model, num_partitions=4)
        seconds, touched = shuffler.reshuffle(
            self.make_pool(4), WalkArrays.empty(), np.array([], dtype=int)
        )
        assert seconds == 0.0 and touched == 0


@given(
    n=st.integers(1, 200),
    partitions=st.integers(1, 16),
    seed=st.integers(0, 100),
)
@settings(max_examples=60, deadline=None)
def test_reshuffle_conserves_and_places_walks(n, partitions, seed):
    """Property: every walk lands in exactly the partition it was assigned."""
    rng = np.random.default_rng(seed)
    w = WalkArrays.fresh(rng.integers(0, 1000, size=n), first_id=0)
    parts = rng.integers(0, partitions, size=n)
    pool = DeviceWalkPool(partitions, batch_capacity=3, capacity_walks=10**6)
    shuffler = TwoLevelReshuffler(KernelModel(RTX3090), partitions)
    shuffler.reshuffle(pool, w, parts)
    assert pool.cached_walks == n
    seen = set()
    for p in range(partitions):
        chunk = pool.pop_all(p)
        for wid in chunk.ids:
            assert parts[int(wid)] == p
            seen.add(int(wid))
    assert seen == set(range(n))


class TestBoundsGuard:
    def test_negative_partition_rejected(self):
        from repro.gpu.device import RTX3090
        from repro.gpu.kernels import KernelModel

        pool = DeviceWalkPool(4, batch_capacity=4, capacity_walks=100)
        shuffler = TwoLevelReshuffler(KernelModel(RTX3090), 4)
        w = WalkArrays.fresh(np.array([1, 2]))
        with pytest.raises(ValueError, match="out of range"):
            shuffler.reshuffle(pool, w, np.array([-1, 2]))

    def test_overflow_partition_rejected(self):
        from repro.gpu.device import RTX3090
        from repro.gpu.kernels import KernelModel

        pool = DeviceWalkPool(4, batch_capacity=4, capacity_walks=100)
        shuffler = TwoLevelReshuffler(KernelModel(RTX3090), 4)
        w = WalkArrays.fresh(np.array([1]))
        with pytest.raises(ValueError, match="out of range"):
            shuffler.reshuffle(pool, w, np.array([4]))


# ----------------------------------------------------------------------
# Every reshuffle path against a per-group oracle: room for every group
# at once, then one ``append_walks`` per partition in ascending order.
# ----------------------------------------------------------------------
def append_per_group(pool, walks, parts):
    """What :meth:`DeviceWalkPool.scatter_sorted` promises, one partition
    at a time: one ``_make_room`` for every group when any overflows, an
    ``append_walks`` per group in partition order (the stable order within
    it), and one observer record of the whole payload."""
    groups = sorted(set(parts.tolist()))
    extra = np.zeros(pool.num_partitions, dtype=np.int64)
    for part in groups:
        extra[part] = np.count_nonzero(parts == part)
    if (pool.tail + extra > pool.base + pool.cap).any():
        pool._make_room(extra)
    observer, pool.observer = pool.observer, None
    for part in groups:
        pool.append_walks(part, walks.select(np.flatnonzero(parts == part)))
    pool.observer = observer
    if observer is not None:
        observer.device_appended(pool, groups, walks.ids)
    return len(groups)


def observed_pool(partitions, history):
    """A pool with a sanitizer bound and some walks already through it."""
    from repro.analysis import Sanitizer

    pool = DeviceWalkPool(partitions, batch_capacity=4, capacity_walks=10**6)
    sanitizer = Sanitizer()
    sanitizer.bind_shard(0, device=pool)
    next_id = 10**6
    for part, n, pop in history:
        part %= partitions
        pool.append_walks(part, WalkArrays.fresh(np.arange(n), next_id))
        next_id += n
        if pop:
            pool.pop_preemptible(part)
    return pool, sanitizer


def pool_state(pool, sanitizer):
    contents = [
        (w.vertices.tolist(), w.steps.tolist(), w.ids.tolist())
        for w in pool.iter_walks()
    ]
    trail = [sanitizer._render(*raw) for raw in sanitizer._trail]
    return (
        contents, pool.counts.tolist(), pool.head.tolist(),
        pool.tail.tolist(), trail,
    )


@st.composite
def reshuffle_cases(draw):
    """A pool history over up to 300 partitions and a payload for it.

    Histories fill a few segments past their floor of 128 walks, so the
    payload's groups overflow them: a compaction, a move to the arena end,
    growth in place and a rebuild each occur over the examples."""
    partitions = draw(st.integers(1, 300))
    history = draw(
        st.lists(
            st.tuples(
                st.integers(0, 299), st.integers(1, 400), st.booleans()
            ),
            max_size=8,
        )
    )
    n = draw(st.integers(1, 600))
    spread = draw(st.sampled_from([1, 1, 2, 8, 300]))
    seed = draw(st.integers(0, 2**16))
    # Hot targets: the history's partitions, where segments are fullest.
    hot = draw(st.booleans())
    return partitions, history, n, spread, seed, hot


@given(case=reshuffle_cases())
@settings(max_examples=200, deadline=None)
def test_one_target_paths_match_the_sorted_path(case):
    """One walk, one target partition, or many, over up to 300 partitions:
    ``reshuffle`` leaves the same contents in order, counts, head / tail and
    sanitizer trail as the per-group oracle, and reports the partitions
    it wrote."""
    partitions, history, n, spread, seed, hot = case
    rng = np.random.default_rng(seed)
    if spread == 1 and rng.random() < 0.5:
        n = 1
    walks = WalkArrays(
        rng.integers(0, 1000, size=n), rng.integers(0, 50, size=n),
        np.arange(n),
    )
    if hot and history:
        firsts = [part % partitions for part, __, __ in history]
        parts = np.array(firsts)[rng.integers(0, len(firsts), size=n)]
    else:
        first = int(rng.integers(0, partitions))
        parts = (first + rng.integers(0, spread, size=n)) % partitions
    # Keys in the dtype of PartitionedGraph.lut for this P.
    parts = parts.astype(np.min_scalar_type(-partitions))
    fast, fast_s = observed_pool(partitions, history)
    oracle, oracle_s = observed_pool(partitions, history)
    shuffler = TwoLevelReshuffler(KernelModel(RTX3090), partitions)
    __, touched = shuffler.reshuffle(fast, walks, parts)
    assert touched == append_per_group(oracle, walks, parts)
    assert pool_state(fast, fast_s) == pool_state(oracle, oracle_s)


def test_the_oracle_cases_reach_every_make_room_path(monkeypatch):
    """The widened property above is only as strong as its histories: on
    fixed cases of its shape the scatter compacts, moves, grows the last
    segment in place and rebuilds."""
    taken = set()
    make_room = DeviceWalkPool._make_room
    rebuild = DeviceWalkPool._rebuild

    def watched_make_room(self, extra):
        ends = self.base + self.cap
        for p in np.flatnonzero(self.tail + extra > ends).tolist():
            live = int(self.tail[p] - self.head[p])
            fits = live + int(extra[p]) <= self.cap[p]
            if fits and self.head[p] - self.base[p] >= live:
                taken.add("compact")
            elif self.base[p] + self.cap[p] == self._end:
                taken.add("grow in place")
            else:
                taken.add("move")
        make_room(self, extra)

    def watched_rebuild(self, extra):
        if extra.any():
            taken.add("rebuild")
        rebuild(self, extra)

    monkeypatch.setattr(DeviceWalkPool, "_make_room", watched_make_room)
    monkeypatch.setattr(DeviceWalkPool, "_rebuild", watched_rebuild)
    cases = [
        # Partition 0 compacts behind its popped head; 299 is the last
        # segment and grows where it is.
        (300, [(0, 101, True), (299, 120, False)], 100, 2, 1, True),
        (300, [(5, 120, False), (9, 120, False)], 60, 2, 2, True),  # move
        (3, [(0, 120, False), (1, 120, False)], 200, 2, 3, True),  # rebuild
    ]
    for case in cases:
        test_one_target_paths_match_the_sorted_path.hypothesis.inner_test(case)
    assert taken == {"compact", "move", "grow in place", "rebuild"}, taken


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("bad", [-1, 4])
def test_one_target_paths_keep_the_range_check(n, bad):
    """A one-walk payload and a one-partition payload both refuse ids
    below 0 or at P, and leave the pool untouched."""
    pool = DeviceWalkPool(4, batch_capacity=4, capacity_walks=100)
    shuffler = TwoLevelReshuffler(KernelModel(RTX3090), 4)
    walks = WalkArrays.fresh(np.arange(n))
    with pytest.raises(ValueError, match="out of range"):
        shuffler.reshuffle(pool, walks, np.full(n, bad, dtype=np.int8))
    assert pool.cached_walks == 0
