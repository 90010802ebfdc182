"""cross-device-residency: the owner table against a brute-force oracle.

The sanitizer keeps one ``walk id -> device`` table, updated from the
pool hooks, and asserts the rule at every pool write.  The oracle below
is the recount it replaced — every shard's ids re-materialised through
``iter_walks`` and intersected pairwise — kept here, verbatim, as the
reference.  Random op sequences over 2-4 bound shards (legal moves plus
injected faults) must keep the two in agreement after every step: a
cross-device violation has been recorded iff the oracle has seen a shared
id.  Seeded mutants of the table maintenance must break that agreement.
"""

from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import RULE_CROSS_DEVICE, Sanitizer
from repro.walks.pool import DeviceWalkPool, HostWalkPool
from repro.walks.state import WalkArrays

PARTITIONS = 3
BATCH = 4


def _shard_walk_ids(host, device) -> np.ndarray:
    chunks: List[np.ndarray] = []
    if host is not None:
        chunks.extend(walks.ids for walks in host.iter_walks())
    if device is not None:
        chunks.extend(walks.ids for walks in device.iter_walks())
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def oracle_shares_an_id(hosts, devices) -> bool:
    """No walk id may be resident in two shards' pools at once."""
    resident = [
        _shard_walk_ids(host, device) for host, device in zip(hosts, devices)
    ]
    for i in range(len(resident)):
        for j in range(i + 1, len(resident)):
            if np.intersect1d(resident[i], resident[j]).size:
                return True
    return False


def copied(walks: WalkArrays) -> WalkArrays:
    """Pool takes are views of pool storage; hold a copy while in hand."""
    return WalkArrays(
        walks.vertices.copy(), walks.steps.copy(), walks.ids.copy()
    )


class Cluster:
    """2-4 shards of real pools under one sanitizer, driven op by op."""

    def __init__(self, shards: int, sanitizer: Sanitizer, bound: int) -> None:
        self.hosts = [HostWalkPool(PARTITIONS, BATCH) for _ in range(shards)]
        self.devices = [
            DeviceWalkPool(PARTITIONS, BATCH, capacity_walks=1 << 20)
            for _ in range(shards)
        ]
        self.sanitizer = sanitizer
        self.bound = 0
        self.next_id = 0
        for _ in range(bound):
            self.bind_next()

    def bind_next(self) -> None:
        if self.bound < len(self.hosts):
            self.sanitizer.bind_shard(
                self.bound,
                host=self.hosts[self.bound],
                device=self.devices[self.bound],
                expected_walks=8,  # far too small: the table must grow
            )
            self.bound += 1

    def fresh(self, n: int) -> WalkArrays:
        walks = WalkArrays.fresh(np.zeros(n, dtype=np.int64), self.next_id)
        self.next_id += n
        return walks

    def scatter(self, shard: int, walks: WalkArrays, first_part: int) -> None:
        """Reshuffle-style delivery: one ``scatter_sorted`` over the
        partitions, round-robin from ``first_part``."""
        n = len(walks)
        if not n:
            return
        targets = (first_part + np.arange(n)) % PARTITIONS
        order = np.argsort(targets, kind="stable")
        self.devices[shard].scatter_sorted(walks, order, targets[order])

    def drain(self, shard: int, part: int) -> List[WalkArrays]:
        """``StageContext.release_partition``'s pool part."""
        groups = []
        while self.hosts[shard].has_walks(part):
            groups.append(copied(self.hosts[shard].pop_batch(part)))
        if self.devices[shard].has_walks(part):
            groups.append(copied(self.devices[shard].pop_all(part)))
        return groups

    # -- one op --------------------------------------------------------
    def apply(self, op: str, src: int, dst: int, part: int, n: int) -> None:
        src %= len(self.hosts)
        dst %= len(self.hosts)
        host, device = self.hosts[src], self.devices[src]
        if op == "bind":
            self.bind_next()
        elif op == "seed":
            host.append_walks(part, self.fresh(n))
        elif op == "append":
            device.append_walks(part, self.fresh(n))
        elif op == "scatter":
            self.scatter(src, self.fresh(n), part)
        elif op == "finish":
            device.pop_all(part)
        elif op == "migrate":
            self.scatter(dst, copied(device.pop_preemptible(part)), part)
        elif op == "evict":
            if device.has_walks(part):
                host.push_batch(part, device.evict_batch(part))
        elif op == "load":
            if host.has_walks(part):
                device.load_batch(part, host.pop_batch(part))
        elif op == "handoff":
            for group in self.drain(src, part):
                self.hosts[dst].append_walks(part, group)
        elif op == "fault-deliver-untaken" and dst != src:
            # Delivered to a peer without being taken from the source.
            for walks in list(device.iter_walks())[:1]:
                self.scatter(dst, copied(walks), part)
        elif op == "fault-two-hosts" and dst != src:
            walks = self.fresh(n)
            host.append_walks(part, walks)
            self.hosts[dst].append_walks(part, walks)


LEGAL = [
    "bind", "seed", "append", "scatter", "finish", "migrate", "evict",
    "load", "handoff",
]
FAULTS = ["fault-deliver-untaken", "fault-two-hosts"]


def steps(kinds):
    """(op, source shard, peer shard, partition, walk count) tuples."""
    return st.tuples(
        st.sampled_from(kinds),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, PARTITIONS - 1),
        st.integers(1, 2 * BATCH + 1),
    )


def disagreement(
    ops, shards: int, bound: int, sanitizer: Optional[Sanitizer] = None
) -> Optional[str]:
    """Run ``ops``; the first step where table and oracle disagree."""
    cluster = Cluster(shards, sanitizer or Sanitizer(), bound)
    shared = False
    for index, (op, src, dst, part, n) in enumerate(ops):
        cluster.apply(op, src, dst, part, n)
        # The oracle sees what the sanitizer is accountable for: the
        # pools of the shards bound so far.
        shared = shared or oracle_shares_an_id(
            cluster.hosts[: cluster.bound], cluster.devices[: cluster.bound]
        )
        recorded = any(
            v.rule == RULE_CROSS_DEVICE for v in cluster.sanitizer.violations
        )
        if recorded != shared:
            return (
                f"step {index} {op}: violation recorded={recorded}, "
                f"oracle shared={shared}\n"
                + cluster.sanitizer.format_report()
            )
    others = [
        v for v in cluster.sanitizer.violations if v.rule != RULE_CROSS_DEVICE
    ]
    assert not others, cluster.sanitizer.format_report()
    cluster.sanitizer.unbind()
    return None


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(steps(LEGAL + FAULTS), min_size=12, max_size=40),
    shards=st.integers(2, 4),
    unbound=st.integers(0, 2),
)
def test_table_agrees_with_the_recount_oracle(ops, shards, unbound):
    # ``unbound`` shards join through "bind" ops, after walks are pooled:
    # the bind-time snapshot path.  Lists start at 12 ops because shorter
    # ones rarely reach a migration (measured: each mutant below is then
    # told apart in >= 9 % of examples, against 2 % from length 0).
    assert disagreement(ops, shards, bound=shards - unbound) is None


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(steps(LEGAL), min_size=12, max_size=60))
def test_legal_moves_never_raise_a_violation(ops):
    sanitizer = Sanitizer()
    assert disagreement(ops, 3, bound=2, sanitizer=sanitizer) is None
    assert sanitizer.clean, sanitizer.format_report()


def test_second_shard_bound_after_walks_are_pooled():
    """Late binding: the snapshot sees walks the hooks never reported."""
    ops = [
        ("append", 0, 0, 0, 5),
        ("seed", 1, 0, 1, 5),
        ("bind", 0, 0, 0, 1),  # shard 1 joins holding ids 5..9
        ("migrate", 1, 0, 0, 1),  # nothing on shard 1's device: no-op
        ("handoff", 1, 0, 1, 1),  # 5..9 legally move to shard 0
        ("fault-deliver-untaken", 0, 1, 0, 1),  # 0..4 copied to shard 1
    ]
    assert disagreement(ops[:5], 2, bound=1) is None
    sanitizer = Sanitizer()
    assert disagreement(ops, 2, bound=1, sanitizer=sanitizer) is None
    assert [v.rule for v in sanitizer.violations] == [RULE_CROSS_DEVICE]


def test_duplicate_already_pooled_is_caught_at_bind():
    hosts = [HostWalkPool(PARTITIONS, BATCH) for _ in range(2)]
    hosts[0].append_walks(0, WalkArrays.fresh([0, 0], first_id=3))
    hosts[1].append_walks(0, WalkArrays.fresh([0, 0], first_id=4))
    sanitizer = Sanitizer().bind_shard(0, host=hosts[0])
    assert sanitizer.clean
    sanitizer.bind_shard(1, host=hosts[1])
    sanitizer.unbind()
    assert [v.rule for v in sanitizer.violations] == [RULE_CROSS_DEVICE]
    assert "[4]" in sanitizer.violations[0].message


# ----------------------------------------------------------------------
# Seeded mutants: each breaks one piece of the table maintenance and must
# be told apart from the real sanitizer by the same agreement check.
# ----------------------------------------------------------------------
class NoHostUpdate(Sanitizer):
    def pool_host_appended(self, pool, partition, ids):
        pass

    def pool_host_taken(self, pool, partition, ids):
        pass


class NoClearOnTake(Sanitizer):
    def device_taken(self, pool, partition, count, available, ids):
        super().device_taken(pool, partition, count, available, ids[:0])


class WrongDevice(Sanitizer):
    def _place(self, device, ids):
        super()._place(min(device, 0), ids)  # every pool claims device 0


#: every legal move once, then one fault of each kind.
TOUR = [
    ("seed", 0, 0, 0, 6),
    ("load", 0, 0, 0, 1),
    ("scatter", 1, 0, 1, 7),
    ("migrate", 1, 0, 1, 1),
    ("evict", 0, 0, 1, 1),
    ("handoff", 0, 2, 1, 1),
    ("append", 2, 0, 2, 3),
    ("finish", 2, 0, 2, 1),
    ("fault-two-hosts", 1, 2, 0, 2),
    ("fault-deliver-untaken", 0, 1, 0, 1),
]


@pytest.mark.parametrize("mutant", [NoHostUpdate, NoClearOnTake, WrongDevice])
def test_mutants_are_told_apart(mutant):
    assert disagreement(TOUR, 3, bound=3) is None
    assert disagreement(TOUR, 3, bound=3, sanitizer=mutant()) is not None


@pytest.mark.parametrize(
    "ops",
    [
        # a walk pooled twice on device 0, one copy consumed, then a peer
        # binds holding the same walk: still shared with device 0
        [("bind", 0, 0, 0, 1)] + [("seed", 0, 0, 0, 1)] * 5 + [
            ("append", 0, 0, 0, 1),
            ("fault-deliver-untaken", 0, 2, 0, 1),
            ("fault-deliver-untaken", 2, 0, 1, 1),
            ("finish", 0, 0, 0, 1),
            ("bind", 0, 0, 0, 1),
            ("bind", 0, 0, 0, 1),
        ],
        [("bind", 0, 0, 0, 1)] + [("seed", 0, 0, 0, 1)] * 19 + [
            ("append", 2, 0, 0, 1),
            ("fault-deliver-untaken", 2, 0, 0, 1),
            ("fault-deliver-untaken", 2, 0, 1, 1),
            ("finish", 0, 0, 0, 1),
            ("bind", 0, 0, 0, 1),
        ],
    ],
)
def test_consumed_duplicate_keeps_its_twin_resident(ops):
    """Hypothesis-found: the table cleared an id when one of two copies
    pooled on the same device was consumed."""
    assert disagreement(ops, 3, bound=1) is None
