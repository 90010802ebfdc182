"""Property-based tests for the multi-device sharded engine.

Seeded RMAT graphs × device counts 1-4 × all four transition samplers.
Three engine-level properties must hold for every combination:

* **global walk conservation** — every seeded walk finishes exactly once,
  regardless of how many shard boundaries it crosses;
* **per-device stream-time monotonicity** — each shard's compute / load /
  evict streams and every P2P channel stream schedule ops in
  non-decreasing time with non-negative durations;
* **update accounting** — each walk enters a kernel once when seeded and
  once per reshuffle-or-migration thereafter, so
  ``sum(Reshuffled.walks) + sum(WalksMigrated.walks)
  == sum(KernelDispatched.walks) - num_walks``, and every migrated walk
  is delivered (``WalksMigrated`` totals match ``WalksDelivered`` and the
  per-channel counters).

Plus determinism (same seed, same stats) and the owned-mask scheduler
tie-break regressions for the device-local decisions.
"""

import numpy as np
import pytest

from repro.algorithms import UniformSampling
from repro.core.cluster import MultiDeviceEngine
from repro.core.config import EngineConfig
from repro.core.engine import LightTrafficEngine, run_walks
from repro.core.events import EventBus
from repro.core.scheduler import Scheduler
from repro.graph import generators
from repro.gpu.memory import BlockPool
from repro.walks.pool import DeviceWalkPool, HostWalkPool
from repro.walks.state import WalkArrays

SAMPLERS = ("uniform", "alias", "inverse", "rejection")
DEVICE_COUNTS = (1, 2, 3, 4)


class EventCounter:
    """Tallies the walk totals of the accounting identity."""

    def __init__(self):
        self.kernel_walks = 0
        self.reshuffled_walks = 0
        self.migrated_walks = 0
        self.delivered_walks = 0
        self.devices_seen = set()

    def on_kernel_dispatched(self, event):
        self.kernel_walks += event.walks
        self.devices_seen.add(event.device)

    def on_reshuffled(self, event):
        self.reshuffled_walks += event.walks

    def on_walks_migrated(self, event):
        self.migrated_walks += event.walks

    def on_walks_delivered(self, event):
        self.delivered_walks += event.walks


def cluster_config(seed, devices, **overrides):
    base = dict(
        partition_bytes=2048,
        batch_walks=32,
        graph_pool_partitions=4,
        walk_pool_walks=256,
        seed=seed,
        devices=devices,
        sanitize=True,
        record_ops=True,
    )
    base.update(overrides)
    return EngineConfig(**base)


def run_cluster(graph, seed, devices, sampler, walks=400, length=6):
    algo = UniformSampling(length=length, weighted=True, sampler=sampler)
    bus = EventBus()
    counter = EventCounter()
    bus.attach(counter)
    engine = MultiDeviceEngine(
        graph, algo, cluster_config(seed, devices), bus=bus
    )
    stats = engine.run(walks)
    return engine, stats, counter


@pytest.fixture(scope="module")
def property_graph():
    return generators.rmat(scale=9, edge_factor=6, seed=3, name="prop")


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("devices", DEVICE_COUNTS)
def test_cluster_properties(property_graph, devices, sampler):
    walks = 400
    engine, stats, counter = run_cluster(
        property_graph, seed=11, devices=devices, sampler=sampler,
        walks=walks,
    )

    # Global walk conservation (the engine raises on violation; the
    # sanitizer re-proves it at every iteration boundary).
    assert stats.num_walks == walks
    assert stats.num_devices == devices
    assert stats.sanitizer is not None
    assert stats.sanitizer["clean"], stats.sanitizer

    # Per-device stream-time monotonicity, shard timelines and channels.
    assert len(engine._timelines) == devices
    for timeline in engine._timelines:
        timeline.validate()
        for stream in timeline.streams:
            _assert_monotonic(stream)
    for stream in engine._cluster.all_streams():
        _assert_monotonic(stream)

    # Update accounting: reshuffled + migrated == kernel entries - seeds.
    assert (
        counter.reshuffled_walks + counter.migrated_walks
        == counter.kernel_walks - walks
    )
    assert counter.migrated_walks == counter.delivered_walks
    assert counter.migrated_walks == stats.walks_migrated
    for chan in engine._cluster.channels.values():
        assert chan.sent_walks == chan.delivered_walks

    if devices == 1:
        assert stats.walks_migrated == 0
        assert not engine._cluster.channels
        assert counter.devices_seen == {0}
    else:
        assert counter.devices_seen == set(range(devices))
        assert stats.device_times is not None
        assert set(stats.device_times) == {
            str(d) for d in range(devices)
        }


def _assert_monotonic(stream):
    ops = stream.ops
    for op in ops:
        assert op.end >= op.start
    for prev, cur in zip(ops, ops[1:]):
        assert cur.start >= prev.end


@pytest.mark.parametrize("devices", [2, 4])
def test_same_seed_same_stats(property_graph, devices):
    __, first, __c = run_cluster(
        property_graph, seed=29, devices=devices, sampler="alias"
    )
    __, second, __c2 = run_cluster(
        property_graph, seed=29, devices=devices, sampler="alias"
    )
    assert first.total_steps == second.total_steps
    assert first.iterations == second.iterations
    assert first.walks_migrated == second.walks_migrated
    assert first.total_time == second.total_time
    assert first.breakdown == second.breakdown
    assert first.device_times == second.device_times


def test_run_walks_shards_by_config(property_graph):
    stats = run_walks(
        property_graph,
        UniformSampling(length=4),
        200,
        cluster_config(5, 1, record_ops=False).with_options(devices=2),
    )
    assert stats.num_devices == 2
    assert stats.sanitizer is not None
    assert stats.sanitizer["clean"], stats.sanitizer


def test_engine_subclass_still_shards(property_graph):
    """Regression: sharding follows ``config.devices``, not the class.

    ``run`` used to hand over to the sharded loop only when ``type(self)
    is LightTrafficEngine``, so any subclass silently ran on one device.
    """

    class Subclass(LightTrafficEngine):
        pass

    config = cluster_config(5, 2, record_ops=False)
    engine = Subclass(property_graph, UniformSampling(length=4), config)
    stats = engine.run(200)
    assert stats.num_devices == 2
    assert stats.walks_migrated > 0
    assert stats.device_times is not None and len(stats.device_times) == 2


class TestOwnedSchedulerTieBreaks:
    """Device-local scheduling decisions: deterministic, shard-confined.

    Regression guards for :class:`repro.core.scheduler.Scheduler` with an
    ``owned`` mask: foreign partitions (whose walk totals are device-local
    zeros) must never win a min-walks decision, and ties must break toward
    the lowest owned partition index in every policy.
    """

    def pools(self, num_partitions=6, batch=8):
        host = HostWalkPool(num_partitions, batch)
        device = DeviceWalkPool(num_partitions, batch, 64)
        return host, device

    def owned(self, *parts, n=6):
        mask = np.zeros(n, dtype=bool)
        mask[list(parts)] = True
        return mask

    def test_select_partition_tie_breaks_low_owned(self):
        host, device = self.pools()
        sched = Scheduler(6, True, False, owned=self.owned(2, 4))
        host.append_walks(2, WalkArrays.fresh([1, 1], first_id=0))
        host.append_walks(4, WalkArrays.fresh([1, 1], first_id=2))
        # Equal totals: the lowest owned index wins (np.argmax first-max).
        assert sched.select_partition(host, device) == 2

    def test_select_partition_ignores_foreign_walks(self):
        host, device = self.pools()
        sched = Scheduler(6, True, False, owned=self.owned(2, 4))
        # Partition 0 (foreign) holds the most walks but is not ours.
        host.append_walks(0, WalkArrays.fresh([1] * 5, first_id=0))
        host.append_walks(4, WalkArrays.fresh([1], first_id=5))
        assert sched.select_partition(host, device) == 4

    def test_select_partition_empty_shard_returns_none(self):
        host, device = self.pools()
        sched = Scheduler(6, True, False, owned=self.owned(2, 4))
        host.append_walks(0, WalkArrays.fresh([1], first_id=0))
        assert sched.select_partition(host, device) is None

    def test_round_robin_skips_foreign(self):
        host, device = self.pools()
        sched = Scheduler(6, False, False, owned=self.owned(1, 3))
        host.append_walks(1, WalkArrays.fresh([1], first_id=0))
        host.append_walks(3, WalkArrays.fresh([1], first_id=1))
        assert sched.select_partition(host, device) == 1
        assert sched.select_partition(host, device) == 3
        assert sched.select_partition(host, device) == 1

    def test_graph_victim_never_foreign(self):
        host, device = self.pools()
        sched = Scheduler(
            6, True, False,
            eviction_policy=Scheduler.EVICT_MIN_WALKS,
            owned=self.owned(2, 4),
        )
        pool = BlockPool(3, name="gp", num_keys=6)
        # Foreign partition 0 is cached with zero local walks — min-walks
        # would always pick it without the owned guard, evicting another
        # shard's resident graph data from our accounting.
        pool.insert(0, "x")
        pool.insert(2, "x")
        pool.insert(4, "x")
        host.append_walks(2, WalkArrays.fresh([1], first_id=0))
        host.append_walks(4, WalkArrays.fresh([1, 1], first_id=1))
        assert sched.graph_victim(pool, host, device) == 2

    def test_graph_victim_tie_breaks_low_index(self):
        host, device = self.pools()
        sched = Scheduler(
            6, True, False,
            eviction_policy=Scheduler.EVICT_MIN_WALKS,
            owned=self.owned(2, 4),
        )
        pool = BlockPool(2, name="gp", num_keys=6)
        pool.insert(4, "x")
        pool.insert(2, "x")
        # Equal walk totals: lowest partition id wins, not insertion order.
        assert sched.graph_victim(pool, host, device) == 2

    def test_walk_evict_never_foreign(self):
        host, device = self.pools()
        sched = Scheduler(6, True, False, owned=self.owned(2, 4))
        pool = BlockPool(2, name="gp", num_keys=6)
        device.append_walks(0, WalkArrays.fresh([1], first_id=0))
        device.append_walks(4, WalkArrays.fresh([1, 1], first_id=1))
        assert sched.walk_evict_partition(pool, device).tolist() == [4]

    def test_walk_evict_tie_breaks_low_index(self):
        host, device = self.pools()
        sched = Scheduler(6, True, False, owned=self.owned(2, 4))
        pool = BlockPool(2, name="gp", num_keys=6)
        device.append_walks(2, WalkArrays.fresh([1], first_id=0))
        device.append_walks(4, WalkArrays.fresh([1], first_id=1))
        assert sched.walk_evict_partition(pool, device).tolist() == [2, 4]

    def test_preemptive_pick_skips_foreign(self):
        host, device = self.pools()
        sched = Scheduler(6, True, True, owned=self.owned(2, 4))
        pool = BlockPool(3, name="gp", num_keys=6)
        pool.insert(0, "x")  # foreign, full batch buffered
        pool.insert(4, "x")
        device.append_walks(0, WalkArrays.fresh([1] * 8, first_id=0))
        device.append_walks(4, WalkArrays.fresh([1] * 8, first_id=8))
        assert sched.pick_preemptive_partition(pool, host, device) == 4

    def test_owned_mask_validation(self):
        with pytest.raises(ValueError, match="cover every partition"):
            Scheduler(6, True, False, owned=np.ones(3, dtype=bool))
        with pytest.raises(ValueError, match="selects no partition"):
            Scheduler(6, True, False, owned=np.zeros(6, dtype=bool))
        # No mask means every partition, at construction and on re-masking.
        sched = Scheduler(6, True, False)
        assert sched.owned.all()
        sched.set_owned(self.owned(2, 4))
        assert sched.owned.tolist() == [False, False, True, False, True, False]
        sched.set_owned(None)
        assert sched.owned.shape == (6,) and sched.owned.all()
