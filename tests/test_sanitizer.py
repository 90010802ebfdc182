"""Runtime sanitizer: clean runs stay clean, injected faults are caught.

Two halves:

* *Clean sweep* — full engine/baseline runs with ``sanitize=True`` must
  report zero violations across every transition sampler, copy mode and
  the multi-round/subway/UVM baselines.  The sanitizer is pure
  observation, so the run statistics must also be bit-identical with and
  without it.
* *Fault injection* — each invariant is deliberately broken through the
  real substrate objects (timeline streams, graph pool, walk pools, bus
  events) and must yield exactly one violation of the right rule, with a
  non-empty provenance trail.
"""

import numpy as np
import pytest

from repro.algorithms import PageRank, UniformSampling
from repro.analysis import (
    RULE_CROSS_DEVICE,
    RULE_DOUBLE_CONSUME,
    RULE_EVICT_IN_FLIGHT,
    RULE_MIGRATION,
    RULE_REQUEST_CONSERVATION,
    RULE_STALE_OWNER,
    RULE_RESIDENCY,
    RULE_STREAM_AFFINITY,
    RULE_STREAM_MONOTONIC,
    RULE_WALK_CAPACITY,
    RULE_WALK_CONSERVATION,
    Sanitizer,
    format_summary,
)
from repro.core.config import COPY_EXPLICIT, COPY_ZERO, EngineConfig
from repro.core.engine import LightTrafficEngine
from repro.core.events import (
    SERVED_EXPLICIT,
    BatchLoaded,
    DeviceFailed,
    DeviceRecoveredWalks,
    EventBus,
    GraphServed,
    IterationStarted,
    KernelDispatched,
    QueryAdmitted,
    QueryCompleted,
    Reshuffled,
    RunCompleted,
    ShardRebalanced,
    WalksDelivered,
    WalksMigrated,
)
from repro.gpu.cluster import DeviceCluster
from repro.core.stats import CAT_WALK_EVICT, CAT_WALK_LOAD, CAT_WALK_UPDATE
from repro.gpu.memory import BlockPool
from repro.gpu.timeline import Timeline
from repro.walks.pool import DeviceWalkPool, HostWalkPool
from repro.walks.state import WalkArrays


def sanitized_config(**overrides):
    base = dict(
        partition_bytes=2048,
        batch_walks=32,
        graph_pool_partitions=4,
        walk_pool_walks=256,
        seed=123,
        sanitize=True,
    )
    base.update(overrides)
    return EngineConfig(**base)


class TestCleanRuns:
    @pytest.mark.parametrize(
        "sampler", ["uniform", "alias", "inverse", "rejection"]
    )
    def test_all_samplers_clean(self, small_graph, sampler):
        algo = UniformSampling(length=5, weighted=True, sampler=sampler)
        stats = LightTrafficEngine(
            small_graph, algo, sanitized_config()
        ).run(500)
        assert stats.sanitizer is not None
        assert stats.sanitizer["clean"], format_summary(stats.sanitizer)
        assert stats.sanitizer["checks"] > 0
        assert stats.sanitizer["violation_count"] == 0

    @pytest.mark.parametrize("copy_mode", [COPY_EXPLICIT, COPY_ZERO])
    def test_copy_modes_clean(self, small_graph, copy_mode):
        stats = LightTrafficEngine(
            small_graph, PageRank(), sanitized_config(copy_mode=copy_mode)
        ).run(400)
        assert stats.sanitizer["clean"], format_summary(stats.sanitizer)

    def test_sanitizer_does_not_perturb_results(self, small_graph):
        baseline = LightTrafficEngine(
            small_graph, PageRank(), sanitized_config(sanitize=False)
        ).run(400)
        sanitized = LightTrafficEngine(
            small_graph, PageRank(), sanitized_config()
        ).run(400)
        assert sanitized.total_steps == baseline.total_steps
        assert sanitized.iterations == baseline.iterations
        assert sanitized.total_time == baseline.total_time
        assert sanitized.breakdown == baseline.breakdown

    @pytest.mark.no_sanitize  # asserts the sanitizer is absent
    def test_unsanitized_run_has_no_summary(self, small_graph):
        stats = LightTrafficEngine(
            small_graph, PageRank(), sanitized_config(sanitize=False)
        ).run(200)
        assert stats.sanitizer is None

    def test_multiround_aggregates_rounds(self, small_graph):
        from repro.baselines import MultiRoundEngine

        stats = MultiRoundEngine(
            small_graph, PageRank, sanitized_config(), rounds=2
        ).run(300)
        assert stats.sanitizer is not None
        assert stats.sanitizer["rounds"] == 2
        assert stats.sanitizer["clean"], format_summary(stats.sanitizer)

    @pytest.mark.parametrize("baseline", ["subway", "uvm"])
    def test_event_only_baselines_clean(self, small_graph, baseline):
        from repro.baselines import (
            SubwayConfig,
            SubwayEngine,
            UVMConfig,
            UVMEngine,
        )

        bus = EventBus()
        if baseline == "subway":
            engine = SubwayEngine(
                small_graph, PageRank(), SubwayConfig(seed=1), bus=bus
            )
        else:
            engine = UVMEngine(
                small_graph, PageRank(), UVMConfig(seed=1), bus=bus
            )
        sanitizer = Sanitizer().bind(expected_walks=300)
        bus.attach(sanitizer)
        engine.run(300)
        bus.detach(sanitizer)
        assert sanitizer.clean, sanitizer.format_report()
        assert sanitizer.checks >= 1


def one_violation(sanitizer, rule):
    """Assert exactly one violation, of ``rule``, carrying provenance."""
    assert len(sanitizer.violations) == 1, sanitizer.format_report()
    violation = sanitizer.violations[0]
    assert violation.rule == rule
    assert len(violation.provenance) > 0
    assert rule in str(violation)
    return violation


class TestFaultInjection:
    def test_stream_rewind_caught(self):
        timeline = Timeline()
        sanitizer = Sanitizer().bind(timeline=timeline)
        timeline.compute.schedule(1.0, CAT_WALK_UPDATE)
        # Rewind the stream clock behind its completion frontier.
        timeline.compute.busy_until = 0.0
        timeline.compute.schedule(0.5, CAT_WALK_UPDATE)
        sanitizer.unbind()
        one_violation(sanitizer, RULE_STREAM_MONOTONIC)

    def test_wrong_stream_caught(self):
        timeline = Timeline()
        sanitizer = Sanitizer().bind(timeline=timeline)
        # A device-to-host eviction on the host-to-device load stream
        # breaks the full-duplex PCIe contract.
        timeline.load.schedule(1.0, CAT_WALK_EVICT)
        sanitizer.unbind()
        one_violation(sanitizer, RULE_STREAM_AFFINITY)

    def test_clean_pipeline_passes(self):
        timeline = Timeline()
        sanitizer = Sanitizer().bind(timeline=timeline)
        timeline.load.schedule(1.0, CAT_WALK_LOAD)
        timeline.compute.schedule(2.0, CAT_WALK_UPDATE, earliest=1.0)
        timeline.evict.schedule(0.5, CAT_WALK_EVICT, earliest=3.0)
        sanitizer.unbind()
        assert sanitizer.clean, sanitizer.format_report()

    def test_evict_in_flight_load_caught(self):
        pool = BlockPool(2, name="graph-pool")
        sanitizer = Sanitizer().bind(graph_pool=pool)
        bus = EventBus()
        bus.attach(sanitizer)
        pool.insert(3, "payload")
        bus.emit(GraphServed(iteration=1, partition=3, mode=SERVED_EXPLICIT))
        # Evicted before any kernel consumed the freshly loaded partition.
        pool.evict(3)
        sanitizer.unbind()
        one_violation(sanitizer, RULE_EVICT_IN_FLIGHT)

    def test_evict_after_kernel_is_fine(self):
        pool = BlockPool(2, name="graph-pool")
        sanitizer = Sanitizer().bind(graph_pool=pool)
        bus = EventBus()
        bus.attach(sanitizer)
        pool.insert(3, "payload")
        bus.emit(GraphServed(iteration=1, partition=3, mode=SERVED_EXPLICIT))
        bus.emit(KernelDispatched(partition=3, walks=10, steps=10))
        pool.evict(3)
        sanitizer.unbind()
        assert sanitizer.clean, sanitizer.format_report()

    def test_kernel_on_evicted_partition_caught(self):
        pool = BlockPool(2, name="graph-pool")
        sanitizer = Sanitizer().bind(graph_pool=pool)
        bus = EventBus()
        bus.attach(sanitizer)
        # Partition 5 was never loaded: computing against absent graph data.
        bus.emit(KernelDispatched(partition=5, walks=10, steps=10))
        sanitizer.unbind()
        one_violation(sanitizer, RULE_RESIDENCY)

    def test_zero_copy_kernel_needs_no_residency(self):
        pool = BlockPool(2, name="graph-pool")
        sanitizer = Sanitizer().bind(graph_pool=pool)
        bus = EventBus()
        bus.attach(sanitizer)
        bus.emit(
            KernelDispatched(partition=5, walks=10, steps=10, zero_copy=True)
        )
        sanitizer.unbind()
        assert sanitizer.clean

    def test_overfilled_batch_caught(self):
        device = DeviceWalkPool(4, batch_capacity=32, capacity_walks=128)
        sanitizer = Sanitizer().bind(device=device)
        bus = EventBus()
        bus.attach(sanitizer)
        bus.emit(BatchLoaded(partition=0, walks=33))
        sanitizer.unbind()
        one_violation(sanitizer, RULE_WALK_CAPACITY)

    def test_double_consume_caught(self):
        device = DeviceWalkPool(4, batch_capacity=32, capacity_walks=128)
        sanitizer = Sanitizer().bind(device=device)
        device.append_walks(0, WalkArrays.fresh([1, 2, 3]))
        # Taking more walks than the partition buffer holds is the
        # signature of a double-consumed frontier batch.
        device._take(0, 5)
        sanitizer.unbind()
        one_violation(sanitizer, RULE_DOUBLE_CONSUME)

    def test_dropped_walk_mid_reshuffle_caught(self):
        host = HostWalkPool(4, batch_capacity=32)
        device = DeviceWalkPool(4, batch_capacity=32, capacity_walks=128)
        sanitizer = Sanitizer().bind(
            host=host, device=device, expected_walks=10
        )
        bus = EventBus()
        bus.attach(sanitizer)
        host.append_walks(0, WalkArrays.fresh(list(range(10))))
        # Pop a batch (walks now in flight) and "lose" it: the reshuffle
        # completes without re-appending or finishing those walks.
        host.pop_batch(0)
        bus.emit(Reshuffled(partition=0, walks=0))
        sanitizer.unbind()
        one_violation(sanitizer, RULE_WALK_CONSERVATION)

    def test_short_finish_count_caught(self):
        sanitizer = Sanitizer().bind(expected_walks=10)
        bus = EventBus()
        bus.attach(sanitizer)
        bus.emit(
            RunCompleted(total_time=1.0, finished_walks=9)
        )
        sanitizer.unbind()
        one_violation(sanitizer, RULE_WALK_CONSERVATION)

    def test_violation_cap_truncates(self):
        timeline = Timeline()
        sanitizer = Sanitizer(max_violations=2)
        sanitizer.bind(timeline=timeline)
        for _ in range(5):
            timeline.load.schedule(0.1, CAT_WALK_EVICT)
        sanitizer.unbind()
        assert len(sanitizer.violations) == 2
        assert sanitizer.dropped == 3
        assert not sanitizer.clean
        summary = sanitizer.summary()
        assert summary["violation_count"] == 5
        assert "truncated" in format_summary(summary)


class TestCrossDeviceFaults:
    """Multi-device invariants: each fault yields exactly one violation."""

    def test_duplicate_walk_on_two_devices_caught(self):
        pool0 = DeviceWalkPool(4, batch_capacity=32, capacity_walks=128)
        pool1 = DeviceWalkPool(4, batch_capacity=32, capacity_walks=128)
        sanitizer = (
            Sanitizer()
            .bind_shard(0, device=pool0)
            .bind_shard(1, device=pool1)
        )
        bus = EventBus()
        bus.attach(sanitizer)
        # Walk id 7 resident on both shards: a migrated walk that was
        # delivered without being removed from its source device.
        pool0.append_walks(0, WalkArrays.fresh([5, 6, 7], first_id=5))
        pool1.append_walks(1, WalkArrays.fresh([8, 9], first_id=7))
        bus.emit(IterationStarted(iteration=1, partition=0, pending_walks=5))
        sanitizer.unbind()
        one_violation(sanitizer, RULE_CROSS_DEVICE)

    def test_disjoint_shards_are_clean(self):
        pool0 = DeviceWalkPool(4, batch_capacity=32, capacity_walks=128)
        pool1 = DeviceWalkPool(4, batch_capacity=32, capacity_walks=128)
        sanitizer = (
            Sanitizer()
            .bind_shard(0, device=pool0)
            .bind_shard(1, device=pool1)
        )
        bus = EventBus()
        bus.attach(sanitizer)
        pool0.append_walks(0, WalkArrays.fresh([1, 2], first_id=0))
        pool1.append_walks(1, WalkArrays.fresh([3, 4], first_id=2))
        bus.emit(IterationStarted(iteration=1, partition=0, pending_walks=4))
        sanitizer.unbind()
        assert sanitizer.clean, sanitizer.format_report()

    def test_lost_migration_caught(self):
        sanitizer = Sanitizer()
        bus = EventBus()
        bus.attach(sanitizer)
        # Five walks enter the 0->1 channel but the run completes before
        # any delivery: the migration dropped walks in flight.
        bus.emit(WalksMigrated(src_device=0, dst_device=1, walks=5))
        bus.emit(RunCompleted(total_time=1.0, finished_walks=0))
        one_violation(sanitizer, RULE_MIGRATION)

    def test_phantom_delivery_caught(self):
        sanitizer = Sanitizer()
        bus = EventBus()
        bus.attach(sanitizer)
        # A delivery with no matching send duplicates walks out of thin
        # air; caught live, not just at run completion.
        bus.emit(WalksDelivered(src_device=1, dst_device=0, walks=3))
        one_violation(sanitizer, RULE_MIGRATION)

    def test_balanced_migration_is_clean(self):
        sanitizer = Sanitizer()
        bus = EventBus()
        bus.attach(sanitizer)
        bus.emit(WalksMigrated(src_device=0, dst_device=1, walks=5))
        bus.emit(WalksDelivered(src_device=0, dst_device=1, walks=5))
        bus.emit(RunCompleted(total_time=1.0, finished_walks=0))
        assert sanitizer.clean, sanitizer.format_report()


class TestSummary:
    def test_summary_shape(self):
        timeline = Timeline()
        sanitizer = Sanitizer().bind(timeline=timeline)
        timeline.load.schedule(1.0, CAT_WALK_LOAD)
        sanitizer.unbind()
        summary = sanitizer.summary()
        assert summary["clean"] is True
        assert summary["checks"] == 1
        assert summary["violations"] == []
        assert summary["by_rule"] == {}
        assert "clean" in format_summary(summary)

    def test_by_rule_counts(self):
        timeline = Timeline()
        sanitizer = Sanitizer().bind(timeline=timeline)
        timeline.load.schedule(1.0, CAT_WALK_EVICT)
        timeline.load.schedule(1.0, CAT_WALK_EVICT)
        sanitizer.unbind()
        summary = sanitizer.summary()
        assert summary["by_rule"] == {RULE_STREAM_AFFINITY: 2}
        report = format_summary(summary)
        assert RULE_STREAM_AFFINITY in report
        assert "2 violation(s)" in report

    def test_rebinding_timeline_requires_removal(self):
        timeline = Timeline()
        sanitizer = Sanitizer().bind(timeline=timeline)
        with pytest.raises(RuntimeError, match="already has an observer"):
            Sanitizer().bind(timeline=timeline)
        sanitizer.unbind()
        Sanitizer().bind(timeline=timeline).unbind()


class TestElasticFaults:
    """Failure/rebalance invariants: each fault yields one violation."""

    def test_lost_walk_on_failure_caught(self):
        sanitizer = Sanitizer()
        bus = EventBus()
        bus.attach(sanitizer)
        # Device 1 dies with seven pending walks but no recovery ever
        # lands them on a survivor: the failure lost walks.
        bus.emit(DeviceFailed(device=1, iteration=5, pending_walks=7))
        bus.emit(RunCompleted(total_time=1.0, finished_walks=0))
        violation = one_violation(sanitizer, RULE_MIGRATION)
        assert "lost to the failure" in violation.message

    def test_full_recovery_is_clean(self):
        sanitizer = Sanitizer()
        bus = EventBus()
        bus.attach(sanitizer)
        bus.emit(DeviceFailed(device=1, iteration=5, pending_walks=10))
        bus.emit(DeviceRecoveredWalks(src_device=1, dst_device=0, walks=4))
        bus.emit(DeviceRecoveredWalks(src_device=1, dst_device=2, walks=6))
        bus.emit(RunCompleted(total_time=1.0, finished_walks=0))
        assert sanitizer.clean, sanitizer.format_report()

    def test_over_recovery_caught_live(self):
        sanitizer = Sanitizer()
        bus = EventBus()
        bus.attach(sanitizer)
        # Recovery hands out more walks than the dead shard drained;
        # caught at the second DeviceRecoveredWalks, before run end.
        bus.emit(DeviceFailed(device=2, iteration=9, pending_walks=5))
        bus.emit(DeviceRecoveredWalks(src_device=2, dst_device=0, walks=5))
        bus.emit(DeviceRecoveredWalks(src_device=2, dst_device=1, walks=3))
        violation = one_violation(sanitizer, RULE_MIGRATION)
        assert "duplicated" in violation.message

    def test_double_delivery_on_rebalance_caught(self):
        sanitizer = Sanitizer()
        bus = EventBus()
        bus.attach(sanitizer)
        # A rebalance handoff delivered twice: the second delivery has
        # no matching send, duplicating the handed-off walks.
        bus.emit(WalksMigrated(src_device=0, dst_device=1, walks=5))
        bus.emit(WalksDelivered(src_device=0, dst_device=1, walks=5))
        bus.emit(WalksDelivered(src_device=0, dst_device=1, walks=5))
        one_violation(sanitizer, RULE_MIGRATION)

    def test_stale_owner_mask_caught(self):
        sizes = np.full(8, 1024, dtype=np.int64)
        cluster = DeviceCluster(sizes, 2)
        sanitizer = Sanitizer().bind_cluster(cluster)
        bus = EventBus()
        bus.attach(sanitizer)
        foreign = int(cluster.owned_partitions(1)[0])
        # Device 0 iterates over a partition the owner map assigns to
        # device 1: its scheduler decided on a stale owned mask.
        bus.emit(
            IterationStarted(
                iteration=1, partition=foreign, pending_walks=3, device=0
            )
        )
        violation = one_violation(sanitizer, RULE_STALE_OWNER)
        assert "stale owned mask" in violation.message

    def test_iteration_on_failed_device_caught(self):
        sizes = np.full(8, 1024, dtype=np.int64)
        cluster = DeviceCluster(sizes, 2)
        sanitizer = Sanitizer().bind_cluster(cluster)
        bus = EventBus()
        bus.attach(sanitizer)
        orphans = cluster.owned_partitions(1)
        owned = int(orphans[0])
        cluster.fail_device(1)
        cluster.set_owners(orphans, np.zeros(orphans.size, dtype=np.int64))
        bus.emit(
            IterationStarted(
                iteration=1, partition=owned, pending_walks=3, device=1
            )
        )
        violation = one_violation(sanitizer, RULE_STALE_OWNER)
        assert "failed" in violation.message

    def test_current_owner_is_clean(self):
        sizes = np.full(8, 1024, dtype=np.int64)
        cluster = DeviceCluster(sizes, 2)
        sanitizer = Sanitizer().bind_cluster(cluster)
        bus = EventBus()
        bus.attach(sanitizer)
        owned = int(cluster.owned_partitions(0)[0])
        bus.emit(
            IterationStarted(
                iteration=1, partition=owned, pending_walks=3, device=0
            )
        )
        assert sanitizer.clean, sanitizer.format_report()

    def test_rebalance_event_audits_population(self):
        pool0 = DeviceWalkPool(4, batch_capacity=32, capacity_walks=128)
        pool1 = DeviceWalkPool(4, batch_capacity=32, capacity_walks=128)
        sanitizer = (
            Sanitizer()
            .bind_shard(0, device=pool0)
            .bind_shard(1, device=pool1)
        )
        bus = EventBus()
        bus.attach(sanitizer)
        # A handoff that left walk 7 on both the old and new owner.
        pool0.append_walks(0, WalkArrays.fresh([5, 6, 7], first_id=5))
        pool1.append_walks(1, WalkArrays.fresh([8, 9], first_id=7))
        bus.emit(ShardRebalanced(iteration=4, moved_partitions=1,
                                 walks_moved=3))
        sanitizer.unbind()
        one_violation(sanitizer, RULE_CROSS_DEVICE)


class TestRequestConservation:
    """The serving front-end's request-conservation rule.

    Every admitted query must complete exactly once with exactly its
    requested walks before the session's ``RunCompleted``; each
    injected routing fault yields exactly one classified violation.
    """

    @staticmethod
    def _session():
        sanitizer = Sanitizer()
        bus = EventBus()
        bus.attach(sanitizer)
        return sanitizer, bus

    def test_clean_request_lifecycle(self):
        sanitizer, bus = self._session()
        bus.emit(QueryAdmitted(request_id=0, kind="ppr", walks=8))
        bus.emit(QueryAdmitted(request_id=1, kind="uniform", walks=4))
        bus.emit(QueryCompleted(request_id=1, kind="uniform", walks=4))
        bus.emit(QueryCompleted(request_id=0, kind="ppr", walks=8))
        bus.emit(RunCompleted(total_time=1.0, finished_walks=12))
        assert sanitizer.clean, sanitizer.format_report()
        assert sanitizer.checks >= 4

    def test_dropped_completion_caught(self):
        sanitizer, bus = self._session()
        bus.emit(QueryAdmitted(request_id=0, kind="ppr", walks=8))
        # The session finishes without ever routing request 0 back.
        bus.emit(RunCompleted(total_time=1.0, finished_walks=0))
        violation = one_violation(sanitizer, RULE_REQUEST_CONSERVATION)
        assert "never completed" in violation.message

    def test_double_completion_caught(self):
        sanitizer, bus = self._session()
        bus.emit(QueryAdmitted(request_id=3, kind="metapath", walks=5))
        bus.emit(QueryCompleted(request_id=3, kind="metapath", walks=5))
        # The completion router demultiplexes the same request again.
        bus.emit(QueryCompleted(request_id=3, kind="metapath", walks=5))
        bus.emit(RunCompleted(total_time=1.0, finished_walks=10))
        violation = one_violation(sanitizer, RULE_REQUEST_CONSERVATION)
        assert "completed twice" in violation.message

    def test_orphan_completion_caught(self):
        sanitizer, bus = self._session()
        # Walks routed to a request id that was never admitted.
        bus.emit(QueryCompleted(request_id=7, kind="node2vec", walks=6))
        bus.emit(RunCompleted(total_time=1.0, finished_walks=6))
        violation = one_violation(sanitizer, RULE_REQUEST_CONSERVATION)
        assert "never admitted" in violation.message

    def test_lost_walks_in_batch_caught(self):
        sanitizer, bus = self._session()
        bus.emit(QueryAdmitted(request_id=0, kind="ppr", walks=8))
        # The coalesced batch routed back fewer walks than requested.
        bus.emit(QueryCompleted(request_id=0, kind="ppr", walks=5))
        bus.emit(RunCompleted(total_time=1.0, finished_walks=5))
        violation = one_violation(sanitizer, RULE_REQUEST_CONSERVATION)
        assert "lost" in violation.message

    def test_readmitted_request_id_caught(self):
        sanitizer, bus = self._session()
        bus.emit(QueryAdmitted(request_id=2, kind="uniform", walks=4))
        # The admission controller re-issues a live request id.
        bus.emit(QueryAdmitted(request_id=2, kind="uniform", walks=4))
        bus.emit(QueryCompleted(request_id=2, kind="uniform", walks=4))
        bus.emit(RunCompleted(total_time=1.0, finished_walks=4))
        violation = one_violation(sanitizer, RULE_REQUEST_CONSERVATION)
        assert "admitted twice" in violation.message


class TestProvenanceRendering:
    """The trail is stored raw and rendered only when a violation fires."""

    def test_rendered_trail_is_exact(self):
        timeline = Timeline()
        pool = BlockPool(2, name="graph-pool")
        device = DeviceWalkPool(4, batch_capacity=32, capacity_walks=128)
        sanitizer = Sanitizer().bind(
            timeline=timeline, graph_pool=pool, device=device
        )
        bus = EventBus()
        bus.attach(sanitizer)
        event = IterationStarted(iteration=2, partition=0, pending_walks=3)
        bus.emit(event)
        pool.insert(3, "payload")
        timeline.load.schedule(1.0, CAT_WALK_LOAD)
        device.append_walks(0, WalkArrays.fresh([1, 2, 3]))
        device._take(0, 5)
        sanitizer.unbind()
        violation = one_violation(sanitizer, RULE_DOUBLE_CONSUME)
        assert violation.iteration == 2
        assert violation.provenance == (
            f"#1 it=2 {event!r}",
            "#2 it=2 pool graph-pool insert 3",
            "#3 it=2 op load/walk_load start=0.000000e+00 "
            "end=1.000000e+00 earliest=0.000000e+00",
            "#4 it=2 device append part=0 walks=3",
            "#5 it=2 device take part=0 walks=5 buffered=3",
        )

    def test_stream_label_is_per_device_when_sharded(self):
        timelines = [Timeline(), Timeline()]
        sanitizer = Sanitizer()
        for device_id, timeline in enumerate(timelines):
            sanitizer.bind_shard(device_id, timeline=timeline)
        timelines[1].load.schedule(1.0, CAT_WALK_EVICT)
        sanitizer.unbind()
        violation = one_violation(sanitizer, RULE_STREAM_AFFINITY)
        assert violation.provenance[-1].startswith(
            "#1 it=0 op d1:load/walk_evict start="
        )
        assert "'d1:load'" in violation.message


def two_shards():
    """Two bound shards, each a host and a device walk pool."""
    hosts = [HostWalkPool(4, batch_capacity=32) for _ in range(2)]
    devices = [
        DeviceWalkPool(4, batch_capacity=32, capacity_walks=128)
        for _ in range(2)
    ]
    sanitizer = Sanitizer()
    for device_id in range(2):
        sanitizer.bind_shard(
            device_id, host=hosts[device_id], device=devices[device_id]
        )
    return sanitizer, hosts, devices


class TestResidencyAtTheWrite:
    """cross-device-residency is asserted by the pool write that breaks it."""

    def test_over_take_hands_the_observer_live_ids_only(self):
        sanitizer, _, devices = two_shards()
        devices[0].append_walks(0, WalkArrays.fresh([1, 2, 3]))
        # Storage past the tail is uninitialised; make it hostile so an
        # observer indexing with it would raise (or wreck its table).
        devices[0].ids[devices[0].tail[0] :] = np.iinfo(np.int64).max
        devices[0]._take(0, 5)
        one_violation(sanitizer, RULE_DOUBLE_CONSUME)
        # The three live walks did leave device 0: landing them on
        # device 1 is a legal migration, not a second violation.
        devices[1].append_walks(1, WalkArrays.fresh([1, 2, 3]))
        sanitizer.unbind()
        one_violation(sanitizer, RULE_DOUBLE_CONSUME)

    def test_duplicate_through_a_peer_host_pool_caught(self):
        sanitizer, hosts, devices = two_shards()
        devices[0].append_walks(0, WalkArrays.fresh([5, 6, 7], first_id=5))
        # A rebalance hand-off that copied walk 7 into the new owner's
        # host pool without draining it from the old owner's device pool.
        hosts[1].append_walks(2, WalkArrays.fresh([9], first_id=7))
        sanitizer.unbind()
        violation = one_violation(sanitizer, RULE_CROSS_DEVICE)
        assert "[7]" in violation.message
        assert violation.provenance[-1] == "#2 it=0 host append part=2 walks=1"

    def test_evict_to_host_and_reload_is_not_a_departure(self):
        sanitizer, hosts, devices = two_shards()
        devices[0].append_walks(0, WalkArrays.fresh([1, 2, 3]))
        hosts[0].push_batch(0, devices[0].evict_batch(0))
        # Walk 0 sits in device 0's *host* pool now — still resident.
        devices[1].append_walks(0, WalkArrays.fresh([4]))
        one_violation(sanitizer, RULE_CROSS_DEVICE)
        devices[0].load_batch(0, hosts[0].pop_batch(0))
        sanitizer.unbind()
        one_violation(sanitizer, RULE_CROSS_DEVICE)

    def test_reported_at_cause_once(self):
        sanitizer, _, devices = two_shards()
        bus = EventBus()
        bus.attach(sanitizer)
        devices[0].append_walks(0, WalkArrays.fresh([5, 6, 7], first_id=5))
        bus.emit(IterationStarted(iteration=3, partition=0, pending_walks=3))
        devices[1].append_walks(1, WalkArrays.fresh([8, 9], first_id=7))
        checks = sanitizer.checks
        bus.emit(IterationStarted(iteration=4, partition=0, pending_walks=5))
        sanitizer.unbind()
        violation = one_violation(sanitizer, RULE_CROSS_DEVICE)
        assert violation.iteration == 3
        assert violation.provenance[-1] == (
            "#3 it=3 device append part=1 walks=2"
        )
        # The boundary still ticks the rule (checks stay comparable
        # across versions) but does not re-report the resident duplicate.
        assert sanitizer.checks > checks

    def test_one_shard_keeps_no_table(self):
        device = DeviceWalkPool(4, batch_capacity=32, capacity_walks=128)
        sanitizer = Sanitizer().bind(device=device, expected_walks=3)
        device.append_walks(0, WalkArrays.fresh([1, 2, 3]))
        sanitizer.unbind()
        assert sanitizer._where is None

    def test_unbind_removes_host_and_device_hooks(self):
        sanitizer, hosts, devices = two_shards()
        assert all(pool.observer is sanitizer for pool in hosts + devices)
        sanitizer.unbind()
        assert all(pool.observer is None for pool in hosts + devices)

    def test_no_recount_in_a_four_device_run(self, small_graph, monkeypatch):
        """The O(walks) boundary recount cannot creep back unnoticed."""

        def forbidden(*args, **kwargs):
            raise AssertionError("O(walks) recount on the sanitizer path")

        bind_cluster = Sanitizer.bind_cluster

        def bind_cluster_then_forbid(self, cluster):
            # Every shard is bound by now (the one-time snapshot is done).
            monkeypatch.setattr(HostWalkPool, "iter_walks", forbidden)
            monkeypatch.setattr(DeviceWalkPool, "iter_walks", forbidden)
            monkeypatch.setattr(np, "intersect1d", forbidden)
            return bind_cluster(self, cluster)

        calls = {"scatter": 0, "groups": 0, "observed": 0}
        scatter_sorted = DeviceWalkPool.scatter_sorted
        device_appended = Sanitizer.device_appended

        def counted_scatter(self, walks, order, sorted_parts):
            calls["scatter"] += 1
            before = calls["observed"]
            calls["groups"] += scatter_sorted(self, walks, order, sorted_parts)
            assert calls["observed"] == before + 1

        def counted_appended(self, pool, parts, ids):
            calls["observed"] += 1
            device_appended(self, pool, parts, ids)

        monkeypatch.setattr(Sanitizer, "bind_cluster", bind_cluster_then_forbid)
        monkeypatch.setattr(DeviceWalkPool, "scatter_sorted", counted_scatter)
        monkeypatch.setattr(Sanitizer, "device_appended", counted_appended)
        stats = LightTrafficEngine(
            small_graph, PageRank(), sanitized_config(devices=4)
        ).run(400)
        assert stats.sanitizer["clean"], format_summary(stats.sanitizer)
        assert calls["groups"] > calls["scatter"] > 0
