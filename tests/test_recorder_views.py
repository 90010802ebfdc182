"""One bus recorder, three views: ``RunStats``, ``RunStats.metrics`` and the
per-iteration trace are read off the same accumulated records, so they must
agree with each other on every bus-routed system."""

import pytest

from repro.algorithms import PageRank
from repro.baselines import (
    MultiRoundEngine,
    SubwayConfig,
    SubwayEngine,
    UVMConfig,
    UVMEngine,
)
from repro.core.config import FailureSchedule
from repro.core.engine import LightTrafficEngine
from repro.core.events import (
    SERVED_EXPLICIT,
    SERVED_ZERO_COPY,
    EventBus,
    RunCompleted,
)
from repro.core.metrics import MetricsCollector
from repro.core.stats import StatsCollector
from repro.core.trace import TraceRecorder

WALKS = 300
ROUNDS = 3


def algorithm():
    return PageRank(length=8)


def build(system, graph, config, trace=None, bus=None):
    """The engine for ``system`` plus how many runs one ``run()`` completes."""
    if system.startswith("lighttraffic"):
        overrides = {
            "lighttraffic-1": dict(devices=1, walk_pool_walks=128),
            "lighttraffic-2": dict(devices=2, walk_pool_walks=128),
            "lighttraffic-failure": dict(
                devices=3, failure_schedule=FailureSchedule.single(1, 6)
            ),
        }[system]
        engine = LightTrafficEngine(
            graph,
            algorithm(),
            config.with_options(**overrides),
            trace=trace,
            bus=bus,
        )
        return engine, 1
    if system == "subway":
        return SubwayEngine(graph, algorithm(), SubwayConfig(), bus=bus), 1
    if system == "uvm":
        return UVMEngine(graph, algorithm(), UVMConfig(), bus=bus), 1
    engine = MultiRoundEngine(
        graph, algorithm, config, rounds=ROUNDS, bus=bus
    )
    return engine, ROUNDS


@pytest.mark.parametrize(
    "system",
    [
        "lighttraffic-1",
        "lighttraffic-2",
        "lighttraffic-failure",
        "subway",
        "uvm",
        "multiround",
    ],
)
def test_run_stats_equal_the_sums_over_the_metrics_records(
    system, small_graph, tiny_config
):
    traced = system.startswith("lighttraffic")
    trace = TraceRecorder() if traced else None
    engine, runs = build(system, small_graph, tiny_config, trace=trace)
    stats = engine.run(WALKS)
    metrics = stats.metrics
    partitions = list(metrics["partitions"].values())
    devices = list(metrics["devices"].values())

    def over(records, key):
        return sum(record[key] for record in records)

    assert stats.iterations > 0
    assert stats.iterations == metrics["iterations"]
    assert stats.iterations == over(devices, "iterations")
    modes = metrics["serve_mode_totals"]
    assert stats.explicit_copies == modes[SERVED_EXPLICIT]
    assert stats.zero_copy_iterations == modes[SERVED_ZERO_COPY]
    for mode, total in modes.items():
        assert total == sum(p["serve_modes"][mode] for p in partitions)
    assert stats.walk_batches_loaded == over(partitions, "batches_loaded")
    assert stats.walk_batches_evicted == over(partitions, "batches_evicted")
    assert stats.total_steps > 0
    assert stats.total_steps == over(partitions, "steps")
    assert stats.total_steps == over(devices, "steps")
    assert stats.sampler_fallbacks == over(partitions, "sampler_fallbacks")
    assert stats.walks_migrated == over(devices, "walks_migrated_out")
    assert stats.walks_recovered == over(devices, "walks_recovered")
    assert stats.device_failures == sum(
        d["failed_at_iteration"] is not None for d in devices
    )
    assert stats.rebalances == metrics["rebalances"]
    assert stats.queries_admitted == metrics["queries"]["admitted"]
    assert stats.queries_completed == metrics["queries"]["completed"]
    assert over(partitions, "walks_finished") == WALKS
    # The snapshot is taken after the recorder handled RunCompleted.
    assert metrics["runs_completed"] == runs
    assert metrics["total_time"] == stats.total_time > 0

    if system == "lighttraffic-2":
        assert stats.walks_migrated > 0
        assert stats.walk_batches_evicted > 0
    if system == "lighttraffic-failure":
        assert stats.device_failures == 1
        assert stats.walks_recovered > 0
    if traced:
        records = trace.iterations
        assert len(records) == stats.iterations
        assert sum(it.steps for it in records) == stats.total_steps
        served = trace.served_counts()
        assert served == modes
        assert (
            sum(it.evicted_batches for it in records)
            == stats.walk_batches_evicted
        )
        assert trace.preemption_fraction() == pytest.approx(
            metrics["preemption_fraction"]
        )


def test_snapshot_is_taken_after_run_completed(small_graph, tiny_config):
    """``RunStats.metrics`` used to be snapshotted before its collector had
    handled ``RunCompleted`` (``runs_completed`` 0, ``total_time`` 0.0)."""
    stats = LightTrafficEngine(small_graph, algorithm(), tiny_config).run(
        WALKS
    )
    assert stats.metrics["runs_completed"] == 1
    assert stats.metrics["total_time"] == stats.total_time


def test_recorder_shared_across_rounds_accumulates_like_the_aggregate(
    small_graph, tiny_config
):
    bus = EventBus()
    shared = bus.attach(MetricsCollector())
    round_times = []
    bus.subscribe(RunCompleted, lambda e: round_times.append(e.total_time))
    engine, _ = build("multiround", small_graph, tiny_config, bus=bus)
    stats = engine.run(WALKS)
    assert len(round_times) == ROUNDS
    assert shared.runs_completed == ROUNDS
    assert shared.total_time == stats.total_time == sum(round_times, 0.0)
    assert shared.snapshot() == stats.metrics


def test_stats_collector_is_the_recorder():
    """The alias the frozen perf tracing table resolves by name."""
    assert StatsCollector is MetricsCollector
