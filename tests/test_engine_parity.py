"""Regression: the stage/event-bus engine matches the pre-refactor engine.

``tests/data/engine_parity_golden.json`` holds RunStats captured from the
monolithic ``LightTrafficEngine.run`` *before* it was decomposed into
pipeline stages publishing on an :class:`~repro.core.events.EventBus`.
Every counter and simulated time must stay bit-identical across all
selective/preemptive/copy-mode combinations — the refactor moved
observation out of the loop, it must not move the simulation.
"""

import json
from pathlib import Path

import pytest

from repro.algorithms import PageRank, PersonalizedPageRank
from repro.core.config import EngineConfig
from repro.core.engine import LightTrafficEngine
from repro.graph import generators

GOLDEN_PATH = Path(__file__).parent / "data" / "engine_parity_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def parity_graph():
    # Must match the capture script exactly (same seed, same generator).
    return generators.rmat(scale=10, edge_factor=6, seed=7, name="small")


def _case_id(record):
    return (
        f"{record.get('algorithm', 'pagerank')}-"
        f"sel={record['selective']}-pre={record['preemptive']}-"
        f"{record['copy_mode']}"
    )


def _build_engine(record, parity_graph, sanitize=False):
    if record.get("algorithm") == "ppr":
        algorithm = PersonalizedPageRank(stop_prob=0.2)
        config = EngineConfig(
            partition_bytes=2048,
            batch_walks=32,
            graph_pool_partitions=4,
            seed=123,
        )
        num_walks = 200
    else:
        algorithm = PageRank(length=8)
        config = EngineConfig(
            partition_bytes=2048,
            batch_walks=32,
            graph_pool_partitions=4,
            walk_pool_walks=256,
            selective=record["selective"],
            preemptive=record["preemptive"],
            copy_mode=record["copy_mode"],
            seed=123,
        )
        num_walks = 300

    if sanitize:
        config = config.with_options(sanitize=True)
    return LightTrafficEngine(parity_graph, algorithm, config), num_walks


def _run_record(record, parity_graph, sanitize=False):
    engine, num_walks = _build_engine(record, parity_graph, sanitize)
    return engine.run(num_walks)


@pytest.mark.parametrize("record", GOLDEN, ids=_case_id)
def test_stats_bit_identical_to_pre_refactor_engine(record, parity_graph):
    stats = _run_record(record, parity_graph)

    assert stats.iterations == record["iterations"]
    assert stats.total_steps == record["total_steps"]
    assert stats.explicit_copies == record["explicit_copies"]
    assert stats.zero_copy_iterations == record["zero_copy_iterations"]
    assert stats.graph_pool_hits == record["graph_pool_hits"]
    assert stats.graph_pool_misses == record["graph_pool_misses"]
    assert stats.walk_batches_loaded == record["walk_batches_loaded"]
    assert stats.walk_batches_evicted == record["walk_batches_evicted"]
    # bit-identical simulated times, not approx: same float operations in
    # the same order
    assert stats.total_time == record["total_time"]
    assert stats.breakdown == record["breakdown"]


@pytest.mark.parametrize("record", GOLDEN, ids=_case_id)
def test_golden_parity_holds_under_sanitizer(record, parity_graph):
    """The sanitizer is pure observation: goldens stay bit-identical."""
    stats = _run_record(record, parity_graph, sanitize=True)

    assert stats.sanitizer is not None
    assert stats.sanitizer["clean"], stats.sanitizer
    assert stats.iterations == record["iterations"]
    assert stats.total_steps == record["total_steps"]
    assert stats.total_time == record["total_time"]
    assert stats.breakdown == record["breakdown"]


@pytest.mark.parametrize("record", GOLDEN, ids=_case_id)
def test_single_shard_cluster_bit_identical(record, parity_graph):
    """The golden runs *are* 1-shard cluster runs: there is one loop.

    ``MultiDeviceEngine`` is only another name for the engine, so the
    bit-identity itself is what the golden test above checks; this adds
    that the one shard carries no cluster state — it owns every partition
    in the scheduler's mask, no migration router, no channel streams.
    """
    from repro.core.cluster import MultiDeviceEngine

    assert MultiDeviceEngine.run is LightTrafficEngine.run
    engine, num_walks = _build_engine(record, parity_graph)
    stats = engine.run(num_walks)
    assert stats.num_devices == 1
    assert stats.walks_migrated == 0
    assert stats.device_times is None
    (shard,) = engine._shards
    assert shard.ctx.scheduler.owned.all()
    assert shard.ctx.router is None
    assert not engine._cluster.channels
    assert engine._timelines == [engine._timeline]


def test_golden_covers_every_scheduler_combination():
    combos = {
        (r["selective"], r["preemptive"], r["copy_mode"])
        for r in GOLDEN
        if r.get("algorithm") != "ppr"
    }
    assert len(combos) == 12  # 2 x 2 x {adaptive, explicit, zero_copy}
