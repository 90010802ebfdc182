"""Transition-sampler layer: registry, golden parity, distributions, cost."""

import numpy as np
import pytest

from repro.algorithms.node2vec import Node2Vec
from repro.algorithms.sampling import PartitionAliasSampler
from repro.algorithms.transitions import (
    SAMPLER_ALIAS,
    SAMPLER_INVERSE,
    SAMPLER_REJECTION,
    SAMPLER_UNIFORM,
    available_samplers,
    build_alias_tables,
    make_sampler,
    register_sampler,
)
from repro.algorithms.uniform import UniformSampling
from repro.baselines.inmemory_cpu import whole_graph_partition
from repro.core.config import EngineConfig
from repro.core.engine import run_walks
from repro.gpu.calibration import DEFAULT_CALIBRATION
from repro.gpu.device import RTX3090
from repro.gpu.kernels import KernelModel
from repro.graph import generators
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition


def partition_with_weights(offsets, targets, weights):
    """Hand-built partition; CSRGraph itself forbids zero weights, but a
    partition can carry them (e.g. masked edges) — the samplers must
    treat them as unpickable."""
    offsets = np.asarray(offsets, dtype=np.int64)
    return GraphPartition(
        index=0,
        start=0,
        stop=offsets.size - 1,
        offsets=offsets,
        targets=np.asarray(targets, dtype=np.int64),
        weights=np.asarray(weights, dtype=np.float64),
    )


def weighted_graph(seed=3, vertices=400, integer_weights=True):
    """Small weighted graph; integer-valued weights give exact alias parity."""
    g = generators.erdos_renyi(vertices, 6 * vertices, seed=seed)
    rng = np.random.default_rng(seed + 1)
    if integer_weights:
        w = rng.integers(1, 16, size=g.num_edges).astype(np.float64)
    else:
        w = rng.uniform(0.1, 4.0, size=g.num_edges)
    return CSRGraph(g.offsets, g.targets, w, name="weighted-test")


# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = available_samplers()
        for name in (
            SAMPLER_UNIFORM,
            SAMPLER_ALIAS,
            SAMPLER_INVERSE,
            SAMPLER_REJECTION,
        ):
            assert name in names

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            make_sampler("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_sampler(SAMPLER_ALIAS, object)

    def test_config_validates_sampler(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            EngineConfig(sampler="nope")
        assert EngineConfig(sampler=SAMPLER_ALIAS).sampler == SAMPLER_ALIAS


# ----------------------------------------------------------------------
class TestAliasGoldenParity:
    def test_tables_bit_identical_to_loop_build(self):
        g = weighted_graph()
        loop = PartitionAliasSampler(g.offsets, g.weights)
        prob, alias = build_alias_tables(g.offsets, g.weights)
        assert np.array_equal(prob, loop.prob_flat)
        assert np.array_equal(alias, loop.alias_flat)

    def test_sample_bit_identical_to_loop_tables(self):
        g = weighted_graph()
        part = whole_graph_partition(g)
        sampler = make_sampler(SAMPLER_ALIAS)
        vertices = np.random.default_rng(5).integers(
            0, g.num_vertices, size=512
        )
        picks, dead = sampler.sample(part, vertices, np.random.default_rng(9))
        loop = PartitionAliasSampler(g.offsets, g.weights)
        edges = loop.sample_local(vertices, np.random.default_rng(9))
        expected = np.where(edges >= 0, g.targets[np.maximum(edges, 0)],
                            vertices)
        assert np.array_equal(picks, expected)
        assert np.array_equal(dead, edges < 0)

    def test_all_zero_row_rejected(self):
        with pytest.raises(ValueError):
            build_alias_tables(
                np.array([0, 2]), np.array([0.0, 0.0])
            )


# ----------------------------------------------------------------------
def chi_square(counts, probs):
    expected = counts.sum() * probs
    mask = expected > 0
    return float(((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum())


class TestDistributions:
    """Chi-square of each weighted sampler against the true distribution."""

    @pytest.mark.parametrize(
        "name", [SAMPLER_ALIAS, SAMPLER_INVERSE, SAMPLER_REJECTION]
    )
    def test_matches_weights(self, name):
        weights = np.array([1.0, 2.0, 5.0, 0.5, 1.5])
        edges = [(0, t) for t in range(1, 6)]
        edges += [(t, 0) for t in range(1, 6)]
        g = from_edges(
            edges, num_vertices=6,
            weights=list(weights) + [1.0] * 5,
        )
        part = whole_graph_partition(g)
        sampler = make_sampler(name)
        draws = 40_000
        picks, dead = sampler.sample(
            part,
            np.zeros(draws, dtype=np.int64),
            np.random.default_rng(17),
        )
        assert not dead.any()
        counts = np.bincount(picks, minlength=6)[1:]
        probs = weights / weights.sum()
        # df = 4; 18.5 is the p=0.001 cutoff — seeded, so deterministic.
        assert chi_square(counts, probs) < 18.5

    @pytest.mark.parametrize(
        "name", [SAMPLER_ALIAS, SAMPLER_INVERSE, SAMPLER_REJECTION]
    )
    def test_zero_weight_edge_never_picked(self, name):
        # vertex 0 -> {1 (weight 0), 2 (weight 3)}; 1 and 2 point back.
        part = partition_with_weights(
            [0, 2, 3, 4], [1, 2, 0, 0], [0.0, 3.0, 1.0, 1.0]
        )
        sampler = make_sampler(name)
        picks, dead = sampler.sample(
            part,
            np.zeros(2_000, dtype=np.int64),
            np.random.default_rng(23),
        )
        assert not dead.any()
        assert (picks == 2).all()

    @pytest.mark.parametrize(
        "name",
        [SAMPLER_UNIFORM, SAMPLER_ALIAS, SAMPLER_INVERSE, SAMPLER_REJECTION],
    )
    def test_dead_end_stays_put(self, name):
        g = from_edges([(0, 1)], num_vertices=2, weights=[2.0])
        part = whole_graph_partition(g)
        sampler = make_sampler(name)
        picks, dead = sampler.sample(
            part, np.array([1, 1]), np.random.default_rng(1)
        )
        assert dead.all()
        assert picks.tolist() == [1, 1]

    def test_inverse_zero_total_is_dead_end(self):
        # vertex 0's edges all weigh 0 -> no pickable neighbor at all.
        part = partition_with_weights(
            [0, 2, 3, 4], [1, 2, 0, 0], [0.0, 0.0, 1.0, 1.0]
        )
        sampler = make_sampler(SAMPLER_INVERSE)
        picks, dead = sampler.sample(
            part, np.array([0, 1]), np.random.default_rng(2)
        )
        assert dead.tolist() == [True, False]
        assert picks[0] == 0

    def test_weights_required(self):
        g = generators.erdos_renyi(50, 200, seed=1)
        part = whole_graph_partition(g)
        for name in (SAMPLER_ALIAS, SAMPLER_INVERSE, SAMPLER_REJECTION):
            with pytest.raises(ValueError, match="weights"):
                make_sampler(name).sample(
                    part, np.zeros(4, dtype=np.int64), np.random.default_rng(0)
                )


# ----------------------------------------------------------------------
class TestSecondOrder:
    def test_edges_exist_matches_has_edge(self):
        g = generators.rmat(scale=8, edge_factor=5, seed=13)
        rng = np.random.default_rng(7)
        sources = rng.integers(0, g.num_vertices, size=3_000)
        # Half random queries, half guaranteed hits.
        queries = rng.integers(0, g.num_vertices, size=3_000)
        degs = g.offsets[sources + 1] - g.offsets[sources]
        hit = degs > 0
        first = g.targets[g.offsets[sources[hit]]]
        queries[np.nonzero(hit)[0][::2]] = first[::2]
        got = g.edges_exist(sources, queries)
        expected = np.fromiter(
            (g.has_edge(int(s), int(q)) for s, q in zip(sources, queries)),
            dtype=bool,
            count=sources.size,
        )
        assert np.array_equal(got, expected)

    def test_acceptance_bit_identical_to_loop(self):
        g = generators.rmat(scale=8, edge_factor=5, seed=13)
        algo = Node2Vec(length=10, return_param=2.0, inout_param=0.5)
        rng = np.random.default_rng(31)
        prev = rng.integers(0, g.num_vertices, size=800)
        cand = rng.integers(0, g.num_vertices, size=800)
        prev[::7] = -1  # first-step lanes
        assert np.array_equal(
            algo._acceptance(g, prev, cand),
            algo._acceptance_loop(g, prev, cand),
        )

    def test_step_once_trajectories_match_loop_acceptance(self):
        g = generators.rmat(scale=8, edge_factor=5, seed=13)
        part = whole_graph_partition(g)
        vertices = np.random.default_rng(3).integers(
            0, g.num_vertices, size=300
        )
        steps = np.zeros(300, dtype=np.int64)
        ids = np.arange(300, dtype=np.int64)
        results = []
        for use_loop in (False, True):
            algo = Node2Vec(length=10, return_param=2.0, inout_param=0.5)
            algo.start_vertices(g, 300, np.random.default_rng(0))
            if use_loop:
                algo._acceptance = algo._acceptance_loop
            rng = np.random.default_rng(41)
            v, s = vertices.copy(), steps.copy()
            for _ in range(3):
                v, term = algo.step_once(v, s, ids, part, rng, g)
                s += 1
            results.append(v)
        assert np.array_equal(results[0], results[1])

    def test_prev_table_grows_for_unseen_ids(self):
        g = generators.rmat(scale=6, edge_factor=4, seed=2)
        algo = Node2Vec(length=5)
        algo.start_vertices(g, 10, np.random.default_rng(0))
        table = algo._prev_table(np.array([3, 25], dtype=np.int64))
        assert table.size == 26
        assert table[25] == -1


# ----------------------------------------------------------------------
class TestCounterRNG:
    def test_alias_and_inverse_supported(self):
        g = weighted_graph(vertices=120)
        for name in (SAMPLER_ALIAS, SAMPLER_INVERSE):
            algo = UniformSampling(length=4, weighted=True, sampler=name)
            stats = run_walks(
                g, algo, 30,
                EngineConfig(
                    partition_bytes=4096, batch_walks=16, rng_mode="counter"
                ),
            )
            assert stats.total_steps == 120

    def test_rejection_refused(self):
        g = weighted_graph(vertices=120)
        algo = UniformSampling(
            length=4, weighted=True, sampler=SAMPLER_REJECTION
        )
        with pytest.raises(ValueError, match="subset redraws"):
            run_walks(
                g, algo, 30,
                EngineConfig(partition_bytes=4096, rng_mode="counter"),
            )


# ----------------------------------------------------------------------
class TestFallbackObservability:
    def test_saturation_reaches_run_stats(self):
        g = weighted_graph(vertices=200, integer_weights=False)
        algo = UniformSampling(
            length=6,
            weighted=True,
            sampler=SAMPLER_REJECTION,
            max_reject_rounds=1,
        )
        stats = run_walks(
            g, algo, 150, EngineConfig(partition_bytes=4096, batch_walks=32)
        )
        assert stats.total_steps == 900
        assert stats.sampler_fallbacks > 0

    def test_clean_run_reports_zero(self):
        g = weighted_graph(vertices=200)
        algo = UniformSampling(length=6, weighted=True, sampler=SAMPLER_ALIAS)
        stats = run_walks(
            g, algo, 100, EngineConfig(partition_bytes=4096, batch_walks=32)
        )
        assert stats.sampler_fallbacks == 0


# ----------------------------------------------------------------------
class TestEngineSamplerConfig:
    def test_config_override_applies(self):
        g = weighted_graph(vertices=150)
        algo = UniformSampling(length=4, weighted=True, sampler=SAMPLER_ALIAS)
        run_walks(
            g, algo, 20,
            EngineConfig(partition_bytes=4096, sampler=SAMPLER_INVERSE),
        )
        assert algo.sampler == SAMPLER_INVERSE

    def test_override_rejected_for_fixed_algorithms(self):
        from repro.algorithms.pagerank import PageRank

        g = generators.erdos_renyi(100, 400, seed=1)
        with pytest.raises(ValueError, match="does not support"):
            run_walks(
                g, PageRank(length=4), 10,
                EngineConfig(partition_bytes=4096, sampler=SAMPLER_ALIAS),
            )

    @pytest.mark.parametrize(
        "name", [SAMPLER_ALIAS, SAMPLER_INVERSE, SAMPLER_REJECTION]
    )
    def test_engine_runs_every_sampler(self, name):
        g = weighted_graph(vertices=150)
        algo = UniformSampling(length=5, weighted=True, sampler=name)
        stats = run_walks(
            g, algo, 40, EngineConfig(partition_bytes=4096, batch_walks=16)
        )
        assert stats.total_steps == 200


# ----------------------------------------------------------------------
class TestSamplerCostModel:
    def test_calibration_extra_cycles(self):
        cal = DEFAULT_CALIBRATION
        assert cal.sampler_extra_cycles("uniform") == 0.0
        assert cal.step_cycles_for("uniform") == cal.step_cycles_base
        for name in ("alias", "inverse", "rejection", "second_order"):
            assert cal.step_cycles_for(name) > cal.step_cycles_base
        with pytest.raises(ValueError, match="no cost calibration"):
            cal.sampler_extra_cycles("nope")

    def test_kernel_update_time_charges_sampler(self):
        model = KernelModel(RTX3090, DEFAULT_CALIBRATION)
        base = model.update_time(1_000, 10, 64 * 1024, sampler="uniform")
        assert model.update_time(1_000, 10, 64 * 1024) == base
        assert model.update_time(1_000, 10, 64 * 1024, sampler="alias") > base

    def test_cpu_multiplier(self):
        from repro.baselines.cpumodel import CPUCostModel, XEON_GOLD_5218R

        model = CPUCostModel(XEON_GOLD_5218R)
        assert model.sampler_cost_multiplier("uniform") == 1.0
        assert model.sampler_cost_multiplier("alias") > 1.0
        with pytest.raises(ValueError):
            model.sampler_cost_multiplier("nope")

    def test_reshuffle_serial_seconds_consistent(self):
        model = KernelModel(RTX3090, DEFAULT_CALIBRATION)
        serial = model.reshuffle_serial_seconds(12)
        assert model.reshuffle_time(1, 12) == serial
        lanes = DEFAULT_CALIBRATION.reshuffle_parallel_lanes
        n = 5 * lanes
        assert model.reshuffle_time(n, 12) == n * serial / lanes
