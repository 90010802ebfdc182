"""Execution backends (:mod:`repro.backends`).

Conformance matrix: every real backend (numba pure-Python kernels via a
forced availability flag, multiprocess shared-memory precompute, and —
when the optional dependency is installed — real JIT numba) must
reproduce the ``simulated`` baseline bit-identically across transition
samplers and device counts, sanitizer-clean.  Plus the replayability
gates, the registry, the measured-timings surface and the CLI exit
codes for unavailable backends.
"""

import numpy as np
import pytest

from repro import cli
from repro.algorithms import PageRank, UniformSampling
from repro.backends import (
    BACKEND_MULTIPROCESS,
    BACKEND_NUMBA,
    BACKEND_SIMULATED,
    BackendUnavailable,
    available_backends,
    make_backend,
)
from repro.backends import numba_kernels
from repro.core.config import EngineConfig
from repro.core.engine import LightTrafficEngine
from repro.gpu.kernels import fit_time_scale, relative_errors
from repro.graph import generators
from repro.graph.partition import partition_by_range
from repro.walks.state import WalkArrays

NUMBA_INSTALLED = numba_kernels.NUMBA_AVAILABLE
REAL_BACKENDS = (BACKEND_NUMBA, BACKEND_MULTIPROCESS)
SAMPLERS = ("uniform", "alias", "inverse")

#: Run facts that must match the simulated baseline exactly.
IDENTITY_FIELDS = (
    "total_steps",
    "iterations",
    "total_time",
    "walks_migrated",
    "explicit_copies",
    "walk_batches_evicted",
)


def force_numba(monkeypatch):
    """Exercise the numba kernels' pure-Python path when numba is absent."""
    if not NUMBA_INSTALLED:
        monkeypatch.setattr(numba_kernels, "NUMBA_AVAILABLE", True)


def backend_config(backend, *, devices=1, **overrides):
    config = dict(
        partition_bytes=2048,
        batch_walks=64,
        graph_pool_partitions=4,
        walk_pool_walks=256,
        seed=11,
        rng_mode="counter",
        backend=backend,
        devices=devices,
        sanitize=True,
    )
    config.update(overrides)
    return EngineConfig(**config)


def run_backend(graph, backend, *, sampler="uniform", length=8, walks=300,
                **overrides):
    weighted = sampler != "uniform"
    algorithm = UniformSampling(
        length=length, weighted=weighted, sampler=sampler
    )
    config = backend_config(backend, **overrides)
    return LightTrafficEngine(graph, algorithm, config).run(walks)


@pytest.fixture(scope="module")
def plain_graph():
    return generators.rmat(scale=9, edge_factor=6, seed=5, name="bk-plain")


@pytest.fixture(scope="module")
def weighted_graph():
    graph = generators.rmat(scale=9, edge_factor=6, seed=5, name="bk-wt")
    return generators.with_random_weights(graph, seed=6)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert BACKEND_SIMULATED in names
        assert BACKEND_NUMBA in names
        assert BACKEND_MULTIPROCESS in names

    def test_unknown_backend_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("cuda")

    def test_simulated_always_constructible(self):
        backend = make_backend(BACKEND_SIMULATED)
        assert backend.name == BACKEND_SIMULATED

    @pytest.mark.skipif(NUMBA_INSTALLED, reason="numba is installed here")
    def test_numba_distinct_from_unknown_when_missing(self):
        # Known-but-unavailable is BackendUnavailable, not ValueError.
        with pytest.raises(BackendUnavailable, match="numba"):
            make_backend(BACKEND_NUMBA)


class TestConformanceMatrix:
    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_run_facts_match_simulated(
        self, backend, sampler, plain_graph, weighted_graph, monkeypatch
    ):
        if backend == BACKEND_NUMBA:
            force_numba(monkeypatch)
        graph = plain_graph if sampler == "uniform" else weighted_graph
        base = run_backend(graph, BACKEND_SIMULATED, sampler=sampler)
        real = run_backend(graph, backend, sampler=sampler)
        for field in IDENTITY_FIELDS:
            assert getattr(real, field) == getattr(base, field), field
        assert real.backend == backend

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_sanitizer_clean(self, backend, plain_graph, monkeypatch):
        if backend == BACKEND_NUMBA:
            force_numba(monkeypatch)
        stats = run_backend(plain_graph, backend)
        assert stats.sanitizer is not None
        assert stats.sanitizer["clean"]

    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_multi_device_migrations_match(
        self, backend, plain_graph, monkeypatch
    ):
        if backend == BACKEND_NUMBA:
            force_numba(monkeypatch)
        base = run_backend(plain_graph, BACKEND_SIMULATED, devices=2)
        real = run_backend(plain_graph, backend, devices=2)
        assert base.walks_migrated > 0
        for field in IDENTITY_FIELDS:
            assert getattr(real, field) == getattr(base, field), field

    @pytest.mark.skipif(
        not NUMBA_INSTALLED, reason="optional numba not installed"
    )
    def test_real_numba_jit_matches_simulated(self, plain_graph):
        base = run_backend(plain_graph, BACKEND_SIMULATED)
        real = run_backend(plain_graph, BACKEND_NUMBA)
        for field in IDENTITY_FIELDS:
            assert getattr(real, field) == getattr(base, field), field


class TestMeasuredTimings:
    def test_simulated_backend_reports_wall_clock(self, plain_graph):
        stats = run_backend(plain_graph, BACKEND_SIMULATED)
        measured = stats.measured
        assert measured is not None
        assert measured["num_kernels"] > 0
        assert measured["walk_update_seconds"] > 0.0
        assert len(measured["kernels"]) == measured["num_kernels"]
        record = measured["kernels"][0]
        for key in ("partition", "lanes", "total_steps", "longest_run",
                    "partition_nbytes", "sampler", "seconds"):
            assert key in record

    def test_measured_steps_sum_to_simulated_total(self, plain_graph):
        stats = run_backend(plain_graph, BACKEND_MULTIPROCESS)
        kernels = stats.measured["kernels"]
        assert sum(r["total_steps"] for r in kernels) == stats.total_steps


class TestGating:
    def test_sequential_rng_rejected_at_config(self):
        # EngineConfig defaults to rng_mode="sequential".
        with pytest.raises(ValueError, match="rng_mode"):
            EngineConfig(backend=BACKEND_MULTIPROCESS)

    def test_unknown_backend_rejected_at_config(self):
        with pytest.raises(ValueError, match="unknown backend"):
            EngineConfig(backend="cuda", rng_mode="counter")

    def test_subset_draw_sampler_rejected(self, weighted_graph):
        algorithm = UniformSampling(
            length=4, weighted=True, sampler="rejection"
        )
        engine = LightTrafficEngine(
            weighted_graph, algorithm, backend_config(BACKEND_MULTIPROCESS)
        )
        with pytest.raises(ValueError, match="subset"):
            engine.run(50)

    def test_step_once_override_rejected(self, plain_graph):
        engine = LightTrafficEngine(
            plain_graph, PageRank(length=4),
            backend_config(BACKEND_MULTIPROCESS),
        )
        with pytest.raises(ValueError, match="step_once"):
            engine.run(50)

    def test_path_recording_rejected(self, plain_graph):
        algorithm = UniformSampling(length=4, record_paths=True)
        engine = LightTrafficEngine(
            plain_graph, algorithm, backend_config(BACKEND_MULTIPROCESS)
        )
        with pytest.raises(ValueError, match="path recording"):
            engine.run(50)

    def test_multiprocess_requires_contiguous_ids(self, plain_graph):
        backend = make_backend(BACKEND_MULTIPROCESS)
        backend.bind(
            plain_graph,
            partition_by_range(plain_graph, 2048),
            UniformSampling(length=4),
            backend_config(BACKEND_MULTIPROCESS),
        )
        walks = WalkArrays.fresh(np.zeros(6, dtype=np.int64))
        holey = walks.select(np.array([0, 2, 4]))
        with pytest.raises(ValueError, match="contiguous"):
            backend.on_walks_seeded(holey)
        backend.close()


class TestModelFitHelpers:
    def test_fit_recovers_exact_scale(self):
        predicted = [1.0, 2.0, 4.0]
        measured = [2.0, 4.0, 8.0]
        scale = fit_time_scale(predicted, measured)
        assert scale == pytest.approx(2.0)
        errors = relative_errors(predicted, measured, scale)
        assert errors == pytest.approx([0.0, 0.0, 0.0])

    def test_degenerate_inputs_yield_zero_scale(self):
        assert fit_time_scale([], []) == 0.0
        assert fit_time_scale([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            fit_time_scale([1.0], [])
        with pytest.raises(ValueError):
            relative_errors([1.0], [], 1.0)

    def test_relative_errors_skip_zero_measurements(self):
        errors = relative_errors([1.0, 1.0], [0.0, 2.0], 1.0)
        assert errors == pytest.approx([0.5])


class TestCliSurface:
    def test_backend_numba_missing_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(numba_kernels, "NUMBA_AVAILABLE", False)
        rc = cli.main(["run", "--dataset", "uk-sim", "--backend", "numba"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "numba" in captured.err
        assert "--backend multiprocess" in captured.err

    def test_backend_limited_to_lighttraffic(self, capsys):
        rc = cli.main(
            ["run", "--dataset", "uk-sim", "--system", "thunderrw",
             "--backend", "multiprocess"]
        )
        assert rc == 2
        assert "--backend" in capsys.readouterr().err

    def test_rejects_unknown_backend_name(self, capsys):
        rc = cli.main(["run", "--dataset", "uk-sim", "--backend", "cuda"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "'cuda'" in captured.err
        # the hint must list every registered name so users can pick one
        for name in available_backends():
            assert name in captured.err


class TestLifecycleAndLeaks:
    """The backend typestate contract and the shared-memory leak fix.

    Fault injection: a failure in any setup step after the first
    SharedMemory block exists (worker spawn, exit-table build) must
    release and unlink every block already registered — the scenario
    the `leaked-resource` static rule guards against.
    """

    def _bound_backend(self, graph):
        from repro.backends.multiprocess import MultiprocessBackend

        backend = MultiprocessBackend()
        algorithm = UniformSampling(length=4)
        config = backend_config(BACKEND_MULTIPROCESS)
        pgraph = partition_by_range(graph, config.partition_bytes)
        backend.bind(graph, pgraph, algorithm, config)
        return backend

    @pytest.mark.parametrize("failing", ["_run_workers", "_build_exit_table"])
    def test_seed_failure_releases_every_block(
        self, plain_graph, monkeypatch, failing
    ):
        from multiprocessing import shared_memory

        backend = self._bound_backend(plain_graph)
        block_names = []

        def boom(*args, **kwargs):
            block_names.extend(shm.name for shm in backend._shms)
            raise RuntimeError("injected setup failure")

        monkeypatch.setattr(backend, failing, boom)
        walks = WalkArrays.fresh(np.zeros(64, dtype=np.int64))
        with pytest.raises(RuntimeError, match="injected setup failure"):
            backend.on_walks_seeded(walks)
        assert backend._shms == []
        # The failure happened after real allocations, and every one of
        # them was unlinked: reattaching by name must fail.
        assert len(block_names) >= 4
        for name in block_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_failed_backend_is_closed_for_good(self, plain_graph, monkeypatch):
        backend = self._bound_backend(plain_graph)
        monkeypatch.setattr(
            backend,
            "_run_workers",
            lambda n: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError):
            backend.on_walks_seeded(WalkArrays.fresh(np.zeros(8, dtype=np.int64)))
        assert backend.closed
        config = backend_config(BACKEND_MULTIPROCESS)
        pgraph = partition_by_range(plain_graph, config.partition_bytes)
        with pytest.raises(RuntimeError, match="was closed"):
            backend.bind(plain_graph, pgraph, UniformSampling(length=4), config)

    def test_close_is_idempotent(self, plain_graph):
        backend = self._bound_backend(plain_graph)
        backend.close()
        backend.close()
        assert backend.closed and backend._shms == []

    def test_successful_run_leaves_no_blocks_behind(self, plain_graph):
        from multiprocessing import shared_memory

        backend = self._bound_backend(plain_graph)
        walks = WalkArrays.fresh(np.zeros(32, dtype=np.int64))
        backend.on_walks_seeded(walks)
        block_names = [shm.name for shm in backend._shms]
        assert block_names
        backend.close()
        assert backend._shms == []
        for name in block_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
