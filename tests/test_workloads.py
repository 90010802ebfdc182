"""Unit tests for the benchmark workload registry and platform scaling."""

import dataclasses
import math

import pytest

from repro.bench.workloads import (
    DATASETS,
    SIM_SCALE,
    SimPlatform,
    default_platform,
    load_dataset,
    standard_config,
    standard_walks,
    user_scale,
)
from repro.gpu.device import RTX3090
from repro.gpu.pcie import PCIE3


class TestRegistry:
    def test_all_paper_datasets_present(self):
        assert set(DATASETS) == {
            "lj-sim",
            "or-sim",
            "tw-sim",
            "fs-sim",
            "uk-sim",
            "yh-sim",
            "cw-sim",
        }

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("nope")

    def test_smallest_dataset_loads_and_caches(self):
        a = load_dataset("lj-sim")
        b = load_dataset("lj-sim")
        assert a is b  # in-process memoization
        assert a.num_vertices > 1000
        assert a.degrees().min() >= 1

    def test_unreadable_cache_file_is_rebuilt(self, tmp_path, monkeypatch):
        from repro.bench import workloads
        from repro.graph.io import load_csr

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SCALE", "0.125")  # lj-sim at scale 9
        monkeypatch.setattr(workloads, "_CACHE", {})
        path = tmp_path / "lj-sim-s9.npz"
        path.write_bytes(b"PK\x03\x04 truncated")
        graph = load_dataset("lj-sim")
        assert graph.num_vertices > 100
        assert load_csr(path) == graph  # the bad file was overwritten


class TestUserScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert user_scale() == 1.0

    def test_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert user_scale() == 0.5

    def test_invalid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "zero")
        with pytest.raises(ValueError, match="float"):
            user_scale()

    def test_out_of_range(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        with pytest.raises(ValueError, match="in \\(0, 1\\]"):
            user_scale()


class TestPlatform:
    def test_scaled_sizes(self):
        platform = default_platform()
        assert platform.device.mem_bytes < RTX3090.mem_bytes
        assert platform.device.l2_bytes < RTX3090.l2_bytes
        assert platform.cpu.llc_bytes < 55 * (1 << 20)
        assert platform.calibration.sim_scale == SIM_SCALE

    def test_latency_scaled(self):
        platform = default_platform()
        assert platform.pcie3.latency_seconds == pytest.approx(
            PCIE3.latency_seconds * SIM_SCALE
        )
        # Bandwidth is NOT scaled (it is a rate, not a size).
        assert platform.pcie3.bandwidth == PCIE3.bandwidth

    def test_interconnect_lookup(self):
        platform = default_platform()
        assert platform.interconnect("pcie4").bandwidth == pytest.approx(24e9)
        with pytest.raises(KeyError):
            platform.interconnect("pcie5")

    def test_fit_boundary_matches_paper(self):
        """FS fits GPU memory; UK/YH/CW do not (paper §IV-A)."""
        platform = default_platform()
        for name, spec in DATASETS.items():
            if name in ("lj-sim", "fs-sim"):
                graph = load_dataset(name)
                assert (
                    graph.csr_bytes <= platform.gpu_memory_bytes
                ) == spec.fits_gpu_memory


class TestStandardConfig:
    def test_walk_count(self):
        graph = load_dataset("lj-sim")
        assert standard_walks(graph) == 2 * graph.num_vertices

    def test_fitting_graph_caches_all_partitions(self):
        graph = load_dataset("lj-sim")
        config = standard_config(graph)
        partitions = math.ceil(graph.csr_bytes / config.partition_bytes)
        assert config.graph_pool_partitions == max(2, partitions)

    def test_overrides_respected(self):
        graph = load_dataset("lj-sim")
        config = standard_config(graph, graph_pool_partitions=3, seed=9)
        assert config.graph_pool_partitions == 3
        assert config.seed == 9

    def test_interconnect_choice(self):
        graph = load_dataset("lj-sim")
        config = standard_config(graph, interconnect="pcie4")
        assert config.interconnect.bandwidth == pytest.approx(24e9)

    def test_batch_is_fraction_of_partition_walks(self):
        graph = load_dataset("lj-sim")
        config = standard_config(graph)
        assert 64 <= config.batch_walks <= 8192


class TestWalkIndexPressure:
    def test_cw_uniform_walk_index_strains_pool_budget(self):
        """Paper §II-B motivates out-of-memory walk indexes with CW: its
        walk index is the largest.  At our per-dataset scales the 16-byte
        uniform-sampling index of 2|V| CW walks exceeds the walk pool's
        byte budget (the walk-count cap is set from the 8-byte S_w)."""
        graph = load_dataset("cw-sim")
        config = standard_config(graph)
        platform = default_platform()
        walk_byte_budget = platform.gpu_memory_bytes * 0.4
        assert 16 * standard_walks(graph) > walk_byte_budget
        # And CW has the most walks of any dataset, as in the paper.
        assert standard_walks(graph) == max(
            standard_walks(load_dataset(n)) for n in DATASETS
        )

    def test_small_graph_walks_fit(self):
        graph = load_dataset("lj-sim")
        config = standard_config(graph)
        assert config.walk_pool_walks >= standard_walks(graph)
