"""Unit tests for graph IO (edge lists, binary CSR)."""

import os

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.builders import from_edges
from repro.graph.io import load_csr, load_edge_list, save_csr, save_edge_list


class TestEdgeListRoundtrip:
    def test_unweighted(self, tmp_path, small_graph):
        path = tmp_path / "g.txt"
        save_edge_list(small_graph, path)
        loaded = load_edge_list(path)
        assert loaded == small_graph

    def test_weighted(self, tmp_path):
        g = from_edges([(0, 1), (1, 0)], num_vertices=2, weights=[0.25, 4.0])
        path = tmp_path / "w.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.is_weighted
        assert loaded == g

    def test_header_and_comments_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n% other comment\n0 1\n1 0\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_no_header(self, tmp_path, line_graph):
        path = tmp_path / "nh.txt"
        save_edge_list(line_graph, path, header=False)
        assert not path.read_text().startswith("#")
        assert load_edge_list(path) == line_graph

    def test_undirected_load(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0 1\n")
        g = load_edge_list(path, undirected=True)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_preprocess_load(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("5 5\n5 9\n9 5\n")
        g = load_edge_list(path, preprocess=True)
        # Self loop dropped, dedup, ids compacted, undirected.
        assert g.num_vertices == 2
        assert g.num_edges == 2

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError, match="malformed"):
            load_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        g = load_edge_list(path)
        assert g.num_vertices == 0
        assert g.num_edges == 0


class TestBinaryCSRRoundtrip:
    def test_unweighted(self, tmp_path, small_graph):
        path = tmp_path / "g.npz"
        save_csr(small_graph, path)
        loaded = load_csr(path)
        assert loaded == small_graph
        assert loaded.name == small_graph.name

    def test_weighted(self, tmp_path):
        g = generators.with_random_weights(generators.ring(8), seed=1)
        path = tmp_path / "w.npz"
        save_csr(g, path)
        loaded = load_csr(path)
        assert loaded.is_weighted
        assert np.allclose(loaded.weights, g.weights)

    def test_bit_exact(self, tmp_path, medium_graph):
        path = tmp_path / "m.npz"
        save_csr(medium_graph, path)
        loaded = load_csr(path)
        assert np.array_equal(loaded.offsets, medium_graph.offsets)
        assert np.array_equal(loaded.targets, medium_graph.targets)


class TestDamagedCSRFile:
    """A bad graph file is a ValueError naming the path, never a raw error."""

    def test_truncated_file(self, tmp_path, small_graph):
        path = tmp_path / "t.npz"
        save_csr(small_graph, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="t.npz"):
            load_csr(path)

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a graph")
        with pytest.raises(ValueError, match="junk.npz.*not an .npz archive"):
            load_csr(path)

    def test_missing_targets_array(self, tmp_path):
        path = tmp_path / "m.npz"
        np.savez(path, offsets=np.array([0, 0], dtype=np.int64))
        with pytest.raises(ValueError, match="m.npz.*no targets array"):
            load_csr(path)

    def test_bad_offsets(self, tmp_path):
        path = tmp_path / "o.npz"
        np.savez(
            path,
            offsets=np.array([0, 2, 1], dtype=np.int64),
            targets=np.array([1], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="o.npz.*non-decreasing"):
            load_csr(path)

    def test_missing_file_stays_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csr(tmp_path / "absent.npz")


class TestAtomicSave:
    def test_failed_write_keeps_the_old_file(self, tmp_path, small_graph,
                                             monkeypatch):
        path = tmp_path / "g.npz"
        save_csr(small_graph, path)
        before = path.read_bytes()

        def crash(handle, **arrays):
            handle.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", crash)
        with pytest.raises(OSError, match="disk full"):
            save_csr(generators.ring(5), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["g.npz"]

    def test_suffix_appended_like_numpy(self, tmp_path, small_graph):
        save_csr(small_graph, tmp_path / "plain")
        assert os.listdir(tmp_path) == ["plain.npz"]
        assert load_csr(tmp_path / "plain.npz") == small_graph
