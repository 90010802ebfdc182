"""Multiprocess backend: shared-memory workers precompute trajectories.

One worker per device shard (``EngineConfig.devices``) forks off the
coordinator with the CSR arrays and the walk/trajectory tables living in
``multiprocessing.shared_memory`` blocks, and precomputes the *entire*
trajectory of its contiguous walk-id range — legal because the counter
RNG keys every draw by ``(seed, walk_id, step, draw_index)``, so a
walk's path is independent of the engine's batching schedule.  The
engine's subsequent ``advance`` calls then reduce to table lookups: an
exit table maps ``(step, walk_id)`` to the step at which that walk next
leaves its current partition (or terminates), which reproduces
``advance_in_partition``'s in-place updates and
:class:`~repro.algorithms.base.BatchRunResult` exactly.

The fork start method shares the mappings with zero copies and no
name-reattachment (only the parent ever registers/unlinks the blocks);
where ``fork`` is unavailable, or with a single worker, the precompute
runs in-process — same arrays, same results.  Everything here is
standard library + numpy: this backend stays dependency-free.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import BatchRunResult, uniform_neighbors
from repro.algorithms.transitions import SAMPLER_UNIFORM, make_sampler
from repro.algorithms.transitions.base import TransitionSampler
from repro.backends.base import ExecutionBackend, require_lockstep_algorithm
from repro.core.config import EngineConfig
from repro.core.prng import CounterRNG
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition, PartitionedGraph
from repro.walks.state import WalkArrays

#: Refuse trajectory tables past this size; the workload must be batched
#: upstream instead (the bench graphs are far below it).
_MAX_SHARED_BYTES = 4 << 30


class MultiprocessBackend(ExecutionBackend):
    """Shared-memory trajectory precompute with one worker per shard."""

    name = "multiprocess"

    def __init__(self) -> None:
        super().__init__()
        self._length = 0
        self._steps_cap = 1
        self._seed = 0
        self._weighted = False
        self._sampler_name = SAMPLER_UNIFORM
        self._workers = 1
        self._shms: List[shared_memory.SharedMemory] = []
        self._offsets: Optional[np.ndarray] = None
        self._targets: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._starts: Optional[np.ndarray] = None
        self._p_bounds: Optional[np.ndarray] = None
        self._path: Optional[np.ndarray] = None
        self._term: Optional[np.ndarray] = None
        self._exit: Optional[np.ndarray] = None
        self._partition_cache: Dict[int, GraphPartition] = {}

    # ------------------------------------------------------------------
    def bind(
        self,
        graph: CSRGraph,
        pgraph: PartitionedGraph,
        algorithm: Any,
        config: EngineConfig,
    ) -> None:
        require_lockstep_algorithm(self.name, algorithm, config)
        super().bind(graph, pgraph, algorithm, config)
        self._length = int(algorithm.length)
        self._steps_cap = max(self._length, 1)
        self._seed = int(config.seed or 0)
        self._sampler_name = str(algorithm.sampler)
        self._weighted = (
            bool(algorithm.weighted)
            and graph.weights is not None
            and self._sampler_name != SAMPLER_UNIFORM
        )
        self._workers = max(1, int(getattr(config, "devices", 1) or 1))

    # ------------------------------------------------------------------
    def on_walks_seeded(self, walks: WalkArrays) -> None:
        started = time.perf_counter()
        assert self.graph is not None and self.pgraph is not None
        n = len(walks)
        if n == 0:
            self.measured.setup_seconds += time.perf_counter() - started
            return
        if not np.array_equal(walks.ids, np.arange(n, dtype=np.int64)):
            raise ValueError(
                "multiprocess backend requires contiguous walk ids 0..N-1 "
                "(seed all walks before splitting into shards)"
            )
        graph = self.graph
        rows = self._steps_cap + 1
        need = rows * n * 8 + n * 4 + rows * n * 8 + n * 8
        need += graph.offsets.nbytes + graph.targets.nbytes
        if graph.weights is not None:
            need += graph.weights.nbytes
        if need > _MAX_SHARED_BYTES:
            raise ValueError(
                f"multiprocess backend would need {need} shared bytes for "
                f"{n} walks x {rows} steps; shrink the workload"
            )
        # Exception path: any failure after the first SharedMemory block
        # exists must release every block already registered, or the
        # mappings outlive the process (tests/test_backends.py
        # TestLifecycleAndLeaks injects a failure at each step).
        try:
            self._offsets = self._shared_copy(graph.offsets)
            self._targets = self._shared_copy(graph.targets)
            self._weights = (
                None
                if graph.weights is None
                else self._shared_copy(graph.weights)
            )
            self._starts = self._shared_copy(walks.vertices.astype(np.int64))
            bounds = [p.start for p in self.pgraph.partitions]
            bounds.append(graph.num_vertices)
            self._p_bounds = np.asarray(bounds, dtype=np.int64)
            self._path = self._shared_array((rows, n), np.int64)
            self._term = self._shared_array((n,), np.int32)
            self._run_workers(n)
            self._build_exit_table()
        except BaseException:
            self.close()
            raise
        self.measured.setup_seconds += time.perf_counter() - started

    def _shared_array(
        self, shape: Tuple[int, ...], dtype: type
    ) -> np.ndarray:
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        self._shms.append(shm)
        out: np.ndarray = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        return out

    def _shared_copy(self, array: np.ndarray) -> np.ndarray:
        out = self._shared_array(array.shape, array.dtype.type)
        out[:] = array
        return out

    # ------------------------------------------------------------------
    def _run_workers(self, n: int) -> None:
        edges = np.linspace(0, n, self._workers + 1).astype(np.int64)
        ranges = [
            (int(edges[w]), int(edges[w + 1]))
            for w in range(self._workers)
            if edges[w + 1] > edges[w]
        ]
        can_fork = "fork" in multiprocessing.get_all_start_methods()
        if len(ranges) <= 1 or not can_fork:
            for lo, hi in ranges:
                self._precompute_range(lo, hi)
            return
        mp = multiprocessing.get_context("fork")
        procs = [
            mp.Process(target=self._precompute_range, args=r) for r in ranges
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        failures = [proc.exitcode for proc in procs if proc.exitcode != 0]
        if failures:
            raise RuntimeError(
                f"multiprocess backend workers failed (exit codes {failures})"
            )

    def _precompute_range(self, lo: int, hi: int) -> None:
        """Walk ids ``[lo, hi)`` to termination, writing path/term tables.

        Runs in a forked worker (or in-process): reads and writes only the
        shared-memory arrays, lock-free because id ranges are disjoint.
        """
        assert self._path is not None and self._term is not None
        assert self._starts is not None and self._offsets is not None
        assert self._targets is not None and self._p_bounds is not None
        path, term = self._path, self._term
        rng = CounterRNG(self._seed)
        impl: Optional[TransitionSampler] = (
            make_sampler(self._sampler_name) if self._weighted else None
        )
        whole: Optional[GraphPartition] = None
        if impl is None:
            whole = GraphPartition(
                index=0,
                start=0,
                stop=int(self._offsets.size - 1),
                offsets=self._offsets,
                targets=self._targets,
                weights=None,
            )
        active = np.arange(lo, hi, dtype=np.int64)
        path[0, lo:hi] = self._starts[lo:hi]
        for s in range(self._steps_cap):
            if active.size == 0:
                break
            v = path[s, active]
            steps = np.full(active.size, s, dtype=np.int64)
            if whole is not None:
                # Unweighted fast path: integer-only sampling over the whole
                # graph is index-for-index what per-partition stepping does.
                rng.set_context(active, steps)
                nv, dead = uniform_neighbors(whole, v, rng.random(v.size))
            else:
                assert impl is not None
                nv = np.empty_like(v)
                dead = np.empty(v.size, dtype=bool)
                assert self.pgraph is not None
                part_of = self.pgraph.lut[v]
                for p in np.unique(part_of):
                    sel = part_of == p
                    rng.set_context(active[sel], steps[sel])
                    nv_p, dead_p = impl.sample(
                        self._partition(int(p)), v[sel], rng
                    )
                    nv[sel] = nv_p
                    dead[sel] = dead_p
            terminated = dead | (steps + 1 >= self._length)
            path[s + 1, active] = nv
            term[active[terminated]] = s + 1
            active = active[~terminated]
        if active.size:  # pragma: no cover - every walk terminates by cap
            term[active] = self._steps_cap

    def _partition(self, index: int) -> GraphPartition:
        """Rebuild partition ``index`` over the shared CSR arrays.

        The rebased slices equal the engine-side partition's arrays, and
        sampler table builds are deterministic, so prepared state is
        bit-identical to the simulated path's.
        """
        part = self._partition_cache.get(index)
        if part is None:
            assert self._p_bounds is not None and self._offsets is not None
            assert self._targets is not None
            start = int(self._p_bounds[index])
            stop = int(self._p_bounds[index + 1])
            e0 = int(self._offsets[start])
            e1 = int(self._offsets[stop])
            part = GraphPartition(
                index=index,
                start=start,
                stop=stop,
                offsets=self._offsets[start : stop + 1] - e0,
                targets=self._targets[e0:e1],
                weights=(
                    None if self._weights is None else self._weights[e0:e1]
                ),
            )
            self._partition_cache[index] = part
        return part

    def _build_exit_table(self) -> None:
        """``exit[t, id]`` = step at which walk ``id``, currently at step
        ``t``, next leaves the partition it occupies at step ``t`` (or
        terminates) — a backward recurrence over the path table."""
        assert self._path is not None and self._term is not None
        rows, n = self._path.shape
        assert self.pgraph is not None
        part = self.pgraph.lut[self._path]
        term = self._term.astype(np.int64)
        ex = np.empty((rows, n), dtype=np.int64)
        ex[rows - 1] = rows - 1
        for t in range(rows - 2, -1, -1):
            stepping = term > t
            leaves = (part[t + 1] != part[t]) | (term == t + 1)
            ex[t] = np.where(stepping & leaves, t + 1, ex[t + 1])
            ex[t][~stepping] = t
        self._exit = ex

    # ------------------------------------------------------------------
    def advance(
        self,
        partition: GraphPartition,
        walks: WalkArrays,
        rng: np.random.Generator,
        graph: Optional[CSRGraph],
    ) -> BatchRunResult:
        n = len(walks)
        if n == 0:
            return BatchRunResult(0, 0, np.zeros(0, dtype=bool))
        assert self._exit is not None, "on_walks_seeded() must run first"
        assert self._path is not None and self._term is not None
        started = time.perf_counter()
        ids = walks.ids
        ns = self._exit[walks.steps, ids]
        delta = ns - walks.steps
        walks.vertices[:] = self._path[ns, ids]
        walks.steps[:] = ns  # in-place downcast; steps stay < 2**31
        active = ns < self._term[ids]
        result = BatchRunResult(int(delta.sum()), int(delta.max()), active)
        self._record_kernel(partition, n, result, time.perf_counter() - started)
        return result

    # ------------------------------------------------------------------
    def close(self) -> None:
        super().close()
        # Numpy views must be dropped before the mappings can close.
        self._partition_cache.clear()
        self._offsets = None
        self._targets = None
        self._weights = None
        self._starts = None
        self._path = None
        self._term = None
        self._exit = None
        shms, self._shms = self._shms, []
        for shm in shms:
            try:
                shm.close()
                shm.unlink()
            except (FileNotFoundError, BufferError):  # pragma: no cover
                pass
