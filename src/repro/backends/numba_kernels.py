"""Numba backend: JIT-compiled per-lane step loops, ThunderRW-style.

The kernels advance each walker *lane* with a scalar loop instead of the
vectorized all-lanes rounds of the NumPy path, interleaving lanes within
fixed-size blocks (ThunderRW's step interleaving: sweep the block
round-robin, one transition per live lane per pass, so independent
lanes' memory fetches overlap) and ``prange``-ing over blocks.  This is
only legal because the counter RNG derives every draw from ``(seed,
walk_id, step, draw_index)`` — the scalar :func:`_splitmix64` below
replicates :func:`repro.core.prng.splitmix64` bit-for-bit, so per-lane
execution produces exactly the trajectories the vectorized engine
produces.

When numba is missing the module still imports: ``_jit`` degrades to a
pass-through and the kernels remain valid (slow) pure Python, which is
how the conformance tests exercise this code path without the
dependency.  Constructing :class:`NumbaBackend` itself requires numba
(:class:`~repro.backends.base.BackendUnavailable` otherwise); the CLI
turns that into an exit-2 hint.
"""

from __future__ import annotations

import time
from typing import Any, Optional

import numpy as np

from repro.algorithms.base import BatchRunResult
from repro.algorithms.transitions import (
    SAMPLER_ALIAS,
    SAMPLER_UNIFORM,
    make_sampler,
)
from repro.algorithms.transitions.base import TransitionSampler
from repro.backends.base import (
    BackendUnavailable,
    ExecutionBackend,
    require_lockstep_algorithm,
)
from repro.backends.registry import BACKEND_NUMBA, register_backend
from repro.core.config import EngineConfig
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphPartition, PartitionedGraph
from repro.walks.state import WalkArrays

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:
    njit, prange = None, None
    NUMBA_AVAILABLE = False

#: ``range`` in pure-Python mode; numba recognizes ``prange`` by identity.
_prange: Any = prange if NUMBA_AVAILABLE else range


def _jit(parallel: bool = False) -> Any:
    """``numba.njit`` when available, identity decorator otherwise."""
    if NUMBA_AVAILABLE:
        return njit(cache=True, parallel=parallel)

    def passthrough(fn: Any) -> Any:
        return fn

    return passthrough


#: splitmix64 constants — must match :mod:`repro.core.prng` exactly.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STEP_TAG = np.uint64(0x632BE59BD9B4E019)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_INV53 = 2.0 ** -53


def _splitmix64_py(x: np.uint64) -> np.uint64:
    x = x + _GAMMA
    x = x ^ (x >> _SH30)
    x = x * _MIX1
    x = x ^ (x >> _SH27)
    x = x * _MIX2
    x = x ^ (x >> _SH31)
    return x


_splitmix64: Any = _jit()(_splitmix64_py)


def _lane_draw_py(
    seed: np.uint64, walk_id: np.uint64, step: np.uint64, draw: np.uint64
) -> float:
    """One lane's uniform [0, 1) — :meth:`CounterRNG.random`, scalar."""
    key = (
        seed
        + _splitmix64(walk_id)
        + _splitmix64(step + _STEP_TAG)
        + draw * _GAMMA
    )
    return np.float64(_splitmix64(key) >> _SH11) * _INV53


_lane_draw: Any = _jit()(_lane_draw_py)


def _bisect_right_py(prefix: np.ndarray, value: float) -> int:
    """Scalar ``np.searchsorted(prefix, value, side="right")``."""
    lo = 0
    hi = prefix.shape[0]
    while lo < hi:
        mid = (lo + hi) >> 1
        if value < prefix[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


_bisect_right: Any = _jit()(_bisect_right_py)


def _advance_uniform_py(
    vertices: np.ndarray,
    steps: np.ndarray,
    ids: np.ndarray,
    alive: np.ndarray,
    offsets: np.ndarray,
    targets: np.ndarray,
    p_start: int,
    p_stop: int,
    length: int,
    seed: np.uint64,
    lane_block: int,
) -> None:
    n = vertices.shape[0]
    num_blocks = (n + lane_block - 1) // lane_block
    for b in _prange(num_blocks):
        lo = b * lane_block
        hi = lo + lane_block
        if hi > n:
            hi = n
        done = np.zeros(hi - lo, dtype=np.uint8)
        remaining = hi - lo
        while remaining > 0:
            for i in range(lo, hi):
                if done[i - lo] != 0:
                    continue
                v = vertices[i]
                s = steps[i]
                e0 = offsets[v - p_start]
                deg = offsets[v - p_start + 1] - e0
                if deg == 0:
                    steps[i] = s + 1
                    alive[i] = False
                    done[i - lo] = 1
                    remaining -= 1
                    continue
                u = _lane_draw(
                    seed, np.uint64(ids[i]), np.uint64(s), np.uint64(0)
                )
                pick = np.int64(u * deg)
                if pick > deg - 1:
                    pick = deg - 1
                nv = targets[e0 + pick]
                vertices[i] = nv
                steps[i] = s + 1
                if s + 1 >= length:
                    alive[i] = False
                    done[i - lo] = 1
                    remaining -= 1
                elif nv < p_start or nv >= p_stop:
                    done[i - lo] = 1
                    remaining -= 1


_advance_uniform: Any = _jit(parallel=True)(_advance_uniform_py)


def _advance_alias_py(
    vertices: np.ndarray,
    steps: np.ndarray,
    ids: np.ndarray,
    alive: np.ndarray,
    offsets: np.ndarray,
    targets: np.ndarray,
    prob_flat: np.ndarray,
    alias_flat: np.ndarray,
    p_start: int,
    p_stop: int,
    length: int,
    seed: np.uint64,
    lane_block: int,
) -> None:
    n = vertices.shape[0]
    num_blocks = (n + lane_block - 1) // lane_block
    for b in _prange(num_blocks):
        lo = b * lane_block
        hi = lo + lane_block
        if hi > n:
            hi = n
        done = np.zeros(hi - lo, dtype=np.uint8)
        remaining = hi - lo
        while remaining > 0:
            for i in range(lo, hi):
                if done[i - lo] != 0:
                    continue
                v = vertices[i]
                s = steps[i]
                e0 = offsets[v - p_start]
                deg = offsets[v - p_start + 1] - e0
                if deg == 0:
                    steps[i] = s + 1
                    alive[i] = False
                    done[i - lo] = 1
                    remaining -= 1
                    continue
                u0 = _lane_draw(
                    seed, np.uint64(ids[i]), np.uint64(s), np.uint64(0)
                )
                u1 = _lane_draw(
                    seed, np.uint64(ids[i]), np.uint64(s), np.uint64(1)
                )
                slot = np.int64(u0 * deg)
                if slot > deg - 1:
                    slot = deg - 1
                edge = e0 + slot
                if u1 < prob_flat[edge]:
                    picked = slot
                else:
                    picked = alias_flat[edge]
                nv = targets[e0 + picked]
                vertices[i] = nv
                steps[i] = s + 1
                if s + 1 >= length:
                    alive[i] = False
                    done[i - lo] = 1
                    remaining -= 1
                elif nv < p_start or nv >= p_stop:
                    done[i - lo] = 1
                    remaining -= 1


_advance_alias: Any = _jit(parallel=True)(_advance_alias_py)


def _advance_inverse_py(
    vertices: np.ndarray,
    steps: np.ndarray,
    ids: np.ndarray,
    alive: np.ndarray,
    offsets: np.ndarray,
    targets: np.ndarray,
    prefix: np.ndarray,
    p_start: int,
    p_stop: int,
    length: int,
    seed: np.uint64,
    lane_block: int,
) -> None:
    n = vertices.shape[0]
    num_blocks = (n + lane_block - 1) // lane_block
    for b in _prange(num_blocks):
        lo = b * lane_block
        hi = lo + lane_block
        if hi > n:
            hi = n
        done = np.zeros(hi - lo, dtype=np.uint8)
        remaining = hi - lo
        while remaining > 0:
            for i in range(lo, hi):
                if done[i - lo] != 0:
                    continue
                v = vertices[i]
                s = steps[i]
                e0 = offsets[v - p_start]
                e1 = offsets[v - p_start + 1]
                total = prefix[e1] - prefix[e0]
                if total <= 0:
                    # Zero degree or all-zero weights: a dead end.
                    steps[i] = s + 1
                    alive[i] = False
                    done[i - lo] = 1
                    remaining -= 1
                    continue
                u = _lane_draw(
                    seed, np.uint64(ids[i]), np.uint64(s), np.uint64(0)
                )
                target = prefix[e0] + u * total
                edge = _bisect_right(prefix, target) - 1
                if edge < e0:
                    edge = e0
                hi_edge = e1 - 1
                if hi_edge < 0:
                    hi_edge = 0
                if edge > hi_edge:
                    edge = hi_edge
                nv = targets[edge]
                vertices[i] = nv
                steps[i] = s + 1
                if s + 1 >= length:
                    alive[i] = False
                    done[i - lo] = 1
                    remaining -= 1
                elif nv < p_start or nv >= p_stop:
                    done[i - lo] = 1
                    remaining -= 1


_advance_inverse: Any = _jit(parallel=True)(_advance_inverse_py)


class NumbaBackend(ExecutionBackend):
    """JIT-compiled lane-interleaved step loops (requires numba)."""

    name = BACKEND_NUMBA

    def __init__(self, lane_block: int = 256) -> None:
        if not NUMBA_AVAILABLE:
            raise BackendUnavailable(
                "the 'numba' backend needs the optional numba package; "
                "install numba or use --backend multiprocess"
            )
        super().__init__()
        if lane_block < 1:
            raise ValueError("lane_block must be >= 1")
        self._lane_block = lane_block
        self._length = 0
        self._seed = np.uint64(0)
        self._weighted = False
        self._sampler_name = SAMPLER_UNIFORM
        self._impl: Optional[TransitionSampler] = None

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
        self._seed = np.uint64(int(config.seed or 0) & 0xFFFFFFFFFFFFFFFF)
        self._sampler_name = str(algorithm.sampler)
        self._weighted = (
            bool(algorithm.weighted)
            and self._sampler_name != SAMPLER_UNIFORM
        )
        if self._weighted:
            # A backend-owned sampler instance: the table builds are
            # deterministic, so its prepared state is bit-identical to
            # the engine-side sampler's.
            self._impl = make_sampler(self._sampler_name)

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
        started = time.perf_counter()
        alive = np.ones(n, dtype=bool)
        before = walks.steps.astype(np.int64, copy=True)
        use_weighted = self._weighted and partition.weights is not None
        # errstate: the pure-Python fallback wraps uint64 scalars exactly
        # like the jitted code but numpy warns on scalar overflow.
        with np.errstate(over="ignore"):
            if not use_weighted:
                _advance_uniform(
                    walks.vertices, walks.steps, walks.ids, alive,
                    partition.offsets, partition.targets,
                    partition.start, partition.stop,
                    self._length, self._seed, self._lane_block,
                )
            elif self._sampler_name == SAMPLER_ALIAS:
                assert self._impl is not None
                prob_flat, alias_flat = self._impl.prepared_state(partition)
                _advance_alias(
                    walks.vertices, walks.steps, walks.ids, alive,
                    partition.offsets, partition.targets,
                    prob_flat, alias_flat,
                    partition.start, partition.stop,
                    self._length, self._seed, self._lane_block,
                )
            else:
                assert self._impl is not None
                prefix = self._impl.prepared_state(partition)
                _advance_inverse(
                    walks.vertices, walks.steps, walks.ids, alive,
                    partition.offsets, partition.targets, prefix,
                    partition.start, partition.stop,
                    self._length, self._seed, self._lane_block,
                )
        deltas = walks.steps - before
        result = BatchRunResult(
            int(deltas.sum()), int(deltas.max()), alive
        )
        self._record_kernel(
            partition, n, result, time.perf_counter() - started
        )
        return result


register_backend(BACKEND_NUMBA, NumbaBackend)
