"""Transition-sampler microbenchmark (``repro bench samplers``).

The vectorized sampling layer in :mod:`repro.algorithms.transitions`
replaced two Python loops on the hot path: the per-vertex Vose alias-table
construction (:class:`~repro.algorithms.sampling.PartitionAliasSampler`)
and node2vec's per-candidate ``graph.has_edge`` acceptance test
(:meth:`~repro.algorithms.node2vec.Node2Vec._acceptance_loop`).  Both loop
implementations are retained precisely so this benchmark can keep holding
the vectorized paths to account:

* **speed** — alias construction and node2vec batch stepping must beat the
  loop references by ``REQUIRED_SPEEDUP`` on the standard 10k-vertex
  weighted graph (checked in full mode; ``--quick`` sizes are too small
  for stable ratios and only report);
* **parity** — the vectorized alias build must produce bit-identical
  tables (the bench graph uses integer-valued weights, where the
  flattened cumulative-sum totals are exact), the vectorized acceptance
  bit-identical probabilities, and every weighted sampler an empirical
  next-hop distribution within ``tv_threshold`` total-variation distance
  of the true weight distribution.

Results are written as ``BENCH_samplers.json`` so CI can archive the
numbers per commit and a regression shows up as a diff, not an anecdote.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.algorithms.node2vec import Node2Vec
from repro.baselines.inmemory_cpu import whole_graph_partition
from repro.bench.harness import safe_ratio
from repro.core.prng import seeded_rng
from repro.algorithms.sampling import PartitionAliasSampler
from repro.algorithms.transitions import (
    SAMPLER_ALIAS,
    SAMPLER_INVERSE,
    SAMPLER_REJECTION,
    SAMPLER_UNIFORM,
    build_alias_tables,
    make_sampler,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi

#: Speedup floor enforced (full mode) for the two loop-vs-vector pairs.
REQUIRED_SPEEDUP = 5.0

#: Samplers whose sampling throughput + distribution are measured.
SAMPLERS = (SAMPLER_UNIFORM, SAMPLER_ALIAS, SAMPLER_INVERSE, SAMPLER_REJECTION)


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Wall-clock seconds of ``fn``, best of ``repeats`` (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def make_bench_graph(
    vertices: int = 10_000, edge_factor: int = 8, seed: int = 7
) -> CSRGraph:
    """The benchmark workload: a weighted Erdos-Renyi graph.

    Weights are integer-valued floats in [1, 32): per-vertex weight sums
    are then exact in both the loop and the vectorized alias build, so
    table parity can be asserted bitwise instead of approximately.
    """
    graph = erdos_renyi(vertices, edge_factor * vertices, seed=seed)
    rng = seeded_rng(seed + 1)
    weights = rng.integers(1, 32, size=graph.num_edges).astype(np.float64)
    return CSRGraph(
        graph.offsets, graph.targets, weights, name=f"bench-er-{vertices}"
    )


# ----------------------------------------------------------------------
def bench_alias_build(graph: CSRGraph, repeats: int) -> Dict[str, object]:
    """Loop Vose (per-vertex AliasTable) vs the lock-step vectorized build."""
    offsets, weights = graph.offsets, graph.weights
    loop_s = _best_of(lambda: PartitionAliasSampler(offsets, weights), repeats)
    vec_s = _best_of(lambda: build_alias_tables(offsets, weights), repeats)
    loop_tables = PartitionAliasSampler(offsets, weights)
    prob, alias = build_alias_tables(offsets, weights)
    match = bool(
        np.array_equal(prob, loop_tables.prob_flat)
        and np.array_equal(alias, loop_tables.alias_flat)
    )
    return {
        "loop_seconds": loop_s,
        "vectorized_seconds": vec_s,
        "speedup": safe_ratio(loop_s, vec_s),
        "tables_bit_identical": match,
    }


def bench_node2vec_step(
    graph: CSRGraph, batch: int, repeats: int
) -> Dict[str, object]:
    """One node2vec batch step: has_edge-loop acceptance vs binary search."""
    partition = whole_graph_partition(graph)
    rng = seeded_rng(11)
    vertices = rng.integers(0, graph.num_vertices, size=batch)
    steps = np.ones(batch, dtype=np.int64)
    ids = np.arange(batch, dtype=np.int64)

    def run(use_loop: bool) -> Callable[[], object]:
        algo = Node2Vec(length=80, return_param=2.0, inout_param=0.5)
        algo.start_vertices(graph, batch, seeded_rng(0))
        if use_loop:
            algo._acceptance = algo._acceptance_loop
        # A mid-walk step (prev populated) exercises the full acceptance
        # classification, not the unbiased first hop.  Same prev table for
        # both variants so they face identical rejection work.
        algo._prev[:] = seeded_rng(13).integers(
            0, graph.num_vertices, size=batch
        )

        def step() -> object:
            return algo.step_once(
                vertices, steps, ids, partition, seeded_rng(5), graph
            )

        return step

    loop_s = _best_of(run(use_loop=True), repeats)
    vec_s = _best_of(run(use_loop=False), repeats)

    # Parity: identical acceptance probabilities on one candidate batch.
    algo = Node2Vec(length=80, return_param=2.0, inout_param=0.5)
    prev = rng.integers(0, graph.num_vertices, size=batch)
    cand = rng.integers(0, graph.num_vertices, size=batch)
    prev[:: max(1, batch // 16)] = -1  # include unbiased first-step lanes
    match = bool(
        np.array_equal(
            algo._acceptance(graph, prev, cand),
            algo._acceptance_loop(graph, prev, cand),
        )
    )
    return {
        "batch": batch,
        "loop_seconds": loop_s,
        "vectorized_seconds": vec_s,
        "speedup": safe_ratio(loop_s, vec_s),
        "acceptance_bit_identical": match,
    }


def bench_sampling_throughput(
    graph: CSRGraph, batch_sizes: Sequence[int], repeats: int
) -> Dict[str, Dict[str, float]]:
    """Steps/second of each registered first-order sampler per batch size."""
    partition = whole_graph_partition(graph)
    out: Dict[str, Dict[str, float]] = {}
    for name in SAMPLERS:
        sampler = make_sampler(name)
        sampler.prepare(partition)
        per_batch: Dict[str, float] = {}
        for batch in batch_sizes:
            rng = seeded_rng(17)
            vertices = rng.integers(0, graph.num_vertices, size=batch)
            seconds = _best_of(
                lambda: sampler.sample(partition, vertices, rng), repeats
            )
            per_batch[str(batch)] = batch / seconds if seconds > 0 else 0.0
        out[name] = per_batch
    return out


def _tv_distance(counts: np.ndarray, expected_prob: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 1.0
    return float(0.5 * np.abs(counts / total - expected_prob).sum())


def bench_distribution_parity(
    graph: CSRGraph, draws: int, tv_threshold: float
) -> Dict[str, Dict[str, object]]:
    """Empirical next-hop distribution of each weighted sampler vs truth.

    Samples ``draws`` transitions from the highest-degree vertex and
    compares the per-edge pick frequencies with the normalized weights.
    """
    partition = whole_graph_partition(graph)
    degrees = np.diff(graph.offsets)
    v = int(np.argmax(degrees))
    lo, hi = int(graph.offsets[v]), int(graph.offsets[v + 1])
    weights = graph.weights[lo:hi]
    expected = weights / weights.sum()
    neighbors = graph.targets[lo:hi]
    out: Dict[str, Dict[str, object]] = {}
    for name in SAMPLERS:
        if name == SAMPLER_UNIFORM:
            continue  # uniform intentionally ignores weights
        sampler = make_sampler(name)
        sampler.prepare(partition)
        rng = seeded_rng(23)
        vertices = np.full(draws, v, dtype=np.int64)
        picks, dead = sampler.sample(partition, vertices, rng)
        # Multi-edges to the same neighbor are indistinguishable in the
        # picked vertex, so compare at unique-neighbor granularity.
        uniq, inverse = np.unique(neighbors, return_inverse=True)
        expected_by_nbr = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(expected_by_nbr, inverse, expected)
        counts = np.bincount(
            np.searchsorted(uniq, picks), minlength=uniq.size
        )
        tv = _tv_distance(counts, expected_by_nbr)
        out[name] = {
            "vertex": v,
            "degree": int(weights.size),
            "draws": int(draws),
            "dead_ends": int(dead.sum()),
            "tv_distance": tv,
            "tv_threshold": tv_threshold,
            "ok": bool(tv <= tv_threshold and not dead.any()),
        }
    return out


# ----------------------------------------------------------------------
def run_bench(
    vertices: int = 10_000,
    edge_factor: int = 8,
    seed: int = 7,
    quick: bool = False,
) -> Dict[str, object]:
    """Run the full sampler microbenchmark; returns the results payload."""
    if quick:
        repeats, step_batch = 2, 2_000
        batch_sizes = (1_000, 8_000)
        draws, tv_threshold = 20_000, 0.08
    else:
        repeats, step_batch = 5, 16_000
        batch_sizes = (1_000, 8_000, 64_000)
        draws, tv_threshold = 200_000, 0.03
    graph = make_bench_graph(vertices, edge_factor, seed)
    alias = bench_alias_build(graph, repeats)
    node2vec = bench_node2vec_step(graph, step_batch, repeats)
    results: Dict[str, object] = {
        "config": {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "edge_factor": edge_factor,
            "seed": seed,
            "quick": quick,
            "required_speedup": REQUIRED_SPEEDUP,
        },
        "alias_build": alias,
        "node2vec_step": node2vec,
        "sampling_steps_per_second": bench_sampling_throughput(
            graph, batch_sizes, repeats
        ),
        "distribution_parity": bench_distribution_parity(
            graph, draws, tv_threshold
        ),
    }
    parity_ok = bool(
        alias["tables_bit_identical"]
        and node2vec["acceptance_bit_identical"]
        and all(
            entry["ok"] for entry in results["distribution_parity"].values()
        )
    )
    speedup_ok = bool(
        alias["speedup"] >= REQUIRED_SPEEDUP
        and node2vec["speedup"] >= REQUIRED_SPEEDUP
    )
    results["checks"] = {
        "parity_ok": parity_ok,
        "speedup_ok": speedup_ok,
        # quick mode uses sizes too small for stable timing ratios; the
        # speedup gate is only meaningful at full scale.
        "speedup_enforced": not quick,
        "all_ok": parity_ok and (speedup_ok or quick),
    }
    return results


def format_summary(results: Dict[str, object]) -> str:
    """Human-readable digest of one benchmark run."""
    alias = results["alias_build"]
    n2v = results["node2vec_step"]
    checks = results["checks"]
    lines = [
        "sampler microbenchmark "
        f"({results['config']['vertices']} vertices, "
        f"{results['config']['edges']} edges)",
        f"  alias build   : {alias['loop_seconds'] * 1e3:8.2f} ms loop "
        f"-> {alias['vectorized_seconds'] * 1e3:8.2f} ms vectorized "
        f"({alias['speedup']:.1f}x)",
        f"  node2vec step : {n2v['loop_seconds'] * 1e3:8.2f} ms loop "
        f"-> {n2v['vectorized_seconds'] * 1e3:8.2f} ms vectorized "
        f"({n2v['speedup']:.1f}x)",
    ]
    for name, per_batch in sorted(
        results["sampling_steps_per_second"].items()
    ):
        rates = ", ".join(
            f"{batch}: {rate:.3g}/s" for batch, rate in sorted(
                per_batch.items(), key=lambda kv: int(kv[0])
            )
        )
        lines.append(f"  {name:13s} : {rates}")
    for name, entry in sorted(results["distribution_parity"].items()):
        lines.append(
            f"  parity {name:10s}: tv={entry['tv_distance']:.4f} "
            f"(<= {entry['tv_threshold']}) "
            f"{'ok' if entry['ok'] else 'FAIL'}"
        )
    lines.append(
        f"  checks: parity_ok={checks['parity_ok']} "
        f"speedup_ok={checks['speedup_ok']} "
        f"(enforced={checks['speedup_enforced']})"
    )
    return "\n".join(lines)
