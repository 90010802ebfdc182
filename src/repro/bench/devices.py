"""Multi-device sharding scaling benchmark (``repro bench devices``).

The sharded engine (:mod:`repro.core.cluster`) claims that splitting the
range-partitioned graph across N simulated devices — each with its own
timeline, graph pool and walk pool, exchanging walks over P2P channels —
shortens the simulated makespan: shards compute concurrently and only
cross-partition walk migration serializes on the peer links.

This benchmark holds that claim to account on a fixed RMAT workload:

* **scaling** — the same seeded run at 1, 2 and 4 devices; the 4-device
  simulated makespan must beat single-device by ``REQUIRED_SPEEDUP``
  (checked in full mode; ``--quick`` workloads are too small for stable
  ratios and only report);
* **conservation** — every run executes under the runtime sanitizer
  (:class:`~repro.analysis.Sanitizer`) and must finish clean: no walk
  lost, duplicated, or left in flight on a peer channel, and identical
  per-device invariants to the single-device engine.

Results are written as ``BENCH_devices.json`` so CI can archive the
numbers per commit and a scaling regression shows up as a diff, not an
anecdote.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.algorithms import PageRank
from repro.bench.harness import (
    bench_engine_config,
    bench_rmat_graph,
    bench_walks,
    safe_ratio,
    sanitizer_verdict,
)
from repro.core.engine import LightTrafficEngine

#: Simulated-speedup floor enforced (full mode) at DEVICE_COUNTS[-1].
REQUIRED_SPEEDUP = 1.5

#: Shard counts measured, ascending; the first must be 1 (the baseline).
DEVICE_COUNTS = (1, 2, 4)


def run_bench(
    scale: int = 12,
    edge_factor: int = 8,
    walks: Optional[int] = None,
    seed: int = 7,
    quick: bool = False,
) -> Dict[str, object]:
    """Run the device-scaling benchmark; returns the results payload."""
    graph, workload = bench_rmat_graph(scale, edge_factor, seed, quick)
    walks, length = bench_walks(graph, walks, quick)
    runs: Dict[str, Dict[str, object]] = {}
    base_time: Optional[float] = None
    conservation_ok = True
    for devices in DEVICE_COUNTS:
        config = bench_engine_config(seed, quick, devices=devices)
        stats = LightTrafficEngine(
            graph, PageRank(length=length), config
        ).run(walks)
        clean, checks = sanitizer_verdict(stats)
        conservation_ok = conservation_ok and clean
        if devices == 1:
            base_time = stats.total_time
        assert base_time is not None
        runs[str(devices)] = {
            "devices": devices,
            "total_time": stats.total_time,
            "speedup": safe_ratio(base_time, stats.total_time),
            "iterations": stats.iterations,
            "walks_migrated": stats.walks_migrated,
            "device_times": stats.device_times or {},
            "sanitizer_clean": clean,
            "sanitizer_checks": checks,
        }
    top = runs[str(DEVICE_COUNTS[-1])]
    speedup_ok = bool(top["speedup"] >= REQUIRED_SPEEDUP)
    results: Dict[str, object] = {
        "config": {
            **workload,
            "walks": walks,
            "walk_length": length,
            "device_counts": list(DEVICE_COUNTS),
            "required_speedup": REQUIRED_SPEEDUP,
        },
        "runs": runs,
        "checks": {
            "conservation_ok": conservation_ok,
            "speedup_ok": speedup_ok,
            # quick mode shrinks the workload below where shard overlap
            # amortizes; the speedup gate is only meaningful at full scale.
            "speedup_enforced": not quick,
            "all_ok": conservation_ok and (speedup_ok or quick),
        },
    }
    return results


def format_summary(results: Dict[str, object]) -> str:
    """Human-readable digest of one benchmark run."""
    config = results["config"]
    checks = results["checks"]
    lines = [
        "multi-device scaling benchmark "
        f"(rmat scale {config['scale']}, {config['vertices']} vertices, "
        f"{config['edges']} edges, {config['walks']} walks)"
    ]
    for key, run in sorted(
        results["runs"].items(), key=lambda kv: int(kv[0])
    ):
        lines.append(
            f"  {run['devices']} device(s): "
            f"t={run['total_time'] * 1e3:8.3f} ms "
            f"speedup={run['speedup']:.2f}x "
            f"migrated={run['walks_migrated']:6d} "
            f"sanitizer={'clean' if run['sanitizer_clean'] else 'DIRTY'}"
        )
    lines.append(
        f"  checks: conservation_ok={checks['conservation_ok']} "
        f"speedup_ok={checks['speedup_ok']} "
        f"(>= {config['required_speedup']}x at "
        f"{config['device_counts'][-1]} devices, "
        f"enforced={checks['speedup_enforced']})"
    )
    return "\n".join(lines)
