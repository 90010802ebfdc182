"""Elastic-cluster benchmark (``repro bench elastic``).

The elastic refactor of the sharded engine (:mod:`repro.core.cluster`)
makes two claims this benchmark holds to account on a fixed RMAT
workload, both under the runtime sanitizer:

* **heterogeneity** — on a skewed 4-device cluster (per-device compute
  and peer-link capability 2x/1x/1x/0.5x), the byte-balanced assignment
  *weighted by bottleneck capability* must beat the
  homogeneous-assumption (uniform) assignment: uniform gives the 0.5x
  straggler a full share of the graph and the makespan stretches behind
  its half-rate links;
* **failure recovery** — a mid-run single-device failure (injected via
  :class:`~repro.core.config.FailureSchedule`) must complete with zero
  lost walks and bounded slowdown: every pending walk of the dead shard
  is recovered onto survivors, the fixed-length walk workload still
  executes exactly ``walks x length`` steps, and the makespan stays
  within ``MAX_FAILURE_SLOWDOWN`` of the no-failure baseline.

Results are written as ``BENCH_elastic.json`` so CI can archive the
numbers per commit and a recovery or skew regression shows up as a
diff, not an anecdote.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.algorithms import UniformSampling
from repro.bench.harness import (
    bench_engine_config,
    bench_rmat_graph,
    bench_walks,
    safe_ratio,
    sanitizer_verdict,
)
from repro.core.config import FailureSchedule
from repro.core.engine import LightTrafficEngine
from repro.core.stats import RunStats
from repro.gpu.cluster import ClusterDeviceSpec

#: Device count of every benchmark cluster.
NUM_DEVICES = 4

#: Skewed per-device capability for the heterogeneity scenario: device 0
#: is a double-rate part, device 3 a half-rate one — compute and peer
#: link scale together, as with a real mixed-generation GPU pool.
CAPABILITY_SKEW = (2.0, 1.0, 1.0, 0.5)

#: Makespan floor (full mode): aware assignment vs uniform assignment.
REQUIRED_HETERO_SPEEDUP = 1.05

#: Makespan ceiling (full mode): failure run vs no-failure baseline.
#: Losing one of four shards costs ~4/3 ideal; the bound leaves room
#: for the recovery handoff and the survivors' colder pools.
MAX_FAILURE_SLOWDOWN = 2.5


def _skewed_specs() -> Tuple[ClusterDeviceSpec, ...]:
    return tuple(
        ClusterDeviceSpec(
            name=f"gpu{idx}", compute_scale=rate, link_scale=rate
        )
        for idx, rate in enumerate(CAPABILITY_SKEW)
    )


def _run_entry(
    stats: RunStats, walks: int, length: int
) -> Dict[str, object]:
    clean, checks = sanitizer_verdict(stats)
    return {
        "total_time": stats.total_time,
        "iterations": stats.iterations,
        "total_steps": stats.total_steps,
        "expected_steps": walks * length,
        "walks_migrated": stats.walks_migrated,
        "device_failures": stats.device_failures,
        "walks_recovered": stats.walks_recovered,
        "rebalances": stats.rebalances,
        "walks_rebalanced": stats.walks_rebalanced,
        "device_times": stats.device_times or {},
        "sanitizer_clean": clean,
        "sanitizer_checks": checks,
    }


def run_bench(
    scale: int = 12,
    edge_factor: int = 8,
    walks: Optional[int] = None,
    seed: int = 7,
    quick: bool = False,
) -> Dict[str, object]:
    """Run the elastic-cluster benchmark; returns the results payload."""
    graph, workload = bench_rmat_graph(scale, edge_factor, seed, quick)
    walks, length = bench_walks(graph, walks, quick)

    def run(**elastic_knobs: object) -> RunStats:
        """One 4-device run; scenarios vary only the elastic knobs."""
        config = bench_engine_config(
            seed, quick, devices=NUM_DEVICES, **elastic_knobs
        )
        algorithm = UniformSampling(length=length)
        return LightTrafficEngine(graph, algorithm, config).run(walks)

    # -- scenario A: skewed specs, aware vs uniform assignment ---------
    aware = run(
        device_specs=_skewed_specs(), heterogeneous_assignment=True
    )
    uniform = run(
        device_specs=_skewed_specs(), heterogeneous_assignment=False
    )
    hetero_speedup = safe_ratio(uniform.total_time, aware.total_time)

    # -- scenario B: homogeneous baseline vs mid-run device failure ----
    baseline = run()
    fail_at = max(2, baseline.iterations // 3)
    failure = run(failure_schedule=FailureSchedule.single(1, fail_at))
    slowdown = safe_ratio(failure.total_time, baseline.total_time)

    runs = {
        "hetero_aware": _run_entry(aware, walks, length),
        "hetero_uniform": _run_entry(uniform, walks, length),
        "baseline": _run_entry(baseline, walks, length),
        "failure": _run_entry(failure, walks, length),
    }
    conservation_ok = all(
        entry["sanitizer_clean"] for entry in runs.values()
    )
    # Fixed-length walks make zero-lost-walks exact: a lost (or
    # duplicated) walk shifts the step total off walks * length.
    no_lost_walks = all(
        entry["total_steps"] == entry["expected_steps"]
        for entry in runs.values()
    )
    recovery_ok = (
        failure.device_failures == 1 and failure.walks_recovered > 0
    )
    hetero_ok = hetero_speedup >= REQUIRED_HETERO_SPEEDUP
    slowdown_ok = slowdown <= MAX_FAILURE_SLOWDOWN

    results: Dict[str, object] = {
        "config": {
            **workload,
            "walks": walks,
            "walk_length": length,
            "devices": NUM_DEVICES,
            "capability_skew": list(CAPABILITY_SKEW),
            "fail_device": 1,
            "fail_at_iteration": fail_at,
            "required_hetero_speedup": REQUIRED_HETERO_SPEEDUP,
            "max_failure_slowdown": MAX_FAILURE_SLOWDOWN,
        },
        "runs": runs,
        "hetero_speedup": hetero_speedup,
        "failure_slowdown": slowdown,
        "checks": {
            "conservation_ok": conservation_ok,
            "no_lost_walks": no_lost_walks,
            "recovery_ok": recovery_ok,
            "hetero_ok": hetero_ok,
            "slowdown_ok": slowdown_ok,
            # quick workloads are too small for stable makespan ratios;
            # the perf gates are only meaningful at full scale.
            "perf_enforced": not quick,
            "all_ok": (
                conservation_ok
                and no_lost_walks
                and recovery_ok
                and ((hetero_ok and slowdown_ok) or quick)
            ),
        },
    }
    return results


def format_summary(results: Dict[str, object]) -> str:
    """Human-readable digest of one benchmark run."""
    config = results["config"]
    checks = results["checks"]
    runs = results["runs"]
    lines = [
        "elastic cluster benchmark "
        f"(rmat scale {config['scale']}, {config['vertices']} vertices, "
        f"{config['edges']} edges, {config['walks']} walks, "
        f"{config['devices']} devices)"
    ]
    for name in ("hetero_aware", "hetero_uniform", "baseline", "failure"):
        run = runs[name]
        lines.append(
            f"  {name:14s}: t={run['total_time'] * 1e3:8.3f} ms "
            f"steps={run['total_steps']:7d}/{run['expected_steps']:<7d} "
            f"migrated={run['walks_migrated']:6d} "
            f"recovered={run['walks_recovered']:5d} "
            f"sanitizer={'clean' if run['sanitizer_clean'] else 'DIRTY'}"
        )
    lines.append(
        f"  hetero speedup (uniform/aware): "
        f"{results['hetero_speedup']:.2f}x "
        f"(>= {config['required_hetero_speedup']}x, "
        f"enforced={checks['perf_enforced']})"
    )
    lines.append(
        f"  failure slowdown (failure/baseline): "
        f"{results['failure_slowdown']:.2f}x "
        f"(<= {config['max_failure_slowdown']}x, "
        f"enforced={checks['perf_enforced']})"
    )
    lines.append(
        f"  checks: conservation_ok={checks['conservation_ok']} "
        f"no_lost_walks={checks['no_lost_walks']} "
        f"recovery_ok={checks['recovery_ok']} "
        f"all_ok={checks['all_ok']}"
    )
    return "\n".join(lines)
