"""Run the same workload on every system in the repository.

One workload — 2|V| PageRank walks on the out-of-GPU-memory uk-sim dataset
— executed by LightTraffic and all five comparators (ThunderRW-, FlashMob-,
Subway-, NextDoor-, UVM-style), printing a side-by-side table.  A miniature
of the paper's whole evaluation section, using the same scaled platform as
the benchmark suite so fixed costs and pool sizes are proportionate.

Run:  python examples/compare_systems.py   (takes ~1 minute)
"""

from repro.bench.harness import build_system
from repro.bench.workloads import (
    default_platform,
    load_dataset,
    standard_walks,
)


def main() -> None:
    platform = default_platform()
    graph = load_dataset("uk-sim")
    walks = standard_walks(graph)
    print(
        f"graph: {graph} ({graph.csr_bytes / 1e6:.1f} MB CSR, scaled GPU "
        f"memory {platform.gpu_memory_bytes / 1e6:.1f} MB)\n"
        f"workload: {walks} PageRank walks of length 80\n"
    )

    def run(system, **options):
        return build_system(
            system, graph, "pagerank", platform, **options
        ).run(walks)

    runs = []
    for link in ("pcie3", "pcie4"):
        stats = run("lighttraffic", interconnect=link)
        stats.system = f"lighttraffic-{link}"
        runs.append(stats)
    runs += [run("thunderrw"), run("flashmob"), run("subway")]
    # NextDoor needs the graph in GPU memory; uk-sim does not fit — exactly
    # the situation the paper's out-of-memory design addresses.
    try:
        runs.append(run("nextdoor"))
    except ValueError as exc:
        print(f"nextdoor: skipped ({exc})\n")
    runs.append(run("uvm", page_bytes=4096))

    best = min(r.total_time for r in runs)
    print(f"{'system':20s} {'sim time':>12s} {'throughput':>14s} {'vs best':>9s}")
    for r in sorted(runs, key=lambda r: r.total_time):
        print(
            f"{r.system:20s} {r.total_time * 1e3:9.3f} ms "
            f"{r.throughput / 1e6:10.1f} M/s {r.total_time / best:8.2f}x"
        )


if __name__ == "__main__":
    main()
