"""Ablation — unified virtual memory vs LightTraffic's explicit transfers.

The paper's related work (§V) covers UVM-based out-of-memory processing
(Grus; Gera et al.); the reason LightTraffic partitions and schedules
explicitly is that fault-driven page migration cannot be hidden and moves
whole pages for sparse accesses.  This bench quantifies that on the
streaming-bound dataset: UVM should lose clearly when the graph exceeds
device memory (page cache thrashes) and be competitive when it fits.
"""

from repro.bench.harness import build_system
from repro.bench.reporting import format_seconds, render_table
from repro.bench.workloads import (
    default_platform,
    load_dataset,
    standard_walks,
)


def run_sweep():
    platform = default_platform()
    rows = []
    for dataset in ("fs-sim", "uk-sim"):
        graph = load_dataset(dataset)
        walks = standard_walks(graph)
        lt = build_system("lighttraffic", graph, "pagerank", platform).run(
            walks
        )
        uvm_engine = build_system(
            "uvm", graph, "pagerank", platform, page_bytes=4096
        )
        uvm = uvm_engine.run(walks)
        rows.append(
            {
                "dataset": dataset,
                "fits_gpu": graph.csr_bytes <= platform.gpu_memory_bytes,
                "uvm_time": uvm.total_time,
                "lt_time": lt.total_time,
                "uvm_fault_rate": uvm_engine.fault_rate,
                "lt_speedup": uvm.total_time / lt.total_time,
            }
        )
    return rows


def bench_ablation_uvm(run_once, show):
    rows = run_once(run_sweep)
    show(
        render_table(
            "Ablation: UVM page faulting vs LightTraffic (PageRank)",
            ["dataset", "fits GPU", "UVM time", "LT time", "UVM fault rate",
             "LT speedup"],
            [
                [
                    r["dataset"],
                    "yes" if r["fits_gpu"] else "no",
                    format_seconds(r["uvm_time"]),
                    format_seconds(r["lt_time"]),
                    f"{r['uvm_fault_rate']:.1%}",
                    f"{r['lt_speedup']:.2f}x",
                ]
                for r in rows
            ],
        )
    )
    by = {r["dataset"]: r for r in rows}
    # Out-of-memory graph: the UVM page cache thrashes and LT wins clearly.
    assert by["uk-sim"]["uvm_fault_rate"] > 0.5
    assert by["uk-sim"]["lt_speedup"] > 1.5
    # In-memory graph: pages are faulted once then reused — UVM close to LT.
    assert by["fs-sim"]["uvm_fault_rate"] < 0.5
    assert by["fs-sim"]["lt_speedup"] < by["uk-sim"]["lt_speedup"]
