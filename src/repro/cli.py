"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print the synthetic dataset registry next to the paper's Table II.
``run``
    Run one algorithm on one dataset (or a graph file) with the
    LightTraffic engine or any baseline, printing the run statistics.
    Systems come from :data:`repro.bench.harness.SYSTEMS`: the
    ``--system`` choices, which flags a system accepts (its ``supports``
    set) and how it is built are read off that table, so a flag or a
    workload a system cannot honour exits 2 with a one-line stderr hint.
``experiment``
    Regenerate one paper table/figure by name (``fig3`` ... ``fig18``,
    ``table1``/``table2``/``table3``, the ``ablation_*`` sweeps) or one
    subsystem experiment (``samplers``, ``devices``, ``elastic``,
    ``backends``, ``serve``) and print its rows and the verdict of its
    claim, exiting 1 if the claim fails; the names are
    :data:`repro.bench.harness.EXPERIMENTS` and the claims
    :data:`repro.bench.harness.CLAIMS`, which ``report`` shares.
``report``
    Run every experiment (or the ``--only`` subset) into one markdown
    file with each claim's verdict, exiting 1 if any claim fails and 2
    on an unknown ``--only`` name.
``generate``
    Generate a synthetic graph and save it (edge list or ``.npz`` CSR).
``serve``
    Run a closed-loop walk-serving session: simulated client workers
    submit typed queries (``ppr``, ``uniform``, ``metapath``,
    ``node2vec``) against one resident graph, compatible queries are
    coalesced into shared frontier batches, and per-request
    queue/service/total latency is reported under the
    ``request-conservation`` sanitizer rule.
``lint``
    Run the repo's static analysis (:mod:`repro.analysis.static`), one
    always-on rule set: RNG calls outside the ``core/prng.py`` factory,
    ``==`` on float timestamps, unfrozen event dataclasses, bus events
    without a registered handler, device-failure paths without a
    conservation check, simulated time in backends, and stages that
    mutate shared context state without publishing an event.  Waive a
    finding with ``# lint: allow-<rule>`` on its line; ``--json`` and
    ``--sarif`` write the reports CI uploads.

Examples
--------
::

    python -m repro datasets
    python -m repro run --dataset uk-sim --algorithm pagerank --system lighttraffic
    python -m repro run --graph mygraph.npz --algorithm ppr --walks 100000
    python -m repro run --dataset lj-sim --metrics-json metrics.json
    python -m repro run --dataset uk-sim --algorithm uniform --sampler alias
    python -m repro run --dataset uk-sim --algorithm uniform --sanitize
    python -m repro run --dataset uk-sim --algorithm uniform --backend multiprocess
    python -m repro run --dataset uk-sim --devices 2 --sanitize
    python -m repro run --dataset uk-sim --devices 3 --topology ring \
        --device-spec compute=2 --device-spec compute=1 --device-spec compute=0.5 \
        --fail 1@40 --rebalance-threshold 1.5 --metrics-prom metrics.prom
    python -m repro experiment table3
    python -m repro experiment devices
    python -m repro report --out claims.md --only samplers,backends
    python -m repro generate --kind rmat --scale 14 --edge-factor 8 --out g.npz
    python -m repro serve --scale 10 --workers 8 --queries 32
    python -m repro serve --kinds ppr,uniform --workers 4 --seed 11
    python -m repro lint src/repro
    python -m repro lint --json lint-report.json --sarif lint.sarif src/repro
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.backends import available_backends
from repro.bench import harness, reporting
from repro.bench.workloads import DATASETS, load_dataset, standard_walks

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph


def _systems_supporting(capability: str) -> Tuple[str, ...]:
    return tuple(
        name
        for name, system in harness.SYSTEMS.items()
        if capability in system.supports
    )


SYSTEMS = tuple(harness.SYSTEMS)
#: systems whose engines publish on the event bus (support --metrics-json).
BUS_SYSTEMS = _systems_supporting("bus")

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LightTraffic (ICDE 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the synthetic dataset registry")

    run = sub.add_parser("run", help="run one workload")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=sorted(DATASETS))
    source.add_argument("--graph", help="path to a .npz CSR or edge-list file")
    run.add_argument(
        "--algorithm",
        choices=("uniform", "pagerank", "ppr"),
        default="pagerank",
    )
    run.add_argument("--system", choices=SYSTEMS, default="lighttraffic")
    run.add_argument(
        "--sampler", default=None, metavar="NAME",
        help="transition-sampler override for algorithms with configurable "
             "sampling (registry: uniform, alias, inverse, rejection, ...)",
    )
    run.add_argument(
        "--backend", choices=available_backends(), default="simulated",
        help="execution backend for the kernel inner loops (lighttraffic "
             "only): 'simulated' is the historical NumPy path; "
             "'multiprocess' precomputes trajectories in shared-memory "
             "workers and stays bit-identical to it (it forces the "
             "counter-based RNG)",
    )
    run.add_argument("--walks", type=int, default=None,
                     help="walk count (default: 2|V|)")
    run.add_argument("--interconnect", choices=("pcie3", "pcie4", "nvlink2"),
                     default="pcie3")
    run.add_argument(
        "--devices", type=int, default=1, metavar="N",
        help="shard the graph across N simulated devices with P2P walk "
             "migration (lighttraffic only; default 1 = the paper's "
             "single-GPU engine)",
    )
    run.add_argument(
        "--peer-interconnect", choices=("nvlink", "pcie-p2p"),
        default="nvlink",
        help="peer link carrying cross-shard walk migrations "
             "(with --devices > 1)",
    )
    run.add_argument(
        "--topology", choices=("all-pairs", "ring", "switch"),
        default="all-pairs",
        help="peer interconnect topology (with --devices > 1): migrations "
             "between non-adjacent shards are routed multi-hop",
    )
    run.add_argument(
        "--device-spec", action="append", default=None, metavar="SPEC",
        dest="device_specs",
        help="heterogeneous per-device spec 'name:compute=2,memory=0.5,"
             "link=1' (shorthands c/m/l; repeat once per device, in device "
             "order; default: homogeneous)",
    )
    run.add_argument(
        "--fail", action="append", default=None, metavar="DEV@ITER",
        dest="failures",
        help="inject a simulated failure of device DEV at iteration ITER "
             "(repeatable); its pending walks are recovered onto survivors",
    )
    run.add_argument(
        "--rebalance-threshold", type=float, default=None, metavar="X",
        help="enable elastic shard rebalancing: hand partitions off when "
             "the most loaded device exceeds X times the mean load "
             "(X > 1.0; default: rebalancing off)",
    )
    run.add_argument("--seed", type=int, default=42)
    run.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="dump per-partition metrics as JSON ('-' for stdout); "
             f"supported for {', '.join(BUS_SYSTEMS)}",
    )
    run.add_argument(
        "--metrics-prom", default=None, metavar="PATH",
        help="export run metrics (including the per-device pending-walk "
             "time series) in Prometheus text format ('-' for stdout); "
             f"supported for {', '.join(BUS_SYSTEMS)}",
    )
    run.add_argument(
        "--sanitize", action="store_true",
        help="attach the runtime invariant sanitizer to the run and fail "
             "(exit 1) on any violation; "
             f"supported for {', '.join(BUS_SYSTEMS)}",
    )

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", choices=sorted(harness.EXPERIMENTS))

    report = sub.add_parser(
        "report", help="regenerate all experiments into one markdown file"
    )
    report.add_argument("--out", required=True)
    report.add_argument(
        "--only", default=None,
        help="comma-separated experiment names (default: all)",
    )

    serve = sub.add_parser(
        "serve",
        help="closed-loop walk-serving session with query coalescing "
             "and per-request latency accounting",
    )
    serve.add_argument("--scale", type=int, default=10,
                       help="rmat scale of the resident graph")
    serve.add_argument("--edge-factor", type=int, default=8)
    serve.add_argument("--workers", type=int, default=4,
                       help="simulated concurrent client workers")
    serve.add_argument("--queries", type=int, default=16,
                       help="total queries across all workers")
    serve.add_argument(
        "--kinds", default=None, metavar="KIND[,KIND...]",
        help="comma-separated query kinds the workload cycles through "
             "(default: all kinds)",
    )
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--max-batch-walks", type=int, default=512,
                       help="walk budget of one coalesced batch")

    lint = sub.add_parser(
        "lint", help="run the repo-specific static-analysis passes"
    )
    lint.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to lint (default: the repro package "
             "sources)",
    )
    lint.add_argument(
        "--json", default=None, metavar="PATH", dest="json_path",
        help="write the machine-readable findings report to PATH",
    )
    lint.add_argument(
        "--sarif", default=None, metavar="PATH", dest="sarif_path",
        help="write the findings as a SARIF 2.1.0 log to PATH (for "
             "GitHub code-scanning upload)",
    )

    gen = sub.add_parser("generate", help="generate a synthetic graph")
    gen.add_argument("--kind", choices=("rmat", "erdos", "ba"), default="rmat")
    gen.add_argument("--scale", type=int, default=12,
                     help="rmat: log2 vertex count")
    gen.add_argument("--edge-factor", type=float, default=8.0)
    gen.add_argument("--vertices", type=int, default=4096,
                     help="erdos/ba vertex count")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--out", required=True,
                     help=".npz for binary CSR, anything else for edge list")
    return parser


def _load_graph(args: argparse.Namespace) -> "CSRGraph":
    from repro.graph.io import load_csr, load_edge_list

    if args.dataset:
        return load_dataset(args.dataset)
    if args.graph.endswith(".npz"):
        return load_csr(args.graph)
    return load_edge_list(args.graph, preprocess=True, name=args.graph)


def cmd_datasets() -> int:
    rows = harness.table2_dataset_stats()
    reporting.print_table(
        "Datasets (synthetic twins of the paper's Table II)",
        ["dataset", "paper", "|V|", "|E|", "CSR MB", "d_max", "scale"],
        [
            [
                r["dataset"],
                r["paper"],
                r["V"],
                r["E"],
                f"{r['csr_mb']:.2f}",
                r["d_max"],
                f"{r['scale']:.0f}x",
            ]
            for r in rows
        ],
    )
    return 0


def _unsupported_engine(flag: str, system: str, supported: tuple) -> int:
    """Reject a flag/engine mismatch: hint goes to stderr, exit code 2.

    Keeping the message off stdout matters for scripted callers piping
    stats output — the hint must never be mistaken for run results.
    """
    print(
        f"{flag} is not supported by system {system!r}; "
        f"supported engines: {', '.join(supported)}",
        file=sys.stderr,
    )
    return 2


def _export_metrics(text: str, path: str, what: str) -> bool:
    """Print ``text`` (``path`` is ``-``) or write it to ``path``.

    Returns ``False`` after a stderr hint when the file cannot be written.
    """
    if path == "-":
        print(text, end="")
        return True
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"cannot write metrics to {path}: {exc}", file=sys.stderr)
        return False
    print(f"wrote {what} to {path}")
    return True


def cmd_run(args: argparse.Namespace) -> int:
    from repro.core.config import FailureSchedule
    from repro.gpu.cluster import ClusterDeviceSpec

    supports = harness.SYSTEMS[args.system].supports
    cluster_flags = (
        ("--device-spec", args.device_specs is not None),
        ("--fail", args.failures is not None),
        ("--rebalance-threshold", args.rebalance_threshold is not None),
        ("--topology", args.topology != "all-pairs"),
    )
    # (flag, used?, capability the system needs for it), in the order
    # mismatches are reported.
    flag_rows = (
        ("--metrics-json", args.metrics_json is not None, "bus"),
        ("--metrics-prom", args.metrics_prom is not None, "bus"),
        ("--sanitize", args.sanitize, "bus"),
        ("--devices", args.devices > 1, "devices"),
        ("--backend", args.backend != "simulated", "backend"),
    ) + tuple((flag, used, "devices") for flag, used in cluster_flags)
    for flag, used, capability in flag_rows:
        if used and capability not in supports:
            return _unsupported_engine(
                flag, args.system, _systems_supporting(capability)
            )
    for flag, used in cluster_flags:
        if used and args.devices <= 1:
            print(f"{flag} requires --devices > 1", file=sys.stderr)
            return 2
    # Engine overrides the system's capabilities unlock.
    overrides: dict = {}
    if "backend" in supports:
        overrides["backend"] = args.backend
        if args.backend != "simulated":
            # Real backends replay the exact trajectories of the simulated
            # path, which requires schedule-independent per-lane draws.
            overrides["rng_mode"] = "counter"
    if "devices" in supports:
        overrides.update(
            devices=args.devices,
            peer_interconnect=args.peer_interconnect,
            topology=args.topology,
            rebalance_threshold=args.rebalance_threshold,
        )
    try:
        if args.device_specs is not None:
            overrides["device_specs"] = tuple(
                ClusterDeviceSpec.parse(spec) for spec in args.device_specs
            )
            if len(args.device_specs) != args.devices:
                print(
                    f"--device-spec given {len(args.device_specs)} time(s) "
                    f"but --devices is {args.devices}; repeat it once per "
                    "device",
                    file=sys.stderr,
                )
                return 2
        if args.failures is not None:
            overrides["failure_schedule"] = FailureSchedule.parse(
                ",".join(args.failures)
            )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        graph = _load_graph(args)
    except (OSError, ValueError) as exc:
        # A missing, unreadable or malformed --graph file.
        print(str(exc), file=sys.stderr)
        return 2
    try:
        engine = harness.build_system(
            args.system, graph, args.algorithm,
            interconnect=args.interconnect, seed=args.seed,
            sampler=args.sampler, sanitize=args.sanitize, **overrides,
        )
    except ValueError as exc:
        # The system cannot run this workload (FlashMob on variable-length
        # walks, NextDoor on a graph beyond device memory, an unsupported
        # --sampler): a client error like the flag mismatches above.
        print(str(exc), file=sys.stderr)
        return 2
    stats = harness.run_system(
        engine, args.walks or standard_walks(graph), sanitize=args.sanitize
    )
    if args.metrics_json is not None:
        payload = json.dumps(stats.metrics, indent=2, sort_keys=True)
        if not _export_metrics(payload + "\n", args.metrics_json, "metrics"):
            return 2
    if args.metrics_prom is not None and stats.metrics is not None:
        from repro.core.metrics import prometheus_text

        labels = {"system": args.system, "graph": graph.name}
        text = prometheus_text(stats.metrics, extra_labels=labels)
        if not _export_metrics(text, args.metrics_prom, "Prometheus metrics"):
            return 2
    print(stats.summary())
    print(f"  iterations      : {stats.iterations}")
    print(f"  explicit copies : {stats.explicit_copies}")
    if stats.num_devices > 1:
        print(f"  devices         : {stats.num_devices}")
        print(f"  walks migrated  : {stats.walks_migrated}")
        if stats.device_failures:
            print(f"  device failures : {stats.device_failures} "
                  f"({stats.walks_recovered} walks recovered)")
        if stats.rebalances:
            print(f"  rebalances      : {stats.rebalances} "
                  f"({stats.walks_rebalanced} walks handed off)")
        if stats.device_times:
            times = ", ".join(
                f"d{dev}={reporting.format_seconds(t)}"
                for dev, t in sorted(stats.device_times.items())
            )
            print(f"  device times    : {times}")
    if stats.zero_copy_iterations:
        print(f"  zero-copy iters : {stats.zero_copy_iterations}")
    if stats.graph_pool_hits + stats.graph_pool_misses:
        print(f"  pool hit rate   : {stats.graph_pool_hit_rate:.1%}")
    print("  breakdown:")
    for category, seconds in sorted(stats.breakdown.items()):
        print(f"    {category:18s} {reporting.format_seconds(seconds)}")
    if stats.measured is not None:
        measured: Any = stats.measured
        print(f"  measured wall-clock ({stats.backend} backend):")
        print(f"    setup              "
              f"{reporting.format_seconds(measured['setup_seconds'])}")
        print(f"    walk_update        "
              f"{reporting.format_seconds(measured['walk_update_seconds'])}"
              f" over {measured['num_kernels']} kernels")
        print(f"    group              "
              f"{reporting.format_seconds(measured['group_seconds'])}")
    if args.sanitize:
        from repro.analysis import format_summary

        if stats.sanitizer is None:
            print("sanitizer did not attach to the run", file=sys.stderr)
            return 2
        print(format_summary(stats.sanitizer))
        if not stats.sanitizer["clean"]:
            return 1
    return 0


def cmd_experiment(name: str) -> int:
    runner, _ = harness.EXPERIMENTS[name]
    rows = runner()
    if not rows:
        print("no rows produced")
        return 1
    keys = list(rows[0].keys())
    reporting.print_table(
        f"experiment {name}", keys, reporting.rows_from_dicts(rows, keys)
    )
    failures = harness.check_claims(name, rows)
    if failures is None:
        return 0
    print(harness.claim_verdict(name, failures))
    return 1 if failures else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.graph.generators import rmat
    from repro.serve import (
        QUERY_KINDS,
        ServeSession,
        default_workload,
        make_vertex_types,
    )

    kinds = (
        tuple(k.strip() for k in args.kinds.split(",") if k.strip())
        if args.kinds is not None
        else QUERY_KINDS
    )
    for kind in kinds:
        if kind not in QUERY_KINDS:
            return _unsupported_engine(
                f"--kinds {kind}", "serve", QUERY_KINDS
            )
    graph = rmat(
        scale=args.scale, edge_factor=args.edge_factor, seed=args.seed
    )
    config = harness.bench_engine_config(args.seed, quick=args.scale <= 8)
    try:
        session = ServeSession(
            graph,
            config,
            workers=args.workers,
            max_batch_walks=args.max_batch_walks,
            vertex_types=make_vertex_types(graph, args.seed),
        )
        workload = default_workload(
            graph, kinds=kinds, queries=args.queries, seed=args.seed
        )
        # Admission rejections (e.g. a query whose walks exceed
        # --max-batch-walks) are client errors: exit 2 with a hint,
        # consistent with _unsupported_engine.
        report = session.run(workload)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    summary = report.summary_dict()
    latency = summary["latency"]
    print(
        f"served {summary['queries']} queries "
        f"({summary['walks_served']} walks) on {graph.name or 'rmat'} "
        f"with {args.workers} workers: {summary['batches']} batches, "
        f"{summary['coalesced_queries']} coalesced, "
        f"makespan {report.makespan * 1e3:.3f} ms"
    )
    for name in ("queue_seconds", "service_seconds", "total_seconds"):
        series = latency[name]  # type: ignore[index]
        print(
            f"  {name:16s} p50={series['p50'] * 1e3:8.3f} ms "
            f"p90={series['p90'] * 1e3:8.3f} ms "
            f"p99={series['p99'] * 1e3:8.3f} ms"
        )
    throughput = summary["throughput"]
    print(
        f"  throughput: {throughput['queries_per_second']:.1f} queries/s, "  # type: ignore[index]
        f"{throughput['walks_per_second']:.1f} walks/s"  # type: ignore[index]
    )
    if report.sanitizer is not None:
        clean = bool(report.sanitizer.get("clean", False))
        print(
            "  sanitizer: "
            + ("clean" if clean else "VIOLATIONS DETECTED")
            + (
                ""
                if report.engine_sanitizers_clean
                else " (engine runs DIRTY)"
            )
        )
        if not clean or not report.engine_sanitizers_clean:
            return 1
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import os

    from repro.analysis import run_lint

    # Default target: the installed repro package sources themselves.
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    return run_lint(
        paths, json_path=args.json_path, sarif_path=args.sarif_path
    )


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.graph import generators
    from repro.graph.io import save_csr, save_edge_list

    if args.kind == "rmat":
        graph = generators.rmat(
            scale=args.scale, edge_factor=args.edge_factor, seed=args.seed
        )
    elif args.kind == "erdos":
        graph = generators.erdos_renyi(
            args.vertices,
            int(args.edge_factor * args.vertices),
            seed=args.seed,
        )
    else:
        graph = generators.barabasi_albert(
            args.vertices, attach=max(1, int(args.edge_factor)), seed=args.seed
        )
    if args.out.endswith(".npz"):
        save_csr(graph, args.out)
    else:
        save_edge_list(graph, args.out)
    print(f"wrote {graph} to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return cmd_datasets()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "experiment":
        return cmd_experiment(args.name)
    if args.command == "report":
        from repro.bench.report import write_report

        only = args.only.split(",") if args.only else None
        unknown = [n for n in only or () if n not in harness.EXPERIMENTS]
        if unknown:
            # A typo is a client error (2), not a failed claim (1).
            print(
                f"--only: unknown experiment(s) "
                f"{', '.join(map(repr, unknown))}; choose from "
                f"{', '.join(harness.EXPERIMENTS)}",
                file=sys.stderr,
            )
            return 2
        failed: List[str] = []
        write_report(args.out, only=only, failed=failed)
        print(f"wrote report to {args.out}")
        if failed:
            print(f"claims failed: {', '.join(failed)}", file=sys.stderr)
            return 1
        return 0
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "generate":
        return cmd_generate(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
