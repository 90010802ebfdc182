"""Run the whole benchmark: every workload, each in a fresh child process.

``python3 -m benchmarks.perf [--seed 7] [--workload NAME ...] [--out PATH]``
from the repository root.  For each workload one child measures the
end-to-end metrics with tracing off and a second child the per-layer
metrics of a traced repetition (``benchmarks.perf.run``); one child at a
time, single process, single thread.  Prints every metric by name with its
unit, writes the result with its provenance to ``--out`` and appends it as
one line to ``history/runs.jsonl``.  Exits 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.perf import PERF_DIR, REPO_ROOT, SCHEMA_VERSION, load_spec
from benchmarks.perf.run import GOLDEN_JSON

OUT_DIR = os.path.join(PERF_DIR, "out")
HISTORY_JSONL = os.path.join(PERF_DIR, "history", "runs.jsonl")


def git(*args: str) -> str:
    try:
        return subprocess.run(
            ("git", *args),
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def provenance(seed: int, smoke: bool) -> Dict[str, object]:
    import numpy

    return {
        "schema": SCHEMA_VERSION,
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "smoke": smoke,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure(name: str, args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    """One child run of ``benchmarks.perf.run``; returns its full result."""
    out = os.path.join(OUT_DIR, f"{name}.trace{trace}.json")
    command = [
        sys.executable, "-m", "benchmarks.perf.run",
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", out,
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    if trace and args.trace_out:
        command += ["--trace-out", args.trace_out]
    child = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.DEVNULL)
    if child.returncode not in (0, 1):
        raise SystemExit(f"{name}: child exited with {child.returncode}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def report(name: str, runs: Dict[str, Dict[str, Any]]) -> None:
    """Print one workload's metrics, every one by name with its unit."""
    end_to_end, per_layer = runs["end_to_end"], runs["per_layer"]
    facts = end_to_end["facts"]
    shape = ", ".join(f"{key}={facts[key]}" for key in sorted(facts) if "sha256" not in key)
    print(f"\n== {name}  ({shape})")
    print(f"   golden: {end_to_end['golden']}")
    for section, result in (("end to end", end_to_end), ("per layer", per_layer)):
        print(f"   -- {section}")
        for metric, entry in result["metrics"].items():
            clock = "simulated" if entry["unit"] == "sim_s" else ""
            print(f"   {metric:48s} {entry['value']:>18.6f} {entry['unit']:10s} {clock}")
        for sample, summary in result["samples"].items():
            print(
                f"   ({sample}: median {summary['median']:.4f}, min "
                f"{summary['min']:.4f}, max {summary['max']:.4f}, n {summary['n']})"
            )
    failed = sum(result["failed"] for result in runs.values())
    attempted = end_to_end["attempted"]
    print(f"   failed_share = {failed}/{attempted} = {failed / attempted:.6f}")
    for result in runs.values():
        for problem in result["problems"]:
            print(f"   FAILED: {problem}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.perf", description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]), help="timed seconds per workload")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "latest.json"))
    parser.add_argument("--trace-out", help="also dump each traced repetition's spans (Chrome trace JSON) here")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; nothing is appended to the history")
    parser.add_argument("--write-golden", action="store_true", help="pin this run's facts as golden.json")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    os.makedirs(OUT_DIR, exist_ok=True)
    result: Dict[str, Any] = {
        "provenance": provenance(args.seed, args.smoke),
        "workloads": {},
    }
    for name in args.workload or names:
        runs = {
            "end_to_end": measure(name, args, trace=0),
            "per_layer": measure(name, args, trace=1),
        }
        result["workloads"][name] = runs
        report(name, runs)
    result["correct"] = all(
        run["correct"] for runs in result["workloads"].values() for run in runs.values()
    )
    result["provenance"]["whole_run_s"] = time.perf_counter() - started
    result["provenance"]["repetitions"] = {
        name: runs["end_to_end"]["samples"]["wall_s"]["n"]
        for name, runs in result["workloads"].items()
    }
    print(f"\nprovenance: {json.dumps(result['provenance'], sort_keys=True)}")
    print("correct" if result["correct"] else "INCORRECT: see FAILED lines")

    if args.write_golden:
        if args.smoke or set(result["workloads"]) != set(names):
            parser.error("--write-golden needs a full-size run of every workload")
        golden = {
            "seed": args.seed,
            "workloads": {
                name: runs["end_to_end"]["facts"]
                for name, runs in result["workloads"].items()
            },
        }
        with open(GOLDEN_JSON, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {GOLDEN_JSON}")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if not args.smoke:
        os.makedirs(os.path.dirname(HISTORY_JSONL), exist_ok=True)
        with open(HISTORY_JSONL, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(result, sort_keys=True) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
