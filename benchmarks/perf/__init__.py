"""Whole-run, layer-attributed benchmark of the reproduction (see README.md).

Two entry points:

* ``python3 -m benchmarks.perf.run --workload NAME --seed N --seconds S
  --trace 0|1`` measures one workload in this process and prints one JSON
  result line (the command in ``BENCHMARK.json``);
* ``python3 -m benchmarks.perf`` runs every workload that way, each in a
  fresh child process, prints every metric and appends the result to
  ``history/runs.jsonl``.

Nothing here is imported by ``src/``; layers are timed from outside.
"""

import os

#: Version of the result files (``--out``, ``history/runs.jsonl``).
SCHEMA_VERSION = 1

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    import json

    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)
