"""`repro bench <target> --quick --seed 7` payloads against the parent commit.

``tests/data/bench_quick_golden.json`` holds every suite's ``run_bench``
payload captured before the suites moved onto the shared helpers in
:mod:`repro.bench.harness`; wall-clock-dependent leaves are stored as
``null``.  The key set must stay exactly as it was (``BENCH_*.json``
consumers and the committed files pin it) and every simulated or counted
field must stay equal.
"""

import importlib
import json
from pathlib import Path

import pytest

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "bench_quick_golden.json").read_text()
)


def assert_same(golden, fresh, path):
    if isinstance(golden, dict):
        assert isinstance(fresh, dict), path
        assert set(fresh) == set(golden), path
        for key, value in golden.items():
            assert_same(value, fresh[key], f"{path}/{key}")
    elif golden is not None:  # null: measured, only its presence is pinned
        assert fresh == golden, path


@pytest.mark.parametrize("target", sorted(GOLDEN))
def test_quick_payload_matches_parent(target):
    bench = importlib.import_module(f"repro.bench.{target}")
    fresh = json.loads(json.dumps(bench.run_bench(seed=7, quick=True)))
    golden = GOLDEN[target]
    if target == "backends":
        # Captured without the optional numba package; where it is
        # installed that entry carries a full run instead of a reason.
        golden = dict(golden, runs=dict(golden["runs"]))
        golden["runs"].pop("numba")
        fresh["runs"].pop("numba")
    assert_same(golden, fresh, target)
