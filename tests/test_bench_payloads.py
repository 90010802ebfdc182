"""The five subsystem experiments at ``quick=True, seed=7`` against the
values the ``repro bench`` suites they replaced recorded.

``tests/data/bench_quick_golden.json`` holds, per experiment, the rows
reshaped from those suites' ``--quick --seed 7`` payloads with every
simulated or counted value copied over unchanged; wall-clock cells are
``null``.  Each row must keep its exact key set, and every non-null cell
must be equal.
"""

import json
from pathlib import Path

import pytest

from repro.bench import harness

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "bench_quick_golden.json").read_text()
)


@pytest.mark.parametrize("target", sorted(GOLDEN))
def test_quick_payload_matches_parent(target):
    runner, _ = harness.EXPERIMENTS[target]
    fresh = runner(seed=7, quick=True)
    golden = GOLDEN[target]
    assert len(fresh) == len(golden)
    for index, (want, got) in enumerate(zip(golden, fresh)):
        assert set(got) == set(want), (target, index)
        for key, value in want.items():
            if value is not None:  # null: measured, only its key is pinned
                assert got[key] == value, (target, index, key)
