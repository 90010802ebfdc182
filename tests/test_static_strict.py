"""The strict static-analysis passes: seeded unit-mixing,
stage-aliasing, RNG-discipline, observer-purity, event-protocol,
resource-typestate and client-input-taint defects are each caught
exactly once, waivers and the suppression baseline behave, SARIF
output round-trips through structural validation, and the real source
tree is strict-clean.

Also the unit-consistency regression tests for the two cost paths the
unit audit singled out (satellite of the static-analysis PR):
``PeerLinkSpec.transfer_time`` packetization and
``Calibration.step_cycles_for``.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.static import (
    DEFAULT_BASELINE,
    Baseline,
    RULE_CYCLES_SECONDS,
    RULE_DEVICE_COVERAGE,
    RULE_HANDLER_EMIT,
    RULE_IMPURE_SUBSCRIBER,
    RULE_LEAKED_RESOURCE,
    RULE_NONDET_SEED,
    RULE_RAW_RNG,
    RULE_RETURN_MISMATCH,
    RULE_RETURN_UNTYPED,
    RULE_TAINTED_INDEX,
    RULE_TAINTED_SEED,
    RULE_TYPESTATE_ORDER,
    RULE_UNDECLARED,
    RULE_UNHANDLED_EVENT,
    RULE_UNIT_MIX,
    RULE_UNKEYED_DRAW,
    RULE_UNKNOWN_FIELD,
    RULE_UNPUBLISHED,
    RULE_UNVALIDATED_SIZE,
    RULE_USE_AFTER_CLOSE,
    analyze_paths,
    run_lint,
    validate_sarif,
)
from repro.core.units import seconds_from_cycles
from repro.gpu.calibration import Calibration
from repro.gpu.cluster import NVLINK_P2P, PCIE_P2P, PeerLinkSpec
from repro.gpu.device import RTX3090

SRC = Path(__file__).parent.parent / "src" / "repro"


def strict_findings(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.write_text(source)
    findings, checked = analyze_paths([path], strict=True)
    assert checked == 1
    return findings


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# Unit-of-measure pass: each seeded defect caught exactly once
# ---------------------------------------------------------------------------


class TestUnitPass:
    def test_mixed_unit_addition_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "def total(nbytes: int, walks: int) -> float:\n"
            "    return nbytes + walks\n",
        )
        assert rules_of(findings) == [RULE_UNIT_MIX]
        assert "B + walk" in findings[0].message

    def test_cycles_plus_seconds_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "def combine(step_cycles: float, busy_seconds: float) -> float:\n"
            "    return step_cycles + busy_seconds\n",
        )
        assert rules_of(findings) == [RULE_CYCLES_SECONDS]
        assert "seconds_from_cycles" in findings[0].message

    def test_blessed_conversion_is_clean(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "def combine(step_cycles: float, busy_seconds: float,\n"
            "            clock_hz: float) -> float:\n"
            "    return step_cycles / clock_hz + busy_seconds\n",
        )
        assert findings == []

    def test_unit_return_mismatch_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "from repro.core.units import Seconds\n"
            "def launch_cost(delay_cycles: float) -> Seconds:\n"
            "    return delay_cycles\n",
        )
        assert rules_of(findings) == [RULE_RETURN_MISMATCH]
        assert "returns cy" in findings[0].message

    def test_unitless_seconds_function_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "def copy_seconds(n: int) -> float:\n"
            "    return 0.0\n",
        )
        assert rules_of(findings) == [RULE_RETURN_UNTYPED]
        assert "core/units.py" in findings[0].message

    def test_unit_mix_waiver_suppresses(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "def total(nbytes: int, walks: int) -> float:\n"
            "    return nbytes + walks  # lint: allow-unit-mix\n",
        )
        assert findings == []

    def test_dimension_cancellation_through_locals(self, tmp_path):
        # walks * bytes_per_walk is bytes (counts absorbed); dividing by
        # bandwidth yields seconds, which adds cleanly to a latency.
        findings = strict_findings(
            tmp_path,
            "def xfer(walks: int, bytes_per_walk: int, bandwidth: float,\n"
            "         latency_seconds: float) -> float:\n"
            "    payload = walks * bytes_per_walk\n"
            "    return latency_seconds + payload / bandwidth\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Cross-stage aliasing pass
# ---------------------------------------------------------------------------

_CTX_PREAMBLE = (
    "from dataclasses import dataclass\n"
    "@dataclass\n"
    "class StageContext:\n"
    "    frontier: list\n"
    "    bus: object\n"
)


class TestAliasingPass:
    def test_unpublished_shared_mutation_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _CTX_PREAMBLE
            + "class LoadStage:\n"
            "    def run(self, ctx):\n"
            "        ctx.frontier.append(1)\n"
            "class ComputeStage:\n"
            "    def run(self, ctx):\n"
            "        return len(ctx.frontier)\n",
        )
        assert rules_of(findings) == [RULE_UNPUBLISHED]
        assert "LoadStage.run" in findings[0].message
        assert "'frontier'" in findings[0].message

    def test_publishing_stage_is_clean(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _CTX_PREAMBLE
            + "class LoadStage:\n"
            "    def run(self, ctx):\n"
            "        ctx.frontier.append(1)\n"
            "        ctx.bus.emit(FrontierGrew())\n"
            "class ComputeStage:\n"
            "    def run(self, ctx):\n"
            "        return len(ctx.frontier)\n",
        )
        assert findings == []

    def test_transitive_publish_through_helper(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _CTX_PREAMBLE
            + "class LoadStage:\n"
            "    def run(self, ctx):\n"
            "        ctx.frontier.append(1)\n"
            "        self._announce(ctx)\n"
            "    def _announce(self, ctx):\n"
            "        ctx.bus.emit(FrontierGrew())\n"
            "class ComputeStage:\n"
            "    def run(self, ctx):\n"
            "        return len(ctx.frontier)\n",
        )
        assert findings == []

    def test_private_field_needs_no_event(self, tmp_path):
        # Only one actor touches the field: no cross-stage contract.
        findings = strict_findings(
            tmp_path,
            _CTX_PREAMBLE
            + "class LoadStage:\n"
            "    def run(self, ctx):\n"
            "        ctx.frontier.append(1)\n",
        )
        assert findings == []

    def test_undeclared_context_field_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _CTX_PREAMBLE
            + "class TypoStage:\n"
            "    def run(self, ctx):\n"
            "        ctx.fronteir = []\n",
        )
        assert rules_of(findings) == [RULE_UNDECLARED]
        assert "'fronteir'" in findings[0].message

    def test_local_alias_of_field_tracked(self, tmp_path):
        # pool = ctx.frontier; pool.append(...) is still a write.
        findings = strict_findings(
            tmp_path,
            _CTX_PREAMBLE
            + "class LoadStage:\n"
            "    def run(self, ctx):\n"
            "        pool = ctx.frontier\n"
            "        pool.append(1)\n"
            "class ComputeStage:\n"
            "    def run(self, ctx):\n"
            "        return len(ctx.frontier)\n",
        )
        assert rules_of(findings) == [RULE_UNPUBLISHED]


# ---------------------------------------------------------------------------
# Interprocedural RNG-discipline pass
# ---------------------------------------------------------------------------


class TestRngPass:
    def test_raw_rng_through_helper_and_alias_caught_once(self, tmp_path):
        # Aliased numpy.random import + construction hidden in a helper:
        # invisible to the intraprocedural rng-factory rule, caught by
        # call-graph reachability from the Backend-named root.
        findings = strict_findings(
            tmp_path,
            "from numpy import random as nprng\n"
            "def _fresh_rng():\n"
            "    return nprng.default_rng(1234)\n"
            "class ReplayBackend:\n"
            "    def advance(self, batch):\n"
            "        return _fresh_rng()\n",
        )
        assert rules_of(findings) == [RULE_RAW_RNG]
        assert "numpy.random.default_rng" in findings[0].message
        assert "seeded_rng" in findings[0].message

    def test_raw_rng_waiver_suppresses(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "from numpy import random as nprng\n"
            "def _fresh_rng():\n"
            "    return nprng.default_rng(1234)  # lint: allow-raw-rng\n"
            "class ReplayBackend:\n"
            "    def advance(self, batch):\n"
            "        return _fresh_rng()\n",
        )
        assert findings == []

    def test_unreachable_raw_rng_is_not_flagged(self, tmp_path):
        # No engine/backend root reaches the helper: out of scope.
        findings = strict_findings(
            tmp_path,
            "from numpy import random as nprng\n"
            "def _fresh_rng():\n"
            "    return nprng.default_rng(1234)\n",
        )
        assert findings == []

    def test_time_derived_seed_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "import time\n"
            "from repro.core.prng import seeded_rng\n"
            "class WalkEngine:\n"
            "    def reset(self):\n"
            "        self._rng = seeded_rng(int(time.time()))\n",
        )
        assert rules_of(findings) == [RULE_NONDET_SEED]
        assert "time.time" in findings[0].message

    def test_constant_seeded_factory_is_clean(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "from repro.core.prng import seeded_rng\n"
            "class WalkEngine:\n"
            "    def reset(self, seed):\n"
            "        self._rng = seeded_rng(seed, stream='reset')\n",
        )
        assert findings == []

    def test_unkeyed_draw_caught_once(self, tmp_path):
        # A backend draw routine missing the step component of the
        # (seed, walk, step, draw) key tuple.
        findings = strict_findings(
            tmp_path,
            "class TabledBackend:\n"
            "    def run(self):\n"
            "        return None\n"
            "def _lane_draw(seed, walk_id, draw):\n"
            "    return 0\n",
        )
        assert rules_of(findings) == [RULE_UNKEYED_DRAW]
        assert "step" in findings[0].message

    def test_fully_keyed_draw_is_clean(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "class TabledBackend:\n"
            "    def run(self):\n"
            "        return None\n"
            "def _lane_draw(seed, walk_id, step, draw):\n"
            "    return 0\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Observer-purity pass
# ---------------------------------------------------------------------------

_EVENT_PREAMBLE = (
    "from dataclasses import dataclass\n"
    "@dataclass(frozen=True)\n"
    "class EngineEvent:\n"
    "    pass\n"
    "@dataclass(frozen=True)\n"
    "class TickSeen(EngineEvent):\n"
    "    pass\n"
)


class TestEffectsPass:
    def test_impure_subscriber_through_helper_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _EVENT_PREAMBLE
            + "class Autotuner:\n"
            "    def __init__(self, ctx):\n"
            "        self.ctx = ctx\n"
            "    def on_tick_seen(self, event):\n"
            "        self._retune()\n"
            "    def _retune(self):\n"
            "        self.ctx.batch_size = 64\n",
        )
        assert rules_of(findings) == [RULE_IMPURE_SUBSCRIBER]
        assert "Autotuner.on_tick_seen -> Autotuner._retune" in (
            findings[0].message
        )
        assert "'ctx'" in findings[0].message

    def test_impure_write_through_call_argument(self, tmp_path):
        # Protected state passed as an argument: the callee's parameter
        # inherits the protection.
        findings = strict_findings(
            tmp_path,
            _EVENT_PREAMBLE
            + "def _apply(ctx):\n"
            "    ctx.depth = 3\n"
            "class Tuner:\n"
            "    def __init__(self, ctx):\n"
            "        self.ctx = ctx\n"
            "    def on_tick_seen(self, event):\n"
            "        _apply(self.ctx)\n",
        )
        assert rules_of(findings) == [RULE_IMPURE_SUBSCRIBER]

    def test_own_bookkeeping_writes_are_pure(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _EVENT_PREAMBLE
            + "class Counter:\n"
            "    def __init__(self):\n"
            "        self.ticks = 0\n"
            "        self.log = []\n"
            "    def on_tick_seen(self, event):\n"
            "        self.ticks += 1\n"
            "        self.log.append(event)\n",
        )
        assert findings == []

    def test_handler_emit_through_helper_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _EVENT_PREAMBLE
            + "class Relay:\n"
            "    def __init__(self, bus):\n"
            "        self.bus = bus\n"
            "    def on_tick_seen(self, event):\n"
            "        self._fanout(event)\n"
            "    def _fanout(self, event):\n"
            "        self.bus.emit(event)\n",
        )
        assert rules_of(findings) == [RULE_HANDLER_EMIT]
        assert "Relay.on_tick_seen -> Relay._fanout" in findings[0].message

    def test_non_bus_hook_with_handler_name_is_skipped(self, tmp_path):
        # An annotated direct-call hook sharing the on_<event> naming
        # convention is not a subscriber (cf. backends' on_walks_seeded).
        findings = strict_findings(
            tmp_path,
            _EVENT_PREAMBLE
            + "class Feed:\n"
            "    pass\n"
            "class Sink:\n"
            "    def __init__(self, ctx):\n"
            "        self.ctx = ctx\n"
            "    def on_tick_seen(self, batch: Feed):\n"
            "        self.ctx.depth = 1\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Event-protocol conformance pass
# ---------------------------------------------------------------------------


class TestProtocolPass:
    def test_unhandled_event_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _EVENT_PREAMBLE
            + "@dataclass(frozen=True)\n"
            "class OrphanSignal(EngineEvent):\n"
            "    pass\n"
            "class RelayStage:\n"
            "    def __init__(self, ctx):\n"
            "        self.ctx = ctx\n"
            "    def run(self):\n"
            "        self.ctx.bus.emit(OrphanSignal())\n"
            "class TickWatcher:\n"
            "    def on_tick_seen(self, event):\n"
            "        self.noted = True\n",
        )
        assert rules_of(findings) == [RULE_UNHANDLED_EVENT]
        assert "'OrphanSignal'" in findings[0].message
        assert "on_orphan_signal" in findings[0].message

    def test_subscribe_registration_counts_as_handled(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _EVENT_PREAMBLE
            + "@dataclass(frozen=True)\n"
            "class OrphanSignal(EngineEvent):\n"
            "    pass\n"
            "class RelayStage:\n"
            "    def __init__(self, ctx):\n"
            "        self.ctx = ctx\n"
            "    def run(self):\n"
            "        self.ctx.bus.subscribe(OrphanSignal, print)\n"
            "        self.ctx.bus.emit(OrphanSignal())\n",
        )
        assert findings == []

    def test_unknown_event_field_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _EVENT_PREAMBLE
            + "@dataclass(frozen=True)\n"
            "class PayloadStaged(EngineEvent):\n"
            "    walks: int = 0\n"
            "class Monitor:\n"
            "    def __init__(self):\n"
            "        self.seen = 0\n"
            "    def on_payload_staged(self, event):\n"
            "        self.seen = event.walk_count\n",
        )
        assert rules_of(findings) == [RULE_UNKNOWN_FIELD]
        assert "'event.walk_count'" in findings[0].message
        assert "'PayloadStaged'" in findings[0].message

    def test_declared_field_reads_are_clean(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _EVENT_PREAMBLE
            + "@dataclass(frozen=True)\n"
            "class PayloadStaged(EngineEvent):\n"
            "    walks: int = 0\n"
            "class Monitor:\n"
            "    def __init__(self):\n"
            "        self.seen = 0\n"
            "    def on_payload_staged(self, event):\n"
            "        self.seen = event.walks\n",
        )
        assert findings == []

    def test_iteration_event_without_device_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _EVENT_PREAMBLE
            + "@dataclass(frozen=True)\n"
            "class ProbeTick(EngineEvent):\n"
            "    iteration: int = 0\n",
        )
        assert rules_of(findings) == [RULE_DEVICE_COVERAGE]
        assert "'ProbeTick'" in findings[0].message

    def test_iteration_event_with_device_is_clean(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _EVENT_PREAMBLE
            + "@dataclass(frozen=True)\n"
            "class ProbeTick(EngineEvent):\n"
            "    iteration: int = 0\n"
            "    device: int = 0\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Typestate pass: lifecycle order, use-after-close, resource leaks
# ---------------------------------------------------------------------------

_BACKEND_PREAMBLE = (
    "class ToyBackend:\n"
    "    def __init__(self, name): ...\n"
    "    def bind(self, graph, spec): ...\n"
    "    def on_walks_seeded(self, frontier): ...\n"
    "    def advance(self, state): ...\n"
    "    def close(self): ...\n"
)


class TestTypestatePass:
    def test_advance_before_seed_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _BACKEND_PREAMBLE
            + "def run():\n"
            "    backend = ToyBackend('toy')\n"
            "    backend.advance(None)\n",
        )
        assert rules_of(findings) == [RULE_TYPESTATE_ORDER]
        assert "ExecutionBackend" in findings[0].message
        assert "state {new}" in findings[0].message

    def test_bind_after_close_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _BACKEND_PREAMBLE
            + "def run(graph, spec):\n"
            "    backend = ToyBackend('toy')\n"
            "    backend.bind(graph, spec)\n"
            "    backend.close()\n"
            "    backend.bind(graph, spec)\n",
        )
        assert rules_of(findings) == [RULE_USE_AFTER_CLOSE]
        assert "terminal state 'closed'" in findings[0].message

    def test_conforming_lifecycle_is_clean(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _BACKEND_PREAMBLE
            + "def run(graph, spec, frontier):\n"
            "    backend = ToyBackend('toy')\n"
            "    backend.bind(graph, spec)\n"
            "    backend.on_walks_seeded(frontier)\n"
            "    backend.advance(None)\n"
            "    backend.advance(None)\n"
            "    backend.close()\n"
            "    backend.close()\n",  # close is idempotent
        )
        assert findings == []

    def test_branch_merge_does_not_false_positive(self, tmp_path):
        # advance is allowed on either path, so the merged state set
        # {seeded, advancing} intersects the allowed set: no finding.
        findings = strict_findings(
            tmp_path,
            _BACKEND_PREAMBLE
            + "def run(graph, spec, frontier, warm):\n"
            "    backend = ToyBackend('toy')\n"
            "    backend.bind(graph, spec)\n"
            "    backend.on_walks_seeded(frontier)\n"
            "    if warm:\n"
            "        backend.advance(None)\n"
            "    backend.advance(None)\n"
            "    backend.close()\n",
        )
        assert findings == []

    def test_typestate_waiver_suppresses(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _BACKEND_PREAMBLE
            + "def run():\n"
            "    backend = ToyBackend('toy')\n"
            "    backend.advance(None)  # lint: allow-typestate-order\n",
        )
        assert findings == []

    def test_subscribe_after_emit_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "from repro.core.events import EventBus, WalkStarted\n"
            "def wire(handler):\n"
            "    bus = EventBus()\n"
            "    bus.emit(WalkStarted(walk=1))\n"
            "    bus.subscribe(WalkStarted, handler)\n",
        )
        assert rules_of(findings) == [RULE_TYPESTATE_ORDER]
        assert "missed events" in findings[0].message

    def test_subscribe_before_emit_is_clean(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "from repro.core.events import EventBus, WalkStarted\n"
            "def wire(handler):\n"
            "    bus = EventBus()\n"
            "    bus.subscribe(WalkStarted, handler)\n"
            "    bus.emit(WalkStarted(walk=1))\n",
        )
        assert findings == []


_SHM_PREAMBLE = "from multiprocessing import shared_memory\n"


class TestLeakedResource:
    def test_unguarded_local_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _SHM_PREAMBLE
            + "def leaky(n):\n"
            "    shm = shared_memory.SharedMemory(create=True, size=n)\n"
            "    shm.close()\n"
            "    shm.unlink()\n",
        )
        assert rules_of(findings) == [RULE_LEAKED_RESOURCE]
        assert "try/finally" in findings[0].message

    def test_acquire_then_try_finally_is_clean(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _SHM_PREAMBLE
            + "def guarded(n, work):\n"
            "    shm = shared_memory.SharedMemory(create=True, size=n)\n"
            "    try:\n"
            "        work(shm)\n"
            "    finally:\n"
            "        shm.close()\n"
            "        shm.unlink()\n",
        )
        assert findings == []

    def test_returned_block_transfers_ownership(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _SHM_PREAMBLE
            + "def make(n):\n"
            "    shm = shared_memory.SharedMemory(create=True, size=n)\n"
            "    return shm\n",
        )
        assert findings == []

    def test_attach_is_not_an_acquisition(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _SHM_PREAMBLE
            + "def attach(name):\n"
            "    shm = shared_memory.SharedMemory(name=name)\n"
            "    return shm.buf\n",
        )
        assert findings == []

    def test_fallible_setup_after_acquisition_caught_once(self, tmp_path):
        # The pre-fix MultiprocessBackend.on_walks_seeded shape: blocks
        # registered in a released container, but a later fallible setup
        # step runs outside any try — a partial failure strands them.
        findings = strict_findings(
            tmp_path,
            _SHM_PREAMBLE
            + "class Pool:\n"
            "    def __init__(self):\n"
            "        self._shms = []\n"
            "    def setup(self, n):\n"
            "        shm = shared_memory.SharedMemory(create=True, size=n)\n"
            "        self._shms.append(shm)\n"
            "        self._spawn_workers()\n"
            "    def _spawn_workers(self):\n"
            "        raise RuntimeError('boom')\n"
            "    def close(self):\n"
            "        for shm in self._shms:\n"
            "            shm.close()\n"
            "            shm.unlink()\n",
        )
        assert rules_of(findings) == [RULE_LEAKED_RESOURCE]
        assert "partial failure strands" in findings[0].message

    def test_guarded_fallible_setup_is_clean(self, tmp_path):
        # The post-fix shape: setup wrapped in try/except that releases
        # via self.close().
        findings = strict_findings(
            tmp_path,
            _SHM_PREAMBLE
            + "class Pool:\n"
            "    def __init__(self):\n"
            "        self._shms = []\n"
            "    def setup(self, n):\n"
            "        try:\n"
            "            shm = shared_memory.SharedMemory(\n"
            "                create=True, size=n)\n"
            "            self._shms.append(shm)\n"
            "            self._spawn_workers()\n"
            "        except BaseException:\n"
            "            self.close()\n"
            "            raise\n"
            "    def _spawn_workers(self):\n"
            "        raise RuntimeError('boom')\n"
            "    def close(self):\n"
            "        for shm in self._shms:\n"
            "            shm.close()\n"
            "            shm.unlink()\n",
        )
        assert findings == []

    def test_container_without_cleanup_method_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _SHM_PREAMBLE
            + "class Pool:\n"
            "    def __init__(self):\n"
            "        self._shms = []\n"
            "    def setup(self, n):\n"
            "        shm = shared_memory.SharedMemory(create=True, size=n)\n"
            "        self._shms.append(shm)\n",
        )
        assert rules_of(findings) == [RULE_LEAKED_RESOURCE]
        assert "no cleanup method" in findings[0].message

    def test_leak_waiver_suppresses(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _SHM_PREAMBLE
            + "def leaky(n):\n"
            "    shm = shared_memory.SharedMemory(create=True, size=n)"
            "  # lint: allow-leaked-resource\n"
            "    return shm.buf\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Taint pass: client-controlled values reaching sized/seeded/index sinks
# ---------------------------------------------------------------------------

_QUERY_PREAMBLE = (
    "from dataclasses import dataclass\n"
    "import numpy as np\n"
    "from repro.core.prng import derive_seed\n"
    "@dataclass(frozen=True)\n"
    "class ToyQuery:\n"
    "    walks: int\n"
    "    length: int\n"
    "    seed: int\n"
    "    def __post_init__(self):\n"
    "        if self.walks < 1:\n"
    "            raise ValueError('walks must be >= 1')\n"
)


class TestTaintPass:
    def test_unvalidated_field_to_alloc_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _QUERY_PREAMBLE
            + "def alloc(query: ToyQuery):\n"
            "    return np.zeros(query.length)\n",
        )
        assert rules_of(findings) == [RULE_UNVALIDATED_SIZE]
        assert "ToyQuery.length" in findings[0].message

    def test_validated_field_is_clean(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _QUERY_PREAMBLE
            + "def alloc(query: ToyQuery):\n"
            "    return np.zeros(query.walks)\n",
        )
        assert findings == []

    def test_tainted_seed_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _QUERY_PREAMBLE
            + "def reseed(query: ToyQuery):\n"
            "    return derive_seed(query.length, 0, 0)\n",
        )
        assert rules_of(findings) == [RULE_TAINTED_SEED]

    def test_seed_field_is_the_sanctioned_stream_selector(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _QUERY_PREAMBLE
            + "def reseed(query: ToyQuery):\n"
            "    return derive_seed(query.seed, 0, 0)\n",
        )
        assert findings == []

    def test_tainted_csr_index_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _QUERY_PREAMBLE
            + "def degree(query: ToyQuery, offsets):\n"
            "    return offsets[query.length]\n",
        )
        assert rules_of(findings) == [RULE_TAINTED_INDEX]
        assert "offsets" in findings[0].message

    def test_interprocedural_flow_reports_chain(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _QUERY_PREAMBLE
            + "def helper(n):\n"
            "    return np.empty(n)\n"
            "def outer(query: ToyQuery):\n"
            "    return helper(query.length)\n",
        )
        assert rules_of(findings) == [RULE_UNVALIDATED_SIZE]
        assert "outer -> helper" in findings[0].message

    def test_raising_guard_sanitizes(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _QUERY_PREAMBLE
            + "def alloc(query: ToyQuery):\n"
            "    length = query.length\n"
            "    if length > 1024:\n"
            "        raise ValueError('too long')\n"
            "    return np.zeros(length)\n",
        )
        assert findings == []

    def test_validated_helper_sanitizes(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _QUERY_PREAMBLE
            + "from repro.serve.queries import validated\n"
            "def alloc(query: ToyQuery):\n"
            "    return np.zeros(validated(query.length, 1, 1024))\n",
        )
        assert findings == []

    def test_cli_args_are_a_source(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "import numpy as np\n"
            "def cmd_run(args):\n"
            "    return np.zeros(args.count)\n",
        )
        assert rules_of(findings) == [RULE_UNVALIDATED_SIZE]
        assert "args.count" in findings[0].message

    def test_guarded_args_are_clean(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            "import numpy as np\n"
            "def cmd_run(args):\n"
            "    if args.count > 100:\n"
            "        raise SystemExit(2)\n"
            "    return np.zeros(args.count)\n",
        )
        assert findings == []

    def test_tainted_range_bound_caught_once(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _QUERY_PREAMBLE
            + "def steps(query: ToyQuery):\n"
            "    return list(range(query.length))\n",
        )
        assert rules_of(findings) == [RULE_UNVALIDATED_SIZE]

    def test_taint_waiver_suppresses(self, tmp_path):
        findings = strict_findings(
            tmp_path,
            _QUERY_PREAMBLE
            + "def alloc(query: ToyQuery):\n"
            "    return np.zeros(query.length)"
            "  # lint: allow-unvalidated-size\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Baseline + CLI behaviour
# ---------------------------------------------------------------------------

_DEFECT = (
    "def total(nbytes: int, walks: int) -> float:\n"
    "    return nbytes + walks\n"
)


class TestBaseline:
    def test_strict_without_baseline_fails(self, tmp_path, capsys):
        path = tmp_path / "defect.py"
        path.write_text(_DEFECT)
        assert run_lint([str(path)], strict=True) == 1
        assert "unit-mix" in capsys.readouterr().out

    def test_update_then_rerun_suppresses(self, tmp_path, capsys):
        path = tmp_path / "defect.py"
        path.write_text(_DEFECT)
        baseline = tmp_path / "baseline.json"
        assert (
            run_lint(
                [str(path)],
                strict=True,
                baseline_path=str(baseline),
                update_baseline=True,
            )
            == 0
        )
        entries = json.loads(baseline.read_text())["findings"]
        assert len(entries) == 1 and entries[0]["rule"] == RULE_UNIT_MIX
        capsys.readouterr()
        assert (
            run_lint([str(path)], strict=True, baseline_path=str(baseline))
            == 0
        )
        assert "1 baseline-suppressed" in capsys.readouterr().out

    def test_new_finding_not_masked_by_baseline(self, tmp_path, capsys):
        path = tmp_path / "defect.py"
        path.write_text(_DEFECT)
        baseline = tmp_path / "baseline.json"
        run_lint(
            [str(path)],
            strict=True,
            baseline_path=str(baseline),
            update_baseline=True,
        )
        path.write_text(
            _DEFECT
            + "def later(step_cycles: float, busy_seconds: float) -> float:\n"
            "    return step_cycles - busy_seconds\n"
        )
        capsys.readouterr()
        assert (
            run_lint([str(path)], strict=True, baseline_path=str(baseline))
            == 1
        )
        out = capsys.readouterr().out
        assert "cycles-vs-seconds" in out

    def test_json_report_schema(self, tmp_path):
        path = tmp_path / "defect.py"
        path.write_text(_DEFECT)
        report = tmp_path / "report.json"
        run_lint([str(path)], strict=True, json_path=str(report))
        payload = json.loads(report.read_text())
        assert payload["strict"] is True
        assert payload["checked_files"] == 1
        assert payload["passes"] == [
            "house-rules",
            "units",
            "aliasing",
            "rng",
            "effects",
            "protocol",
            "typestate",
            "taint",
        ]
        assert [f["rule"] for f in payload["findings"]] == [RULE_UNIT_MIX]
        assert payload["suppressed"] == []

    def test_missing_path_exit_code(self, tmp_path, capsys):
        assert run_lint([str(tmp_path / "nope.py")], strict=True) == 2
        capsys.readouterr()


class TestBaselineRoundTrip:
    def test_suppression_survives_line_moves(self, tmp_path, capsys):
        # Baseline keys are (path, rule, message): shifting the finding
        # down the file must not resurrect it.
        path = tmp_path / "defect.py"
        path.write_text(_DEFECT)
        baseline = tmp_path / "baseline.json"
        run_lint(
            [str(path)],
            strict=True,
            baseline_path=str(baseline),
            update_baseline=True,
        )
        path.write_text("# a comment pushes everything down\n\n" + _DEFECT)
        capsys.readouterr()
        assert (
            run_lint([str(path)], strict=True, baseline_path=str(baseline))
            == 0
        )
        assert "1 baseline-suppressed" in capsys.readouterr().out

    def test_update_baseline_is_byte_stable(self, tmp_path):
        path = tmp_path / "defect.py"
        path.write_text(
            _DEFECT
            + "def later(step_cycles: float, busy_seconds: float) -> float:\n"
            "    return step_cycles - busy_seconds\n"
        )
        baseline = tmp_path / "baseline.json"
        run_lint(
            [str(path)],
            strict=True,
            baseline_path=str(baseline),
            update_baseline=True,
        )
        first = baseline.read_bytes()
        run_lint(
            [str(path)],
            strict=True,
            baseline_path=str(baseline),
            update_baseline=True,
        )
        assert baseline.read_bytes() == first
        # sorted keys inside every row and across rows
        payload = json.loads(first)
        rows = payload["findings"]
        assert rows == sorted(
            rows, key=lambda r: (r["path"], r["rule"], r["message"])
        )
        assert all(list(r) == sorted(r) for r in rows)

    def test_empty_baseline_file_parses_cleanly(self, tmp_path, capsys):
        path = tmp_path / "defect.py"
        path.write_text(_DEFECT)
        baseline = tmp_path / "baseline.json"
        baseline.write_text("")
        assert Baseline.load(baseline).entries == set()
        assert (
            run_lint([str(path)], strict=True, baseline_path=str(baseline))
            == 1
        )
        capsys.readouterr()


class TestSarifOutput:
    def test_sarif_round_trip_validates(self, tmp_path):
        path = tmp_path / "defect.py"
        path.write_text(_DEFECT)
        sarif = tmp_path / "lint.sarif"
        run_lint([str(path)], strict=True, sarif_path=str(sarif))
        log = json.loads(sarif.read_text())
        assert validate_sarif(log) == []
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        results = run["results"]
        assert [r["ruleId"] for r in results] == [RULE_UNIT_MIX]
        declared = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert declared == [RULE_UNIT_MIX]
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("defect.py")
        assert location["region"]["startLine"] == 2
        assert "suppressions" not in results[0]

    def test_baseline_suppressed_findings_marked(self, tmp_path, capsys):
        path = tmp_path / "defect.py"
        path.write_text(_DEFECT)
        baseline = tmp_path / "baseline.json"
        run_lint(
            [str(path)],
            strict=True,
            baseline_path=str(baseline),
            update_baseline=True,
        )
        sarif = tmp_path / "lint.sarif"
        assert (
            run_lint(
                [str(path)],
                strict=True,
                baseline_path=str(baseline),
                sarif_path=str(sarif),
            )
            == 0
        )
        capsys.readouterr()
        log = json.loads(sarif.read_text())
        assert validate_sarif(log) == []
        results = log["runs"][0]["results"]
        assert len(results) == 1
        assert results[0]["suppressions"][0]["kind"] == "external"

    def test_validator_rejects_structural_damage(self, tmp_path):
        path = tmp_path / "defect.py"
        path.write_text(_DEFECT)
        sarif = tmp_path / "lint.sarif"
        run_lint([str(path)], strict=True, sarif_path=str(sarif))
        log = json.loads(sarif.read_text())

        wrong_version = json.loads(sarif.read_text())
        wrong_version["version"] = "1.0.0"
        assert validate_sarif(wrong_version)

        undeclared = json.loads(sarif.read_text())
        undeclared["runs"][0]["results"][0]["ruleId"] = "not-a-rule"
        assert validate_sarif(undeclared)

        no_line = json.loads(sarif.read_text())
        location = no_line["runs"][0]["results"][0]["locations"][0]
        location["physicalLocation"]["region"]["startLine"] = 0
        assert validate_sarif(no_line)

        assert validate_sarif(log) == []  # the untouched log still passes
        assert validate_sarif([]) and validate_sarif({"runs": []})


class TestRealTreeStrictClean:
    def test_source_tree_has_no_strict_findings(self):
        findings, checked = analyze_paths([SRC], strict=True)
        assert checked > 80
        assert findings == []

    def test_committed_baseline_is_empty(self):
        baseline = Path(__file__).parent.parent / DEFAULT_BASELINE
        assert json.loads(baseline.read_text())["findings"] == []

    def test_one_call_graph_per_run(self, tmp_path, monkeypatch):
        # rng, effects, protocol and taint all read the project call
        # graph; the runner builds it once and hands it to each.
        from repro.analysis.static.dataflow import CallGraph

        builds = []
        original = CallGraph.build.__func__

        def counting_build(cls, modules, table):
            builds.append(cls)
            return original(cls, modules, table)

        monkeypatch.setattr(CallGraph, "build", classmethod(counting_build))
        (tmp_path / "module.py").write_text("def f():\n    return 1\n")
        analyze_paths([tmp_path], strict=True)
        assert len(builds) == 1
        del builds[:]
        analyze_paths([tmp_path], strict=False)
        assert builds == []  # the house rules never need it


# ---------------------------------------------------------------------------
# Unit-consistency regression tests (the audited cost paths)
# ---------------------------------------------------------------------------


class TestPeerLinkUnitConsistency:
    def test_sub_packet_payload_pays_a_whole_packet(self):
        spec = PeerLinkSpec(name="test", bandwidth=1e9, packet_bytes=256)
        assert spec.transfer_time(1) == spec.transfer_time(256)
        assert spec.transfer_time(257) > spec.transfer_time(256)

    def test_packetized_cost_is_latency_plus_wire_seconds(self):
        spec = PeerLinkSpec(
            name="test", bandwidth=2e9, latency_seconds=3e-6, packet_bytes=128
        )
        nbytes = 1000  # 8 packets of 128B = 1024 wire bytes
        wire_bytes = 8 * 128
        expected = 3e-6 + wire_bytes / 2e9
        assert spec.transfer_time(nbytes) == pytest.approx(expected)

    def test_bandwidth_term_scales_inversely_with_bandwidth(self):
        # The unit audit's check: (t - latency) must carry B/(B/s) = s,
        # so doubling bandwidth exactly halves it.
        slow = PeerLinkSpec(name="s", bandwidth=10e9, latency_seconds=1e-6)
        fast = PeerLinkSpec(name="f", bandwidth=20e9, latency_seconds=1e-6)
        nbytes = 4096
        slow_wire = slow.transfer_time(nbytes) - slow.latency_seconds
        fast_wire = fast.transfer_time(nbytes) - fast.latency_seconds
        assert slow_wire == pytest.approx(2.0 * fast_wire)

    def test_zero_payload_is_free(self):
        assert NVLINK_P2P.transfer_time(0) == 0.0
        assert PCIE_P2P.transfer_time(0) == 0.0


class TestCalibrationUnitConsistency:
    def test_step_cycles_for_is_cycles_not_seconds(self):
        cal = Calibration()
        for sampler in ("uniform", "alias", "inverse", "rejection"):
            cycles = cal.step_cycles_for(sampler)
            assert cycles >= cal.step_cycles_base
            # Cycle counts sit far above any plausible per-step seconds
            # value; a cycles/seconds confusion would collapse this.
            assert cycles > 1.0

    def test_step_cycles_compose_base_plus_extra(self):
        cal = Calibration()
        assert cal.step_cycles_for("alias") == pytest.approx(
            cal.step_cycles_base + cal.sampler_extra_cycles_alias
        )
        assert cal.step_cycles_for("uniform") == pytest.approx(
            cal.step_cycles_base
        )

    def test_cycles_cross_to_seconds_only_via_clock(self):
        cal = Calibration()
        cycles = cal.step_cycles_for("rejection")
        via_helper = seconds_from_cycles(cycles, RTX3090.clock_hz)
        via_device = RTX3090.cycles_to_seconds(cycles)
        assert via_helper == pytest.approx(via_device)
        assert via_helper == pytest.approx(cycles / RTX3090.clock_hz)
