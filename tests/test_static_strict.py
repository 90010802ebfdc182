"""``repro lint``'s cross-stage ``unpublished-mutation`` rule, the
JSON and SARIF reports, and the unit-consistency regression tests for
the two cost paths a unit audit singled out: ``PeerLinkSpec.transfer_time``
packetization and ``Calibration.step_cycles_for``.
"""

import inspect
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.static import (
    RULE_RNG,
    RULE_UNPUBLISHED,
    lint_paths,
    run_lint,
)
from repro.core import engine
from repro.core.stages import context, walk_loader
from repro.core.units import seconds_from_cycles
from repro.gpu.calibration import Calibration
from repro.gpu.cluster import NVLINK_P2P, PCIE_P2P, PeerLinkSpec
from repro.gpu.device import RTX3090

GOLDEN_SARIF = Path(__file__).parent / "data" / "lint_golden.sarif"


def findings_of(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.write_text(source)
    return lint_paths([path])


def rules_of(findings):
    return [f.rule for f in findings]


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
        findings = findings_of(
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
        findings = findings_of(
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
        findings = findings_of(
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
        findings = findings_of(
            tmp_path,
            _CTX_PREAMBLE
            + "class LoadStage:\n"
            "    def run(self, ctx):\n"
            "        ctx.frontier.append(1)\n",
        )
        assert findings == []

    def test_local_alias_of_field_tracked(self, tmp_path):
        # pool = ctx.frontier; pool.append(...) is still a write.
        findings = findings_of(
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

    def test_seed_shards_without_its_event_caught_once(self, tmp_path):
        # The real defect: walk seeding filled the host pools (shared
        # with WalkLoader) without an event.  WalksSeeded is the fix;
        # dropping its emit must bring the finding back.
        source = textwrap.dedent(
            inspect.getsource(engine.LightTrafficEngine._seed_shards)
        )
        emit = "shared.bus.emit(WalksSeeded("
        assert source.count(emit) == 1
        (tmp_path / "context.py").write_text(inspect.getsource(context))
        (tmp_path / "walk_loader.py").write_text(
            inspect.getsource(walk_loader)
        )
        seed = tmp_path / "engine.py"
        for reverted in (False, True):
            body = "\n".join(
                line
                for line in source.splitlines()
                if not (reverted and emit in line)
            )
            seed.write_text(
                "class LightTrafficEngine:\n"
                + textwrap.indent(body, "    ")
                + "\n"
            )
            findings = lint_paths([tmp_path])
            if not reverted:
                assert findings == []
        assert rules_of(findings) == [RULE_UNPUBLISHED]
        assert findings[0].path == seed.as_posix()
        assert "LightTrafficEngine._seed_shards" in findings[0].message
        assert "'host'" in findings[0].message


# ---------------------------------------------------------------------------
# JSON and SARIF reports
# ---------------------------------------------------------------------------


class TestReports:
    def test_json_report_schema(self, tmp_path):
        path = tmp_path / "defect.py"
        path.write_text("import random\n")
        report = tmp_path / "report.json"
        assert run_lint([str(path)], json_path=str(report)) == 1
        payload = json.loads(report.read_text())
        assert payload["checked_files"] == 1
        assert payload["passes"] == ["house-rules", "aliasing"]
        assert [f["rule"] for f in payload["findings"]] == [RULE_RNG]


class TestSarifOutput:
    def test_sarif_round_trip_validates(self, tmp_path, monkeypatch, capsys):
        # The golden file is the schema check: any change to the emitted
        # SARIF must be a reviewed change to tests/data/lint_golden.sarif.
        monkeypatch.chdir(tmp_path)
        Path("defect.py").write_text("x = 1\nimport random\n")
        assert run_lint(["defect.py"], sarif_path="lint.sarif") == 1
        capsys.readouterr()
        assert Path("lint.sarif").read_bytes() == GOLDEN_SARIF.read_bytes()


class TestRealTreeStrictClean:
    def test_source_tree_has_no_strict_findings(self, tmp_path, capsys):
        # Every pass runs by default, so the CLI run over the real tree
        # is the strictest check there is: exit 0 and empty reports.
        src = Path(__file__).parent.parent / "src" / "repro"
        report = tmp_path / "report.json"
        log = tmp_path / "lint.sarif"
        code = run_lint([str(src)], json_path=str(report), sarif_path=str(log))
        out = capsys.readouterr().out
        assert code == 0, out
        payload = json.loads(report.read_text())
        assert payload["checked_files"] > 80
        assert payload["passes"] == ["house-rules", "aliasing"]
        assert payload["findings"] == []
        assert json.loads(log.read_text())["runs"][0]["results"] == []


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
