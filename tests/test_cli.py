"""Tests for the command-line interface."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import EXPERIMENTS
from repro.cli import build_parser, main
from repro.graph.io import load_csr


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_sources_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "lj-sim", "--graph", "x.npz"]
            )

    def test_experiment_names_cover_all_figures(self):
        expected = {"table1", "table2", "table3", "metrics"} | {
            f"fig{i}" for i in (3, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18)
        } | {
            f"ablation_{sweep}"
            for sweep in ("batch_size", "interconnect", "eviction", "uvm")
        } | {"samplers", "devices", "elastic", "backends", "serve"}
        assert set(EXPERIMENTS) == expected


class TestGenerate:
    def test_generate_npz(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        code = main(
            ["generate", "--kind", "rmat", "--scale", "8",
             "--edge-factor", "4", "--out", str(out)]
        )
        assert code == 0
        graph = load_csr(out)
        assert graph.num_vertices > 0
        assert "wrote" in capsys.readouterr().out

    def test_generate_edge_list(self, tmp_path):
        out = tmp_path / "g.txt"
        code = main(
            ["generate", "--kind", "ba", "--vertices", "50",
             "--edge-factor", "2", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().count("\n") > 10

    def test_generate_erdos(self, tmp_path):
        out = tmp_path / "e.npz"
        assert main(
            ["generate", "--kind", "erdos", "--vertices", "100",
             "--edge-factor", "3", "--out", str(out)]
        ) == 0


class TestRun:
    @pytest.fixture()
    def graph_file(self, tmp_path, small_graph):
        from repro.graph.io import save_csr

        path = tmp_path / "g.npz"
        save_csr(small_graph, path)
        return str(path)

    def test_run_lighttraffic(self, graph_file, capsys):
        code = main(
            ["run", "--graph", graph_file, "--algorithm", "pagerank",
             "--walks", "500"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lighttraffic/pagerank" in out
        assert "breakdown" in out

    @pytest.mark.parametrize(
        "system",
        ["thunderrw", "flashmob", "subway", "nextdoor", "uvm", "multiround"],
    )
    def test_run_baselines(self, graph_file, capsys, system):
        code = main(
            ["run", "--graph", graph_file, "--algorithm", "uniform",
             "--walks", "200", "--system", system]
        )
        assert code == 0
        assert f"{system}/uniform" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "system", ["lighttraffic", "multiround", "subway", "uvm"]
    )
    def test_sanitize_clean_run(self, graph_file, capsys, system):
        code = main(
            ["run", "--graph", graph_file, "--algorithm", "uniform",
             "--walks", "200", "--system", system, "--sanitize"]
        )
        assert code == 0
        assert "sanitizer: clean" in capsys.readouterr().out

    def test_sanitize_rejects_unrouted_system(self, graph_file, capsys):
        code = main(
            ["run", "--graph", graph_file, "--walks", "100",
             "--system", "thunderrw", "--sanitize"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "--sanitize is not supported" in captured.err
        assert "supported engines:" in captured.err
        assert captured.out == ""

    @pytest.mark.no_sanitize  # injects a fake violation on purpose
    def test_sanitize_fails_on_violation(self, graph_file, capsys,
                                         monkeypatch):
        from repro.analysis import Sanitizer

        original_summary = Sanitizer.summary

        def tainted_summary(self):
            summary = original_summary(self)
            summary["clean"] = False
            summary["violation_count"] = 1
            summary["violations"] = [{
                "rule": "walk-conservation", "message": "injected",
                "iteration": 1, "provenance": ["#1 it=1 injected"],
            }]
            return summary

        monkeypatch.setattr(Sanitizer, "summary", tainted_summary)
        code = main(
            ["run", "--graph", graph_file, "--walks", "100", "--sanitize"]
        )
        assert code == 1
        assert "walk-conservation" in capsys.readouterr().out

    def test_run_multi_device(self, graph_file, capsys):
        code = main(
            ["run", "--graph", graph_file, "--algorithm", "uniform",
             "--walks", "300", "--devices", "2", "--sanitize"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lighttraffic/uniform" in out
        assert "devices         : 2" in out
        assert "walks migrated" in out
        assert "sanitizer: clean" in out

    def test_run_multi_device_pcie_p2p(self, graph_file, capsys):
        code = main(
            ["run", "--graph", graph_file, "--algorithm", "uniform",
             "--walks", "200", "--devices", "2",
             "--peer-interconnect", "pcie-p2p"]
        )
        assert code == 0
        assert "devices         : 2" in capsys.readouterr().out

    def test_devices_rejects_non_lighttraffic(self, graph_file, capsys):
        code = main(
            ["run", "--graph", graph_file, "--walks", "100",
             "--system", "thunderrw", "--devices", "2"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "--devices is not supported" in captured.err
        assert "supported engines: lighttraffic" in captured.err
        # the hint must never leak into stdout, where scripted callers
        # parse run statistics
        assert captured.out == ""

    def test_metrics_json_stdout(self, graph_file, capsys):
        import json

        code = main(
            ["run", "--graph", graph_file, "--algorithm", "pagerank",
             "--walks", "300", "--metrics-json", "-"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # the JSON blob comes first, then the human-readable summary
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["iterations"] > 0
        assert set(payload["serve_mode_totals"]) == {
            "hit", "explicit", "zero_copy"
        }
        assert payload["partitions"]

    def test_metrics_json_file(self, graph_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "metrics.json"
        code = main(
            ["run", "--graph", graph_file, "--algorithm", "uniform",
             "--walks", "200", "--system", "subway",
             "--metrics-json", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["runs_completed"] == 1
        assert payload["serve_mode_totals"]["explicit"] > 0
        assert "wrote metrics" in capsys.readouterr().out

    def test_metrics_json_rejects_unrouted_system(self, graph_file, capsys):
        code = main(
            ["run", "--graph", graph_file, "--walks", "100",
             "--system", "thunderrw", "--metrics-json", "-"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "--metrics-json is not supported" in captured.err
        assert "supported engines:" in captured.err
        assert captured.out == ""

    def test_run_ppr_rejected_by_flashmob(self, graph_file, capsys):
        # A workload the system cannot run is a client error (exit 2 and a
        # one-line hint), not a constructor traceback.
        code = main(
            ["run", "--graph", graph_file, "--algorithm", "ppr",
             "--walks", "100", "--system", "flashmob"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "FlashMob supports only fixed-length" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "name, content",
        [("truncated.npz", None), ("junk.npz", b"junk"), ("absent.npz", None),
         ("bad.txt", b"0 1\n7\n")],
    )
    def test_run_rejects_unreadable_graph_file(
        self, graph_file, tmp_path, capsys, name, content
    ):
        path = tmp_path / name
        if name == "truncated.npz":
            data = Path(graph_file).read_bytes()
            path.write_bytes(data[: len(data) // 2])
        elif content is not None:
            path.write_bytes(content)
        code = main(["run", "--graph", str(path), "--walks", "100"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_run_nextdoor_rejects_graph_beyond_device_memory(
        self, tmp_path, capsys
    ):
        # ~7.3 MB of CSR against the platform's 6.9 MB scaled GPU memory.
        out = tmp_path / "big.npz"
        assert main(
            ["generate", "--kind", "erdos", "--vertices", "3000",
             "--edge-factor", "160", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        code = main(["run", "--graph", str(out), "--system", "nextdoor"])
        assert code == 2
        captured = capsys.readouterr()
        assert "NextDoor requires the graph to fit" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_run_edge_list_input(self, tmp_path, small_graph, capsys):
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.txt"
        save_edge_list(small_graph, path)
        code = main(
            ["run", "--graph", str(path), "--algorithm", "uniform",
             "--walks", "100"]
        )
        assert code == 0


class TestExperimentCommand:
    def test_experiment_prints_rows(self, capsys, monkeypatch):
        from repro.bench import harness

        monkeypatch.setitem(
            harness.EXPERIMENTS, "table3",
            (lambda: [{"variant": "x", "v": 1}], "scheduling impact"),
        )
        monkeypatch.delitem(harness.CLAIMS, "table3")
        assert main(["experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "experiment table3" in out
        assert "variant" in out
        assert "claim" not in out  # no claim row, no verdict

    @pytest.mark.parametrize("holds", [True, False])
    def test_experiment_claim_verdict(self, holds, capsys, monkeypatch):
        from repro.bench import harness

        monkeypatch.setitem(
            harness.EXPERIMENTS, "fig12",
            (lambda: [{"ok": holds}], "reshuffle"),
        )
        monkeypatch.setitem(
            harness.CLAIMS, "fig12",
            ("§IV-C", lambda rows: [] if rows[0]["ok"] else ["broken"]),
        )
        assert main(["experiment", "fig12"]) == (0 if holds else 1)
        verdict = capsys.readouterr().out.splitlines()[-1]
        assert verdict == (
            "claim fig12 (§IV-C): "
            + ("holds" if holds else "FAILS: broken")
        )

    def test_experiment_empty_rows(self, capsys, monkeypatch):
        from repro.bench import harness

        monkeypatch.setitem(harness.EXPERIMENTS, "fig3", (lambda: [], "fig3"))
        assert main(["experiment", "fig3"]) == 1

    def test_subsystem_experiment_prints_rows_and_verdict(
        self, capsys, monkeypatch
    ):
        from functools import partial

        from repro.bench import harness

        runner, description = harness.EXPERIMENTS["devices"]
        monkeypatch.setitem(
            harness.EXPERIMENTS, "devices",
            (partial(runner, quick=True), description),
        )
        assert main(["experiment", "devices"]) == 0
        out = capsys.readouterr().out
        assert "experiment devices" in out
        assert "walks_migrated" in out
        assert out.splitlines()[-1] == "claim devices (DESIGN.md §3e): holds"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestReportCommand:
    def test_report_written(self, tmp_path, capsys, monkeypatch):
        from repro.bench import harness

        monkeypatch.setattr(
            harness,
            "EXPERIMENTS",
            {"table2": (lambda: [{"a": 1}], "datasets")},
        )
        monkeypatch.setattr(harness, "CLAIMS", {})
        out = tmp_path / "r.md"
        assert main(["report", "--out", str(out), "--only", "table2"]) == 0
        assert "## table2" in out.read_text()

    def test_report_exits_1_on_a_failed_claim(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.bench import harness

        monkeypatch.setattr(
            harness,
            "EXPERIMENTS",
            {name: (lambda: [{"a": 1}], name) for name in ("fig3", "fig9")},
        )
        monkeypatch.setattr(harness, "CLAIMS", {
            "fig3": ("§II-B", lambda rows: []),
            "fig9": ("§IV-B", lambda rows: ["LT loses"]),
        })
        out = tmp_path / "r.md"
        assert main(["report", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "claim fig3 (§II-B): holds" in captured.out
        assert "claim fig9 (§IV-B): FAILS: LT loses" in captured.out
        assert "claims failed: fig9" in captured.err
        assert "**claim fig9 (§IV-B): FAILS: LT loses**" in out.read_text()

    @pytest.mark.parametrize("only", ["fig99", "table2,", "table2,fig99"])
    def test_report_rejects_unknown_names_before_running(
        self, only, tmp_path, capsys, monkeypatch
    ):
        from repro.bench import harness

        ran = []
        monkeypatch.setattr(
            harness, "EXPERIMENTS",
            {"table2": (lambda: ran.append(1) or [{"a": 1}], "datasets")},
        )
        out = tmp_path / "r.md"
        assert main(["report", "--out", str(out), "--only", only]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "unknown experiment" in captured.err
        assert ran == [] and not out.exists()


class TestDatasetsCommand:
    def test_datasets_table(self, capsys, monkeypatch):
        from repro.bench import harness

        monkeypatch.setattr(
            harness,
            "table2_dataset_stats",
            lambda: [
                {
                    "dataset": "lj-sim",
                    "paper": "LiveJournal",
                    "V": 10,
                    "E": 20,
                    "csr_mb": 0.1,
                    "d_max": 3,
                    "paper_V": 4.85e6,
                    "paper_E": 8.57e7,
                    "paper_csr_gb": 0.364,
                    "scale": 1000.0,
                }
            ],
        )
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "lj-sim" in out and "LiveJournal" in out


class TestLintCommand:
    def test_lint_clean_file(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert main(["lint", str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_flags_violations(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\n")
        assert main(["lint", str(target)]) == 1
        out = capsys.readouterr()
        assert "rng-factory" in out.out
        assert "1 violation(s)" in out.err

    def test_lint_missing_path(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_lint_defaults_to_package_sources(self, capsys):
        # No paths: lints the installed repro package, which must be clean.
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_sarif_output(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\n")
        sarif = tmp_path / "lint.sarif"
        assert main(["lint", "--sarif", str(sarif), str(target)]) == 1
        capsys.readouterr()
        payload = json.loads(sarif.read_text())
        assert payload["version"] == "2.1.0"
        results = payload["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["rng-factory"]


class TestElasticRunFlags:
    @pytest.fixture()
    def graph_file(self, tmp_path, small_graph):
        from repro.graph.io import save_csr

        path = tmp_path / "g.npz"
        save_csr(small_graph, path)
        return str(path)

    def test_elastic_run_end_to_end(self, graph_file, capsys):
        code = main(
            ["run", "--graph", graph_file, "--algorithm", "uniform",
             "--walks", "300", "--devices", "2", "--sanitize",
             "--topology", "ring",
             "--device-spec", "big:compute=2,link=2",
             "--device-spec", "small:c=0.5",
             "--fail", "1@4", "--rebalance-threshold", "1.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "device failures : 1" in out
        assert "walks recovered" in out
        assert "sanitizer: clean" in out

    def test_metrics_prom_file(self, graph_file, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        code = main(
            ["run", "--graph", graph_file, "--walks", "200",
             "--devices", "2", "--metrics-prom", str(prom)]
        )
        assert code == 0
        assert "wrote Prometheus metrics" in capsys.readouterr().out
        text = prom.read_text()
        assert "# TYPE repro_iterations_total counter" in text
        assert 'graph="small"' in text
        assert "repro_device_pending_walks{" in text

    def test_metrics_prom_stdout(self, graph_file, capsys):
        code = main(
            ["run", "--graph", graph_file, "--walks", "200",
             "--devices", "2", "--metrics-prom", "-"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# HELP repro_iterations_total" in out

    def test_metrics_prom_rejects_unrouted_system(self, graph_file, capsys):
        code = main(
            ["run", "--graph", graph_file, "--walks", "100",
             "--system", "thunderrw", "--metrics-prom", "-"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "not supported" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--fail", "1@4"],
            ["--device-spec", "a:c=2"],
            ["--rebalance-threshold", "1.5"],
            ["--topology", "ring"],
        ],
    )
    def test_cluster_flags_require_multi_device(
        self, graph_file, capsys, flags
    ):
        code = main(
            ["run", "--graph", graph_file, "--walks", "100"] + flags
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "requires --devices > 1" in captured.err
        assert captured.out == ""

    def test_cluster_flags_reject_non_lighttraffic(self, graph_file, capsys):
        code = main(
            ["run", "--graph", graph_file, "--walks", "100",
             "--system", "thunderrw", "--devices", "2", "--fail", "1@4"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "is not supported" in captured.err
        assert "supported engines: lighttraffic" in captured.err
        assert captured.out == ""

    def test_malformed_fail_spec_rejected(self, graph_file, capsys):
        code = main(
            ["run", "--graph", graph_file, "--walks", "100",
             "--devices", "2", "--fail", "nope"]
        )
        assert code == 2
        assert "DEVICE@ITERATION" in capsys.readouterr().err

    def test_device_spec_count_mismatch_rejected(self, graph_file, capsys):
        code = main(
            ["run", "--graph", graph_file, "--walks", "100",
             "--devices", "2", "--device-spec", "only-one:c=2"]
        )
        assert code == 2
        assert "repeat it once per device" in capsys.readouterr().err

    def test_malformed_device_spec_rejected(self, graph_file, capsys):
        code = main(
            ["run", "--graph", graph_file, "--walks", "100",
             "--devices", "2",
             "--device-spec", "a:bogus=1", "--device-spec", "b"]
        )
        assert code == 2
        assert "bad device-spec item" in capsys.readouterr().err


class TestServeCLI:
    def test_serve_closed_loop_session(self, capsys):
        code = main(
            ["serve", "--scale", "8", "--workers", "4",
             "--queries", "8", "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 8 queries" in out
        assert "p99" in out
        assert "sanitizer: clean" in out

    def test_serve_kind_subset(self, capsys):
        code = main(
            ["serve", "--scale", "8", "--queries", "4",
             "--kinds", "ppr,uniform"]
        )
        assert code == 0
        assert "served 4 queries" in capsys.readouterr().out

    def test_serve_rejects_unknown_kind(self, capsys):
        code = main(["serve", "--scale", "8", "--kinds", "bogus"])
        assert code == 2
        captured = capsys.readouterr()
        assert "--kinds bogus is not supported" in captured.err
        assert "supported engines:" in captured.err
        assert captured.out == ""

    def test_serve_rejects_bad_worker_count(self, capsys):
        code = main(["serve", "--scale", "8", "--workers", "0"])
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_serve_rejects_oversized_query(self, capsys):
        # The default workload requests 4..16 walks per query, so a
        # 3-walk batch budget can never admit it: client error, exit 2
        # with a hint, nothing on stdout.
        code = main(
            ["serve", "--scale", "8", "--queries", "4",
             "--max-batch-walks", "3"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "max_batch_walks=3" in captured.err
        assert "split the query" in captured.err
        assert captured.out == ""


#: flag -> (argv that uses it, capability the system needs for it)
CAPABILITY_FLAGS = {
    "--metrics-json": (["--metrics-json", "-"], "bus"),
    "--metrics-prom": (["--metrics-prom", "-"], "bus"),
    "--sanitize": (["--sanitize"], "bus"),
    "--devices": (["--devices", "2"], "devices"),
    "--backend": (["--backend", "multiprocess"], "backend"),
    "--device-spec": (["--device-spec", "a:c=2", "--device-spec", "b"],
                      "devices"),
    "--fail": (["--fail", "1@4"], "devices"),
    "--rebalance-threshold": (["--rebalance-threshold", "1.5"], "devices"),
    "--topology": (["--topology", "ring"], "devices"),
}
#: capability -> the systems that have it, in the order the hint lists them
CAPABLE_SYSTEMS = {
    "bus": ("lighttraffic", "subway", "uvm", "multiround"),
    "devices": ("lighttraffic",),
    "backend": ("lighttraffic",),
}
ALL_SYSTEMS = (
    "lighttraffic", "thunderrw", "flashmob", "subway", "nextdoor", "uvm",
    "multiround",
)


class TestCapabilityMatrix:
    @pytest.fixture()
    def graph_file(self, tmp_path, small_graph):
        from repro.graph.io import save_csr

        path = tmp_path / "g.npz"
        save_csr(small_graph, path)
        return str(path)

    def test_systems_and_bus_systems_are_the_table(self):
        import repro.cli as cli

        assert cli.SYSTEMS == ALL_SYSTEMS
        assert cli.BUS_SYSTEMS == CAPABLE_SYSTEMS["bus"]

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    @pytest.mark.parametrize("flag", sorted(CAPABILITY_FLAGS))
    def test_flag_system_pair(self, graph_file, capsys, flag, system):
        argv, capability = CAPABILITY_FLAGS[flag]
        supported = CAPABLE_SYSTEMS[capability]
        command = ["run", "--graph", graph_file, "--algorithm", "uniform",
                   "--walks", "200", "--system", system] + argv
        if system in supported:
            if capability == "devices" and flag != "--devices":
                command += ["--devices", "2"]  # cluster knobs need a cluster
            assert main(command) == 0
            assert f"{system}/uniform" in capsys.readouterr().out
            return
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"{flag} is not supported by system {system!r}; "
            f"supported engines: {', '.join(supported)}\n"
        )
        assert captured.out == ""


HELP_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_help_golden.json").read_text()
)


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != HELP_GOLDEN["python"],
    reason="argparse help layout differs between Python versions; the "
           "golden was captured on " + HELP_GOLDEN["python"],
)
@pytest.mark.parametrize("form", sorted(HELP_GOLDEN["help"]))
def test_help_text_is_byte_identical(form, capsys, monkeypatch):
    """``repro <cmd> --help`` as captured before the front-end tables."""
    monkeypatch.setenv("COLUMNS", str(HELP_GOLDEN["columns"]))
    with pytest.raises(SystemExit) as exit_info:
        main(form.split() + ["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == HELP_GOLDEN["help"][form]
