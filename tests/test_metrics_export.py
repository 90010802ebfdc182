"""Per-device metrics serialization and the Prometheus text exporter."""

import pytest

from repro.algorithms import UniformSampling
from repro.core.config import EngineConfig, FailureSchedule
from repro.core.engine import LightTrafficEngine
from repro.core.events import EventBus
from repro.core.metrics import (
    DeviceMetrics,
    MetricsCollector,
    prometheus_text,
)
from repro.graph import generators


@pytest.fixture(scope="module")
def metrics_graph():
    return generators.rmat(scale=8, edge_factor=5, seed=4, name="metrics")


def run_with_metrics(graph, collector, **overrides):
    kwargs = dict(
        partition_bytes=2048,
        batch_walks=32,
        graph_pool_partitions=4,
        walk_pool_walks=256,
        seed=11,
        devices=3,
    )
    kwargs.update(overrides)
    config = EngineConfig(**kwargs)
    # A caller who wants a live collector attaches it to the bus it passes.
    bus = EventBus()
    bus.attach(collector)
    engine = LightTrafficEngine(
        graph, UniformSampling(length=5), config, bus=bus
    )
    return engine.run(200)


class TestDeviceMetricsRoundTrip:
    def test_as_dict_from_dict_inverse(self):
        metrics = DeviceMetrics(
            iterations=7,
            walks_computed=120,
            steps=600,
            walks_migrated_out=40,
            walks_migrated_in=35,
            migrate_seconds=0.125,
            walks_recovered=12,
            failed_at_iteration=19,
            pending_samples=[(1, 80), (2, 64), (5, 0)],
        )
        assert DeviceMetrics.from_dict(metrics.as_dict()) == metrics

    def test_alive_device_round_trips_none_failure(self):
        metrics = DeviceMetrics(iterations=3)
        restored = DeviceMetrics.from_dict(metrics.as_dict())
        assert restored.failed_at_iteration is None
        assert restored == metrics

    def test_json_safe_through_real_json(self):
        import json

        metrics = DeviceMetrics(
            iterations=2, pending_samples=[(4, 9)], failed_at_iteration=None
        )
        payload = json.loads(json.dumps(metrics.as_dict()))
        assert DeviceMetrics.from_dict(payload) == metrics

    def test_engine_run_populates_device_series(self, metrics_graph):
        collector = MetricsCollector()
        run_with_metrics(metrics_graph, collector)
        assert set(collector.devices) == {0, 1, 2}
        for metrics in collector.devices.values():
            assert metrics.iterations > 0
            assert metrics.pending_samples
            iterations = [it for it, _ in metrics.pending_samples]
            assert iterations == sorted(iterations)
            round_tripped = DeviceMetrics.from_dict(metrics.as_dict())
            assert round_tripped == metrics


class TestPrometheusText:
    def snapshot(self, graph, **overrides):
        collector = MetricsCollector()
        run_with_metrics(graph, collector, **overrides)
        return collector.snapshot()

    def test_families_have_help_and_type(self, metrics_graph):
        text = prometheus_text(self.snapshot(metrics_graph))
        for family in (
            "repro_iterations_total",
            "repro_runs_completed_total",
            "repro_rebalances_total",
            "repro_total_time_seconds",
            "repro_device_pending_walks",
        ):
            assert f"# HELP {family} " in text
            assert f"# TYPE {family} " in text

    def test_counters_use_total_suffix(self, metrics_graph):
        text = prometheus_text(self.snapshot(metrics_graph))
        for line in text.splitlines():
            if not line.startswith("# TYPE"):
                continue
            _, _, family, kind = line.split(" ")
            if kind == "counter":
                assert family.endswith("_total"), family

    def test_label_escaping(self):
        text = prometheus_text(
            MetricsCollector().snapshot(),
            extra_labels={"graph": 'we"ird\\name\nhere'},
        )
        assert 'graph="we\\"ird\\\\name\\nhere"' in text

    def test_extra_labels_on_every_sample(self, metrics_graph):
        text = prometheus_text(
            self.snapshot(metrics_graph), extra_labels={"system": "lt"}
        )
        samples = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert samples
        assert all('system="lt"' in line for line in samples)

    def test_counter_monotonic_across_runs(self, metrics_graph):
        collector = MetricsCollector()
        run_with_metrics(metrics_graph, collector)
        first = collector.snapshot()
        run_with_metrics(metrics_graph, collector)
        second = collector.snapshot()

        def counters(snapshot):
            text = prometheus_text(snapshot)
            out = {}
            kinds = {}
            for line in text.splitlines():
                if line.startswith("# TYPE"):
                    _, _, family, kind = line.split(" ")
                    kinds[family] = kind
                elif not line.startswith("#"):
                    name_labels, _, rest = line.partition(" ")
                    family = name_labels.partition("{")[0]
                    if kinds.get(family) == "counter":
                        out[name_labels] = float(rest.split(" ")[0])
            return out

        before, after = counters(first), counters(second)
        assert before and set(before) <= set(after)
        for series, value in before.items():
            assert after[series] >= value, series

    def test_pending_series_has_iteration_timestamps(self, metrics_graph):
        text = prometheus_text(self.snapshot(metrics_graph))
        series = [
            line
            for line in text.splitlines()
            if line.startswith("repro_device_pending_walks{")
        ]
        assert series
        per_device = {}
        for line in series:
            # "<name>{...} <value> <timestamp>"
            parts = line.rsplit(" ", 2)
            assert len(parts) == 3, line
            timestamp = int(parts[2])
            device = line.partition('device="')[2].partition('"')[0]
            per_device.setdefault(device, []).append(timestamp)
        for timestamps in per_device.values():
            assert timestamps == sorted(timestamps)

    def test_devices_ordered_numerically(self, metrics_graph):
        snapshot = self.snapshot(metrics_graph)
        # A two-digit device id distinguishes numeric ordering from
        # lexicographic ("10" sorts before "2" as a string).
        devices = dict(snapshot["devices"])
        devices["10"] = DeviceMetrics(iterations=1).as_dict()
        snapshot = dict(snapshot, devices=devices)
        text = prometheus_text(snapshot)
        order = [
            line.partition('device="')[2].partition('"')[0]
            for line in text.splitlines()
            if line.startswith("repro_device_iterations_total{")
        ]
        assert order == ["0", "1", "2", "10"]

    def test_failed_device_exported_as_gauge(self, metrics_graph):
        snapshot = self.snapshot(
            metrics_graph, failure_schedule=FailureSchedule.single(1, 6)
        )
        text = prometheus_text(snapshot)
        failed = {
            line.partition('device="')[2].partition('"')[0]:
                line.rsplit(" ", 1)[1]
            for line in text.splitlines()
            if line.startswith("repro_device_failed{")
        }
        assert failed["1"] == "1"
        assert failed["0"] == "0"
        recovered = [
            line
            for line in text.splitlines()
            if line.startswith("repro_device_walks_recovered_total{")
        ]
        assert any(not line.endswith(" 0") for line in recovered)
