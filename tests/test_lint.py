"""``repro lint`` house rules: each fires on bad code, waivers suppress,
and the real source tree is clean under every rule."""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths, lint_paths, run_lint
from repro.analysis.static.aliasing import RULE_UNPUBLISHED
from repro.analysis.static.houserules import (
    RULE_BACKEND_SIM_TIME,
    RULE_FAILURE_CONSERVATION,
    RULE_FLOAT_EQ,
    RULE_FROZEN_EVENT,
    RULE_HANDLER_COVERAGE,
    RULE_RNG,
)

SRC = Path(__file__).parent.parent / "src" / "repro"


def lint_source(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_paths([path])


def rules_of(violations):
    return [v.rule for v in violations]


class TestRngFactoryRule:
    def test_direct_default_rng_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "import numpy as np\nrng = np.random.default_rng(3)\n",
        )
        assert rules_of(violations) == [RULE_RNG]
        assert "seeded_rng" in violations[0].message

    def test_numpy_random_module_calls_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "import numpy\nx = numpy.random.rand(4)\n",
        )
        assert rules_of(violations) == [RULE_RNG]

    def test_stdlib_random_import_flagged(self, tmp_path):
        assert rules_of(lint_source(tmp_path, "import random\n")) == [
            RULE_RNG
        ]
        assert rules_of(
            lint_source(tmp_path, "from random import choice\n")
        ) == [RULE_RNG]

    def test_aliased_numpy_random_module_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from numpy import random as nprng\nnprng.default_rng(1)\n",
        )
        assert rules_of(violations) == [RULE_RNG]
        assert "numpy.random.default_rng" in violations[0].message

    def test_aliased_numpy_random_import_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "import numpy.random as npr\nnpr.default_rng(1)\n",
        )
        assert rules_of(violations) == [RULE_RNG]
        assert "numpy.random.default_rng" in violations[0].message

    def test_pre_factory_engine_generator_flagged(self, tmp_path):
        # The call shape the engine and baselines used before every
        # generator went through core/prng.py's seeded_rng.
        violations = lint_source(
            tmp_path,
            "import numpy as np\n"
            "class LightTrafficEngine:\n"
            "    def _make_rng(self):\n"
            "        cfg = self.config\n"
            "        return np.random.default_rng(cfg.seed)\n",
            name="core/engine.py",
        )
        assert rules_of(violations) == [RULE_RNG]
        assert violations[0].line == 5

    def test_numpy_random_import_from_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path, "from numpy.random import default_rng\n"
        )
        assert rules_of(violations) == [RULE_RNG]

    def test_factory_module_is_exempt(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "import numpy as np\nrng = np.random.default_rng(3)\n",
            name="core/prng.py",
        )
        assert violations == []

    def test_seeded_rng_calls_pass(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from repro.core.prng import seeded_rng\n"
            "rng = seeded_rng(3)\n",
        )
        assert violations == []


class TestFloatTimestampRule:
    def test_eq_on_timestamp_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def f(stream, t):\n"
            "    return stream.busy_until == t\n",
        )
        assert rules_of(violations) == [RULE_FLOAT_EQ]
        assert "times_close" in violations[0].message

    def test_noteq_on_time_suffix_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def f(ready_time, other):\n"
            "    return ready_time != other\n",
        )
        assert rules_of(violations) == [RULE_FLOAT_EQ]

    def test_ordering_comparisons_pass(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def f(stream, t):\n"
            "    return stream.busy_until < t or stream.busy_until >= t\n",
        )
        assert violations == []

    def test_unrelated_names_pass(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def f(count, other):\n    return count == other\n",
        )
        assert violations == []


class TestFrozenEventRule:
    def test_unfrozen_dataclass_in_events_module_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from dataclasses import dataclass\n"
            "@dataclass\nclass Thing:\n    x: int = 0\n",
            name="core/events.py",
        )
        assert RULE_FROZEN_EVENT in rules_of(violations)

    def test_unfrozen_engine_event_subclass_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from dataclasses import dataclass\n"
            "from repro.core.events import EngineEvent\n"
            "@dataclass\nclass Custom(EngineEvent):\n    x: int = 0\n",
        )
        assert rules_of(violations) == [RULE_FROZEN_EVENT]

    def test_frozen_dataclass_passes(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass Thing:\n    x: int = 0\n",
            name="core/events.py",
        )
        assert RULE_FROZEN_EVENT not in rules_of(violations)


class TestHandlerCoverageRule:
    EVENTS = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass EngineEvent:\n    pass\n"
        "@dataclass(frozen=True)\nclass ThingHappened(EngineEvent):\n"
        "    x: int = 0\n"
    )

    def test_unhandled_event_flagged(self, tmp_path):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "events.py").write_text(self.EVENTS)
        violations = lint_paths([tmp_path])
        assert RULE_HANDLER_COVERAGE in rules_of(violations)
        assert "on_thing_happened" in violations[-1].message

    def test_handler_anywhere_in_tree_satisfies(self, tmp_path):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "events.py").write_text(self.EVENTS)
        (tmp_path / "observer.py").write_text(
            "class Obs:\n"
            "    def on_thing_happened(self, event):\n        pass\n"
        )
        assert lint_paths([tmp_path]) == []


class TestWaivers:
    def test_waiver_suppresses_rule_on_line(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng(3)  # lint: allow-rng-factory\n",
        )
        assert violations == []

    def test_waiver_is_rule_specific(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "import numpy as np\n"
            "rng = np.random.default_rng(3)  # lint: allow-frozen-event\n",
        )
        assert rules_of(violations) == [RULE_RNG]


class TestCliAndTree:
    def test_source_tree_is_clean(self):
        findings, checked = analyze_paths([SRC])
        assert checked > 80
        assert findings == []

    def test_syntax_error_reported(self, tmp_path):
        violations = lint_source(tmp_path, "def broken(:\n")
        assert rules_of(violations) == ["syntax"]

    def test_run_lint_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert run_lint([str(good)]) == 0
        assert "clean" in capsys.readouterr().out
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert run_lint([str(bad)]) == 1
        out = capsys.readouterr()
        assert RULE_RNG in out.out
        assert run_lint([str(tmp_path / "missing.py")]) == 2

    def test_violation_str_is_clickable(self, tmp_path):
        violations = lint_source(tmp_path, "import random\n")
        text = str(violations[0])
        assert text.startswith(f"{tmp_path.as_posix()}/module.py:1:")
        assert RULE_RNG in text


class TestDeviceFailureConservationRule:
    EMITTER = (
        "def drain(self):\n"
        "    self.bus.emit(DeviceFailed(device=1, iteration=4))\n"
    )

    def test_emitter_without_conservation_check_flagged(self, tmp_path):
        violations = lint_source(tmp_path, self.EMITTER)
        assert rules_of(violations) == [RULE_FAILURE_CONSERVATION]
        assert "drain" in violations[0].message
        assert "conservation" in violations[0].message

    def test_bare_handler_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def on_device_failed(self, event):\n"
            "    self.failures += 1\n",
        )
        assert rules_of(violations) == [RULE_FAILURE_CONSERVATION]

    def test_conservation_call_satisfies(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def drain(self):\n"
            "    self.bus.emit(DeviceFailed(device=1, iteration=4))\n"
            "    self._assert_cluster_conservation()\n",
        )
        assert violations == []

    def test_conservation_named_function_exempt(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def check_conservation(self):\n"
            "    audit(DeviceFailed(device=1, iteration=4))\n",
        )
        assert violations == []

    def test_waiver_on_def_line_suppresses(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def on_device_failed(  "
            "# lint: allow-device-failure-conservation\n"
            "    self, event):\n"
            "    self.failures += 1\n",
        )
        assert violations == []

    def test_unrelated_events_pass(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "def drain(self):\n"
            "    self.bus.emit(IterationStarted(iteration=4, partition=0))\n",
        )
        assert violations == []


class TestNoSimulatedTimeInBackendsRule:
    def test_seeded_defect_caught_exactly_once(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from repro.gpu.timeline import Timeline\n",
            name="backends/defect.py",
        )
        assert rules_of(violations) == [RULE_BACKEND_SIM_TIME]
        assert "wall-clock" in violations[0].message

    def test_plain_import_and_device_module_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "import repro.gpu.timeline\nimport repro.gpu.device\n",
            name="backends/defect.py",
        )
        assert rules_of(violations) == [RULE_BACKEND_SIM_TIME] * 2

    def test_from_gpu_package_form_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from repro.gpu import device\n",
            name="backends/defect.py",
        )
        assert rules_of(violations) == [RULE_BACKEND_SIM_TIME]

    def test_other_gpu_imports_allowed_in_backends(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from repro.gpu.calibration import Calibration\n"
            "from repro.gpu import cluster\n",
            name="backends/clean.py",
        )
        assert violations == []

    def test_rule_scoped_to_backends_package(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from repro.gpu.timeline import Timeline\n",
            name="core/engine_helper.py",
        )
        assert violations == []

    def test_waiver_suppresses(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "from repro.gpu.timeline import Timeline"
            "  # lint: allow-no-simulated-time-in-backends\n",
            name="backends/waived.py",
        )
        assert violations == []


class TestUnpublishedMutationBusAlias:
    """A stage may publish through a local bound to its bus's ``emit``."""

    STAGES = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class StageContext:\n"
        "    host: object\n"
        "    bus: object\n"
        "class Evictor:\n"
        "    def evict(self, ctx, batches):\n"
        "        {bind}\n"
        "        for part, batch in batches:\n"
        "            ctx.host.push_batch(part, batch)\n"
        "            {call}\n"
        "class Loader:\n"
        "    def load(self, ctx, part):\n"
        "        return ctx.host.counts[part]\n"
    )

    def stages(self, tmp_path, bind, call):
        return lint_source(
            tmp_path, self.STAGES.format(bind=bind, call=call)
        )

    def test_bound_emit_publishes(self, tmp_path):
        violations = self.stages(
            tmp_path,
            "emit = ctx.bus.emit",
            "emit(BatchEvicted(partition=part, walks=len(batch)))",
        )
        assert violations == []

    def test_emit_bound_through_a_bus_alias_publishes(self, tmp_path):
        violations = self.stages(
            tmp_path,
            "bus = ctx.bus; emit = bus.emit",
            "emit(BatchEvicted(partition=part, walks=len(batch)))",
        )
        assert violations == []

    def test_bound_subscribe_does_not_publish(self, tmp_path):
        violations = self.stages(
            tmp_path,
            "sub = ctx.bus.subscribe",
            "sub(BatchEvicted, print)",
        )
        assert rules_of(violations) == [RULE_UNPUBLISHED]
        assert "Evictor.evict" in violations[0].message
        assert "'host'" in violations[0].message
