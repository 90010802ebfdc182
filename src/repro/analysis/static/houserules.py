"""House-rules pass: the repo-specific per-file AST checks.

``rng-factory``
    Every ``numpy`` generator must come from
    :func:`repro.core.prng.seeded_rng` (or ``CounterRNG``); direct
    ``np.random.default_rng`` / ``np.random.*`` calls and the stdlib
    ``random`` module are banned outside ``core/prng.py``.  Call names
    resolve through the module's imports, so ``nprng.default_rng``
    after ``from numpy import random as nprng`` is caught too.  Ad-hoc
    generators fork untracked RNG streams and silently break
    counter-RNG replay and cross-system seed alignment.

``float-timestamp-eq``
    No ``==`` / ``!=`` on simulated-timeline timestamps (``busy_until``,
    ``ready_time``, ``now``, ``*_time`` names).  Timestamps are sums of
    float durations accumulated in program order; exact equality is
    order-sensitive — use :func:`repro.gpu.timeline.times_close`.

``frozen-event``
    Every ``@dataclass`` in an ``events.py`` module (and every subclass
    of ``EngineEvent`` anywhere) must be declared ``frozen=True``:
    events are delivered synchronously to multiple subscribers, and a
    subscriber mutating a shared event corrupts everyone downstream.

``event-handler-coverage``
    Every event type defined in ``core/events.py`` must have at least
    one ``on_<snake_case>`` handler defined somewhere in the tree (or
    an explicit waiver) — an event nobody consumes is either dead
    weight or a silently unobserved engine fact.

``no-simulated-time-in-backends``
    Modules in the execution-backend package (``repro/backends/``) must
    never import :mod:`repro.gpu.timeline` or :mod:`repro.gpu.device`.
    Backends measure *real* wall-clock per kernel; the simulated clock
    and device specs belong to the cost model that consumes the
    backend's step counts — a backend reading simulated time would let
    measured and simulated seconds contaminate each other, which is
    exactly the split ``repro bench backends`` cross-validates.

``device-failure-conservation``
    Every ``DeviceFailed``-handling code path — a function named
    ``on_device_failed`` or one that constructs/emits a
    ``DeviceFailed`` event — must re-assert walk conservation: call
    something whose name mentions ``conservation`` (e.g. ``core.cluster``'s
    ``assert_cluster_conservation`` or the sanitizer's
    ``_check_conservation``).  Failure recovery moves whole walk
    populations between shards; a path that mutates them without
    re-checking the global count is exactly where walks get silently
    lost.  Pure counter observers waive per line with
    ``# lint: allow-device-failure-conservation``.
"""

from __future__ import annotations

import ast
import re
from typing import List, Sequence, Set, Tuple

from repro.analysis.static.dataflow import (
    ModuleInfo,
    canonical_name,
    dotted,
    import_aliases,
    snake_case,
)
from repro.analysis.static.findings import Finding
from repro.core.prng import FACTORY_MODULE_SUFFIX

PASS_NAME = "house-rules"

RULE_RNG = "rng-factory"
RULE_FLOAT_EQ = "float-timestamp-eq"
RULE_FROZEN_EVENT = "frozen-event"
RULE_HANDLER_COVERAGE = "event-handler-coverage"
RULE_FAILURE_CONSERVATION = "device-failure-conservation"
RULE_BACKEND_SIM_TIME = "no-simulated-time-in-backends"

#: package directory whose modules may not touch simulated clocks.
BACKENDS_PACKAGE = "backends/"

#: module paths banned inside the backends package (simulated time).
SIMULATED_TIME_MODULES = ("gpu.timeline", "gpu.device")

#: module path (as posix suffix) allowed to construct raw generators.
RNG_FACTORY_MODULE = FACTORY_MODULE_SUFFIX

#: call-name prefixes of numpy's global random module, after import
#: aliases are resolved (``np`` is kept for files that never import it).
_NUMPY_RANDOM_PREFIXES = ("numpy.random.", "np.random.")

#: identifiers treated as simulated timestamps by ``float-timestamp-eq``.
TIMESTAMP_NAMES = re.compile(
    r"^(busy_until|ready_time|now|graph_t|batch_t|k_end|earliest"
    r"|[a-z0-9_]*_time)$"
)


def _constructs_device_failed(node: ast.AST) -> bool:
    """Does this subtree build (and therefore emit) a DeviceFailed event?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if dotted(sub.func).split(".")[-1] == "DeviceFailed":
                return True
    return False


def _reasserts_conservation(node: ast.AST) -> bool:
    """Does this subtree call anything whose name mentions conservation?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if "conservation" in dotted(sub.func).lower():
                return True
    return False


def _in_backends_package(rel: str) -> bool:
    rel = rel.replace("\\", "/")
    return f"/{BACKENDS_PACKAGE}" in rel or rel.startswith(BACKENDS_PACKAGE)


def _is_simulated_time_module(name: str) -> bool:
    for banned in SIMULATED_TIME_MODULES:
        for full in (banned, f"repro.{banned}"):
            if name == full or name.startswith(full + "."):
                return True
    return False


def _is_timestamp_operand(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return bool(TIMESTAMP_NAMES.match(node.id))
    if isinstance(node, ast.Attribute):
        return bool(TIMESTAMP_NAMES.match(node.attr))
    return False


class _FileVisitor(ast.NodeVisitor):
    """Single-file visitor for the per-file house rules."""

    def __init__(self, module: ModuleInfo, allow_rng: bool) -> None:
        self.module = module
        self.allow_rng = allow_rng
        self.aliases = import_aliases(module)
        self.in_backends = _in_backends_package(module.rel)
        self.findings: List[Finding] = []
        self.handler_names: Set[str] = set()

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                self.module.rel,
                getattr(node, "lineno", 0),
                rule,
                message,
                PASS_NAME,
            )
        )

    # -- no-simulated-time-in-backends ---------------------------------
    def _report_simulated_time(self, node: ast.AST, name: str) -> None:
        self._report(
            node,
            RULE_BACKEND_SIM_TIME,
            f"backend module imports '{name}': execution backends "
            "measure real wall-clock and must not consume simulated "
            "clocks or device specs (the cost model does that from the "
            "backend's returned step counts)",
        )

    # -- rng-factory ---------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        if not self.allow_rng:
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith(
                    "random."
                ):
                    self._report(
                        node,
                        RULE_RNG,
                        "stdlib 'random' bypasses core/prng.py; use "
                        "repro.core.prng.seeded_rng",
                    )
        if self.in_backends:
            for alias in node.names:
                if _is_simulated_time_module(alias.name):
                    self._report_simulated_time(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self.allow_rng and node.module is not None:
            if node.module == "random" or node.module.startswith("random."):
                self._report(
                    node,
                    RULE_RNG,
                    "stdlib 'random' bypasses core/prng.py; use "
                    "repro.core.prng.seeded_rng",
                )
            if node.module in ("numpy.random",) or node.module.startswith(
                "numpy.random."
            ):
                self._report(
                    node,
                    RULE_RNG,
                    "importing from numpy.random bypasses core/prng.py; "
                    "use repro.core.prng.seeded_rng",
                )
        if self.in_backends and node.module is not None:
            if _is_simulated_time_module(node.module):
                self._report_simulated_time(node, node.module)
            elif node.module in ("repro.gpu", "gpu"):
                for alias in node.names:
                    target = f"{node.module}.{alias.name}"
                    if _is_simulated_time_module(target):
                        self._report_simulated_time(node, target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if not self.allow_rng:
            name = canonical_name(dotted(node.func), self.aliases)
            if name.startswith(_NUMPY_RANDOM_PREFIXES):
                self._report(
                    node,
                    RULE_RNG,
                    f"direct '{name}' call outside core/prng.py; "
                    "construct generators via repro.core.prng.seeded_rng "
                    "so runs stay counter-RNG deterministic",
                )
        self.generic_visit(node)

    # -- float-timestamp-eq --------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if _is_timestamp_operand(side):
                    name = dotted(side) or "<timestamp>"
                    self._report(
                        node,
                        RULE_FLOAT_EQ,
                        f"exact {'==' if isinstance(op, ast.Eq) else '!='} "
                        f"on simulated timestamp '{name}'; use "
                        "repro.gpu.timeline.times_close",
                    )
                    break
        self.generic_visit(node)

    # -- frozen-event ----------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        is_event_module = self.module.path.name == "events.py"
        subclasses_event = any(
            dotted(base).split(".")[-1] == "EngineEvent"
            for base in node.bases
        )
        for decorator in node.decorator_list:
            target = decorator
            frozen = False
            if isinstance(decorator, ast.Call):
                target = decorator.func
                frozen = any(
                    kw.arg == "frozen"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in decorator.keywords
                )
            if dotted(target).split(".")[-1] != "dataclass":
                continue
            if (is_event_module or subclasses_event) and not frozen:
                self._report(
                    node,
                    RULE_FROZEN_EVENT,
                    f"event dataclass '{node.name}' must be "
                    "@dataclass(frozen=True): events are shared across "
                    "bus subscribers",
                )
        self.generic_visit(node)

    # -- device-failure-conservation -------------------------------------
    def _check_device_failure(self, node: ast.AST) -> None:
        name = getattr(node, "name", "")
        handles = name == "on_device_failed" or _constructs_device_failed(
            node
        )
        if not handles or "conservation" in name.lower():
            return
        if _reasserts_conservation(node):
            return
        self._report(
            node,
            RULE_FAILURE_CONSERVATION,
            f"'{name}' handles DeviceFailed but never re-asserts walk "
            "conservation; call a *conservation* check (e.g. "
            "assert_cluster_conservation) or waive with "
            "'# lint: allow-device-failure-conservation'",
        )

    # -- handler collection (for event-handler-coverage) -----------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name.startswith("on_"):
            self.handler_names.add(node.name)
        self._check_device_failure(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if node.name.startswith("on_"):
            self.handler_names.add(node.name)
        self._check_device_failure(node)
        self.generic_visit(node)


def _event_types(tree: ast.Module) -> List[Tuple[str, int]]:
    """``(class name, lineno)`` of every EngineEvent subclass in a module."""
    out: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            dotted(base).split(".")[-1] == "EngineEvent"
            for base in node.bases
        ):
            out.append((node.name, node.lineno))
    return out


def run_pass(modules: Sequence[ModuleInfo]) -> List[Finding]:
    """Run the six house rules over parsed modules."""
    findings: List[Finding] = []
    all_handlers: Set[str] = set()
    events_modules: List[ModuleInfo] = []

    for module in modules:
        visitor = _FileVisitor(
            module, allow_rng=module.rel.endswith(RNG_FACTORY_MODULE)
        )
        visitor.visit(module.tree)
        all_handlers.update(visitor.handler_names)
        findings.extend(visitor.findings)
        if module.rel.endswith("core/events.py"):
            events_modules.append(module)

    # event-handler-coverage spans files: needs all handlers collected.
    for module in events_modules:
        for event_name, lineno in _event_types(module.tree):
            handler = "on_" + snake_case(event_name)
            if handler in all_handlers:
                continue
            findings.append(
                Finding(
                    module.rel,
                    lineno,
                    RULE_HANDLER_COVERAGE,
                    f"event type '{event_name}' has no '{handler}' "
                    "subscriber anywhere in the tree; register a handler "
                    "or waive with '# lint: allow-event-handler-coverage'",
                    PASS_NAME,
                )
            )
    return findings
