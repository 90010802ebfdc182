"""Event-protocol conformance pass (``--strict``, rules
``unhandled-event``, ``unknown-event-field``, ``event-device-coverage``).

The event vocabulary in ``core/events.py`` is a *protocol*: emitters and
subscribers agree on which events exist and what they carry, but Python
enforces none of it — a handler reading ``event.walk_count`` from an
event that carries ``walks`` raises only when that handler actually
runs, and an event nobody subscribes to fails never.  This pass
cross-checks the three directions statically:

``unhandled-event``
    An event type constructed at a ``bus.emit(...)`` site with no
    ``on_<snake_case>`` handler (and no ``subscribe(Type, ...)``
    registration) anywhere in the analyzed tree.  Complements the
    house-rules ``event-handler-coverage`` rule, which audits the
    *declared* vocabulary in ``core/events.py`` — this one audits the
    *emitted* vocabulary wherever it lives.

``unknown-event-field``
    A handler reading an attribute its event type does not declare
    (fields and methods, bases included).  With synchronous delivery
    this is a guaranteed ``AttributeError`` on the hot path the first
    time the event fires.

``event-device-coverage``
    A per-iteration event (one declaring an ``iteration`` field) that
    carries no device identity (``device`` / ``src_device`` /
    ``dst_device``).  Multi-device runs interleave shard iterations on
    one bus; an iteration-scoped event without a device field is
    unattributable in cluster traces.  Genuinely cluster-scoped events
    waive with ``# lint: allow-event-device-coverage``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.static.dataflow import (
    CallGraph,
    ModuleInfo,
    SymbolTable,
    bus_handler_event,
    dotted,
    snake_case,
)
from repro.analysis.static.findings import Finding

PASS_NAME = "protocol"

RULE_UNHANDLED_EVENT = "unhandled-event"
RULE_UNKNOWN_FIELD = "unknown-event-field"
RULE_DEVICE_COVERAGE = "event-device-coverage"

#: field names that attribute an event to a device / shard.
DEVICE_FIELDS = frozenset({"device", "src_device", "dst_device"})


def _subscribe_registrations(modules: Sequence[ModuleInfo]) -> Set[str]:
    """Event class names registered via ``subscribe(Type, handler)``."""
    registered: Set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted(node.func)
            if callee.rsplit(".", 1)[-1] != "subscribe" or not node.args:
                continue
            first = node.args[0]
            name = dotted(first)
            if name:
                registered.add(name.rsplit(".", 1)[-1])
    return registered


def _event_surface(table: SymbolTable, event: str) -> Set[str]:
    """Attributes an event type legitimately exposes: declared fields
    and methods of the class and its analyzed bases."""
    surface: Set[str] = set()
    for cls_name in table.mro(event):
        symbol = table.classes.get(cls_name)
        if symbol is None:
            continue
        surface.update(symbol.fields)
        surface.update(symbol.methods)
    return surface


def _event_param(
    fn: Union[ast.FunctionDef, ast.AsyncFunctionDef], is_method: bool
) -> Optional[str]:
    params = [a.arg for a in [*fn.args.posonlyargs, *fn.args.args]]
    if is_method and params and params[0] in ("self", "cls"):
        params = params[1:]
    return params[0] if params else None


def _check_unhandled(
    graph: CallGraph,
    table: SymbolTable,
    registered: Set[str],
    findings: List[Finding],
) -> None:
    handled_events: Set[str] = set()
    reported: Set[str] = set()
    for event in table.event_types:
        if graph.handlers_of(event) or event in registered:
            handled_events.add(event)
    for uid in sorted(graph.nodes):
        node = graph.nodes[uid]
        for event, line in node.emits:
            if event == "<event>" or event not in table.event_types:
                continue
            if event in handled_events or event in reported:
                continue
            reported.add(event)
            findings.append(
                Finding(
                    node.module.rel,
                    line,
                    RULE_UNHANDLED_EVENT,
                    f"'{event}' is emitted here but no "
                    f"'on_{snake_case(event)}' handler (or subscribe "
                    "registration) exists anywhere in the analyzed "
                    "tree: the event is dead weight or an unobserved "
                    "engine fact",
                    PASS_NAME,
                )
            )


def _check_handler_fields(
    graph: CallGraph, table: SymbolTable, findings: List[Finding]
) -> None:
    for uid in sorted(graph.nodes):
        node = graph.nodes[uid]
        event = bus_handler_event(node.scope, table)
        if event is None:
            continue
        param = _event_param(
            node.scope.node, is_method=node.scope.owner is not None
        )
        if param is None:
            continue
        surface = _event_surface(table, event)
        seen_attrs: Set[str] = set()
        for sub in ast.walk(node.scope.node):
            if not (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == param
            ):
                continue
            attr = sub.attr
            if (
                attr in surface
                or attr.startswith("__")
                or attr in seen_attrs
            ):
                continue
            seen_attrs.add(attr)
            findings.append(
                Finding(
                    node.module.rel,
                    sub.lineno,
                    RULE_UNKNOWN_FIELD,
                    f"handler '{node.scope.qualname}' reads "
                    f"'{param}.{attr}' but event '{event}' defines no "
                    f"such field: guaranteed AttributeError when the "
                    "event fires",
                    PASS_NAME,
                )
            )


def _event_classes(
    module: ModuleInfo,
) -> List[Tuple[ast.ClassDef, Dict[str, int]]]:
    """EngineEvent subclasses with their directly-declared field lines."""
    out: List[Tuple[ast.ClassDef, Dict[str, int]]] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(
            dotted(base).rsplit(".", 1)[-1] == "EngineEvent"
            for base in node.bases
        ):
            continue
        fields: Dict[str, int] = {}
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                fields[stmt.target.id] = stmt.lineno
        out.append((node, fields))
    return out


def _check_device_coverage(
    modules: Sequence[ModuleInfo], findings: List[Finding]
) -> None:
    for module in modules:
        for node, fields in _event_classes(module):
            if "iteration" not in fields:
                continue
            if DEVICE_FIELDS & set(fields):
                continue
            findings.append(
                Finding(
                    module.rel,
                    node.lineno,
                    RULE_DEVICE_COVERAGE,
                    f"per-iteration event '{node.name}' carries no "
                    "device identity (device/src_device/dst_device): "
                    "multi-device traces cannot attribute it to a "
                    "shard; add a device field or waive with "
                    "'# lint: allow-event-device-coverage'",
                    PASS_NAME,
                )
            )


def run_pass(
    modules: Sequence[ModuleInfo], table: SymbolTable, graph: CallGraph
) -> List[Finding]:
    findings: List[Finding] = []
    registered = _subscribe_registrations(modules)
    _check_unhandled(graph, table, registered, findings)
    _check_handler_fields(graph, table, findings)
    _check_device_coverage(modules, findings)
    return findings
