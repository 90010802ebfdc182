"""Cross-stage aliasing pass: a static race detector for the pipeline.

The pipeline stages (:mod:`repro.core.stages`), the engines and the
multi-device migrator all communicate through one shared mutable object
— the :class:`~repro.core.stages.StageContext` — plus the typed events
on its bus.  The repo's contract is: *a stage that mutates context
state other stages consume must publish what it did on the bus*, so
observers (stats, traces, the runtime sanitizer) and the other stages
can see the pipeline's ground truth.  This pass checks that contract
statically.

Model
-----
* A **context expression** is the name ``ctx``/``dctx``, any attribute
  access ending in ``.ctx`` (``self.ctx``, ``shard.ctx``), or — via the
  def-use core — any local variable assigned from one of those.  Inside
  methods of the context class itself, ``self`` is the context.
* An **actor** is a class (or module-level function) outside the
  context class whose code touches a context expression: the stages,
  the engines, the migrator.
* A **write** to field ``F`` is an attribute/subscript store on
  ``ctx.F``, an augmented assignment, or a call of a known mutating
  method anywhere under ``ctx.F`` (``ctx.graph_pool.insert(...)``,
  ``ctx.timeline.evict.schedule(...)``); :data:`CTX_METHOD_EFFECTS`
  maps the context's own helper methods to the state they mutate
  (``ctx.sched`` → ``timeline``).  Local aliases are tracked
  (``device = ctx.device; device.pop_all(...)`` is a write to
  ``device``).
* A method **publishes** if it emits on a bus (``...bus.emit(...)``, or
  a call of a local bound to one: ``emit = ctx.bus.emit; emit(...)``)
  or calls — directly or transitively, resolved by method name over the
  analyzed tree — a method that does.

Rule
----
``unpublished-mutation`` — actor A mutates a context field that at
least one *other* actor also touches, and neither A's method nor
anything it calls publishes an event: invisible cross-stage
communication.  It caught the walk-seeding code mutating the host pools
without an event; ``WalksSeeded`` is the fix.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.static.dataflow import (
    AbstractInterpreter,
    ModuleInfo,
)
from repro.analysis.static.findings import Finding

PASS_NAME = "aliasing"

RULE_UNPUBLISHED = "unpublished-mutation"

#: The shared-context class this pass audits.
CONTEXT_CLASS = "StageContext"

#: Local names conventionally bound to a context.
CTX_NAMES = frozenset({"ctx", "dctx"})

#: Method names that mutate their receiver (pools, streams, dicts, …).
MUTATING_METHODS = frozenset(
    {
        "schedule",
        "schedule_run",
        "insert",
        "evict",
        "evict_batch",
        "pop",
        "pop_all",
        "pop_batch",
        "pop_batches",
        "pop_preemptible",
        "push",
        "push_batch",
        "append",
        "append_walks",
        "add",
        "clear",
        "update",
        "setdefault",
        "remove",
        "discard",
        "extend",
        "merge",
        "drain",
        "lookup",  # BlockPool.lookup updates LRU recency
        "reshuffle",  # reshufflers scatter into the device pool
    }
)

#: Context helper methods and the field each one mutates.
CTX_METHOD_EFFECTS: Dict[str, str] = {
    "sched": "timeline",
    "sched_run": "timeline",
    "update_time": "_kernel_coeff",
}

# Abstract values of the def-use domain:
_CTX = ("ctx",)  # the context object itself
_BUS_EMIT = ("bus.emit",)  # a bus's bound ``emit`` method


def _field_value(name: str) -> Tuple[str, str]:
    return ("field", name)


@dataclass
class MethodFacts:
    """What one actor method does to the shared context."""

    actor: str
    qualname: str
    module: str
    line: int
    reads: Dict[str, int] = field(default_factory=dict)
    writes: Dict[str, int] = field(default_factory=dict)
    publishes: Set[str] = field(default_factory=set)
    calls: Set[str] = field(default_factory=set)

    def touch(self, table: Dict[str, int], name: str, line: int) -> None:
        table.setdefault(name, line)


class _AliasInterpreter(AbstractInterpreter[Optional[Tuple[str, ...]]]):
    """Tracks which locals alias the context or one of its fields."""

    def __init__(self, facts: MethodFacts, is_context_method: bool) -> None:
        super().__init__()
        self.facts = facts
        if is_context_method:
            self.env["self"] = _CTX

    # -- domain ---------------------------------------------------------
    def top(self) -> Optional[Tuple[str, ...]]:
        return None

    def merge(
        self,
        a: Optional[Tuple[str, ...]],
        b: Optional[Tuple[str, ...]],
    ) -> Optional[Tuple[str, ...]]:
        return a if a == b else None

    # -- helpers --------------------------------------------------------
    def _record_read(self, name: str, node: ast.AST) -> None:
        self.facts.touch(self.facts.reads, name, node.lineno)

    def _record_write(self, name: str, node: ast.AST) -> None:
        self.facts.touch(self.facts.writes, name, node.lineno)

    # -- expression evaluation ------------------------------------------
    def eval_expr(self, node: ast.expr) -> Optional[Tuple[str, ...]]:
        if isinstance(node, ast.Name):
            if node.id in CTX_NAMES:
                return _CTX
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.eval_expr(node.value)
            if node.attr == "ctx":
                return _CTX
            if node.attr == "emit" and self._is_bus(node.value, base):
                return _BUS_EMIT
            if base == _CTX:
                self._record_read(node.attr, node)
                return _field_value(node.attr)
            if base is not None and base[0] == "field":
                return base  # deeper attribute still belongs to the field
            return None
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.IfExp):
            self.eval_expr(node.test)
            return self.merge(
                self.eval_expr(node.body), self.eval_expr(node.orelse)
            )
        if isinstance(node, ast.Subscript):
            base = self.eval_expr(node.value)
            self.eval_expr(node.slice)
            return base if base is not None and base[0] == "field" else None
        # anything else: visit children, no alias information.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval_expr(child)
        return None

    def _eval_call(self, node: ast.Call) -> Optional[Tuple[str, ...]]:
        for arg in node.args:
            self.eval_expr(arg)
        for keyword in node.keywords:
            self.eval_expr(keyword.value)
        func = node.func
        if isinstance(func, ast.Name):
            if self.env.get(func.id) == _BUS_EMIT:
                self.facts.publishes.add(_event_name(node))
            else:
                self.facts.calls.add(func.id)
            return None
        if not isinstance(func, ast.Attribute):
            self.eval_expr(func)
            return None
        base = self.eval_expr(func.value)
        method = func.attr
        self.facts.calls.add(method)
        if method == "emit" and self._is_bus(func.value, base):
            self.facts.publishes.add(_event_name(node))
            return None
        if base == _CTX:
            effect = CTX_METHOD_EFFECTS.get(method)
            if effect is not None:
                self._record_write(effect, node)
            else:
                self._record_read(method, node)
            return None
        if base is not None and base[0] == "field":
            if method in MUTATING_METHODS:
                self._record_write(base[1], node)
            return None
        return None

    @staticmethod
    def _is_bus(
        expr: ast.expr, alias: Optional[Tuple[str, ...]]
    ) -> bool:
        if alias is not None and alias == _field_value("bus"):
            return True
        if isinstance(expr, ast.Name):
            return expr.id == "bus"
        if isinstance(expr, ast.Attribute):
            return expr.attr == "bus"
        return False

    # -- statement hooks ------------------------------------------------
    def on_assign(
        self,
        target: ast.expr,
        value: Optional[Tuple[str, ...]],
        node: ast.stmt,
    ) -> None:
        if isinstance(target, ast.Attribute):
            base = self.eval_expr(target.value)
            if base == _CTX:
                self._record_write(target.attr, target)
            elif base is not None and base[0] == "field":
                self._record_write(base[1], target)
        elif isinstance(target, ast.Subscript):
            base = self.eval_expr(target.value)
            if base is not None and base[0] == "field":
                self._record_write(base[1], target)


def _event_name(call: ast.Call) -> str:
    if call.args:
        arg = call.args[0]
        if isinstance(arg, ast.Call):
            func = arg.func
            if isinstance(func, ast.Name):
                return func.id
            if isinstance(func, ast.Attribute):
                return func.attr
    return "<event>"


def _effective_publishers(facts: Sequence[MethodFacts]) -> Set[str]:
    """Qualnames that publish directly or via calls, to a fixed point."""
    by_name: Dict[str, List[MethodFacts]] = {}
    for method in facts:
        by_name.setdefault(method.qualname.rsplit(".", 1)[-1], []).append(
            method
        )
    publishing = {m.qualname for m in facts if m.publishes}
    changed = True
    while changed:
        changed = False
        for method in facts:
            if method.qualname in publishing:
                continue
            for callee in method.calls:
                if any(
                    peer.qualname in publishing
                    for peer in by_name.get(callee, [])
                ):
                    publishing.add(method.qualname)
                    changed = True
                    break
    return publishing


def run_pass(modules: Sequence[ModuleInfo]) -> List[Finding]:
    """Run the cross-stage aliasing pass over parsed modules."""
    facts: List[MethodFacts] = []
    for module in modules:
        for scope in module.functions():
            is_ctx_class = scope.owner == CONTEXT_CLASS
            method = MethodFacts(
                actor=scope.owner or scope.node.name,
                qualname=scope.qualname,
                module=module.rel,
                line=scope.node.lineno,
            )
            interp = _AliasInterpreter(method, is_ctx_class)
            interp.run(scope.node.body)
            if is_ctx_class:
                # The context's own helpers are the state, not a stage:
                # publishing duty lies with the calling stage.  Keep the
                # facts only for call-graph publish propagation.
                method.reads.clear()
                method.writes.clear()
            if method.reads or method.writes or method.calls:
                facts.append(method)

    findings: List[Finding] = []
    actors_of: Dict[str, Set[str]] = {}
    writers_of: Dict[str, List[MethodFacts]] = {}
    for method in facts:
        for name in method.reads:
            actors_of.setdefault(name, set()).add(method.actor)
        for name in method.writes:
            actors_of.setdefault(name, set()).add(method.actor)
            writers_of.setdefault(name, []).append(method)
    publishing = _effective_publishers(facts)
    for name, writers in sorted(writers_of.items()):
        sharers = actors_of.get(name, set())
        if len(sharers) < 2:
            continue  # private to one actor: no cross-stage contract
        for method in writers:
            if method.qualname in publishing:
                continue
            others = sorted(sharers - {method.actor})
            findings.append(
                Finding(
                    method.module,
                    method.writes[name],
                    RULE_UNPUBLISHED,
                    f"{method.qualname} mutates shared {CONTEXT_CLASS}"
                    f" field {name!r} (also touched by"
                    f" {', '.join(others)}) without publishing any"
                    " event on the bus",
                    PASS_NAME,
                )
            )
    return findings
