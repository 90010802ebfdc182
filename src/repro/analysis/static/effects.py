"""Observer-purity pass (``--strict``, rules ``impure-bus-subscriber``,
``handler-calls-emit``).

Bus subscribers (Sanitizer, Metrics, Trace, ClusterController, and
every future autotuner) are *observers*: the engine's behavior must be
identical with and without them attached, or detaching diagnostics
changes trajectories and the cost-model cross-validation lies.  That
contract was previously enforced only by convention.  This pass infers
the transitive write-effect set of every ``on_<event>`` handler through
the project call graph and flags:

``impure-bus-subscriber``
    A handler call chain that writes through *protected* state — the
    engine, a ``StageContext``, a pool, timeline, scheduler, cluster or
    shard — whether directly (``self.ctx.batch_size = 64``), through a
    helper (``self._retune()``), or through an argument (``tweak(ctx)``
    where the callee mutates its parameter).  Handlers may freely write
    their *own* bookkeeping (``self.counts[...] += 1``); only state the
    engine also reads is protected.

``handler-calls-emit``
    A handler chain that emits on a bus.  Synchronous re-entrant
    emission from inside delivery re-orders observers arbitrarily and
    can recurse; emission belongs to the engine loop, not to handlers.

Effect propagation follows only the *precise* call-graph edges (bare
module functions and ``self.m()`` through the MRO) — a false edge here
would be a false finding on a pure observer, the wrong polarity for a
gating pass.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.static.aliasing import MUTATING_METHODS
from repro.analysis.static.dataflow import (
    CallGraph,
    FunctionNode,
    ModuleInfo,
    SymbolTable,
    annotation_name,
    bus_handler_event,
    iter_own_nodes,
)
from repro.analysis.static.findings import Finding

PASS_NAME = "effects"

RULE_IMPURE_SUBSCRIBER = "impure-bus-subscriber"
RULE_HANDLER_EMIT = "handler-calls-emit"

#: attribute / parameter names conventionally bound to engine-side
#: state; writing through them from a handler chain is impure.
PROTECTED_NAMES = frozenset(
    {
        "ctx",
        "dctx",
        "engine",
        "cluster",
        "pool",
        "host_pool",
        "device_pool",
        "timeline",
        "scheduler",
        "shard",
        "stage",
        "migrator",
        "router",
    }
)

#: annotation names identifying engine-side state regardless of the
#: variable name it is bound to.
PROTECTED_CLASS_RE = re.compile(
    r"(StageContext|Engine|Cluster|Pool|Timeline|Scheduler|Stage"
    r"|Migrator|Shard)$"
)

#: abstract roots of a write target.
Root = Optional[Tuple[str, str]]  # ("selfattr"|"param"|"global", name)


def _protected_annotation(node: Optional[ast.expr]) -> bool:
    name = annotation_name(node)
    return name is not None and bool(PROTECTED_CLASS_RE.search(name))


def _protected_attrs(graph: CallGraph, owner: str) -> Set[str]:
    """Attributes of ``owner`` holding engine-side state.

    ``self.X`` is protected when ``X`` is a conventional engine name, is
    annotated with a protected class at class level, or any method binds
    it from a protected parameter (``self.ctx = ctx``).
    """
    protected: Set[str] = set(PROTECTED_NAMES)
    table = graph.table
    for cls_name in table.mro(owner):
        symbol = table.classes.get(cls_name)
        if symbol is None:
            continue
        for node in graph.nodes.values():
            if node.scope.owner != cls_name:
                continue
            fn = node.scope.node
            param_protected = {
                a.arg
                for a in [*fn.args.args, *fn.args.kwonlyargs]
                if a.arg in PROTECTED_NAMES
                or _protected_annotation(a.annotation)
            }
            for sub in iter_own_nodes(fn):
                if not isinstance(sub, ast.Assign):
                    continue
                if not (
                    isinstance(sub.value, ast.Name)
                    and sub.value.id in param_protected
                ):
                    continue
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        protected.add(target.attr)
    return protected


class _FunctionEffects:
    """Write-effect scan of one function body under a protection map."""

    def __init__(
        self,
        node: FunctionNode,
        protected_params: Set[str],
        protected_attrs: Set[str],
    ) -> None:
        self.node = node
        self.protected_params = protected_params
        self.protected_attrs = protected_attrs
        fn = node.scope.node
        self.params = {
            a.arg
            for a in [
                *fn.args.posonlyargs,
                *fn.args.args,
                *fn.args.kwonlyargs,
            ]
        }
        self.locals: Set[str] = set()
        self.aliases: Dict[str, Root] = {}
        self.globals_declared: Set[str] = set()
        for sub in iter_own_nodes(fn):
            if isinstance(sub, ast.Global):
                self.globals_declared.update(sub.names)
            for target in _assigned_names(sub):
                self.locals.add(target)

    # -- root resolution -----------------------------------------------
    def expr_root(self, node: ast.expr) -> Root:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            parent = node.value
            if (
                isinstance(node, ast.Attribute)
                and isinstance(parent, ast.Name)
                and parent.id == "self"
            ):
                return ("selfattr", node.attr)
            node = parent
        if isinstance(node, ast.Name):
            name = node.id
            if name == "self":
                return None  # bare self: writes land on selfattr above
            if name in self.params:
                return ("param", name)
            if name in self.aliases:
                return self.aliases[name]
            if name in self.locals and name not in self.globals_declared:
                return None  # fresh local
            return ("global", name)
        return None

    def is_protected(self, root: Root) -> bool:
        if root is None:
            return False
        kind, name = root
        if kind == "selfattr":
            return name in self.protected_attrs
        if kind == "param":
            return (
                name in self.protected_params or name in PROTECTED_NAMES
            )
        return True  # global writes from a handler are always impure

    def _note_alias(self, sub: ast.Assign) -> None:
        """Track ``c = self.ctx``-style local bindings to their root."""
        root = self.expr_root(sub.value)
        for target in sub.targets:
            if isinstance(target, ast.Name):
                self.aliases[target.id] = root

    # -- the scan --------------------------------------------------------
    def first_impure_write(self) -> Optional[Tuple[int, str]]:
        """(line, description) of the first protected write, if any."""
        for sub in sorted(
            iter_own_nodes(self.node.scope.node),
            key=lambda n: getattr(n, "lineno", 0),
        ):
            if isinstance(sub, ast.Assign):
                self._note_alias(sub)
                for target in sub.targets:
                    hit = self._store_target(target)
                    if hit is not None:
                        return hit
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                hit = self._store_target(sub.target)
                if hit is not None:
                    return hit
            elif isinstance(sub, ast.Call):
                hit = self._mutating_call(sub)
                if hit is not None:
                    return hit
            elif isinstance(sub, ast.Delete):
                for target in sub.targets:
                    hit = self._store_target(target)
                    if hit is not None:
                        return hit
        return None

    def _store_target(self, target: ast.expr) -> Optional[Tuple[int, str]]:
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                return (
                    target.lineno,
                    f"writes global '{target.id}'",
                )
            return None
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return None
        # ``self.x = ...`` rebinds the observer's own slot — pure even
        # when x *names* protected state (dropping a reference never
        # mutates the referent).  Everything deeper (``self.ctx.y``,
        # ``self.pool[k]``, ``ctx.y``) writes *through* the root object.
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return None
        root = self.expr_root(target)
        if self.is_protected(root):
            assert root is not None
            return (
                target.lineno,
                f"writes through protected {root[0]} '{root[1]}'",
            )
        return None

    def _mutating_call(self, call: ast.Call) -> Optional[Tuple[int, str]]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr not in MUTATING_METHODS:
            return None
        root = self.expr_root(func.value)
        if self.is_protected(root):
            assert root is not None
            return (
                call.lineno,
                f"calls mutator '.{func.attr}()' on protected "
                f"{root[0]} '{root[1]}'",
            )
        return None

    def call_bindings(self, call: ast.Call) -> Set[str]:
        """Protected arguments of a call, as ``#posN`` / keyword names.

        The caller knows which *arguments* are protected; only the
        callee knows its parameter names.  :func:`_callee_protected_params`
        maps the positions onto the callee signature.
        """
        out: Set[str] = set()
        for index, arg in enumerate(call.args):
            if self.is_protected(self.expr_root(arg)):
                out.add(f"#pos{index}")
        for kw in call.keywords:
            if kw.arg is not None and self.is_protected(
                self.expr_root(kw.value)
            ):
                out.add(kw.arg)
        return out


def _assigned_names(node: ast.AST) -> List[str]:
    out: List[str] = []
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        targets = [node.target]
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        targets = [
            item.optional_vars
            for item in node.items
            if item.optional_vars is not None
        ]
    elif isinstance(node, ast.comprehension):
        targets = [node.target]
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                out.append(sub.id)
    return out


def _callee_protected_params(
    callee: FunctionNode, pseudo: Set[str], is_method_call: bool
) -> Set[str]:
    """Translate ``#posN`` pseudo-names onto the callee's signature."""
    fn = callee.scope.node
    params = [
        a.arg for a in [*fn.args.posonlyargs, *fn.args.args]
    ]
    if is_method_call and params and params[0] in ("self", "cls"):
        params = params[1:]
    out: Set[str] = set()
    for name in pseudo:
        if name.startswith("#pos"):
            index = int(name[4:])
            if index < len(params):
                out.add(params[index])
        else:
            out.add(name)
    return out


def _chain_search(
    graph: CallGraph,
    handler: FunctionNode,
    protected_attrs: Set[str],
) -> Tuple[Optional[Tuple[int, str, str]], Optional[Tuple[int, str]]]:
    """DFS the handler's precise call chain for impure writes and emits.

    Returns ``(impure, emit)`` where ``impure`` is ``(line, chain,
    description)`` at the offending function and ``emit`` is ``(line,
    chain)`` — either may be None.
    """
    impure: Optional[Tuple[int, str, str]] = None
    emit: Optional[Tuple[int, str]] = None
    visited: Set[str] = set()
    stack: List[Tuple[FunctionNode, Set[str], List[str]]] = [
        (handler, set(), [handler.scope.qualname])
    ]
    while stack and (impure is None or emit is None):
        node, protected_params, chain = stack.pop()
        if node.uid in visited:
            continue
        visited.add(node.uid)
        effects = _FunctionEffects(node, protected_params, protected_attrs)
        if impure is None:
            hit = effects.first_impure_write()
            if hit is not None:
                impure = (hit[0], " -> ".join(chain), hit[1])
        if emit is None and node.emits:
            emit = (node.emits[0][1], " -> ".join(chain))
        for sub in iter_own_nodes(node.scope.node):
            if not isinstance(sub, ast.Call):
                continue
            for ref in [
                r for r in node.calls if r.line == sub.lineno
            ]:
                if ref.kind == "attr":
                    continue  # precise edges only
                for uid in graph.resolve(node, ref, dynamic=False):
                    callee = graph.nodes.get(uid)
                    if callee is None or uid in visited:
                        continue
                    pseudo = effects.call_bindings(sub)
                    callee_params = _callee_protected_params(
                        callee, pseudo, is_method_call=(ref.kind == "self")
                    )
                    stack.append(
                        (
                            callee,
                            callee_params,
                            chain + [callee.scope.qualname],
                        )
                    )
    return impure, emit


def run_pass(
    modules: Sequence[ModuleInfo], table: SymbolTable, graph: CallGraph
) -> List[Finding]:
    findings: List[Finding] = []
    attr_cache: Dict[str, Set[str]] = {}
    for uid in sorted(graph.nodes):
        node = graph.nodes[uid]
        owner = node.scope.owner
        if owner is None:
            continue
        event = bus_handler_event(node.scope, table)
        if event is None:
            continue
        protected = attr_cache.get(owner)
        if protected is None:
            protected = _protected_attrs(graph, owner)
            attr_cache[owner] = protected
        impure, emit = _chain_search(graph, node, protected)
        if impure is not None:
            line, chain, description = impure
            findings.append(
                Finding(
                    node.module.rel,
                    node.scope.node.lineno,
                    RULE_IMPURE_SUBSCRIBER,
                    f"'{event}' handler '{node.scope.qualname}' is not a "
                    f"pure observer: chain {chain} {description} "
                    f"(line {line}); detaching this subscriber would "
                    "change engine behavior",
                    PASS_NAME,
                )
            )
        if emit is not None:
            line, chain = emit
            findings.append(
                Finding(
                    node.module.rel,
                    node.scope.node.lineno,
                    RULE_HANDLER_EMIT,
                    f"'{event}' handler '{node.scope.qualname}' emits "
                    f"re-entrantly: chain {chain} reaches a bus emit "
                    f"(line {line}); emission belongs to the engine "
                    "loop, not to subscribers",
                    PASS_NAME,
                )
            )
    return findings
