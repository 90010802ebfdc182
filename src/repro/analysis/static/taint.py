"""Client-input flow pass (``--strict``, rules ``unvalidated-size``,
``tainted-seed``, ``tainted-index``).

The serving front-end accepts client-shaped input: frozen query
dataclasses (``serve/queries.py``) and CLI ``args.*``.  Three sink
classes must never consume such a field before it is validated:

``unvalidated-size``
    Allocation extents — ``np.empty``/``np.zeros``/``np.ndarray`` shape
    arguments and ``range()`` bounds in step loops.  An unbounded
    ``walks``/``length`` sizes the walk tables straight from the wire.

``tainted-seed``
    ``derive_seed`` inputs.  Per-request determinism keys off the
    *session* seed plus a request id; a client field mixed into seed
    derivation lets one request perturb another's replay stream.
    Fields literally named ``seed`` are exempt — a seed parameter is
    the sanctioned way to choose the stream.

``tainted-index``
    CSR index expressions (subscripts of ``offsets``/``targets``/
    ``weights``/``indptr``/``indices`` arrays).  An unvalidated vertex
    id reads out of bounds — or, with numpy's negative indexing,
    silently wraps.

Sources are field reads off a query value (a parameter annotated with
a ``*Query`` dataclass, or any ``query``-named base) and ``args.*``
attribute reads.  *Sanitizers* remove taint: a field checked in a
raising ``__post_init__`` bounds test (or passed through
``validated()``) is trusted everywhere; inside a function, a name
tested by a raising ``if`` guard (or ``assert``) is trusted after the
guard — the flow-sensitive half.  Taint propagates field-sensitively
(per dataclass field, not per object) and interprocedurally through
the precise call-graph edges with the same ``#posN``/keyword argument
binding effects.py uses; findings carry the full qualname flow chain.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.static.dataflow import (
    AbstractInterpreter,
    CallGraph,
    CallRef,
    FunctionNode,
    ModuleInfo,
    SymbolTable,
    annotation_name,
    canonical_name,
    dotted,
    import_aliases,
    is_frozen_dataclass,
)
from repro.analysis.static.findings import Finding

PASS_NAME = "taint"

RULE_UNVALIDATED_SIZE = "unvalidated-size"
RULE_TAINTED_SEED = "tainted-seed"
RULE_TAINTED_INDEX = "tainted-index"

#: one taint fact: (source description, field name) — the field name
#: carries the seed exemption through propagation.
Taint = Tuple[str, str]
Taints = FrozenSet[Taint]

_EMPTY: Taints = frozenset()

#: numpy constructors whose first positional / ``shape=`` argument is
#: an allocation extent.
_NP_ALLOCS = frozenset(
    {
        "numpy.empty",
        "numpy.zeros",
        "numpy.ones",
        "numpy.full",
        "numpy.ndarray",
        "numpy.arange",
    }
)

#: calls that return their (numeric) argument's value: taint flows
#: through, everything else launders it (callee sinks are checked via
#: interprocedural propagation instead).
_PASSTHROUGH = frozenset({"int", "float", "abs", "max", "min", "round", "len"})

#: conventional CSR array names; subscripting one with a tainted index
#: is the ``tainted-index`` sink.
_CSR_NAMES = frozenset({"offsets", "targets", "weights", "indptr", "indices"})

#: modules owning seed derivation itself — their internals consume seed
#: material by design and are never sinks.
_EXEMPT_SUFFIXES = ("core/prng.py",)

#: interprocedural depth cap; chains deeper than this are noise.
_MAX_DEPTH = 10


# ---------------------------------------------------------------------------
# Query dataclass index: fields and their validation status
# ---------------------------------------------------------------------------

class QueryIndex:
    """Field-sensitivity table for the frozen query dataclasses.

    A class is a query when it is a frozen dataclass whose name ends in
    ``Query`` (or inherits ``WalkQuery``).  A field is *validated* when
    any ``__post_init__`` on the MRO mentions ``self.<field>`` inside a
    raising ``if``/``assert`` test or passes it to ``validated()``.
    """

    def __init__(
        self, modules: Sequence[ModuleInfo], table: SymbolTable
    ) -> None:
        self.table = table
        self.query_classes: Set[str] = set()
        own_fields: Dict[str, Set[str]] = {}
        own_validated: Dict[str, Set[str]] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if not is_frozen_dataclass(node):
                    continue
                if not (
                    node.name.endswith("Query")
                    or table.inherits_from(node.name, "WalkQuery")
                ):
                    continue
                self.query_classes.add(node.name)
                own_fields[node.name] = self._declared_fields(node)
                own_validated[node.name] = self._validated_fields(node)
        self.fields: Dict[str, Set[str]] = {}
        self.validated: Dict[str, Set[str]] = {}
        for name in self.query_classes:
            fields: Set[str] = set()
            checked: Set[str] = set()
            for cls in table.mro(name) or [name]:
                fields |= own_fields.get(cls, set())
                checked |= own_validated.get(cls, set())
            self.fields[name] = fields
            self.validated[name] = checked

    @staticmethod
    def _declared_fields(node: ast.ClassDef) -> Set[str]:
        out: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                out.add(stmt.target.id)
        return out

    @staticmethod
    def _validated_fields(node: ast.ClassDef) -> Set[str]:
        post = next(
            (
                stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
                and stmt.name == "__post_init__"
            ),
            None,
        )
        if post is None:
            return set()
        out: Set[str] = set()

        def self_fields(expr: ast.AST) -> Set[str]:
            return {
                sub.attr
                for sub in ast.walk(expr)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            }

        for sub in ast.walk(post):
            if isinstance(sub, ast.If) and any(
                isinstance(inner, ast.Raise) for inner in ast.walk(sub)
            ):
                out |= self_fields(sub.test)
            elif isinstance(sub, ast.Assert):
                out |= self_fields(sub.test)
            elif (
                isinstance(sub, ast.Call)
                and dotted(sub.func).rsplit(".", 1)[-1] == "validated"
            ):
                for arg in sub.args:
                    out |= self_fields(arg)
        return out

    # -- queries ---------------------------------------------------------
    def tainted_field(
        self, field: str, cls: Optional[str] = None
    ) -> bool:
        """Whether reading ``field`` off a query yields taint.

        With a known class, field-sensitive against that class's MRO;
        without one (a ``query``-named base of unknown type), tainted
        when *any* query class declares it unvalidated.
        """
        if cls is not None:
            if cls not in self.query_classes:
                return False
            return field in self.fields[cls] and field not in self.validated[
                cls
            ]
        return any(
            field in self.fields[name]
            and field not in self.validated[name]
            for name in self.query_classes
        )


# ---------------------------------------------------------------------------
# Per-function flow-sensitive taint interpretation
# ---------------------------------------------------------------------------

class _TaintInterp(AbstractInterpreter[Taints]):
    def __init__(
        self,
        node: FunctionNode,
        graph: CallGraph,
        queries: QueryIndex,
        aliases: Dict[str, str],
        param_taints: Dict[str, Taints],
        chain: Tuple[str, ...],
        sinks_exempt: bool,
    ) -> None:
        super().__init__()
        self.node = node
        self.graph = graph
        self.queries = queries
        self.aliases = aliases
        self.chain = chain
        self.sinks_exempt = sinks_exempt
        self.findings: List[Finding] = []
        #: (callee uid, param -> taints) pairs discovered at call sites
        self.propagate: List[Tuple[str, Dict[str, Taints]]] = []
        self.env.update(param_taints)
        #: params annotated with a query class: field-sensitive bases
        self.query_params: Dict[str, str] = {}
        fn = node.scope.node
        for arg in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]:
            ann = annotation_name(arg.annotation)
            if ann is not None and ann in queries.query_classes:
                self.query_params[arg.arg] = ann

    # -- domain ---------------------------------------------------------
    def top(self) -> Taints:
        return _EMPTY

    def merge(self, a: Taints, b: Taints) -> Taints:
        return a | b

    # -- guard narrowing (the flow-sensitive sanitizer) ------------------
    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If) and any(
            isinstance(node, ast.Raise) for node in ast.walk(stmt)
        ):
            super().exec_stmt(stmt)
            self._clear_guarded(stmt.test)
            return
        if isinstance(stmt, ast.Assert):
            super().exec_stmt(stmt)
            self._clear_guarded(stmt.test)
            return
        super().exec_stmt(stmt)

    def _clear_guarded(self, test: ast.expr) -> None:
        for node in ast.walk(test):
            if isinstance(node, ast.Name) and node.id in self.env:
                self.env[node.id] = _EMPTY
            elif isinstance(node, ast.Attribute):
                # Guarding an attribute read (``if args.count > cap:
                # raise``) sanitizes that dotted path for the
                # fall-through code.
                path = dotted(node)
                if path:
                    self.env[path] = _EMPTY

    # -- sources ---------------------------------------------------------
    def _attribute_taint(self, node: ast.Attribute) -> Taints:
        field = node.attr
        base = node.value
        path = dotted(node)
        if path and path in self.env:
            return self.env[path]  # guard-sanitized attribute read
        if isinstance(base, ast.Name):
            if base.id == "args":
                return frozenset({(f"args.{field}", field)})
            cls = self.query_params.get(base.id)
            if cls is not None:
                if self.queries.tainted_field(field, cls):
                    return frozenset({(f"{cls}.{field}", field)})
                return _EMPTY
        base_name = dotted(base).rsplit(".", 1)[-1]
        if base_name == "query" and self.queries.tainted_field(field):
            return frozenset({(f"query.{field}", field)})
        # field read off a tainted scalar propagates the taint
        return self.eval_expr(base)

    # -- sinks -----------------------------------------------------------
    def _report(self, line: int, rule: str, message: str) -> None:
        self.findings.append(
            Finding(self.node.module.rel, line, rule, message, PASS_NAME)
        )

    def _flow(self) -> str:
        return " -> ".join(self.chain)

    def _sink_size(self, what: str, line: int, taints: Taints) -> None:
        if self.sinks_exempt or not taints:
            return
        srcs = ", ".join(sorted({t[0] for t in taints}))
        self._report(
            line,
            RULE_UNVALIDATED_SIZE,
            f"client-controlled '{srcs}' reaches {what} (flow "
            f"{self._flow()}); bound it in __post_init__ or wrap in "
            "validated() before it sizes an allocation",
        )

    def _sink_seed(self, line: int, taints: Taints) -> None:
        if self.sinks_exempt:
            return
        bad = {t for t in taints if t[1] != "seed"}
        if not bad:
            return
        srcs = ", ".join(sorted({t[0] for t in bad}))
        self._report(
            line,
            RULE_TAINTED_SEED,
            f"client-controlled '{srcs}' flows into derive_seed() (flow "
            f"{self._flow()}); seed derivation must key off the session "
            "seed and request id only, never unvalidated client fields",
        )

    def _sink_index(
        self, array: str, line: int, taints: Taints
    ) -> None:
        if self.sinks_exempt or not taints:
            return
        srcs = ", ".join(sorted({t[0] for t in taints}))
        self._report(
            line,
            RULE_TAINTED_INDEX,
            f"client-controlled '{srcs}' indexes CSR array '{array}' "
            f"(flow {self._flow()}); validate against num_vertices/"
            "num_edges first — negative values silently wrap",
        )

    # -- calls -----------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> Taints:
        name = canonical_name(dotted(node.func), self.aliases)
        simple = name.rsplit(".", 1)[-1]
        if simple == "validated":
            for arg in node.args:
                self.eval_expr(arg)
            for kw in node.keywords:
                self.eval_expr(kw.value)
            return _EMPTY
        arg_taints = [self.eval_expr(arg) for arg in node.args]
        kw_taints = {
            kw.arg: self.eval_expr(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:
                self.eval_expr(kw.value)

        if name in _NP_ALLOCS:
            shape = arg_taints[0] if arg_taints else _EMPTY
            shape |= kw_taints.get("shape", _EMPTY)
            if name == "numpy.arange":
                for taints in arg_taints:
                    shape |= taints
            self._sink_size(f"{simple}() shape", node.lineno, shape)
        elif simple == "range":
            bound: Taints = _EMPTY
            for taints in arg_taints:
                bound |= taints
            self._sink_size("a range() bound", node.lineno, bound)
        elif simple == "derive_seed":
            mixed: Taints = _EMPTY
            for taints in arg_taints:
                mixed |= taints
            for taints in kw_taints.values():
                mixed |= taints
            self._sink_seed(node.lineno, mixed)

        self._record_propagation(node, arg_taints, kw_taints)

        if simple in _PASSTHROUGH:
            out: Taints = _EMPTY
            for taints in arg_taints:
                out |= taints
            return out
        return _EMPTY

    def _record_propagation(
        self,
        node: ast.Call,
        arg_taints: Sequence[Taints],
        kw_taints: Dict[str, Taints],
    ) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            ref = CallRef("name", func.id, node.lineno)
            is_method = func.id in self.graph.table.classes
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            ref = CallRef("self", func.attr, node.lineno)
            is_method = True
        else:
            return
        pseudo: Dict[str, Taints] = {}
        for index, taints in enumerate(arg_taints):
            if taints:
                pseudo[f"#pos{index}"] = taints
        for kw, taints in kw_taints.items():
            if taints:
                pseudo[kw] = taints
        if not pseudo:
            return
        for uid in self.graph.resolve(self.node, ref, dynamic=False):
            callee = self.graph.nodes.get(uid)
            if callee is None:
                continue
            params = _bind_params(callee, pseudo, is_method)
            if params:
                self.propagate.append((uid, params))

    # -- expression evaluation -------------------------------------------
    def eval_expr(self, node: ast.expr) -> Taints:
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _EMPTY)
        if isinstance(node, ast.Attribute):
            return self._attribute_taint(node)
        if isinstance(node, ast.Subscript):
            value_taints = self.eval_expr(node.value)
            index_taints = self.eval_expr(node.slice)
            array = dotted(node.value).rsplit(".", 1)[-1].lstrip("_")
            if array in _CSR_NAMES:
                self._sink_index(array, node.lineno, index_taints)
            return value_taints | index_taints
        if isinstance(node, ast.IfExp):
            self.eval_expr(node.test)
            return self.eval_expr(node.body) | self.eval_expr(node.orelse)
        out: Taints = _EMPTY
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.eval_expr(child)
        return out


def _bind_params(
    callee: FunctionNode, pseudo: Dict[str, Taints], is_method_call: bool
) -> Dict[str, Taints]:
    """Translate ``#posN``/keyword taints onto the callee signature."""
    fn = callee.scope.node
    params = [a.arg for a in [*fn.args.posonlyargs, *fn.args.args]]
    if is_method_call and params and params[0] in ("self", "cls"):
        params = params[1:]
    names = set(params) | {a.arg for a in fn.args.kwonlyargs}
    out: Dict[str, Taints] = {}
    for key, taints in pseudo.items():
        if key.startswith("#pos"):
            index = int(key[4:])
            if index < len(params):
                out[params[index]] = out.get(params[index], _EMPTY) | taints
        elif key in names:
            out[key] = out.get(key, _EMPTY) | taints
    return out


# ---------------------------------------------------------------------------
# Pass entry point: seed every function, propagate over precise edges
# ---------------------------------------------------------------------------

def _exempt(module: ModuleInfo) -> bool:
    return module.rel.endswith(_EXEMPT_SUFFIXES)


def run_pass(
    modules: Sequence[ModuleInfo], table: SymbolTable, graph: CallGraph
) -> List[Finding]:
    queries = QueryIndex(modules, table)
    alias_cache: Dict[str, Dict[str, str]] = {}
    findings: List[Finding] = []
    seen_sinks: Set[Tuple[str, int, str]] = set()
    visited: Set[Tuple[str, FrozenSet[Tuple[str, str]]]] = set()

    def analyze(
        uid: str, param_taints: Dict[str, Taints], chain: Tuple[str, ...]
    ) -> None:
        if len(chain) > _MAX_DEPTH:
            return
        key = (
            uid,
            frozenset(
                (param, source)
                for param, taints in param_taints.items()
                for source, _ in taints
            ),
        )
        if key in visited:
            return
        visited.add(key)
        node = graph.nodes[uid]
        rel = node.module.rel
        aliases = alias_cache.get(rel)
        if aliases is None:
            aliases = import_aliases(node.module)
            alias_cache[rel] = aliases
        interp = _TaintInterp(
            node,
            graph,
            queries,
            aliases,
            param_taints,
            chain,
            sinks_exempt=_exempt(node.module),
        )
        interp.run(node.scope.node.body)
        for finding in interp.findings:
            sink = (finding.path, finding.line, finding.rule)
            if sink not in seen_sinks:
                seen_sinks.add(sink)
                findings.append(finding)
        for callee_uid, params in interp.propagate:
            callee = graph.nodes[callee_uid]
            analyze(
                callee_uid, params, chain + (callee.scope.qualname,)
            )

    for uid in sorted(graph.nodes):
        analyze(uid, {}, (graph.nodes[uid].scope.qualname,))
    return findings
