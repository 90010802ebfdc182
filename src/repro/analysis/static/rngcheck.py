"""Interprocedural RNG-discipline pass (``--strict``, rules ``raw-rng``,
``unkeyed-draw``, ``nondeterministic-seed``).

The repo's replay guarantee is dynamic: the counter RNG keys every draw
by ``(seed, walk, step, draw)``, so any batch schedule replays
bit-identically.  That guarantee dies silently the moment randomness
enters through a side door.  This pass closes the three doors the
house-rules lint cannot see:

``raw-rng``
    A raw ``numpy.random.*`` / stdlib ``random.*`` construction that is
    *reachable from engine or backend code* through the project call
    graph — including sites the intraprocedural ``rng-factory`` rule
    misses because the module was imported under an alias (``from numpy
    import random as nprng``) or the construction hides in a helper the
    engine calls.  Only names in :data:`repro.core.prng.FACTORY_NAMES`
    (the same allowlist ``house-rules`` uses) may mint randomness.

``nondeterministic-seed``
    An RNG construction (raw or blessed) whose seed argument derives
    from wall-clock time, process identity or entropy —
    ``time.time()``, ``os.urandom``, ``uuid4``, ``secrets``, ``id()``,
    ``datetime.now()``.  Such a seed makes every run a new universe;
    goldens and cross-backend parity checks can never hold.

``unkeyed-draw``
    A backend draw routine whose parameter list does not carry all four
    key roles — seed, walk, step and draw counter.  A draw keyed on a
    subset is order-dependent in the dropped dimension: e.g. dropping
    ``step`` makes every step of a walk reuse one value, dropping
    ``draw`` collides multiple draws within a step.  The numba lane
    kernel ``_lane_draw_py(seed, walk_id, step, draw)`` is the contract.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.static.dataflow import (
    CallGraph,
    ModuleInfo,
    SymbolTable,
    canonical_name,
    dotted,
    import_aliases,
    iter_own_nodes,
)
from repro.analysis.static.findings import Finding
from repro.core.prng import FACTORY_MODULE_SUFFIX, FACTORY_NAMES

PASS_NAME = "rng"

RULE_RAW_RNG = "raw-rng"
RULE_UNKEYED_DRAW = "unkeyed-draw"
RULE_NONDET_SEED = "nondeterministic-seed"

#: modules whose functions are reachability roots: anything that can run
#: under the engine/backend umbrella must obey RNG discipline.
ROOT_MODULE_RE = re.compile(
    r"(^|/)repro/(core|backends|gpu|walks|algorithms)/"
)

#: classes whose methods are roots regardless of module placement.
ROOT_CLASS_RE = re.compile(
    r"(Engine|Backend|Stage|Dispatcher|Loader|Server|Migrator|Cluster)$"
)

#: canonical call prefixes that mint raw randomness.
_RAW_PREFIXES = ("numpy.random.", "random.")

#: canonical dotted names whose value is nondeterministic across runs.
_ENTROPY_CALL_RE = re.compile(
    r"(^|\.)("
    r"time|time_ns|perf_counter|perf_counter_ns|monotonic|monotonic_ns"
    r"|urandom|getpid|uuid1|uuid4|token_bytes|token_hex|randbits|now"
    r")$"
)
_ENTROPY_MODULES = ("time.", "os.", "uuid.", "secrets.", "datetime.")

#: parameter-name patterns for the four draw-key roles.
_KEY_ROLES: Tuple[Tuple[str, re.Pattern[str]], ...] = (
    ("seed", re.compile(r"seed")),
    ("walk", re.compile(r"walk|lane|^ids?$|_ids?$")),
    ("step", re.compile(r"step")),
    ("draw", re.compile(r"draw|counter|round")),
)


def _is_factory_module(rel: str) -> bool:
    return rel.replace("\\", "/").endswith(FACTORY_MODULE_SUFFIX)


def _canonical_call(call: ast.Call, aliases: Dict[str, str]) -> str:
    """Canonical dotted name of a call's callee ('' if not a name)."""
    name = dotted(call.func)
    if not name:
        return ""
    return canonical_name(name, aliases)


def _is_raw_rng_call(canonical: str) -> bool:
    if canonical.rsplit(".", 1)[-1] in FACTORY_NAMES:
        return False
    for prefix in _RAW_PREFIXES:
        if canonical.startswith(prefix):
            return True
    return False


def _is_rng_construction(canonical: str) -> bool:
    """Raw or blessed: any call that mints an RNG or derives a seed."""
    return (
        _is_raw_rng_call(canonical)
        or canonical.rsplit(".", 1)[-1] in FACTORY_NAMES
    )


def _entropy_source(
    node: ast.AST, aliases: Dict[str, str]
) -> Optional[str]:
    """Canonical name of a nondeterministic call in ``node``, if any."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        name = dotted(sub.func)
        if name == "id":
            return "id"
        canonical = canonical_name(name, aliases) if name else ""
        if not canonical:
            continue
        if canonical.startswith(_ENTROPY_MODULES) and _ENTROPY_CALL_RE.search(
            canonical
        ):
            return canonical
        # bare ``from time import time``-style aliases resolve fully.
        if canonical in ("time.time", "os.urandom", "uuid.uuid4"):
            return canonical
    return None


def _collect_roots(graph: CallGraph, table: SymbolTable) -> List[str]:
    roots: List[str] = []
    for uid, node in graph.nodes.items():
        rel = node.module.rel.replace("\\", "/")
        if ROOT_MODULE_RE.search(f"/{rel}"):
            roots.append(uid)
            continue
        owner = node.scope.owner
        if owner is not None and (
            ROOT_CLASS_RE.search(owner)
            or table.inherits_from(owner, "ExecutionBackend")
        ):
            roots.append(uid)
    return roots


def _module_is_backend(module: ModuleInfo, table: SymbolTable) -> bool:
    rel = module.rel.replace("\\", "/")
    if re.search(r"(^|/)backends/", rel):
        return True
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef) and (
            node.name.endswith("Backend")
            or table.inherits_from(node.name, "ExecutionBackend")
        ):
            return True
    return False


def _check_draw_signature(
    module: ModuleInfo, findings: List[Finding]
) -> None:
    """``unkeyed-draw``: draw routines must carry all four key roles."""
    for scope in module.functions():
        fn = scope.node
        if "draw" not in fn.name.lower():
            continue
        params = [
            a.arg
            for a in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
            if a.arg not in ("self", "cls")
        ]
        roles_hit: Set[str] = set()
        for param in params:
            for role, pattern in _KEY_ROLES:
                if pattern.search(param):
                    roles_hit.add(role)
        # Only judge functions that look like per-lane draw kernels:
        # at least two key roles present means the author intended a
        # keyed draw; fewer means it's some unrelated 'draw' helper.
        if len(roles_hit) < 2 or len(roles_hit) == len(_KEY_ROLES):
            continue
        missing = [
            role for role, _ in _KEY_ROLES if role not in roles_hit
        ]
        findings.append(
            Finding(
                module.rel,
                fn.lineno,
                RULE_UNKEYED_DRAW,
                f"draw routine '{scope.qualname}' keys on "
                f"{sorted(roles_hit)} but not {missing}: counter draws "
                "must mix all four (seed, walk, step, draw) components "
                "or replay becomes schedule-dependent",
                PASS_NAME,
            )
        )


def run_pass(
    modules: Sequence[ModuleInfo], table: SymbolTable, graph: CallGraph
) -> List[Finding]:
    findings: List[Finding] = []
    roots = _collect_roots(graph, table)
    reachable = graph.reachable(roots)
    aliases_of: Dict[str, Dict[str, str]] = {}

    def aliases_for(module: ModuleInfo) -> Dict[str, str]:
        cached = aliases_of.get(module.rel)
        if cached is None:
            cached = import_aliases(module)
            aliases_of[module.rel] = cached
        return cached

    for uid in sorted(reachable):
        node = graph.nodes[uid]
        if _is_factory_module(node.module.rel):
            continue
        aliases = aliases_for(node.module)
        for sub in iter_own_nodes(node.scope.node):
            if not isinstance(sub, ast.Call):
                continue
            canonical = _canonical_call(sub, aliases)
            if not canonical:
                continue
            if _is_raw_rng_call(canonical):
                findings.append(
                    Finding(
                        node.module.rel,
                        sub.lineno,
                        RULE_RAW_RNG,
                        f"'{canonical}' in '{node.scope.qualname}' is "
                        "reachable from engine/backend code but bypasses "
                        "the core/prng.py factories "
                        f"({', '.join(FACTORY_NAMES)}); raw generators "
                        "fork untracked streams and break counter-RNG "
                        "replay",
                        PASS_NAME,
                    )
                )
            if _is_rng_construction(canonical):
                source = None
                for arg in [*sub.args, *[kw.value for kw in sub.keywords]]:
                    source = _entropy_source(arg, aliases)
                    if source is not None:
                        break
                if source is not None:
                    findings.append(
                        Finding(
                            node.module.rel,
                            sub.lineno,
                            RULE_NONDET_SEED,
                            f"'{canonical}' in '{node.scope.qualname}' "
                            f"seeds from '{source}': time/entropy-derived "
                            "seeds make runs unreproducible; derive seeds "
                            "via repro.core.prng.derive_seed",
                            PASS_NAME,
                        )
                    )

    for module in modules:
        if _is_factory_module(module.rel):
            continue
        if _module_is_backend(module, table):
            _check_draw_signature(module, findings)
    return findings
