"""Parsed modules, import aliases and the def-use dataflow core.

Every rule of ``repro lint`` works from the same parsed picture of the
tree, built once per run:

* :class:`ModuleInfo` — one parsed module: AST, source, waiver comments.
* :func:`import_aliases` / :func:`canonical_name` — resolve a local name
  through the module's imports (``nprng.default_rng`` after ``from
  numpy import random as nprng`` is ``numpy.random.default_rng``).
* :class:`AbstractInterpreter` — a flow-sensitive walker over one
  function body maintaining an environment of abstract values.  A rule
  subclasses it and supplies the domain (:meth:`eval_expr`,
  :meth:`merge`); the walker handles assignment, branching (both arms
  evaluated on copies of the environment, then merged) and loops (body
  evaluated once, so each defect site is reported exactly once).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    TypeVar,
    Union,
)

from repro.analysis.static.findings import waivers_by_line

#: anything ``Path()`` accepts — callers may pass plain strings.
PathInput = Union[str, Path]

_SNAKE_RE = re.compile(r"(?<!^)(?=[A-Z])")


def snake_case(name: str) -> str:
    """``KernelDispatched`` → ``kernel_dispatched``."""
    return _SNAKE_RE.sub("_", name).lower()


def dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``np.random.default_rng``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def iter_python_files(paths: Sequence[PathInput]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


# ---------------------------------------------------------------------------
# Parsed modules
# ---------------------------------------------------------------------------

@dataclass
class ModuleInfo:
    """One parsed source module plus its waiver comments."""

    path: Path
    rel: str
    source: str
    tree: ast.Module
    waivers: Dict[int, Set[str]]

    @classmethod
    def parse(cls, path: Path) -> "ModuleInfo":
        rel = path.as_posix()
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=rel)
        return cls(path, rel, source, tree, waivers_by_line(source))

    def functions(self) -> Iterator["FunctionScope"]:
        """Every function/method with its enclosing class (if any)."""
        yield from _walk_functions(self.tree, None)


@dataclass
class FunctionScope:
    """One function definition plus its enclosing class name."""

    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    owner: Optional[str]

    @property
    def qualname(self) -> str:
        if self.owner:
            return f"{self.owner}.{self.node.name}"
        return self.node.name


def _walk_functions(
    node: ast.AST, owner: Optional[str]
) -> Iterator[FunctionScope]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield FunctionScope(child, owner)
            yield from _walk_functions(child, owner)
        elif isinstance(child, ast.ClassDef):
            yield from _walk_functions(child, child.name)
        else:
            yield from _walk_functions(child, owner)


# ---------------------------------------------------------------------------
# Flow-sensitive abstract interpretation
# ---------------------------------------------------------------------------

V = TypeVar("V")


class AbstractInterpreter(Generic[V]):
    """Walks one function body, maintaining ``name -> abstract value``.

    Subclasses provide the domain: :meth:`eval_expr` (which must also
    recurse into sub-expressions so every expression is visited exactly
    once) and :meth:`merge` for joining branch environments.  Statement
    structure — assignment targets, branch copies, single-pass loop
    bodies — is handled here so every pass agrees on the same def-use
    semantics.
    """

    def __init__(self) -> None:
        self.env: Dict[str, V] = {}

    # -- domain hooks ---------------------------------------------------
    def top(self) -> V:
        """The 'unknown' element of the domain."""
        raise NotImplementedError

    def eval_expr(self, node: ast.expr) -> V:
        raise NotImplementedError

    def merge(self, a: V, b: V) -> V:
        raise NotImplementedError

    def on_assign(self, target: ast.expr, value: V, node: ast.stmt) -> None:
        """Called for attribute/subscript stores (env handles plain names)."""

    # -- walker ---------------------------------------------------------
    def run(self, body: Sequence[ast.stmt]) -> None:
        self.exec_block(body)

    def exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def _merge_envs(self, envs: List[Dict[str, V]]) -> Dict[str, V]:
        merged: Dict[str, V] = {}
        keys = set().union(*(env.keys() for env in envs)) if envs else set()
        for key in keys:
            value: Optional[V] = None
            missing = False
            for env in envs:
                if key not in env:
                    missing = True
                    continue
                value = (
                    env[key]
                    if value is None
                    else self.merge(value, env[key])
                )
            if value is None:
                continue
            merged[key] = self.merge(value, self.top()) if missing else value
        return merged

    def _bind_target(self, target: ast.expr, value: V, stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, self.top(), stmt)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, self.top(), stmt)
        else:
            # attribute / subscript stores: evaluate the container
            # expression (so reads inside it are visited) and notify.
            if isinstance(target, ast.Attribute):
                self.eval_expr(target.value)
            elif isinstance(target, ast.Subscript):
                self.eval_expr(target.value)
                self.eval_expr(target.slice)
            self.on_assign(target, value, stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval_expr(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, value, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            value = (
                self.eval_expr(stmt.value)
                if stmt.value is not None
                else self.top()
            )
            self._bind_target(stmt.target, value, stmt)
        elif isinstance(stmt, ast.AugAssign):
            combined = self.eval_expr(
                ast.copy_location(
                    ast.BinOp(stmt.target, stmt.op, stmt.value), stmt
                )
            )
            self._bind_target(stmt.target, combined, stmt)
        elif isinstance(stmt, ast.If):
            self.eval_expr(stmt.test)
            before = dict(self.env)
            self.exec_block(stmt.body)
            then_env = self.env
            self.env = dict(before)
            self.exec_block(stmt.orelse)
            self.env = self._merge_envs([then_env, self.env])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval_expr(stmt.iter)
            before = dict(self.env)
            self._bind_target(stmt.target, self.top(), stmt)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
            self.env = self._merge_envs([before, self.env])
        elif isinstance(stmt, ast.While):
            self.eval_expr(stmt.test)
            before = dict(self.env)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
            self.env = self._merge_envs([before, self.env])
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, self.top(), stmt)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            before = dict(self.env)
            self.exec_block(stmt.body)
            arms = [self.env]
            for handler in stmt.handlers:
                self.env = dict(before)
                if handler.name:
                    self.env[handler.name] = self.top()
                self.exec_block(handler.body)
                arms.append(self.env)
            self.env = self._merge_envs(arms)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Return, ast.Expr)):
            if stmt.value is not None:
                self.eval_expr(stmt.value)
        elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval_expr(child)
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            pass  # nested scopes are analyzed as their own functions
        # pass/break/continue/global/import: nothing to evaluate


# ---------------------------------------------------------------------------
# Import canonicalization
# ---------------------------------------------------------------------------

def import_aliases(module: ModuleInfo) -> Dict[str, str]:
    """Map every imported local name to its canonical dotted path.

    ``import numpy as np`` → ``np: numpy``; ``from numpy import random
    as nprng`` → ``nprng: numpy.random``; ``from repro.core.prng import
    seeded_rng`` → ``seeded_rng: repro.core.prng.seeded_rng``.  Lets
    passes recognize aliased uses of a banned (or blessed) module that
    plain dotted-name matching misses.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else local
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                target = f"{base}.{alias.name}" if base else alias.name
                aliases[local] = target
    return aliases


def canonical_name(dotted_name: str, aliases: Dict[str, str]) -> str:
    """Resolve the first segment of a dotted name through import aliases."""
    if not dotted_name:
        return dotted_name
    head, _, rest = dotted_name.partition(".")
    resolved = aliases.get(head)
    if resolved is None:
        return dotted_name
    return f"{resolved}.{rest}" if rest else resolved
