"""The rule framework: visitor dispatch, per-rule config, reporting.

A rule is a class with an ``id``, a ``description``, ``default_settings``
and any number of ``visit_<NodeType>`` methods.  One
:class:`ModuleWalker` pass per file dispatches every AST node to every
interested rule (no per-rule re-walk), maintaining the shared lexical
context rules need — enclosing class/function names and loop depth —
plus ``begin_module``/``end_module`` hooks for whole-file checks.  A
rule whose subject lies outside the scanned files (the frozen oracles
under ``tests/``) reads them itself in :meth:`Rule.check_repo`, which
the runner calls once per run.

Settings are plain dicts: a rule's ``default_settings`` are merged with
the per-run overrides from :class:`repro.analysis.config.AnalysisConfig`,
so tests (and future repo layouts) can re-scope a rule without touching
its code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .findings import Finding


@dataclass
class ModuleContext:
    """Per-file state shared by every rule during one walk."""

    #: Display path (as given/relative to the analysis root).
    relpath: str
    #: Match path: ``relpath`` with a leading ``src/`` stripped, posix
    #: separators — what rule path scoping tests against (e.g.
    #: ``repro/gf2/matrix.py``).
    modpath: str
    tree: ast.AST
    findings: List[Finding] = field(default_factory=list)
    func_stack: List[str] = field(default_factory=list)
    loop_depth: int = 0
    _seen: Set[Tuple[str, int, int, str]] = field(default_factory=set)

    def report(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        key = (rule.id, line, col, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(
                rule=rule.id,
                file=self.relpath,
                line=line,
                col=col,
                message=message,
                hint=rule.fix_hint if hint is None else hint,
            )
        )


class Rule:
    """Base class for analysis rules."""

    id: str = "RULE"
    description: str = ""
    #: Default fix hint attached to findings (overridable per report).
    fix_hint: str = ""
    default_settings: Dict[str, Any] = {}

    def __init__(self, settings: Optional[Dict[str, Any]] = None):
        merged = dict(self.default_settings)
        merged.update(settings or {})
        self.settings = merged

    def begin_module(self, ctx: ModuleContext) -> None:
        pass

    def end_module(self, ctx: ModuleContext) -> None:
        pass

    def check_repo(self) -> List[Finding]:
        """Findings about files the rule reads itself (once per run)."""
        return []


def path_in(modpath: str, prefixes: Sequence[str]) -> bool:
    """True if ``modpath`` falls under any of the path ``prefixes`` (''
    matches everything — the scope-everything override used by tests)."""
    return any(modpath.startswith(p) for p in prefixes)


def file_is(modpath: str, files: Sequence[str]) -> bool:
    return modpath in files


def call_name(node: ast.Call) -> str:
    """The called name: ``foo`` for ``foo(...)`` and attribute ``bar``
    for ``x.y.bar(...)`` — what name-based rules match on."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class ModuleWalker:
    """One AST pass dispatching nodes to every rule's visitors."""

    def __init__(self, rules: Sequence[Rule], ctx: ModuleContext):
        self.ctx = ctx
        self.handlers: Dict[str, List[Callable[[ast.AST, ModuleContext], None]]] = {}
        for rule in rules:
            for attr in dir(rule):
                if attr.startswith("visit_"):
                    self.handlers.setdefault(attr[len("visit_"):], []).append(
                        getattr(rule, attr)
                    )

    def walk(self, node: ast.AST) -> None:
        for handler in self.handlers.get(type(node).__name__, ()):
            handler(node, self.ctx)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.ctx.func_stack.append(node.name)
            self._children(node)
            self.ctx.func_stack.pop()
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            self.ctx.loop_depth += 1
            self._children(node)
            self.ctx.loop_depth -= 1
        else:
            self._children(node)

    def _children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self.walk(child)


def run_rules(rules: Sequence[Rule], ctx: ModuleContext) -> List[Finding]:
    """Run every rule over one parsed module; returns ctx.findings."""
    for rule in rules:
        rule.begin_module(ctx)
    ModuleWalker(rules, ctx).walk(ctx.tree)
    for rule in rules:
        rule.end_module(ctx)
    return ctx.findings
