"""DEAD-API: every public definition in ``repro`` is named by production code.

The standing invariant (ROADMAP aim 2): code nothing calls is wired up
or deleted.  A public function, class or method that only ``tests/``
names is test-only API — it ships, is maintained and is documented, but
serves no part of the pipeline.  This rule flags the ``def``/``class``
line of every such definition under ``repro/``.

Uses are collected once per run, by name, from the production trees the
rule reads itself (``src``, ``benchmarks``, ``perfbench``,
``examples`` — never ``tests/``).  A use is a ``Name``, an
``Attribute``, an imported alias or an identifier string constant (a
``getattr`` table).  A package ``__init__``'s re-exports and every
``__all__`` entry are not uses: exporting a name does not call it.
Names starting with ``_`` and ``visit_*`` dispatch methods are skipped.

Matching is by name in one pass, so a definition that only another dead
definition names shows up on the next run, once that one is gone.

The same rule flags dead imports: a module-level import in a
non-``__init__`` module under ``repro/`` whose bound name the module
never reads (``from __future__`` imports are exempt; an ``__all__``
entry counts as a read).  It is reported at the import line.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional, Set

from ..config import SKIP_DIRS
from ..rules_base import ModuleContext, Rule, path_in


def _is_all_assign(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _names_used(tree: ast.AST, is_init: bool, out: Set[str]) -> None:
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_all_assign(node):
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not is_init:
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))


def _all_entries(tree: ast.Module) -> Set[str]:
    return {
        node.value
        for stmt in tree.body if _is_all_assign(stmt)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


class DeadApiRule(Rule):
    id = "DEAD-API"
    description = (
        "every public function, class and method in repro/ is named "
        "outside tests/, and every module-level import is read"
    )
    fix_hint = (
        "delete it (with the tests that check only it), or fold it into "
        "the test that uses it"
    )
    default_settings = {
        #: Production trees whose names count as uses, resolved against
        #: the analysis root.
        "use_paths": ["src", "benchmarks", "perfbench", "examples"],
        #: Where definitions are checked.
        "def_paths": ["repro/"],
        #: Analysis root (set by the runner).
        "root": None,
    }

    def __init__(self, settings=None):
        super().__init__(settings)
        self._uses: Optional[Set[str]] = None

    def _collect_uses(self) -> Set[str]:
        root = Path(self.settings["root"] or ".")
        uses: Set[str] = set()
        for rel in self.settings["use_paths"]:
            base = root / rel
            files = [base] if base.is_file() else sorted(base.rglob("*.py"))
            for file in files:
                if any(part in SKIP_DIRS for part in file.parts):
                    continue
                try:
                    tree = ast.parse(file.read_text(encoding="utf-8"))
                except SyntaxError:
                    continue  # reported as PARSE-ERROR when scanned
                _names_used(tree, file.name == "__init__.py", uses)
        return uses

    def _check(self, node: ast.AST, ctx: ModuleContext) -> None:
        name = node.name
        if name.startswith(("_", "visit_")):
            return
        if not path_in(ctx.modpath, self.settings["def_paths"]):
            return
        if self._uses is None:
            self._uses = self._collect_uses()
        if name not in self._uses:
            ctx.report(
                self,
                node,
                "{} is named nowhere outside tests/ (test-only API)".format(
                    name
                ),
            )

    def end_module(self, ctx: ModuleContext) -> None:
        if ctx.modpath.endswith("__init__.py") or not path_in(
            ctx.modpath, self.settings["def_paths"]
        ):
            return
        read = _all_entries(ctx.tree)
        read.update(
            node.id for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        )
        for stmt in ctx.tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or (
                isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__"
            ):
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    ctx.report(
                        self, stmt,
                        "{} is imported but never read".format(name),
                        hint="delete the import",
                    )

    visit_FunctionDef = _check
    visit_AsyncFunctionDef = _check
    visit_ClassDef = _check
