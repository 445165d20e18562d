"""MASK-PATH: matrices are built with the bulk constructors.

The standing invariant (ROADMAP, PRs 3–4): matrix producers use the
bulk constructors (``from_cells`` / ``from_masks`` / ``from_rows``)
instead of per-cell ``set`` loops.  This rule flags a
``.set(i, j, value)`` matrix cell write driven from a loop — the
per-cell producer shape the bulk constructors replaced.  The check keys
on the cell write's three-argument arity, which keeps it off the
two-argument ``span.set(key, value)`` attribute shape the observability
layer stamps inside loops.  (The seed per-cell codec lives with the
tests as a differential oracle, outside the scanned tree.)
"""

from __future__ import annotations

import ast

from ..rules_base import ModuleContext, Rule, call_name, file_is


class MaskPathRule(Rule):
    id = "MASK-PATH"
    description = (
        "matrix producers use from_cells/from_masks/from_rows, not "
        "per-cell set loops"
    )
    fix_hint = (
        "stay on the mask path: build matrices with "
        "GF2Matrix.from_cells/from_masks/from_rows"
    )
    default_settings = {
        #: The matrix layer itself: its primitives legitimately touch
        #: cells one at a time (the bulk constructors are built on them).
        "cell_exempt_files": ["repro/gf2/matrix.py"],
    }

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if (
            call_name(node) == "set"
            and isinstance(node.func, ast.Attribute)
            and len(node.args) >= 3
            and ctx.loop_depth > 0
            and not file_is(ctx.modpath, self.settings["cell_exempt_files"])
        ):
            ctx.report(
                self,
                node,
                "per-cell matrix set() inside a loop (scalar producer "
                "path)",
            )
