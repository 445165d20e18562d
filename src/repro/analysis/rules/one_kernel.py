"""ONE-KERNEL: every GF(2) elimination rides the one M4RI kernel.

The standing invariant (ROADMAP, PR 6): all elimination call sites go
through :func:`repro.gf2.elimination.eliminate` (or the
``rref``/``rank``/``solve_affine``/``kernel_basis``/``rref_rows``
wrappers riding it).  The seed column-at-a-time Gauss–Jordan lives with
the tests as a differential oracle, outside the scanned tree.  This
rule flags:

* per-row elimination primitives (``xor_row_into`` / ``swap_rows``)
  driven from a loop — the signature of a hand-rolled sweep;
* the hand-rolled column-loop shape itself: a ``for ... in range(...)``
  whose body XORs rows of a matrix into each other (subscripted
  ``^=`` with a shared base) next to pivot-hunt hallmarks (``.get``
  probes, ``nonzero`` scans or row swaps).
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from ..rules_base import (
    ModuleContext,
    Rule,
    call_name,
    file_is,
)


def _base_name(node: ast.AST) -> str:
    """The root name of a subscripted value (``data`` in ``data[i]``,
    ``self._data`` -> ``_data``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_range_for(node: ast.For) -> bool:
    return (
        isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Name)
        and node.iter.func.id == "range"
    )


def _row_xor_hits(node: ast.For) -> List[ast.AugAssign]:
    """Subscripted ``X[i] ^= ...X[j]...`` statements with a shared base
    — a row being cleared by another row of the same matrix."""
    hits = []
    for sub in ast.walk(node):
        if not (
            isinstance(sub, ast.AugAssign)
            and isinstance(sub.op, ast.BitXor)
            and isinstance(sub.target, ast.Subscript)
        ):
            continue
        target_base = _base_name(sub.target.value)
        if not target_base:
            continue
        for val in ast.walk(sub.value):
            if (
                isinstance(val, ast.Subscript)
                and _base_name(val.value) == target_base
            ):
                hits.append(sub)
                break
    return hits


def _pivot_hallmarks(node: ast.For) -> bool:
    """Pivot-hunt machinery near the row XORs: element probes
    (``.get(r, c)``), ``nonzero`` column scans, or row swaps."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name = call_name(sub)
            if name == "get" and len(sub.args) == 2:
                return True
            if name in ("nonzero", "swap_rows", "argmax", "argmin"):
                return True
        # data[[a, b]] = data[[b, a]] — the vectorised swap idiom.
        if isinstance(sub, ast.Assign):
            for tgt in sub.targets:
                if (
                    isinstance(tgt, ast.Subscript)
                    and isinstance(tgt.slice, ast.List)
                    and isinstance(sub.value, ast.Subscript)
                    and isinstance(sub.value.slice, ast.List)
                ):
                    return True
    return False


class OneKernelRule(Rule):
    id = "ONE-KERNEL"
    description = (
        "GF(2) elimination must go through repro.gf2.elimination."
        "eliminate() (or its rank/solve_affine/kernel_basis/rref_rows "
        "wrappers); no hand-rolled column loops"
    )
    fix_hint = (
        "route the elimination through repro.gf2.elimination.eliminate()"
    )
    default_settings = {
        #: The kernel module itself (defines eliminate()).
        "exempt_files": ["repro/gf2/elimination.py"],
    }

    def _exempt(self, ctx: ModuleContext) -> bool:
        return file_is(ctx.modpath, self.settings["exempt_files"])

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if self._exempt(ctx):
            return
        name = call_name(node)
        if name in ("xor_row_into", "swap_rows") and ctx.loop_depth > 0:
            ctx.report(
                self,
                node,
                "per-row elimination primitive {}() driven from a loop "
                "(hand-rolled sweep)".format(name),
            )

    def visit_For(self, node: ast.For, ctx: ModuleContext) -> None:
        if self._exempt(ctx) or not _is_range_for(node):
            return
        hits = _row_xor_hits(node)
        if hits and _pivot_hallmarks(node):
            ctx.report(
                self,
                hits[0],
                "hand-rolled column-at-a-time GF(2) elimination loop",
            )
