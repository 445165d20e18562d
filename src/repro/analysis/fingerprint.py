"""Normalized-AST fingerprints for the frozen differential oracles.

The repo's correctness story leans on the *oracle* functions and
classes in ``tests/oracles/``, kept verbatim at seed semantics (the
seed Gauss–Jordan, the scalar converter, the tuple monomial merges).
Their value is being unchanged; "improving" one silently invalidates
every differential test that pins a fast path to it.  This module
hashes every top-level definition in the oracle directory by its
**normalized AST** — docstrings stripped, formatting and comments
invisible by construction — so lint (and the tier-1 fingerprint test)
can detect any semantic edit while staying robust to whitespace/comment
churn around it.  A definition is pinned under the key
``<file relative to the root>::<name>``.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
from pathlib import Path
from typing import Dict, List

#: Prefix recorded in the fingerprint file, so the hash scheme is
#: self-describing and can be evolved.
HASH_PREFIX = "sha256:"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _strip_docstrings(node: ast.AST) -> ast.AST:
    """Drop the leading docstring Expr of ``node`` and of every def or
    class nested in it (normalization: docstring edits do not change
    oracle semantics)."""
    for sub in ast.walk(node):
        if not isinstance(sub, _DEFS):
            continue
        body = sub.body
        if (
            isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
            and len(body) > 1
        ):
            sub.body = body[1:]
    return node


def normalized_dump(node: ast.AST) -> str:
    """The canonical text hashed for a definition: ``ast.dump`` without
    source locations, after docstring stripping.  Comments and
    formatting never reach the AST, so only semantic edits change it."""
    clean = _strip_docstrings(copy.deepcopy(node))
    return ast.dump(clean, annotate_fields=True, include_attributes=False)


def fingerprint_node(node: ast.AST) -> str:
    digest = hashlib.sha256(normalized_dump(node).encode("utf-8")).hexdigest()
    return HASH_PREFIX + digest


def oracle_definitions(root: Path, oracle_dir: str) -> Dict[str, ast.AST]:
    """Pin key -> node for every top-level function and class in the
    ``*.py`` files of ``oracle_dir`` (relative to ``root``)."""
    out: Dict[str, ast.AST] = {}
    for path in sorted((root / oracle_dir).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, _DEFS):
                out["{}/{}::{}".format(oracle_dir, path.name, node.name)] = node
    return out


def compute_fingerprints(root: Path, oracle_dir: str) -> Dict[str, str]:
    """Pin key -> fingerprint for every oracle definition."""
    return {
        key: fingerprint_node(node)
        for key, node in oracle_definitions(root, oracle_dir).items()
    }


def load_fingerprints(path: Path) -> Dict[str, str]:
    """The pinned ``key -> hash`` map from a fingerprint JSON file."""
    data = json.loads(path.read_text(encoding="utf-8"))
    pins = data.get("fingerprints", {})
    if not isinstance(pins, dict):
        raise ValueError("malformed fingerprint file: " + str(path))
    return dict(pins)


def write_fingerprints(path: Path, pins: Dict[str, str]) -> None:
    """Write the pinned map (sorted keys, stable diffs)."""
    payload = {
        "_comment": (
            "Normalized-AST fingerprints of the frozen differential "
            "oracles.  Regenerate ONLY for a deliberate, reviewed oracle "
            "change: PYTHONPATH=src python -m repro.analysis "
            "--update-fingerprints"
        ),
        "fingerprints": {k: pins[k] for k in sorted(pins)},
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )


def diff_fingerprints(
    expected: Dict[str, str], actual: Dict[str, str]
) -> List[str]:
    """Human lines describing drift between pinned and recomputed."""
    problems = []
    for key in sorted(set(expected) | set(actual)):
        exp, act = expected.get(key), actual.get(key)
        if act is None:
            problems.append("{}: oracle definition missing".format(key))
        elif exp is None:
            problems.append("{}: no pinned fingerprint".format(key))
        elif exp != act:
            problems.append(
                "{}: fingerprint drifted (pinned {}, recomputed {})".format(
                    key, exp[:18] + "...", act[:18] + "..."
                )
            )
    return problems
