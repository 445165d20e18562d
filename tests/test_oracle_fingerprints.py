"""Tier-1 pin check: the frozen differential oracles are verbatim.

The repo's differential guarantees anchor on the oracle functions and
classes in ``tests/oracles/``, kept at seed semantics (the seed
Gauss–Jordan, the scalar ANF→CNF converter, the scalar linearization
codecs, the sorted-tuple monomial merges and polynomial loops).
``tests/oracle_fingerprints.json`` pins each top-level definition's
normalized-AST hash; this test recomputes them so any semantic edit
fails tier-1 even when lint is not run, and fails when a definition
there is not pinned at all.  A deliberate, reviewed oracle change
regenerates the pins with
``PYTHONPATH=src python -m repro.analysis --update-fingerprints``.
"""

import ast
from pathlib import Path

from repro.analysis import fingerprint as fp
from repro.analysis.config import FINGERPRINTS_PATH, ORACLE_DIR

ROOT = Path(__file__).resolve().parents[1]


def top_level_definitions():
    """``file::name`` for every top-level def and class in
    ``tests/oracles/``, found independently of the analysis package."""
    found = set()
    for path in sorted((ROOT / ORACLE_DIR).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                found.add("{}/{}::{}".format(ORACLE_DIR, path.name, node.name))
    return found


def test_every_oracle_is_pinned():
    pins = fp.load_fingerprints(ROOT / FINGERPRINTS_PATH)
    definitions = top_level_definitions()
    assert "tests/oracles/gf2.py::rref_gj" in definitions
    assert set(pins) == definitions
    assert all(value.startswith(fp.HASH_PREFIX) for value in pins.values())


def test_oracle_fingerprints_match_pins():
    pins = fp.load_fingerprints(ROOT / FINGERPRINTS_PATH)
    actual = fp.compute_fingerprints(ROOT, ORACLE_DIR)
    assert actual == pins
