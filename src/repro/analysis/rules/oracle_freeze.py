"""ORACLE-FREEZE: the differential oracles stay verbatim.

Every hot path in this repo is pinned bit-for-bit to a seed-semantics
twin in ``tests/oracles/``: the column-at-a-time Gauss–Jordan for the
M4RI kernel, the scalar converter for the mask-native ANF→CNF bridge,
the scalar matrix codecs for the linearisation layer, the sorted-tuple
merges and loops for the bitmask monomial layer.  Their entire value is
being *unchanged*: an "improvement" to an oracle re-anchors every
differential test to the new behaviour and the equivalence guarantee
silently evaporates.

This rule reads the oracle files itself — lint scans only ``src`` and
``benchmarks``, and the oracles live with the tests — recomputes each
pinned definition's normalized-AST fingerprint
(:mod:`repro.analysis.fingerprint` — comments/formatting/docstrings do
not affect it) and compares against the pinned hashes in
``tests/oracle_fingerprints.json``.  Any drift fails lint with an
explanation; a deliberate, reviewed oracle change regenerates the pins
via ``python -m repro.analysis --update-fingerprints``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional

from .. import fingerprint as fp
from ..config import FINGERPRINTS_PATH, ORACLE_DIR
from ..findings import Finding
from ..rules_base import Rule

_FREEZE_EXPLANATION = (
    "oracles keep verbatim seed semantics: every differential test pins "
    "a fast path bit-for-bit to this definition, so edits invalidate the "
    "equivalence guarantee; if the change is deliberate and reviewed, "
    "regenerate the pins with 'python -m repro.analysis "
    "--update-fingerprints'"
)


class OracleFreezeRule(Rule):
    id = "ORACLE-FREEZE"
    description = (
        "every definition in tests/oracles/ (the frozen differential "
        "oracles) matches its pinned normalized-AST fingerprint"
    )
    fix_hint = _FREEZE_EXPLANATION
    default_settings = {
        #: Oracle directory, resolved against the analysis root.
        "oracle_dir": ORACLE_DIR,
        #: Pinned-hash file, resolved against the analysis root.
        "fingerprints_path": FINGERPRINTS_PATH,
        #: Analysis root (set by the runner).
        "root": None,
    }

    def _finding(
        self, file: str, node: Optional[ast.AST], message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            file=file,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.fix_hint,
        )

    def check_repo(self) -> List[Finding]:
        root = Path(self.settings["root"] or ".")
        pins_file = self.settings["fingerprints_path"]
        try:
            pins = fp.load_fingerprints(root / pins_file)
        except FileNotFoundError:
            return [self._finding(
                pins_file,
                None,
                "fingerprint file missing: {} (generate it with "
                "'python -m repro.analysis --update-fingerprints')".format(
                    root / pins_file
                ),
            )]
        except ValueError as exc:
            return [self._finding(pins_file, None, str(exc))]
        nodes = fp.oracle_definitions(root, self.settings["oracle_dir"])
        findings: List[Finding] = []
        for key in sorted(set(pins) | set(nodes)):
            file, _, name = key.partition("::")
            node = nodes.get(key)
            pinned = pins.get(key)
            if node is None:
                message = "frozen oracle {} removed or renamed".format(name)
            elif pinned is None:
                message = "frozen oracle {} has no pinned fingerprint".format(
                    name
                )
            elif pinned != fp.fingerprint_node(node):
                message = (
                    "frozen oracle {} was edited (normalized-AST "
                    "fingerprint drifted from its pin)".format(name)
                )
            else:
                continue
            findings.append(self._finding(file, node, message))
        return findings
