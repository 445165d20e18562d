"""CLI: ``python -m repro.analysis [paths...]`` — the lint gate.

Exit status: 0 clean, 1 findings, 2 usage error.  Findings print one
line each, then a tally; ``--update-fingerprints`` regenerates the
pinned oracle hashes after a deliberate, reviewed oracle change.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import fingerprint as fp
from .config import (
    DEFAULT_TARGETS,
    FINGERPRINTS_PATH,
    ORACLE_DIR,
    AnalysisConfig,
)
from .rules import ALL_RULES
from .runner import analyze_paths


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST-based invariant linter: mechanizes the repo's standing "
            "invariants (one GF(2) kernel, mask path, threaded RNG, "
            "fork safety, frozen oracles)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to scan (default: {})".format(
            " ".join(DEFAULT_TARGETS)
        ),
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="analysis root (fingerprint pins resolve against it)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rule ids and exit",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print pragma-suppressed findings",
    )
    parser.add_argument(
        "--update-fingerprints",
        action="store_true",
        help=(
            "recompute and pin the oracle fingerprints ({}) — only for "
            "a deliberate, reviewed oracle change".format(FINGERPRINTS_PATH)
        ),
    )
    return parser


def _update_fingerprints(root: Path) -> int:
    pins = fp.compute_fingerprints(root, ORACLE_DIR)
    if not pins:
        print("no oracle definitions under {}".format(root / ORACLE_DIR),
              file=sys.stderr)
        return 2
    path = root / FINGERPRINTS_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    fp.write_fingerprints(path, pins)
    print("pinned {} oracle fingerprints to {}".format(len(pins), path))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print("{:14s} {}".format(rule.id, rule.description))
        return 0
    root = Path(args.root)
    if args.update_fingerprints:
        return _update_fingerprints(root)
    paths = args.paths or [
        target for target in DEFAULT_TARGETS if (root / target).exists()
    ]
    if not paths:
        print("nothing to scan", file=sys.stderr)
        return 2
    rule_ids = args.rules.split(",") if args.rules else None
    try:
        report = analyze_paths(
            paths, AnalysisConfig(root=root, rule_ids=rule_ids)
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report.render_human())
    if args.show_suppressed and report.suppressed:
        print("\nsuppressed:")
        for f in report.suppressed:
            print(
                "{}: {} {}  [allowed: {}]".format(
                    f.location(), f.rule, f.message, f.justification
                )
            )
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
