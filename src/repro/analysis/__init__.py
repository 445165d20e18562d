"""``repro.analysis`` — the AST-based invariant linter.

Mechanizes the repo's standing invariants (see ROADMAP) as static-
analysis rules over stdlib ``ast``: ONE-KERNEL, MASK-PATH, DET-RNG,
FORK-SAFETY, ORACLE-FREEZE and DEAD-API, with an explicit suppression
pragma (``# repro: allow[RULE-ID] <justification>``).  Run it as
``python -m repro.analysis`` or ``make lint``: it prints one line per
finding and a tally, needs nothing beyond the standard library and
scans the whole repo in seconds.
"""

from .config import (
    DEFAULT_TARGETS,
    FINGERPRINTS_PATH,
    ORACLE_DIR,
    AnalysisConfig,
)
from .findings import Finding, Report
from .pragmas import META_RULE_IDS, PRAGMA_BARE, PRAGMA_UNKNOWN
from .rules import ALL_RULES, RULES_BY_ID
from .rules_base import ModuleContext, Rule
from .runner import (
    PARSE_ERROR,
    analyze_paths,
    analyze_source,
    build_rules,
    known_rule_ids,
)

__all__ = [
    "ALL_RULES",
    "AnalysisConfig",
    "DEFAULT_TARGETS",
    "FINGERPRINTS_PATH",
    "Finding",
    "META_RULE_IDS",
    "ModuleContext",
    "ORACLE_DIR",
    "PARSE_ERROR",
    "PRAGMA_BARE",
    "PRAGMA_UNKNOWN",
    "Report",
    "Rule",
    "RULES_BY_ID",
    "analyze_paths",
    "analyze_source",
    "build_rules",
    "known_rule_ids",
]
