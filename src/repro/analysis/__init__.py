"""``repro.analysis`` — the AST-based invariant linter.

Mechanizes the repo's standing invariants (see ROADMAP) as static-
analysis rules over stdlib ``ast``: ONE-KERNEL, MASK-PATH, DET-RNG,
FORK-SAFETY, FACTS-SAFE and ORACLE-FREEZE, with an explicit suppression
pragma (``# repro: allow[RULE-ID] <justification>``).  Run it as
``python -m repro.analysis`` or ``make lint``; it needs nothing beyond
the standard library and scans the whole repo in seconds.
"""

from .config import (
    DEFAULT_TARGETS,
    FINGERPRINTS_PATH,
    ORACLE_DIR,
    AnalysisConfig,
)
from .findings import (
    REPORT_SCHEMA,
    REPORT_VERSION,
    Finding,
    Report,
    validate_report_dict,
)
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
    "REPORT_SCHEMA",
    "REPORT_VERSION",
    "Report",
    "Rule",
    "RULES_BY_ID",
    "analyze_paths",
    "analyze_source",
    "build_rules",
    "known_rule_ids",
    "validate_report_dict",
]
