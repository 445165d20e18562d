"""Analysis run configuration: targets, rule selection, overrides.

The defaults encode this repo's layout (scan ``src`` and
``benchmarks``; the frozen oracles live in ``tests/oracles/``, their
fingerprints are pinned in ``tests/oracle_fingerprints.json``)
but everything is overridable — the fixture self-tests re-scope rules to
temp directories through the same knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Directories ``python -m repro.analysis`` scans when none are given.
DEFAULT_TARGETS = ("src", "benchmarks")

#: Directory names never descended into.
SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}

#: Directory of the frozen differential oracles, relative to the
#: analysis root.  Every top-level function and class in its ``*.py``
#: files is pinned; shared by the ORACLE-FREEZE rule, the
#: --update-fingerprints CLI and the tier-1 fingerprint test.
ORACLE_DIR = "tests/oracles"

#: Default location of the pinned oracle fingerprints, relative to the
#: analysis root.
FINGERPRINTS_PATH = "tests/oracle_fingerprints.json"


@dataclass
class AnalysisConfig:
    """One analysis run's configuration."""

    #: Root everything is resolved/displayed relative to.
    root: Path = field(default_factory=Path.cwd)
    #: Only run rules with these ids (None = all registered rules).
    rule_ids: Optional[List[str]] = None
    #: Per-rule settings overrides: ``{"DET-RNG": {"clock_paths": [""]}}``.
    rule_settings: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def settings_for(self, rule_id: str) -> Dict[str, Any]:
        return self.rule_settings.get(rule_id, {})
