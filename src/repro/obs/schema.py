"""The frozen ``result.stats`` key schema (and the span schema).

Every key :class:`~repro.core.bosphorus.Bosphorus` may emit in
``result.stats`` — including the per-iteration entries under
``techniques`` — is declared here, in one place, with its meaning.
``test_bosphorus.py`` asserts every emitted key is declared, so a new
stat cannot drift in silently: add it here (with documentation) or the
tier-1 suite fails.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

__all__ = [
    "STATS_SCHEMA",
    "STATS_KEYS",
    "TECHNIQUE_SCHEMA",
    "TECHNIQUE_KEYS",
    "SPAN_KEYS",
    "undeclared_stats_keys",
    "validate_span",
    "validate_spans",
]

#: Top-level ``result.stats`` keys.
STATS_SCHEMA: Dict[str, str] = {
    "techniques": "per-iteration technique records (see TECHNIQUE_SCHEMA)",
    "fact_summary": "FactStore.summary(): learnt-fact counts by source",
    "karnaugh_cache_hits": (
        "run-wide in-memory Karnaugh-cache hits, summed over every "
        "conversion of the run (inner-SAT iterations, final CNF, "
        "CNF augmentation)"
    ),
    "karnaugh_cache_misses": "run-wide in-memory Karnaugh-cache misses",
    "karnaugh_disk_hits": (
        "run-wide persistent Karnaugh-store hits (cache_dir tier)"
    ),
    "conversion_disk_hits": (
        "whole-conversion disk-cache hits keyed by system fingerprint"
    ),
}

STATS_KEYS = frozenset(STATS_SCHEMA)

#: Keys of one per-iteration entry in ``stats["techniques"]``.
TECHNIQUE_SCHEMA: Dict[str, str] = {
    "iteration": "1-based loop iteration number",
    "xl_facts": "facts absorbed from the XL pass",
    "elimlin_facts": "facts absorbed from the ElimLin pass",
    "groebner_facts": "facts absorbed from the Buchberger pass",
    "probing_facts": "facts absorbed from variable probing",
    "sat_status": "inner SAT verdict (SAT/UNSAT/UNKNOWN sentinel)",
    "sat_conflicts": (
        "conflicts this iteration's inner SAT call spent: the warm "
        "solver's running total minus its total before the call"
    ),
    "sat_facts": "facts absorbed from SAT-solver harvesting",
}

TECHNIQUE_KEYS = frozenset(TECHNIQUE_SCHEMA)

#: Required keys of one trace span dict (see :mod:`repro.obs.trace`).
SPAN_KEYS = frozenset(
    {"id", "parent", "name", "t0", "dur", "pid", "tid", "attrs"}
)


def undeclared_stats_keys(stats: Dict[str, Any]) -> List[str]:
    """Keys in ``stats`` (and its technique entries) not in the schema."""
    extra = [k for k in stats if k not in STATS_KEYS]
    for entry in stats.get("techniques") or []:
        if isinstance(entry, dict):
            extra.extend(k for k in entry if k not in TECHNIQUE_KEYS)
    return sorted(set(extra))


def validate_span(span: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``span`` is a well-formed span dict."""
    if not isinstance(span, dict):
        raise ValueError("span is not a dict: {!r}".format(span))
    missing = SPAN_KEYS - set(span)
    if missing:
        raise ValueError(
            "span {!r} missing keys: {}".format(
                span.get("id"), ", ".join(sorted(missing))
            )
        )
    if not isinstance(span["name"], str) or not span["name"]:
        raise ValueError("span name must be a non-empty string")
    for key in ("t0", "dur"):
        if not isinstance(span[key], (int, float)):
            raise ValueError("span {} must be numeric".format(key))
    if span["dur"] < 0:
        raise ValueError("span duration is negative")
    if not isinstance(span["attrs"], dict):
        raise ValueError("span attrs must be a dict")


def validate_spans(spans: Iterable[Dict[str, Any]]) -> None:
    """Validate every span and the uniqueness of their ids."""
    seen = set()
    for span in spans:
        validate_span(span)
        if span["id"] in seen:
            raise ValueError("duplicate span id {!r}".format(span["id"]))
        seen.add(span["id"])
