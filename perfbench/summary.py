"""Trace summariser: per span name, count, total time and self time.

Input is a list of span dicts as returned by ``repro.obs.Tracer.spans()``
(``id``, ``parent``, ``name``, ``t0``, ``dur``, ``attrs``).  A span's
self time is its duration minus the part of its interval that its child
spans cover.  Children adopted from worker processes can run in parallel
and overlap each other, so the covered part is the length of the *union*
of the child intervals, clipped to the parent, never their plain sum.

Numeric span attributes (``conflicts``, ``facts``, ``clauses``, ...) are
summed per name as well, so a layer's counts and its times come from the
same place.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def summarize(spans: Iterable[dict]) -> Dict[str, dict]:
    """``{name: {"count", "total_s", "self_s", "attrs"}}`` over ``spans``."""
    spans = list(spans)
    ids = {s["id"] for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.get("parent") in ids:
            children[s["parent"]].append(s)
    rows: Dict[str, dict] = {}
    for s in spans:
        t0 = s["t0"]
        t1 = t0 + s["dur"]
        covered = _union_length(
            [(max(t0, c["t0"]), min(t1, c["t0"] + c["dur"]))
             for c in children[s["id"]]]
        )
        row = rows.setdefault(
            s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}}
        )
        row["count"] += 1
        row["total_s"] += s["dur"]
        row["self_s"] += max(0.0, s["dur"] - covered)
        for key, value in (s.get("attrs") or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row["attrs"][key] = row["attrs"].get(key, 0) + value
    return rows


def self_s(rows: Dict[str, dict], *names: str) -> float:
    """Summed self time of the named spans (0 for names never seen)."""
    return sum(rows[n]["self_s"] for n in names if n in rows)


def total_s(rows: Dict[str, dict], *names: str) -> float:
    return sum(rows[n]["total_s"] for n in names if n in rows)


def count(rows: Dict[str, dict], *names: str) -> int:
    return sum(rows[n]["count"] for n in names if n in rows)


def attr(rows: Dict[str, dict], name: str, key: str) -> float:
    """Summed numeric attribute ``key`` of the spans called ``name``."""
    return rows[name]["attrs"].get(key, 0) if name in rows else 0


def format_table(rows: Dict[str, dict]) -> str:
    """A plain-text table, largest self time first."""
    lines = ["{:<28} {:>7} {:>10} {:>10}".format("span", "count", "total_s", "self_s")]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append("{:<28} {:>7} {:>10.4f} {:>10.4f}".format(
            name, row["count"], row["total_s"], row["self_s"]))
    return "\n".join(lines)
