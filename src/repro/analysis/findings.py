"""Findings: what a rule reports, and how a report renders.

A :class:`Finding` pins one invariant violation to ``file:line:col``
with the rule id, a human message and a fix hint.  The runner collects
them per file, applies the suppression pragmas
(:mod:`repro.analysis.pragmas`) and renders the survivors one
greppable line per finding, then a tally line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    file: str
    line: int
    col: int
    message: str
    hint: str = ""
    #: Set by the runner when a ``# repro: allow[...]`` pragma covers
    #: the finding; suppressed findings do not fail the run.
    suppressed: bool = False
    #: The pragma's justification text (suppressed findings only).
    justification: Optional[str] = None

    def location(self) -> str:
        return "{}:{}:{}".format(self.file, self.line, self.col)


@dataclass
class Report:
    """The result of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def render_human(self) -> str:
        lines = []
        for f in sorted(self.findings, key=lambda f: (f.file, f.line, f.col)):
            line = "{}: {} {}".format(f.location(), f.rule, f.message)
            if f.hint:
                line += "  [hint: {}]".format(f.hint)
            lines.append(line)
        lines.append(
            "{} finding{} ({} suppressed) across {} file{}".format(
                len(self.findings),
                "" if len(self.findings) == 1 else "s",
                len(self.suppressed),
                self.files_scanned,
                "" if self.files_scanned == 1 else "s",
            )
        )
        return "\n".join(lines)

