"""The analysis runner: walk files, run rules, apply suppressions.

One :func:`analyze_paths` call is the whole gate: parse each ``*.py``
once, run every selected rule over the single AST walk, fold in the
pragma meta-findings, and split the result into active findings (fail
the run) and suppressed ones (recorded with their justifications).
``analyze_source`` is the string-level entry the fixture self-tests
drive.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from .config import SKIP_DIRS, AnalysisConfig
from .findings import Finding, Report
from .pragmas import META_RULE_IDS, build_index, pragma_findings
from .rules import ALL_RULES, RULES_BY_ID
from .rules_base import ModuleContext, Rule, run_rules

#: Rule id for files the analyzer cannot parse (unsuppressable).
PARSE_ERROR = "PARSE-ERROR"


def known_rule_ids() -> List[str]:
    """Every id a pragma may name: real rules plus the meta rules."""
    return [rule.id for rule in ALL_RULES] + list(META_RULE_IDS)


def build_rules(config: AnalysisConfig) -> List[Rule]:
    """Instantiate the selected rules with their merged settings."""
    ids = config.rule_ids
    if ids is None:
        classes = list(ALL_RULES)
    else:
        unknown = [i for i in ids if i not in RULES_BY_ID]
        if unknown:
            raise ValueError("unknown rule id(s): " + ", ".join(unknown))
        classes = [RULES_BY_ID[i] for i in ids]
    rules: List[Rule] = []
    for cls in classes:
        settings = dict(config.settings_for(cls.id))
        # The runner owns path resolution: rules that read files (the
        # fingerprint pins) resolve against the analysis root.
        settings.setdefault("root", str(config.root))
        rules.append(cls(settings))
    return rules


def _modpath(relpath: str) -> str:
    posix = relpath.replace("\\", "/")
    if posix.startswith("src/"):
        return posix[len("src/"):]
    return posix


def analyze_source(
    source: str,
    relpath: str,
    rules: Sequence[Rule],
) -> Tuple[List[Finding], List[Finding]]:
    """Analyze one module's text: (active findings, suppressed)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        finding = Finding(
            rule=PARSE_ERROR,
            file=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1 if exc.offset else 1,
            message="file does not parse: {}".format(exc.msg),
            hint="the analyzer (and CPython) must be able to parse it",
        )
        return [finding], []
    ctx = ModuleContext(
        relpath=relpath,
        modpath=_modpath(relpath),
        source=source,
        tree=tree,
    )
    collected = run_rules(rules, ctx)
    index = build_index(source, tree)
    active = list(pragma_findings(index, known_rule_ids(), relpath))
    suppressed: List[Finding] = []
    for finding in collected:
        pragma = index.match(finding.rule, finding.line)
        if pragma is not None:
            finding.suppressed = True
            finding.justification = pragma.justification
            suppressed.append(finding)
        else:
            active.append(finding)
    return active, suppressed


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in SKIP_DIRS for part in sub.parts):
                    yield sub


def analyze_paths(
    paths: Sequence[str],
    config: Optional[AnalysisConfig] = None,
) -> Report:
    """Run the configured rules over every ``*.py`` under ``paths``."""
    config = config or AnalysisConfig()
    rules = build_rules(config)
    report = Report()
    root = config.root.resolve()
    for file in iter_python_files([Path(p) for p in paths]):
        resolved = file.resolve()
        try:
            relpath = resolved.relative_to(root).as_posix()
        except ValueError:
            relpath = file.as_posix()
        source = file.read_text(encoding="utf-8")
        active, suppressed = analyze_source(source, relpath, rules)
        report.findings.extend(active)
        report.suppressed.extend(suppressed)
        report.files_scanned += 1
    for rule in rules:
        report.findings.extend(rule.check_repo())
    report.findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    report.suppressed.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return report
