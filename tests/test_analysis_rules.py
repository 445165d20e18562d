"""Fixture-driven self-tests for the ``repro.analysis`` rule set.

Every rule is demonstrated three ways against the snippets in
``tests/analysis_fixtures/``: *firing* on a violating fixture, *quiet*
on a conforming one (including the known near-miss shapes a naive
checker would false-positive on), and *suppressed* by a justified
``# repro: allow[...]`` pragma.  The fixtures are analyzed as text —
they are never imported.

Path-scoped checks (DET-RNG clocks, FORK-SAFETY globals, DEAD-API's
definitions and uses) are re-scoped onto the fixture paths through the
same per-rule settings overrides the production config exposes.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import (
    RULES_BY_ID,
    AnalysisConfig,
    analyze_paths,
    analyze_source,
    build_rules,
)
from repro.analysis import fingerprint as fp
from repro.analysis.__main__ import main as lint_main
from repro.analysis.rules.oracle_freeze import OracleFreezeRule

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "analysis_fixtures"

#: Re-scope path-guarded checks onto the (path-less) fixture files.
OVERRIDES = {
    "DET-RNG": {"clock_paths": [""]},
    "FORK-SAFETY": {"worker_paths": [""]},
    "DEAD-API": {
        "def_paths": [""],
        "use_paths": ["tests/analysis_fixtures"],
    },
}

#: (rule id, fixture stem, expected findings on the violating fixture).
CASES = [
    ("ONE-KERNEL", "one_kernel", 3),
    ("MASK-PATH", "mask_path", 2),
    ("DET-RNG", "det_rng", 5),
    ("FORK-SAFETY", "fork_safety", 3),
    ("DEAD-API", "dead_api", 6),
]


def rules_for(rule_id):
    config = AnalysisConfig(
        root=ROOT, rule_ids=[rule_id], rule_settings=OVERRIDES
    )
    return build_rules(config)


def run_fixture(rule_id, name):
    path = FIXTURES / (name + ".py")
    return analyze_source(
        path.read_text(encoding="utf-8"), path.name, rules_for(rule_id)
    )


@pytest.mark.parametrize("rule_id,stem,n", CASES, ids=[c[0] for c in CASES])
def test_rule_fires_on_violations(rule_id, stem, n):
    active, suppressed = run_fixture(rule_id, stem + "_violate")
    assert [f.rule for f in active] == [rule_id] * n
    assert suppressed == []
    for f in active:
        assert f.line > 0 and f.col > 0
        assert f.file.endswith("_violate.py")
        assert f.message


@pytest.mark.parametrize("rule_id,stem,n", CASES, ids=[c[0] for c in CASES])
def test_rule_quiet_on_conforming(rule_id, stem, n):
    active, suppressed = run_fixture(rule_id, stem + "_clean")
    assert active == []
    assert suppressed == []


@pytest.mark.parametrize("rule_id,stem,n", CASES, ids=[c[0] for c in CASES])
def test_rule_suppressed_with_justification(rule_id, stem, n):
    active, suppressed = run_fixture(rule_id, stem + "_suppressed")
    assert active == []
    assert len(suppressed) >= 1
    for f in suppressed:
        assert f.rule == rule_id
        assert f.suppressed
        assert f.justification  # bare pragmas are a separate finding


def test_readme_rule_table_matches_registry():
    # The README's rule table documents exactly the registered rules:
    # a deleted rule leaves no row behind, a new one needs a row.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Rule | Invariant it enforces |", 1)[1]
    rows = []
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        rows.append(re.match(r"\| `([A-Z-]+)` \|", line).group(1))
    assert sorted(rows) == sorted(RULES_BY_ID)


# -- DET-RNG over the observability layer ---------------------------------
#
# repro/obs/ is inside the production clock scope: span timestamps must
# be monotonic.  The fixture pair demonstrates the rule firing on a
# wall-clock span and staying quiet on the conforming monotonic shape.


def test_det_rng_fires_on_wall_clock_span():
    active, suppressed = run_fixture("DET-RNG", "obs_span_violate")
    assert [f.rule for f in active] == ["DET-RNG"] * 3
    assert suppressed == []
    messages = " ".join(f.message for f in active)
    assert "time.time()" in messages
    assert "datetime.now()" in messages


def test_det_rng_quiet_on_monotonic_span():
    active, suppressed = run_fixture("DET-RNG", "obs_span_clean")
    assert active == []
    assert suppressed == []


def test_obs_layer_is_inside_production_clock_scope():
    from repro.analysis.rules.det_rng import DetRngRule

    assert "repro/obs/" in DetRngRule.default_settings["clock_paths"]


# -- DEAD-API: what counts as a use ----------------------------------------
#
# Each case lays out a tiny repo under a temp root and lints it with the
# production settings: uses come from src/ (never tests/), definitions
# are checked under repro/.


def dead_api_names(tmp_path, source, init="", test=""):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(init, encoding="utf-8")
    (pkg / "mod.py").write_text(source, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(test, encoding="utf-8")
    config = AnalysisConfig(root=tmp_path, rule_ids=["DEAD-API"])
    report = analyze_paths([str(tmp_path / "src")], config)
    return [f.message.split()[0] for f in report.findings]


def test_dead_api_export_and_test_use_are_not_uses(tmp_path):
    names = dead_api_names(
        tmp_path,
        '__all__ = ["exported"]\n\n\ndef exported():\n    return 1\n',
        init='from .mod import exported\n\n__all__ = ["exported"]\n',
        test="from repro.mod import exported\n\nexported()\n",
    )
    assert names == ["exported"]


def test_dead_api_identifier_string_counts_as_use(tmp_path):
    source = "def by_name():\n    return 1\n"
    assert dead_api_names(tmp_path / "bare", source) == ["by_name"]
    table = source + '\n\nHANDLER = globals()["by_name"]\n'
    assert dead_api_names(tmp_path / "table", table) == []


def test_dead_api_skips_private_definitions(tmp_path):
    source = "def _helper():\n    return 1\n\n\nclass _Shape:\n    pass\n"
    assert dead_api_names(tmp_path, source) == []


def test_dead_api_reports_unread_module_imports(tmp_path):
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n\n"
        '__all__ = ["dumps"]\n\n'
        "SEP = os.sep\n"
    )
    assert dead_api_names(tmp_path / "mod", source) == ["osp", "loads"]
    # A package __init__ re-exports what it imports: not checked.
    assert dead_api_names(
        tmp_path / "init", "SEP = 1\n", init="import os\nfrom json import loads\n"
    ) == []


# -- ORACLE-FREEZE: fingerprint pinning against a temp tree ---------------
#
# The rule reads its oracle files itself (they live outside the scanned
# tree), so each case writes the oracle under a temp root and asks the
# rule for its repo-level findings.

ORACLE_SRC = '''\
def frozen(x):
    """The frozen oracle."""
    return (x + 1) * 2


class Frozen:
    """A frozen oracle class."""

    def step(self, x):
        """One step."""
        return x - 1
'''

FREEZE_SETTINGS = {"oracle_dir": "oracles", "fingerprints_path": "pins.json"}


def freeze_rule(tmp_path):
    return OracleFreezeRule(dict(FREEZE_SETTINGS, root=str(tmp_path)))


def write_oracle(tmp_path, source):
    (tmp_path / "oracles").mkdir(exist_ok=True)
    (tmp_path / "oracles" / "fixture_oracle.py").write_text(
        source, encoding="utf-8"
    )


def pin_oracle(tmp_path, source):
    write_oracle(tmp_path, source)
    fp.write_fingerprints(
        tmp_path / "pins.json", fp.compute_fingerprints(tmp_path, "oracles")
    )


def freeze_findings(tmp_path, source):
    write_oracle(tmp_path, source)
    return freeze_rule(tmp_path).check_repo()


def test_oracle_freeze_quiet_when_pinned(tmp_path):
    pin_oracle(tmp_path, ORACLE_SRC)
    assert freeze_findings(tmp_path, ORACLE_SRC) == []


def test_oracle_freeze_ignores_docstring_and_comment_churn(tmp_path):
    pin_oracle(tmp_path, ORACLE_SRC)
    churned = ORACLE_SRC.replace(
        '"""The frozen oracle."""',
        '"""Reworded documentation."""  # cosmetic comment',
    ).replace('"""One step."""', '"""One reworded step."""')
    assert churned != ORACLE_SRC
    assert freeze_findings(tmp_path, churned) == []


def test_oracle_freeze_flags_semantic_drift(tmp_path):
    pin_oracle(tmp_path, ORACLE_SRC)
    for old, new, name, line in [
        ("(x + 1) * 2", "(x + 2) * 2", "frozen", 1),
        ("x - 1", "x - 2", "Frozen", 6),
    ]:
        active = freeze_findings(tmp_path, ORACLE_SRC.replace(old, new))
        assert [f.rule for f in active] == ["ORACLE-FREEZE"]
        assert "drifted" in active[0].message
        assert name in active[0].message
        assert active[0].file == "oracles/fixture_oracle.py"
        assert active[0].line == line


def test_oracle_freeze_flags_removed_oracle(tmp_path):
    """A renamed definition is both a removed pin and an unpinned
    definition."""
    pin_oracle(tmp_path, ORACLE_SRC)
    active = freeze_findings(
        tmp_path, ORACLE_SRC.replace("def frozen(", "def other(")
    )
    assert [f.rule for f in active] == ["ORACLE-FREEZE"] * 2
    messages = sorted(f.message for f in active)
    assert "frozen oracle frozen removed or renamed" in messages
    assert "frozen oracle other has no pinned fingerprint" in messages


def test_oracle_freeze_flags_missing_pin(tmp_path):
    fp.write_fingerprints(tmp_path / "pins.json", {})
    active = freeze_findings(tmp_path, ORACLE_SRC)
    assert [f.rule for f in active] == ["ORACLE-FREEZE"] * 2
    assert all("no pinned fingerprint" in f.message for f in active)


def test_oracle_freeze_flags_missing_pin_file(tmp_path):
    active = freeze_findings(tmp_path, ORACLE_SRC)
    assert [f.rule for f in active] == ["ORACLE-FREEZE"]
    assert "missing" in active[0].message


def test_oracle_freeze_reports_through_the_runner(tmp_path):
    """The runner folds the rule's repo-level findings into the report
    even though the oracle file is not among the scanned paths."""
    pin_oracle(tmp_path, ORACLE_SRC)
    write_oracle(tmp_path, ORACLE_SRC.replace("(x + 1)", "(x + 3)"))
    scanned = tmp_path / "scanned.py"
    scanned.write_text("X = 1\n", encoding="utf-8")
    config = AnalysisConfig(
        root=tmp_path,
        rule_ids=["ORACLE-FREEZE"],
        rule_settings={"ORACLE-FREEZE": FREEZE_SETTINGS},
    )
    report = analyze_paths([str(scanned)], config)
    assert report.files_scanned == 1
    assert [f.file for f in report.findings] == ["oracles/fixture_oracle.py"]


# -- the CLI gate: a deliberate violation must fail the run ----------------


def test_cli_exits_nonzero_on_deliberate_violation(capsys):
    rc = lint_main(
        [
            "--root",
            str(ROOT),
            "--rules",
            "DET-RNG",
            str(FIXTURES / "det_rng_violate.py"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "DET-RNG" in out


def test_cli_exits_zero_on_conforming_file(capsys):
    rc = lint_main(
        [
            "--root",
            str(ROOT),
            "--rules",
            "DET-RNG",
            str(FIXTURES / "det_rng_clean.py"),
        ]
    )
    assert rc == 0


def test_cli_rejects_unknown_rule(capsys):
    rc = lint_main(["--root", str(ROOT), "--rules", "NO-SUCH-RULE", "src"])
    assert rc == 2


def test_cli_json_format_emits_valid_report(capsys):
    rc = lint_main(
        [
            "--root",
            str(ROOT),
            "--rules",
            "DET-RNG",
            str(FIXTURES / "det_rng_violate.py"),
        ]
    )
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    # Default settings here (no overrides): the path-scoped clock checks
    # stay quiet, the three global-RNG findings fire.
    assert [line.split()[1] for line in lines[:-1]] == ["DET-RNG"] * 3
    assert lines[-1] == "3 findings (0 suppressed) across 1 file"


def test_repo_lints_clean():
    """The acceptance gate itself: main is lint-clean (= `make lint`)."""
    rc = lint_main(["--root", str(ROOT), str(ROOT / "src"), str(ROOT / "benchmarks")])
    assert rc == 0
