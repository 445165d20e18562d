"""Pragma machinery tests: scoping and meta-findings.

The suppression pragma ``# repro: allow[RULE-ID] <justification>`` has
two scopes (exact line, whole function via the ``def`` line) and two
meta-findings (bare suppression, unknown rule id — themselves never
suppressible).  All are exercised here on inline sources through the
same ``analyze_source`` entry the runner uses.
"""

from pathlib import Path

from repro.analysis import (
    AnalysisConfig,
    analyze_source,
    build_rules,
    known_rule_ids,
)
from repro.analysis.pragmas import (
    PRAGMA_BARE,
    PRAGMA_UNKNOWN,
    build_index,
    scan_pragmas,
)

ROOT = Path(__file__).resolve().parents[1]


def det_rules():
    # DET-RNG's global-RNG check is path-independent: ideal for inline
    # pragma sources.
    return build_rules(AnalysisConfig(root=ROOT, rule_ids=["DET-RNG"]))


LINE_SCOPED = (
    "import random\n"
    "\n"
    "def draw():\n"
    "    a = random.random()  # repro: allow[DET-RNG] fixture: this draw only\n"
    "    b = random.random()\n"
    "    return a + b\n"
)


def test_exact_line_scope_suppresses_only_that_line():
    active, suppressed = analyze_source(LINE_SCOPED, "fixture.py", det_rules())
    assert [f.line for f in suppressed] == [4]
    assert suppressed[0].justification == "fixture: this draw only"
    assert [f.line for f in active] == [5]
    assert active[0].rule == "DET-RNG"


FUNC_SCOPED = (
    "import random\n"
    "\n"
    "def draw():  # repro: allow[DET-RNG] fixture: whole-function waiver\n"
    "    a = random.random()\n"
    "    b = random.random()\n"
    "    return a + b\n"
    "\n"
    "def other():\n"
    "    return random.random()\n"
)


def test_function_scope_covers_body_not_neighbours():
    active, suppressed = analyze_source(FUNC_SCOPED, "fixture.py", det_rules())
    assert sorted(f.line for f in suppressed) == [4, 5]
    assert all(
        f.justification == "fixture: whole-function waiver" for f in suppressed
    )
    assert [f.line for f in active] == [9]


def test_pragma_does_not_cover_other_rules():
    src = (
        "import random\n"
        "x = random.random()  # repro: allow[ONE-KERNEL] wrong rule named\n"
    )
    active, suppressed = analyze_source(src, "fixture.py", det_rules())
    assert [f.rule for f in active] == ["DET-RNG"]
    assert suppressed == []


def test_unknown_rule_id_is_a_finding():
    src = "x = 1  # repro: allow[NO-SUCH-RULE] whatever\n"
    active, suppressed = analyze_source(src, "fixture.py", det_rules())
    assert [f.rule for f in active] == [PRAGMA_UNKNOWN]
    assert "NO-SUCH-RULE" in active[0].message
    assert suppressed == []


def test_bare_pragma_is_a_finding_but_still_suppresses():
    src = (
        "import random\n"
        "x = random.random()  # repro: allow[DET-RNG]\n"
    )
    active, suppressed = analyze_source(src, "fixture.py", det_rules())
    assert [f.rule for f in active] == [PRAGMA_BARE]
    assert [f.rule for f in suppressed] == ["DET-RNG"]
    assert suppressed[0].justification == ""


def test_meta_findings_cannot_be_suppressed():
    # A justified allow[PRAGMA-BARE] on the def line must NOT silence the
    # PRAGMA-BARE raised by the bare pragma inside: a pragma cannot
    # vouch for another pragma.
    src = (
        "import random\n"
        "def f():  # repro: allow[PRAGMA-BARE] vouch attempt\n"
        "    return random.random()  # repro: allow[DET-RNG]\n"
    )
    active, suppressed = analyze_source(src, "fixture.py", det_rules())
    assert [f.rule for f in active] == [PRAGMA_BARE]
    assert [f.rule for f in suppressed] == ["DET-RNG"]


def test_meta_rule_ids_are_known_to_pragma_validation():
    known = known_rule_ids()
    assert PRAGMA_BARE in known and PRAGMA_UNKNOWN in known


def test_pragma_inside_string_literal_is_ignored():
    src = 's = "# repro: allow[DET-RNG] not a pragma"\n'
    assert scan_pragmas(src) == []


def test_scan_pragmas_parses_rule_and_justification():
    src = "x = 1  # repro: allow[DET-RNG]   spaced   justification  \n"
    (pragma,) = scan_pragmas(src)
    assert pragma.rule == "DET-RNG"
    assert pragma.line == 1
    assert pragma.justification == "spaced   justification"


def test_innermost_function_span_wins():
    import ast

    src = (
        "def outer():  # repro: allow[DET-RNG] outer waiver\n"
        "    def inner():  # repro: allow[DET-RNG] inner waiver\n"
        "        return 1\n"
        "    return inner\n"
    )
    index = build_index(src, ast.parse(src))
    assert index.match("DET-RNG", 3).justification == "inner waiver"
    assert index.match("DET-RNG", 4).justification == "outer waiver"
    assert index.match("DET-RNG", 1).justification == "outer waiver"
