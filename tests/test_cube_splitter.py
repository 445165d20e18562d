"""Cube splitter: the emitted cubes (plus split-time refuted branches)
must partition the branching space, the lookahead walk never branches
on a variable root propagation fixed, and both modes must stay inside
the original formula's variables."""

import pytest

from repro.cube import DEFAULT_MAX_CUBES, occurrence_scores, split_formula
from repro.sat import CnfFormula, parse_dimacs
from repro.sat.types import lit_var, mk_lit
from repro.satcomp.generators import pigeonhole


def sat_micro():
    return parse_dimacs("p cnf 3 3\n1 2 0\n-1 2 0\n-2 3 0\n")


def chain_formula(n=6):
    # x0 -> x1 -> ... -> x{n-1}: long implication chains give the
    # lookahead walk something to propagate.
    f = CnfFormula(n)
    for v in range(n - 1):
        f.add_clause([mk_lit(v, True), mk_lit(v + 1)])
    return f


@pytest.mark.parametrize("mode", ["occurrence", "lookahead"])
def test_depth_zero_is_the_uncubed_solve(mode):
    cs = split_formula(sat_micro(), 0, mode=mode)
    assert cs.cubes == [()]
    assert not cs.refuted and not cs.root_unsat


def test_occurrence_scores_prefer_short_clauses():
    f = CnfFormula(3)
    f.add_clause([mk_lit(0)])                      # unit on x0
    f.add_clause([mk_lit(1), mk_lit(2)])           # binary on x1,x2
    scores = occurrence_scores(f)
    assert scores[0] > scores[1] == scores[2] > 0


def test_occurrence_split_emits_full_sign_grid():
    cs = split_formula(sat_micro(), 2, mode="occurrence")
    assert len(cs.cubes) == 4
    assert len(cs.variables) == 2
    # Every cube assigns the same two variables, all four sign patterns.
    assert len({tuple(sorted(lit_var(l) for l in cube)) for cube in cs.cubes}) == 1
    assert len(set(cs.cubes)) == 4


@pytest.mark.parametrize("mode", ["occurrence", "lookahead"])
def test_partition_property(mode):
    # Soundness backbone: every assignment of the branching variables
    # extends exactly one leaf (cube or refuted branch).
    formula = pigeonhole(3)
    cs = split_formula(formula, 3, mode=mode)
    leaves = cs.cubes + cs.refuted
    branch_vars = sorted({lit_var(l) for cube in leaves for l in cube})
    for code in range(2 ** len(branch_vars)):
        bits = {v: (code >> i) & 1 for i, v in enumerate(branch_vars)}
        matching = [
            leaf for leaf in leaves
            if all(bits[lit_var(l)] == 1 - (l & 1) for l in leaf)
        ]
        assert len(matching) == 1, (bits, matching)


def test_lookahead_prunes_refuted_branches():
    # x0 forces the whole chain; assuming !x5 with x0 conflicts, so one
    # side of some branch must close by propagation once x0 is assumed.
    f = chain_formula(4)
    f.add_clause([mk_lit(0)])  # unit: x0 true -> everything true
    cs = split_formula(f, 2, mode="lookahead")
    # Root propagation fixes every variable: nothing left to branch on.
    assert cs.cubes == [()] and cs.variables == []


def test_lookahead_never_branches_on_root_forced_variables():
    f = chain_formula(5)
    f.add_clause([mk_lit(2)])  # x2 true forces x3, x4
    cs = split_formula(f, 2, mode="lookahead")
    assert cs.cubes and set(cs.variables) <= {0, 1}
    for leaf in cs.cubes + cs.refuted:
        assert all(lit_var(l) < 2 for l in leaf)


def test_root_unsat_short_circuits():
    f = CnfFormula(1)
    f.add_clause([mk_lit(0)])
    f.add_clause([mk_lit(0, True)])
    cs = split_formula(f, 3, mode="lookahead")
    assert cs.root_unsat and not cs.cubes


def test_max_cubes_bounds_the_fanout():
    # 2**10 leaves wanted; the cap allows DEFAULT_MAX_CUBES (2**8).
    cs = split_formula(pigeonhole(4), 10, mode="occurrence")
    assert 0 < len(cs.cubes) <= DEFAULT_MAX_CUBES
    cs = split_formula(pigeonhole(4), 10, mode="lookahead")
    assert 0 < len(cs.cubes) + len(cs.refuted)
    assert len(cs.cubes) <= DEFAULT_MAX_CUBES
    assert max(map(len, cs.cubes + cs.refuted)) <= 8


def test_xor_formulas_branch_on_original_vars_only():
    # Expansion introduces auxiliaries; cubes must never mention them
    # (they would be meaningless as assumptions on the unexpanded
    # formula or as units appended for an external solver).
    f = CnfFormula(6)
    f.add_xor([0, 1, 2, 3, 4, 5], 1)
    cs = split_formula(f, 3, mode="lookahead")
    for leaf in cs.cubes + cs.refuted:
        assert all(lit_var(l) < 6 for l in leaf)


def test_bad_mode_and_depth_are_rejected():
    with pytest.raises(ValueError):
        split_formula(sat_micro(), 2, mode="telepathy")
    with pytest.raises(ValueError):
        split_formula(sat_micro(), -1)
