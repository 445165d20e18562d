"""Tests for ANF → CNF conversion (paper section III-C, Fig. 2/3)."""

import itertools

import pytest

from oracles.anf_to_cnf import convert_polynomials_scalar, convert_scalar
from repro.anf import AnfSystem, Poly, parse_system
from repro.core import AnfToCnf, Config
from repro.sat import Solver, mk_lit
from repro.sat.types import TRUE


def polys_of(text):
    _, polys = parse_system(text)
    return polys


def cnf_models(formula, n_vars):
    """All models of a CNF restricted to the first n_vars variables."""
    out = set()
    for bits in itertools.product([0, 1], repeat=formula.n_vars):
        ok = all(
            any(bits[l >> 1] ^ (l & 1) for l in clause)
            for clause in formula.clauses
        )
        if ok:
            for variables, rhs in formula.xors:
                if sum(bits[v] for v in variables) % 2 != rhs:
                    ok = False
                    break
        if ok:
            out.add(bits[:n_vars])
    return out


def anf_models(polys, n_vars):
    out = set()
    for bits in itertools.product([0, 1], repeat=n_vars):
        if all(p.evaluate(list(bits)) == 0 for p in polys):
            out.add(bits)
    return out


def test_fig2_karnaugh_conversion_6_clauses():
    polys = polys_of("x1*x3 + x1 + x2 + x4 + 1")
    conv = AnfToCnf(Config(karnaugh_limit=8)).convert_polynomials(polys)
    assert len(conv.formula.clauses) == 6
    assert conv.stats.karnaugh_polys == 1
    assert conv.stats.monomial_vars == 0  # no auxiliaries on this path


def test_fig2_tseitin_conversion_11_clauses():
    polys = polys_of("x1*x3 + x1 + x2 + x4 + 1")
    conv = AnfToCnf(Config(karnaugh_limit=2)).convert_polynomials(polys)
    # 3 AND clauses for x5 = x1x3 plus 2^3 = 8 XOR clauses.
    assert len(conv.formula.clauses) == 11
    assert conv.stats.and_clauses == 3
    assert conv.stats.tseitin_clauses == 8
    assert conv.stats.monomial_vars == 1


def test_both_paths_preserve_solutions():
    polys = polys_of("x1*x3 + x1 + x2 + x4 + 1")
    want = anf_models(polys, 5)
    for k in (2, 8):
        conv = AnfToCnf(Config(karnaugh_limit=k)).convert_polynomials(polys, n_vars=5)
        got = cnf_models(conv.formula, 5)
        assert got == want, "K={} changed the solution set".format(k)


def test_xor_cutting_length():
    # 7 linear terms with L=3 forces cutting.
    polys = polys_of("x1 + x2 + x3 + x4 + x5 + x6 + x7")
    conv = AnfToCnf(Config(xor_cut_len=3, karnaugh_limit=2)).convert_polynomials(
        polys, n_vars=8
    )
    assert conv.stats.cut_vars >= 2
    want = anf_models(polys, 8)
    got = cnf_models(conv.formula, 8)
    assert got == want


def test_cut_variables_tracked_and_not_monomials():
    """Cut auxiliaries live only in cut_vars — the monomial map holds
    Monomials exclusively (the seed stored ``None`` there, violating its
    own ``Dict[int, Monomial]`` contract)."""
    polys = polys_of("x1 + x2 + x3 + x4 + x5 + x6 + x7")
    conv = AnfToCnf(Config(xor_cut_len=3, karnaugh_limit=2)).convert_polynomials(polys)
    assert conv.cut_vars
    for aux in conv.cut_vars:
        assert aux not in conv.monomial_of_var
        assert aux >= conv.n_anf_vars
    for v, m in conv.monomial_of_var.items():
        assert isinstance(m, tuple)


def test_variable_kind_classification():
    """Original / monomial / cut variables are disjoint and exhaustive."""
    polys = polys_of(
        "x1*x2 + x3*x4 + x5 + x6 + x7 + x8 + x9 + x10 + x11"
    )
    conv = AnfToCnf(Config(karnaugh_limit=3, xor_cut_len=4)).convert_polynomials(polys)
    assert conv.stats.cut_vars > 0 and conv.stats.monomial_vars > 0
    for v in range(conv.formula.n_vars):
        original = v < conv.n_anf_vars
        monomial = not original and v in conv.monomial_of_var
        kinds = (original, monomial, v in conv.cut_vars)
        assert sum(kinds) == 1, "variable {} has kinds {}".format(v, kinds)
        if monomial:
            m = conv.monomial_of_var[v]
            assert len(m) >= 2
            assert conv.var_of_monomial[m] == v


def test_monomial_map_bidirectional():
    polys = polys_of("x1*x2 + x3*x4 + x5 + x6 + x7 + x8 + x9 + x10 + x11")
    conv = AnfToCnf(Config(karnaugh_limit=3, xor_cut_len=20)).convert_polynomials(polys)
    for m, v in conv.var_of_monomial.items():
        assert conv.monomial_of_var[v] == m


def test_unit_clauses_from_state():
    ring, polys = parse_system("x1 + 1\nx2")
    system = AnfSystem(ring, polys)
    from repro.core import propagate
    propagate(system)
    conv = AnfToCnf(Config()).convert(system)
    assert [mk_lit(1)] in conv.formula.clauses
    assert [mk_lit(2, True)] in conv.formula.clauses


def test_equivalence_clauses_from_state():
    ring, polys = parse_system("x1 + x2 + 1")
    system = AnfSystem(ring, polys)
    from repro.core import propagate
    propagate(system)
    conv = AnfToCnf(Config()).convert(system)
    # x1 = ¬x2 needs the two clauses (x1∨x2) and (¬x1∨¬x2).
    clause_sets = {frozenset(c) for c in conv.formula.clauses}
    assert frozenset([mk_lit(1), mk_lit(2)]) in clause_sets
    assert frozenset([mk_lit(1, True), mk_lit(2, True)]) in clause_sets


def test_contradiction_yields_empty_clause():
    conv = AnfToCnf(Config()).convert_polynomials([Poly.one()])
    assert [] in conv.formula.clauses


def test_uncut_wide_xor_enumerates_parity_clauses():
    # Tseitin path, no cutting: the 9-term XOR becomes its 2**8 parity
    # clauses, never a native x-line.
    polys = polys_of("x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + 1")
    cfg = Config(karnaugh_limit=2, xor_cut_len=30)
    conv = AnfToCnf(cfg).convert_polynomials(polys, n_vars=10)
    assert not conv.formula.xors and len(conv.formula.clauses) == 2 ** 8
    want = anf_models(polys, 10)
    got = cnf_models(conv.formula, 10)
    assert got == want


@pytest.mark.parametrize("seed", range(8))
def test_random_systems_equisatisfiable(seed):
    """Conversion preserves the projected solution set on random ANFs."""
    import random

    rng = random.Random(seed)
    n = 5
    polys = []
    for _ in range(rng.randint(1, 4)):
        monomials = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(0, 2)
            monomials.append(tuple(sorted(rng.sample(range(n), size))))
        p = Poly(monomials)
        if not p.is_constant():
            polys.append(p)
    if not polys:
        return
    want = anf_models(polys, n)
    for k in (2, 8):
        conv = AnfToCnf(Config(karnaugh_limit=k, xor_cut_len=3)).convert_polynomials(
            polys, n_vars=n
        )
        got = cnf_models(conv.formula, n)
        assert got == want


def assert_conversions_identical(a, b):
    """Bit-for-bit equality of two ConversionResults (formula + maps)."""
    assert a.formula.clauses == b.formula.clauses
    assert a.formula.xors == b.formula.xors
    assert a.formula.n_vars == b.formula.n_vars
    assert a.n_anf_vars == b.n_anf_vars
    assert a.var_of_monomial == b.var_of_monomial
    assert a.monomial_of_var == b.monomial_of_var
    assert a.cut_vars == b.cut_vars
    for f in (
        "karnaugh_polys",
        "tseitin_polys",
        "karnaugh_clauses",
        "tseitin_clauses",
        "and_clauses",
        "cut_vars",
        "monomial_vars",
        "unit_clauses",
        "equivalence_clauses",
    ):
        assert getattr(a.stats, f) == getattr(b.stats, f), f


def random_polys(seed, n=8, max_deg=3):
    import random

    rng = random.Random(seed)
    polys = []
    for _ in range(rng.randint(1, 6)):
        monomials = []
        for _ in range(rng.randint(1, 8)):
            size = rng.randint(0, max_deg)
            monomials.append(tuple(sorted(rng.sample(range(n), size))))
        p = Poly(monomials)
        if not p.is_zero():
            polys.append(p)
    return polys


@pytest.mark.parametrize("seed", range(12))
def test_mask_path_matches_scalar_differentially(seed):
    """The mask-native converter is bit-for-bit the seed scalar path on
    random systems, across K/L settings."""
    polys = random_polys(seed)
    if not polys:
        return
    for k, cut in [(2, 3), (8, 5), (3, 4), (8, 3)]:
        cfg = Config(karnaugh_limit=k, xor_cut_len=cut)
        fast = AnfToCnf(cfg).convert_polynomials(polys, n_vars=8)
        scalar = convert_polynomials_scalar(polys, n_vars=8, config=cfg)
        assert_conversions_identical(fast, scalar)


def test_mask_path_matches_scalar_with_state():
    """convert vs convert_scalar on a propagated system (units and
    equivalences in the variable state)."""
    from repro.core import propagate

    ring, polys = parse_system(
        "x1 + 1\nx2 + x3\nx4*x5 + x6 + x7\nx4*x6*x7 + x5 + 1"
    )
    system = AnfSystem(ring, polys)
    propagate(system)
    conv = AnfToCnf(Config())
    assert_conversions_identical(
        conv.convert(system), convert_scalar(system, Config())
    )


def test_n_vars_scan_uses_support_masks_beyond_64():
    """Regression: inferred n_vars must be max variable + 1 past the
    one-limb mask boundary (the seed scanned tuple-path variables())."""
    for top in (63, 64, 65, 128, 200):
        polys = [Poly([(3, top), (17,)]), Poly([(top - 1,), ()])]
        conv = AnfToCnf(Config()).convert_polynomials(polys)
        assert conv.n_anf_vars == top + 1
        assert conv.formula.n_vars >= top + 1
    assert AnfToCnf(Config()).convert_polynomials([]).n_anf_vars == 0


def test_empty_system():
    conv = AnfToCnf(Config()).convert_polynomials([])
    assert conv.formula.clauses == []
    assert conv.formula.xors == []
    assert conv.formula.n_vars == 0
    assert conv.cut_vars == set()
    assert conv.monomial_of_var == {}


def test_zero_polys_are_dropped():
    conv = AnfToCnf(Config()).convert_polynomials([Poly.zero(), Poly.zero()])
    assert conv.formula.clauses == []


def test_constant_one_emits_empty_clause_and_solver_refutes():
    conv = AnfToCnf(Config()).convert_polynomials([Poly.one(), Poly.variable(0)])
    assert [] in conv.formula.clauses
    solver = Solver()
    solver.ensure_vars(conv.formula.n_vars)
    ok = True
    for c in conv.formula.clauses:
        if not solver.add_clause(c):
            ok = False
            break
    assert not ok or solver.solve() is False


def test_single_monomial_polys():
    # x3 = 0: one unit clause.
    conv = AnfToCnf(Config()).convert_polynomials([Poly.variable(3)], n_vars=4)
    assert conv.formula.clauses == [[mk_lit(3, True)]]
    # x1*x2 = 0 via Karnaugh: the single clause (¬x1 ∨ ¬x2).
    conv = AnfToCnf(Config(karnaugh_limit=8)).convert_polynomials(
        [Poly([(1, 2)])], n_vars=3
    )
    assert conv.formula.clauses == [[mk_lit(1, True), mk_lit(2, True)]]
    # x1*x2 + 1 = 0 forces both variables to 1.
    conv = AnfToCnf(Config(karnaugh_limit=8)).convert_polynomials(
        [Poly([(1, 2), ()])], n_vars=3
    )
    got = cnf_models(conv.formula, 3)
    assert all(bits[1] == 1 and bits[2] == 1 for bits in got)
    # Same poly down the Tseitin path (support 2 > K=1).
    conv = AnfToCnf(Config(karnaugh_limit=1)).convert_polynomials(
        [Poly([(1, 2), ()])], n_vars=3
    )
    assert conv.stats.monomial_vars == 1
    got = cnf_models(conv.formula, 3)
    assert all(bits[1] == 1 and bits[2] == 1 for bits in got)


@pytest.mark.parametrize("cut_len", [2, 3, 7, 20])
def test_xor_cut_len_boundaries(cut_len):
    """L = 2 (below the minimum useful chunk — clamped to 3), L = 3, L =
    len(terms) and L > len(terms) all terminate and preserve models."""
    polys = polys_of("x1 + x2 + x3 + x4 + x5 + x6 + x7")
    want = anf_models(polys, 8)
    for k in (2, 8):
        conv = AnfToCnf(
            Config(xor_cut_len=cut_len, karnaugh_limit=k)
        ).convert_polynomials(polys, n_vars=8)
        assert cnf_models(conv.formula, 8) == want
        if cut_len >= 7:
            assert conv.stats.cut_vars == 0


def test_xor_cut_len_2_terminates_and_is_clamped():
    """Regression: the seed looped forever on xor_cut_len <= 2 (a chunk
    of one real term plus the bridge aux makes no progress)."""
    polys = polys_of("x1*x2 + x3 + x4 + x5*x6 + x7 + 1")
    want = anf_models(polys, 8)
    for k in (2, 8):
        conv = AnfToCnf(
            Config(xor_cut_len=2, karnaugh_limit=k)
        ).convert_polynomials(polys, n_vars=8)
        assert cnf_models(conv.formula, 8) == want


def test_karnaugh_cache_shared_across_conversions():
    """Structurally identical chunks (same shape key) minimise once,
    within and across conversions of one converter instance."""
    conv = AnfToCnf(Config(karnaugh_limit=8))
    # Two shifted copies of the same structure: x_a*x_b + x_c + 1.
    first = conv.convert_polynomials(polys_of("x1*x2 + x3 + 1"), n_vars=10)
    assert first.stats.karnaugh_cache_misses == 1
    assert first.stats.karnaugh_cache_hits == 0
    second = conv.convert_polynomials(polys_of("x5*x7 + x9 + 1"), n_vars=10)
    assert second.stats.karnaugh_cache_misses == 0
    assert second.stats.karnaugh_cache_hits == 1
    # Same clause shapes modulo the renaming.
    assert len(first.formula.clauses) == len(second.formula.clauses)
    # A fresh converter starts cold.
    cold = AnfToCnf(Config(karnaugh_limit=8)).convert_polynomials(
        polys_of("x5*x7 + x9 + 1"), n_vars=10
    )
    assert cold.stats.karnaugh_cache_misses == 1


def test_solver_agrees_on_converted_system():
    ring, polys = parse_system("""
x1*x2 + x3 + x4 + 1
x1*x2*x3 + x1 + x3 + 1
x1*x3 + x3*x4*x5 + x3
x2*x3 + x3*x5 + 1
x2*x3 + x5 + 1
""")
    conv = AnfToCnf(Config()).convert_polynomials(polys, n_vars=6)
    solver = Solver()
    solver.ensure_vars(conv.formula.n_vars)
    for c in conv.formula.clauses:
        solver.add_clause(c)
    assert solver.solve() is True
    model = [1 if v == TRUE else 0 for v in solver.model[:6]]
    # Unique solution of the paper's system: x1..x4 = 1, x5 = 0.
    assert model[1:6] == [1, 1, 1, 1, 0]
