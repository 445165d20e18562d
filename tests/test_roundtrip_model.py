"""Round-trip model-equivalence harness for the ANF→CNF bridge.

The bridge is where solutions cross representations, so its correctness
is pinned end to end rather than by point tests: hypothesis drives
random ANF systems at widths 63/64/65/128 (straddling the one-limb mask
boundary) through convert → ``sat.solver`` → ``reconstruct_model`` →
evaluate-on-the-original-ANF, asserting

* every SAT model, translated back through the conversion's cut and
  monomial auxiliaries, satisfies the source system;
* every verdict (SAT *and* UNSAT) agrees with brute force over the
  system's support — the instances are built with small supports inside
  wide variable spaces precisely so brute force stays exact.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anf import AnfSystem, Poly, Ring
from repro.core import (
    AnfToCnf,
    Config,
    Solution,
    propagate,
    reconstruct_model,
)
from repro.sat import Solver

#: Widths straddling the 64-bit limb boundary plus a two-limb width.
WIDTHS = [63, 64, 65, 128]


@st.composite
def anf_case(draw, width):
    """A random sparse ANF system over ``width`` variables.

    The support is small (brute force stays exact) but always includes
    the top variable ``width - 1``, so the monomial masks genuinely
    exercise the claimed width.
    """
    support_size = draw(st.integers(min_value=2, max_value=6))
    extra = draw(
        st.lists(
            st.integers(0, width - 2),
            min_size=support_size - 1,
            max_size=support_size - 1,
            unique=True,
        )
    )
    support = sorted(set(extra) | {width - 1})
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        monomials = []
        for _ in range(draw(st.integers(1, 5))):
            size = draw(st.integers(0, min(3, len(support))))
            monomials.append(
                tuple(
                    sorted(
                        draw(
                            st.sets(
                                st.sampled_from(support),
                                min_size=size,
                                max_size=size,
                            )
                        )
                    )
                )
            )
        p = Poly(monomials)
        if not p.is_zero():
            polys.append(p)
    config = Config(
        karnaugh_limit=draw(st.sampled_from([2, 8])),
        xor_cut_len=draw(st.sampled_from([2, 3, 5])),
    )
    return support, polys, config


def solve_formula(formula):
    """Run the CDCL solver to a verdict."""
    solver = Solver()
    solver.ensure_vars(formula.n_vars)
    for clause in formula.clauses:
        if not solver.add_clause(clause):
            return False, solver
    return solver.solve(), solver


def brute_force_satisfiable(polys, support):
    """Exact satisfiability over the support (free variables are inert)."""
    n = len(support)
    for combo in range(1 << n):
        amask = 0
        for i, v in enumerate(support):
            if combo >> i & 1:
                amask |= 1 << v
        if all(p.evaluate_mask(amask) == 0 for p in polys):
            return True
    return False


@pytest.mark.parametrize("width", WIDTHS)
@given(data=st.data())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_roundtrip_models_match_brute_force(width, data):
    support, polys, config = data.draw(anf_case(width))
    if not polys:
        return
    conv = AnfToCnf(config).convert_polynomials(polys, n_vars=width)
    assert conv.n_anf_vars == width

    verdict, solver = solve_formula(conv.formula)
    assert verdict is not None, "unbudgeted solve must reach a verdict"
    expected = brute_force_satisfiable(polys, support)
    assert verdict == expected, (
        "solver verdict {} disagrees with brute force {}".format(
            verdict, expected
        )
    )
    if verdict:
        model = reconstruct_model(conv, solver.model)
        assert set(model) == set(range(width))
        values = [model[v] for v in range(width)]
        solution = Solution(values)
        assert solution.satisfies(polys), (
            "reconstructed model violates {}".format(
                [p for p in polys if p.evaluate(values)]
            )
        )


@pytest.mark.parametrize("width", WIDTHS)
@given(data=st.data())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_roundtrip_through_propagated_system(width, data):
    """Same harness through the AnfSystem/propagation path: units and
    equivalences land in the variable state and convert() emits them as
    unit/equivalence clauses alongside the residual polynomials."""
    support, polys, config = data.draw(anf_case(width))
    if not polys:
        return
    # Pin one support variable and equate two others so the state is
    # non-trivial.
    polys = polys + [Poly.variable(support[0]).add_constant(1)]
    if len(support) >= 3:
        polys = polys + [Poly([(support[1],), (support[2],)])]
    ring = Ring(width)
    try:
        system = AnfSystem(ring, polys)
        propagate(system)
    except Exception:
        # Contradiction during propagation: the system is UNSAT.
        assert not brute_force_satisfiable(polys, support)
        return
    conv = AnfToCnf(config).convert(system)
    verdict, solver = solve_formula(conv.formula)
    assert verdict is not None
    expected = brute_force_satisfiable(polys, support)
    assert verdict == expected
    if verdict:
        model = reconstruct_model(conv, solver.model)
        values = [model[v] for v in range(conv.n_anf_vars)]
        assert Solution(values).satisfies(polys)


@pytest.mark.parametrize("width", WIDTHS)
def test_roundtrip_forced_unique_solution(width):
    """A system with one solution round-trips to exactly that model."""
    top = width - 1
    polys = [
        Poly.variable(top).add_constant(1),  # x_top = 1
        Poly([(top, 3)]).add_constant(1),  # x_top * x_3 = 1 -> x_3 = 1
        Poly([(3,), (5,)]),  # x_3 + x_5 = 0 -> x_5 = 1
        Poly.variable(7),  # x_7 = 0
    ]
    conv = AnfToCnf(Config(karnaugh_limit=8)).convert_polynomials(
        polys, n_vars=width
    )
    verdict, solver = solve_formula(conv.formula)
    assert verdict is True
    model = reconstruct_model(conv, solver.model)
    assert model[top] == 1 and model[3] == 1 and model[5] == 1
    assert model[7] == 0
    assert Solution([model[v] for v in range(width)]).satisfies(polys)


@pytest.mark.parametrize("width", WIDTHS)
def test_roundtrip_unsat_agrees(width):
    top = width - 1
    polys = [
        Poly.variable(top),
        Poly.variable(top).add_constant(1),
    ]
    conv = AnfToCnf(Config()).convert_polynomials(polys, n_vars=width)
    verdict, _ = solve_formula(conv.formula)
    assert verdict is False
    assert not brute_force_satisfiable(polys, [top])
