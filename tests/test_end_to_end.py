"""End-to-end property tests: Bosphorus verdicts vs brute force.

The strongest correctness statement for the whole pipeline: on random
small ANF systems, the workflow's verdict must agree with exhaustive
enumeration, every learnt fact must vanish on every true solution, and
any reported model must satisfy the input.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anf import ContradictionError, Poly, Ring
from repro.core import Bosphorus, Config

N_VARS = 5

monomials = st.lists(st.integers(0, N_VARS - 1), min_size=0, max_size=2).map(
    lambda vs: tuple(sorted(set(vs)))
)
small_polys = st.lists(monomials, min_size=1, max_size=4).map(Poly)
systems = st.lists(small_polys, min_size=1, max_size=5).map(
    lambda ps: [p for p in ps if not p.is_zero()]
)

FAST = Config(
    xl_sample_bits=8,
    elimlin_sample_bits=8,
    sat_conflict_start=500,
    sat_conflict_max=2000,
    max_iterations=4,
)


def brute_solutions(polys):
    out = []
    for bits in itertools.product([0, 1], repeat=N_VARS):
        if all(p.evaluate(list(bits)) == 0 for p in polys):
            out.append(list(bits))
    return out


@settings(max_examples=40, deadline=None)
@given(systems)
def test_verdict_matches_brute_force(polys):
    solutions = brute_solutions(polys)
    try:
        result = Bosphorus(FAST).preprocess_anf(Ring(N_VARS), polys)
    except ContradictionError:  # pragma: no cover - defensive
        assert not solutions
        return
    if result.is_unsat:
        assert not solutions, "claimed UNSAT but solutions exist"
    elif result.is_sat:
        assert solutions, "claimed SAT but no solution exists"
        model = result.solution.values[:N_VARS]
        padded = model + [0] * (N_VARS - len(model))
        assert all(p.evaluate(padded) == 0 for p in polys)


@settings(max_examples=30, deadline=None)
@given(systems)
def test_learnt_facts_vanish_on_all_solutions(polys):
    solutions = brute_solutions(polys)
    result = Bosphorus(FAST.with_(stop_on_solution=False)).preprocess_anf(
        Ring(N_VARS), polys
    )
    if result.is_unsat:
        assert not solutions
        return
    for fact in result.facts.polynomials():
        support = fact.variables()
        if any(v >= N_VARS for v in support):
            continue  # facts on auxiliary variables, not checkable here
        for sol in solutions:
            assert fact.evaluate(sol) == 0, (fact, sol)


@settings(max_examples=30, deadline=None)
@given(systems)
def test_processed_anf_preserves_solutions(polys):
    """The processed ANF must have exactly the original solutions
    (projected onto the original variables)."""
    result = Bosphorus(FAST.with_(stop_on_solution=False)).preprocess_anf(
        Ring(N_VARS), polys
    )
    original = {tuple(s) for s in brute_solutions(polys)}
    if result.is_unsat:
        assert not original
        return
    processed = result.processed_anf
    n_total = max(
        [N_VARS] + [v + 1 for p in processed for v in p.variables()]
    )
    projected = set()
    for bits in itertools.product([0, 1], repeat=n_total):
        if all(p.evaluate(list(bits)) == 0 for p in processed):
            projected.add(tuple(bits[:N_VARS]))
    assert projected == original


@pytest.mark.parametrize("seed", range(5))
def test_probing_and_groebner_configs_agree(seed):
    rng = random.Random(seed)
    polys = []
    for _ in range(4):
        ms = []
        for _ in range(rng.randint(1, 4)):
            ms.append(tuple(sorted(rng.sample(range(N_VARS), rng.randint(0, 2)))))
        p = Poly(ms)
        if not p.is_constant():
            polys.append(p)
    if not polys:
        return
    has_solutions = bool(brute_solutions(polys))
    for cfg in (
        FAST,
        FAST.with_(use_probing=True, probe_limit=8),
        FAST.with_(use_groebner=True, use_sat=False),
    ):
        result = Bosphorus(cfg).preprocess_anf(Ring(N_VARS), list(polys))
        if result.is_unsat:
            assert not has_solutions
        if result.is_sat:
            assert has_solutions
