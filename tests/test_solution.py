"""Tests for Solution, FactStore and CNF-model reconstruction."""

import pytest

from repro.anf import Poly, parse_system
from repro.core import (
    AnfToCnf,
    Config,
    FactStore,
    Solution,
    reconstruct_model,
    solution_from_model,
)
from repro.core.facts import SOURCE_ELIMLIN, SOURCE_XL
from repro.sat import Solver
from repro.sat.types import TRUE, UNDEF


def polys_of(text):
    _, polys = parse_system(text)
    return polys


def test_solution_satisfies():
    polys = polys_of("x1 + x2 + 1")
    assert Solution([0, 1, 0]).satisfies(polys)
    assert not Solution([0, 1, 1]).satisfies(polys)


def test_solution_pads_short_assignments():
    polys = polys_of("x5")
    assert Solution([0]).satisfies(polys)  # x5 defaults to 0


def test_fact_store_dedupes():
    store = FactStore()
    p = polys_of("x1 + 1")[0]
    assert store.add(p, SOURCE_XL) is True
    assert store.add(p, SOURCE_ELIMLIN) is False  # first source wins
    assert list(store) == [(p, SOURCE_XL)]
    assert len(store) == 1


def test_fact_store_ignores_zero():
    store = FactStore()
    assert store.add(Poly.zero(), SOURCE_XL) is False
    assert len(store) == 0


def test_fact_store_by_source_and_summary():
    store = FactStore()
    for p in polys_of("x1 + 1\nx2"):
        store.add(p, SOURCE_XL)
    store.add(polys_of("x3 + x4")[0], SOURCE_ELIMLIN)
    assert [s for _, s in store].count(SOURCE_XL) == 2
    assert store.summary() == {SOURCE_XL: 2, SOURCE_ELIMLIN: 1}
    assert len(store.polynomials()) == 3


def solve_conversion(conv):
    solver = Solver()
    solver.ensure_vars(conv.formula.n_vars)
    for c in conv.formula.clauses:
        if not solver.add_clause(c):
            return False, solver
    return solver.solve(), solver


def test_reconstruct_model_inverts_auxiliaries():
    # Tiny K and L force both monomial and cut auxiliaries.
    polys = polys_of("x1*x2 + x3 + x4 + 1\nx1 + x2 + x3 + x4")
    conv = AnfToCnf(Config(karnaugh_limit=1, xor_cut_len=3)).convert_polynomials(
        polys, n_vars=5
    )
    assert conv.stats.monomial_vars > 0 and conv.cut_vars
    verdict, solver = solve_conversion(conv)
    assert verdict is True
    model = reconstruct_model(conv, solver.model)
    assert set(model) == set(range(conv.n_anf_vars))
    assert all(bit in (0, 1) for bit in model.values())
    values = [model[v] for v in range(conv.n_anf_vars)]
    assert Solution(values).satisfies(polys)
    # The Solution-shaped wrapper agrees.
    assert solution_from_model(conv, solver.model).values == values


def test_reconstruct_model_strict_catches_corrupt_monomial_var():
    polys = polys_of("x1*x2 + x3 + x4 + 1")
    conv = AnfToCnf(Config(karnaugh_limit=1)).convert_polynomials(polys, n_vars=5)
    assert conv.stats.monomial_vars == 1
    verdict, solver = solve_conversion(conv)
    assert verdict is True
    (aux,) = [
        v for v in conv.monomial_of_var if v >= conv.n_anf_vars
    ]
    corrupt = list(solver.model)
    corrupt[aux] ^= 1
    with pytest.raises(ValueError):
        reconstruct_model(conv, corrupt)


def test_reconstruct_model_defaults_unconstrained_vars_to_zero():
    polys = polys_of("x1 + 1")
    conv = AnfToCnf(Config()).convert_polynomials(polys, n_vars=6)
    # A short model (solver never saw vars past x1) and UNDEF entries
    # both read as 0.
    model = reconstruct_model(conv, [0, TRUE])
    assert model[1] == 1
    assert all(model[v] == 0 for v in (0, 2, 3, 4, 5))
    model = reconstruct_model(conv, [0, TRUE, UNDEF, UNDEF, 0, 0])
    assert model[1] == 1 and model[2] == 0


def test_fact_store_iteration_order():
    store = FactStore()
    ps = polys_of("x1\nx2\nx3")
    for p in ps:
        store.add(p, SOURCE_XL)
    assert [p for p, _ in store] == ps
