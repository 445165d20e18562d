"""SolverConfig.seed: deterministic diversification, and a pinned
guarantee that ``seed=None`` keeps the undiversified search bit-for-bit.
"""

import pytest

from repro.sat import Solver, SolverConfig
from repro.satcomp.generators import planted_ksat


def _load(formula, config=None):
    solver = Solver(config)
    solver.ensure_vars(formula.n_vars)
    for clause in formula.clauses:
        if not solver.add_clause(clause):
            break
    return solver


def _trace(formula, config):
    solver = _load(formula, config)
    verdict = solver.solve()
    return (
        verdict,
        solver.num_decisions,
        solver.num_conflicts,
        solver.num_propagations,
        tuple(solver.model),
    )


@pytest.fixture(scope="module")
def instance():
    formula, _ = planted_ksat(60, 240, 3, seed=11)
    return formula


def test_seed_none_consults_no_rng(monkeypatch, instance):
    """The regression pin for "seed=None keeps today's behaviour":
    with no seed the solver may not construct or consult any RNG, so the
    pre-seed search is reproduced bit-for-bit by construction."""

    def boom(*args, **kwargs):
        raise AssertionError("solver consulted the RNG with seed=None")

    import repro.sat.solver as solver_module

    monkeypatch.setattr(solver_module.random, "Random", boom)
    verdict, *_ = _trace(instance, SolverConfig())
    assert verdict is True


def test_seed_none_is_deterministic(instance):
    assert _trace(instance, SolverConfig()) == _trace(instance, SolverConfig())
    assert _trace(instance, SolverConfig(seed=None)) == _trace(
        instance, SolverConfig()
    )


def test_same_seed_reproduces_bit_for_bit(instance):
    a = _trace(instance, SolverConfig(seed=5))
    b = _trace(instance, SolverConfig(seed=5))
    assert a == b


def test_seeds_diversify_the_search(instance):
    """Different seeds must actually decorrelate the search (the whole
    point of the diversified portfolio backend) while staying correct."""
    baseline = _trace(instance, SolverConfig())
    traces = [_trace(instance, SolverConfig(seed=s)) for s in (1, 2, 3, 4)]
    for verdict, _, _, _, model in traces:
        assert verdict is True
        for clause in instance.clauses:
            assert any(model[l >> 1] ^ (l & 1) == 1 for l in clause)
    # At least one seed must explore differently than the unseeded search.
    assert any(t[1:4] != baseline[1:4] for t in traces)


def test_seeded_polarities_are_randomised_and_reproducible():
    a = Solver(SolverConfig(seed=9))
    a.ensure_vars(128)
    b = Solver(SolverConfig(seed=9))
    b.ensure_vars(128)
    assert a.polarity == b.polarity
    # seed=None initialises every polarity to the configured default.
    c = Solver(SolverConfig())
    c.ensure_vars(128)
    assert c.polarity == [False] * 128
    assert a.polarity != c.polarity  # 2**-128 chance of collision


def test_seeded_solver_stays_correct_on_unsat():
    from repro.satcomp.generators import pigeonhole

    formula = pigeonhole(5)
    for seed in (None, 1, 2):
        solver = _load(formula, SolverConfig(seed=seed))
        assert solver.solve() is False
