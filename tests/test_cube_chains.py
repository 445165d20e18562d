"""Cube chains: the unit cube conquest maps over the worker pool.

Cubes are dealt round-robin into ``max(jobs, len(backends))`` chains;
an in-process backend loads the formula once per chain and solves each
cube as assumptions on the same warm solver.  These tests pin the
chain's contract: deterministic per-cube results, verdicts that match
brute force, a raising cube failing only itself, a killed worker
failing its chain's cubes, and per-cube solver counters on the spans.
"""

import itertools
import multiprocessing
import os
import random
import signal
from dataclasses import dataclass

import pytest

from repro.cube import CubeConqueror, split_formula
from repro.obs import Tracer
import repro.portfolio.backends as backends_module
from repro.portfolio import (
    BackendResult,
    CdclBackend,
    PortfolioRunner,
    SolverBackend,
    create_backend,
)
from repro.portfolio.engine import STATUS_ERROR, STATUS_UNSAT
from repro.sat import CnfFormula
from repro.sat.types import mk_lit
from repro.satcomp.generators import pigeonhole

COUNTERS = ("conflicts", "decisions", "propagations", "restarts", "learnts")


@pytest.fixture(autouse=True)
def no_leaked_workers():
    yield
    assert multiprocessing.active_children() == []


def _chains(n_cubes, n):
    """The cube indices of each chain, as the conqueror deals them."""
    return [list(range(k, n_cubes, n)) for k in range(n)]


def _satisfies(formula, bits):
    return all(
        any(bits[l >> 1] ^ (l & 1) for l in clause)
        for clause in formula.clauses
    ) and all(
        sum(bits[v] for v in variables) & 1 == rhs
        for variables, rhs in formula.xors
    )


# -- (a) determinism -----------------------------------------------------------


def test_per_cube_results_are_identical_across_runs():
    formula = pigeonhole(5)

    def rows():
        outcome = CubeConqueror(["minisat"], jobs=2, depth=3).run(formula)
        assert outcome.verdict is False
        return [(s.status, s.conflicts) for s in outcome.stats]

    first = rows()
    assert len(first) == 8
    assert first == rows()


def test_chains_match_an_in_process_replay():
    # Workers change nothing: each chain's per-cube conflicts equal a
    # replay of the same cubes, in order, on one warm solver here.
    formula = pigeonhole(5)
    outcome = CubeConqueror(["minisat"], jobs=2, depth=3).run(formula)
    cubes = [s.cube for s in outcome.stats]
    for chain in _chains(len(cubes), 2):
        warm = CdclBackend("minisat").cube_solver(
            formula, [cubes[i] for i in chain])
        replay = [warm(cubes[i]).conflicts for i in chain]
        assert replay == [outcome.stats[i].conflicts for i in chain]


# -- (b) brute-force differential ----------------------------------------------


def _random_formula(seed):
    """5-12 variables of 2- and 3-literal clauses around the threshold;
    every third formula also has ``x`` lines."""
    rng = random.Random(seed)
    n = rng.randint(5, 12)
    f = CnfFormula(n)
    for _ in range(rng.randint(2 * n, 5 * n)):
        f.add_clause([mk_lit(v, rng.random() < 0.5)
                      for v in rng.sample(range(n), rng.choice((2, 3, 3)))])
    if seed % 3 == 0:
        for _ in range(rng.randint(1, 3)):
            f.add_xor(rng.sample(range(n), rng.randint(2, 5)),
                      rng.randint(0, 1))
    return f


def _brute_force_sat(formula):
    return any(
        _satisfies(formula, bits)
        for bits in itertools.product((0, 1), repeat=formula.n_vars)
    )


INSTANCES = [_random_formula(seed) for seed in range(12)]
EXPECTED = [_brute_force_sat(f) for f in INSTANCES]


def test_differential_corpus_has_both_verdicts_with_and_without_xors():
    kinds = {(bool(f.xors), sat) for f, sat in zip(INSTANCES, EXPECTED)}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "backends", [["minisat"], ["cms"], ["lingeling", "cms@1"]],
    ids=lambda specs: "+".join(specs),
)
def test_chained_verdicts_match_brute_force(backends, jobs):
    for formula, expected in zip(INSTANCES, EXPECTED):
        # The race is the conquest of one empty cube per backend.
        race = PortfolioRunner([create_backend(b) for b in backends],
                               jobs=jobs).run(formula, timeout_s=30)
        assert race.verdict is expected, formula.clauses
        if expected:
            assert _satisfies(formula, race.model)
        for depth in (1, 2, 3):
            outcome = CubeConqueror(backends, jobs=jobs, depth=depth).run(
                formula, timeout_s=30)
            assert outcome.verdict is expected, (depth, formula.clauses)
            assert outcome.verdict is race.verdict
            if expected:
                assert _satisfies(formula, outcome.model)


# -- (c) a raising cube ----------------------------------------------------------


def test_raising_cube_mid_chain_fails_only_that_cube(monkeypatch):
    formula = pigeonhole(5)
    cubes = split_formula(formula, 3).cubes
    bad = cubes[2]
    real = backends_module.sliced_solve

    def flaky(solver, *args, assumptions=(), **kwargs):
        if tuple(assumptions) == bad:
            raise RuntimeError("injected cube failure")
        return real(solver, *args, assumptions=assumptions, **kwargs)

    monkeypatch.setattr(backends_module, "sliced_solve", flaky)
    # Two backends at jobs=1: two in-process chains, cubes 0,2,4,6 and
    # 1,3,5,7 (neither refutes the whole formula on its own here).
    outcome = CubeConqueror(["minisat", "minisat"], jobs=1, depth=3).run(
        formula)
    assert [s.cube for s in outcome.stats] == cubes
    assert outcome.stats[2].status == STATUS_ERROR
    assert "injected cube failure" in outcome.stats[2].error
    others = outcome.stats[:2] + outcome.stats[3:]
    assert all(s.status == STATUS_UNSAT for s in others)
    assert outcome.stats[4].conflicts > 0  # the chain reloaded and went on
    assert outcome.verdict is None  # an errored cube blocks UNSAT
    assert not outcome.global_unsat


# -- (d) a killed worker ----------------------------------------------------------


@dataclass
class KillOnCube(CdclBackend):
    """SIGKILLs its own worker when the chain reaches ``kill_cube``
    (module level: workers unpickle it under forkserver)."""

    kill_cube: tuple = ()

    def cube_solver(self, formula, cubes):
        warm = super().cube_solver(formula, cubes)

        def solve_cube(cube, **kwargs):
            if tuple(cube) == self.kill_cube:
                if multiprocessing.parent_process() is None:
                    raise RuntimeError("refusing to kill the test process")
                os.kill(os.getpid(), signal.SIGKILL)
            return warm(cube, **kwargs)

        return solve_cube


def test_sigkill_mid_chain_fails_the_chain_and_blocks_unsat():
    formula = pigeonhole(5)
    cubes = split_formula(formula, 3).cubes
    # Two chains: cubes 0,2,4,6 and 1,3,5,7; the worker of the first
    # dies on its second cube.
    outcome = CubeConqueror(
        [KillOnCube(kill_cube=cubes[2])], jobs=2, depth=3
    ).run(formula, timeout_s=60)
    dead, healthy = _chains(len(cubes), 2)
    for i in dead:
        assert outcome.stats[i].status == STATUS_ERROR
        assert "worker-died" in outcome.stats[i].error
    for i in healthy:
        assert outcome.stats[i].status == STATUS_UNSAT
    assert outcome.verdict is None


# -- demoted SAT inside a chain --------------------------------------------------


class LiesOnCube(SolverBackend):
    """Claims SAT with an all-zero model on cubes starting with ``lit``;
    solves every other cube honestly."""

    name = "lies-on-cube"

    def __init__(self, lit):
        self.lit = lit

    def solve(self, formula, conflict_budget=None, stop=None,
              assumptions=()):
        if assumptions and assumptions[0] == self.lit:
            return BackendResult(True, model=[0] * formula.n_vars)
        return CdclBackend("minisat").solve(
            formula, stop=stop, assumptions=assumptions)


def test_demoted_sat_sends_the_rest_of_its_chain_out_again():
    f = CnfFormula(2)
    f.add_clause([mk_lit(0), mk_lit(1)])
    # Occurrence split on x0: cube 0 assumes x0, cube 1 assumes -x0.
    conq = CubeConqueror([LiesOnCube(mk_lit(0))], jobs=1, depth=1,
                         mode="occurrence", validate=any)
    outcome = conq.run(f, timeout_s=10)
    assert [s.status for s in outcome.stats] == ["invalid-model", "sat"]
    assert outcome.verdict is True
    assert [s.won for s in outcome.stats] == [False, True]
    assert _satisfies(f, outcome.model)


# -- solver counters on leg spans ------------------------------------------------


def test_cube_spans_carry_per_cube_counters_that_add_up():
    formula = pigeonhole(5)
    tracer = Tracer()
    outcome = CubeConqueror(["minisat"], jobs=2, depth=3,
                            tracer=tracer).run(formula)
    assert outcome.verdict is False
    spans = {s["id"]: s for s in tracer.spans() if s["name"] == "cube.solve"}
    assert len(spans) == len(outcome.stats) == 8
    for row in outcome.stats:
        attrs = spans[row.span_id]["attrs"]
        assert all(name in attrs for name in COUNTERS), attrs
        assert attrs["conflicts"] == row.conflicts
    cubes = [s.cube for s in outcome.stats]
    for chain in _chains(len(cubes), 2):
        warm = CdclBackend("minisat").cube_solver(
            formula, [cubes[i] for i in chain])
        for i in chain:
            warm(cubes[i])
        assert sum(outcome.stats[i].conflicts for i in chain) \
            == warm.solver.num_conflicts
        assert sum(spans[outcome.stats[i].span_id]["attrs"]["propagations"]
                   for i in chain) == warm.solver.num_propagations


def test_portfolio_leg_spans_carry_solver_counters():
    tracer = Tracer()
    race = PortfolioRunner([CdclBackend("minisat")], jobs=1, tracer=tracer)
    result = race.run(pigeonhole(5))
    assert result.verdict is False
    (leg,) = [s for s in tracer.spans() if s["name"] == "portfolio.backend"]
    assert all(name in leg["attrs"] for name in COUNTERS)
    assert leg["attrs"]["conflicts"] == result.results[0].conflicts > 0
