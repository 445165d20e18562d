"""Cube-and-conquer scheduler: verdict equivalence with the uncubed
solve, first-SAT early exit, the all-cubes-refuted UNSAT rule, the
global-refutation shortcut, and fact merging."""

import time

import pytest

from repro.cube import CubeConqueror
from repro.portfolio import (
    BackendResult,
    CdclBackend,
    DimacsBackend,
    PortfolioDisagreement,
    SolverBackend,
    stop_rule,
)
from repro.portfolio.engine import (
    STATUS_CANCELLED,
    STATUS_ERROR,
    STATUS_INVALID_MODEL,
    STATUS_UNSAT,
)
from repro.sat import CnfFormula, parse_dimacs
from repro.sat.types import mk_lit
from repro.satcomp.generators import pigeonhole, random_ksat


def sat_micro():
    return parse_dimacs("p cnf 3 3\n1 2 0\n-1 2 0\n-2 3 0\n")


def _check_model(formula, model):
    assert model is not None
    for clause in formula.clauses:
        assert any(model[l >> 1] ^ (l & 1) == 1 for l in clause)
    for variables, rhs in formula.xors:
        assert sum(model[v] for v in variables) & 1 == rhs


class ScriptedBackend(SolverBackend):
    """Answers per-cube from a script keyed by the first cube literal
    (module level: the pool ships backends by fork inheritance)."""

    name = "scripted"

    def __init__(self, script, default, honour_cancel=True):
        self.script = script  # {first_literal: BackendResult kwargs tuple}
        self.default = default
        self.honour_cancel = honour_cancel

    def solve(self, formula, conflict_budget=None, stop=None,
              assumptions=()):
        if self.honour_cancel and stop is not None and stop():
            return BackendResult(None)
        kwargs = self.script.get(assumptions[0] if assumptions else None,
                                 self.default)
        if kwargs == "raise":
            raise RuntimeError("scripted failure")
        return BackendResult(**dict(kwargs))


#: A cube-relative refutation, the common UNSAT answer under a cube.
REFUTED = (("status", False), ("assumption_failure", True))


def _run_scripted(backend, depth, jobs=1):
    # Occurrence split branches on x0 first, then x1: cube first
    # literals at depth 1 are mk_lit(0) / mk_lit(0, True).
    f = CnfFormula(4)
    f.add_clause([mk_lit(0), mk_lit(1)])
    f.add_clause([mk_lit(0, True), mk_lit(2)])
    f.add_clause([mk_lit(1, True), mk_lit(3)])
    conq = CubeConqueror([backend], jobs=jobs, depth=depth, mode="occurrence")
    return conq.run(f, timeout_s=10)


# -- equivalence with the uncubed solve ------------------------------------


@pytest.mark.parametrize("mode", ["occurrence", "lookahead"])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_verdict_matches_uncubed_solve(mode, jobs, depth):
    instances = [
        sat_micro(),
        random_ksat(12, 30, seed=4),
        pigeonhole(4),
        random_ksat(10, 60, seed=2),
    ]
    for formula in instances:
        reference = CdclBackend("minisat").solve(
            formula, stop=stop_rule(time.monotonic() + 20)).status
        assert reference is not None
        conq = CubeConqueror(
            [CdclBackend("minisat"), CdclBackend("cms", seed=1)],
            jobs=jobs, depth=depth, mode=mode,
        )
        outcome = conq.run(formula, timeout_s=20)
        assert outcome.verdict is reference
        if outcome.verdict is True:
            _check_model(formula, outcome.model)


def test_xor_instance_verdicts_and_models():
    # Cubes as assumptions must survive the per-backend XOR handling
    # (expansion for minisat, native engine for cms).
    f = CnfFormula(6)
    f.add_xor([0, 1, 2], 1)
    f.add_xor([2, 3, 4], 0)
    f.add_clause([mk_lit(5)])
    for spec in ("minisat", "cms"):
        conq = CubeConqueror([CdclBackend(spec)], jobs=1, depth=2)
        outcome = conq.run(f, timeout_s=20)
        assert outcome.verdict is True, spec
        _check_model(f, outcome.model)


# -- first-SAT early exit ---------------------------------------------------


def test_first_sat_cancels_sibling_cubes():
    # Sequential schedule: cube 0 is SAT, so every later cube must come
    # back cancelled without real work.
    conq = CubeConqueror([CdclBackend("minisat")], jobs=1, depth=2,
                         mode="occurrence")
    outcome = conq.run(sat_micro(), timeout_s=20)
    assert outcome.verdict is True
    assert outcome.sat_cube == outcome.stats[0].cube
    assert outcome.stats[0].status == "sat"
    assert [s.status for s in outcome.stats[1:]] == [STATUS_CANCELLED] * 3
    assert sum(s.cancelled for s in outcome.stats) == 3


def test_parallel_run_still_returns_every_cube_slot():
    conq = CubeConqueror([CdclBackend("minisat")], jobs=2, depth=2,
                         mode="occurrence")
    outcome = conq.run(sat_micro(), timeout_s=20)
    assert outcome.verdict is True
    assert len(outcome.stats) == outcome.n_cubes == 4
    _check_model(sat_micro(), outcome.model)


# -- UNSAT aggregation ------------------------------------------------------


def test_unsat_needs_every_cube_refuted():
    # Two cubes: one refuted, one unknown — an open piece of the
    # partition, so no verdict.
    script = ScriptedBackend({mk_lit(0): (("status", None),)}, REFUTED)
    outcome = _run_scripted(script, depth=1)
    assert outcome.verdict is None
    assert sorted(s.status for s in outcome.stats) == sorted(
        [STATUS_UNSAT, "unknown"])


def test_unsat_when_all_cubes_refuted():
    outcome = _run_scripted(ScriptedBackend({}, REFUTED), depth=2)
    assert outcome.verdict is False
    assert not outcome.global_unsat
    assert len(outcome.stats) == 4
    assert all(s.status == STATUS_UNSAT for s in outcome.stats)
    assert all(s.assumption_failure for s in outcome.stats)


def test_split_that_closes_every_branch_answers_unsat():
    # (x|y)(x|-y)(-x|z)(-x|-z): lookahead closes both branches of x at
    # split time, so no cube is left and the partition is exhausted.
    f = parse_dimacs("p cnf 3 4\n1 2 0\n1 -2 0\n-1 3 0\n-1 -3 0\n")
    outcome = CubeConqueror(["minisat"], jobs=1, depth=2).run(f)
    assert outcome.n_cubes == 0 and outcome.n_refuted_at_split == 2
    assert outcome.verdict is False
    assert not outcome.global_unsat
    assert outcome.stats == []


def test_global_refutation_shortcut_skips_remaining_cubes():
    # Cube 0 refutes the formula *globally* (assumption_failure False):
    # the run stops, siblings are cancelled, verdict is UNSAT even
    # though they never really ran.
    script = ScriptedBackend({mk_lit(0): (("status", False),)}, REFUTED)
    outcome = _run_scripted(script, depth=2)
    assert outcome.verdict is False
    assert outcome.global_unsat
    assert outcome.stats[0].status == STATUS_UNSAT
    assert not outcome.stats[0].assumption_failure
    assert all(s.status == STATUS_CANCELLED for s in outcome.stats[1:])


def test_error_cube_blocks_unsat_but_not_the_run():
    script = ScriptedBackend({mk_lit(0): "raise"}, REFUTED)
    outcome = _run_scripted(script, depth=1)
    assert outcome.verdict is None
    assert outcome.stats[0].status == STATUS_ERROR
    assert "scripted failure" in outcome.stats[0].error
    assert outcome.stats[1].status == STATUS_UNSAT


def test_sat_and_global_unsat_raise_disagreement():
    script = ScriptedBackend(
        {
            mk_lit(0): (("status", True), ("model", [1, 1, 1, 1])),
            mk_lit(0, True): (("status", False),),
        },
        REFUTED,
        honour_cancel=False,
    )
    # Two slots start both cubes before either answer is read, and
    # neither honours the cancel: both definitive answers reach
    # aggregation.
    with pytest.raises(PortfolioDisagreement):
        _run_scripted(script, depth=1, jobs=2)


# -- model validation -------------------------------------------------------


class LyingCubeBackend(SolverBackend):
    name = "liar"

    def solve(self, formula, conflict_budget=None, stop=None,
              assumptions=()):
        return BackendResult(True, model=[0] * formula.n_vars)


def test_invalid_model_is_demoted_and_the_race_continues():
    f = CnfFormula(2)
    f.add_clause([mk_lit(0), mk_lit(1)])

    def validate(bits):
        return any(bits)

    # Round-robin: cube 0 -> liar (demoted), cube 1 -> minisat (wins).
    conq = CubeConqueror([LyingCubeBackend(), CdclBackend("minisat")],
                         jobs=1, depth=1, validate=validate)
    outcome = conq.run(f, timeout_s=10)
    assert outcome.verdict is True
    assert outcome.winner == "minisat"
    assert outcome.stats[0].status == STATUS_INVALID_MODEL
    assert validate(outcome.model)


def test_lying_backend_alone_yields_no_verdict():
    f = CnfFormula(2)
    f.add_clause([mk_lit(0), mk_lit(1)])
    conq = CubeConqueror([LyingCubeBackend()], jobs=1, depth=1,
                         validate=lambda bits: any(bits))
    outcome = conq.run(f, timeout_s=10)
    assert outcome.verdict is None
    assert all(s.status == STATUS_INVALID_MODEL for s in outcome.stats)


# -- external backends ------------------------------------------------------


def test_dimacs_backend_cubes_ride_as_unit_clauses(tmp_path):
    # The script copies its input aside; the cube must appear as
    # appended unit clauses, and its UNSAT answers must never trigger
    # the global shortcut (assumption_failure is conservative).
    captured = tmp_path / "captured.cnf"
    script = tmp_path / "fakeunsat"
    script.write_text(
        "#!/bin/sh\ncp \"$1\" {}\nexit 20\n".format(captured)
    )
    script.chmod(0o755)
    backend = DimacsBackend(command=(str(script),))
    conq = CubeConqueror([backend], jobs=1, depth=1, mode="occurrence")
    outcome = conq.run(pigeonhole(3), timeout_s=10)
    assert outcome.verdict is False
    assert not outcome.global_unsat  # every cube individually refuted
    assert all(s.status == STATUS_UNSAT for s in outcome.stats)
    assert all(s.assumption_failure for s in outcome.stats)
    lines = [l for l in captured.read_text().splitlines()
             if l and not l.startswith(("c", "p"))]
    assert any(len(l.split()) == 2 and l.endswith(" 0") for l in lines)


# -- guards -----------------------------------------------------------------


def test_requires_backends():
    with pytest.raises(ValueError):
        CubeConqueror([])


def test_backend_specs_are_resolved():
    conq = CubeConqueror(["minisat", "cms@2"], jobs=1, depth=1)
    assert [b.name for b in conq.backends] == ["minisat", "cms@2"]
    assert conq.run(sat_micro(), timeout_s=10).verdict is True


def test_unavailable_backends_yield_no_verdict():
    conq = CubeConqueror(
        [DimacsBackend(command=("no-such-binary",))], jobs=1, depth=1
    )
    outcome = conq.run(sat_micro(), timeout_s=5)
    assert outcome.verdict is None and not outcome.stats