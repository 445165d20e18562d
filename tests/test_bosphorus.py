"""End-to-end tests for the Bosphorus workflow (paper sections II-E, III)."""

from repro.anf import Ring, parse_system
from repro.core import (
    Bosphorus,
    Config,
    preprocess_anf,
    preprocess_cnf,
    STATUS_SAT,
    STATUS_UNKNOWN,
    STATUS_UNSAT,
)
from repro.sat import CnfFormula, Solver, mk_lit
from repro.sat.dimacs import parity_clauses
from repro.sat.types import TRUE

PAPER_EXAMPLE = """
x1*x2 + x3 + x4 + 1
x1*x2*x3 + x1 + x3 + 1
x1*x3 + x3*x4*x5 + x3
x2*x3 + x3*x5 + 1
x2*x3 + x5 + 1
"""


def test_paper_example_solves_to_unique_solution():
    ring, polys = parse_system(PAPER_EXAMPLE)
    result = Bosphorus().preprocess_anf(ring, polys)
    assert result.status == STATUS_SAT
    assert result.solution is not None
    assert result.solution.values[1:6] == [1, 1, 1, 1, 0]


def test_paper_example_processed_anf_is_system_2():
    """The processed ANF must be the paper's system (2): five units."""
    ring, polys = parse_system(PAPER_EXAMPLE)
    cfg = Config(stop_on_solution=False)
    result = Bosphorus(cfg).preprocess_anf(ring, polys)
    processed = {p.to_string() for p in result.processed_anf}
    assert {"x1 + 1", "x2 + 1", "x3 + 1", "x4 + 1", "x5"} <= processed


def test_solution_satisfies_original_system():
    ring, polys = parse_system(PAPER_EXAMPLE)
    result = Bosphorus().preprocess_anf(ring, polys)
    assert result.solution.satisfies(polys)


def test_unsat_input_detected():
    ring, polys = parse_system("x1\nx1 + 1")
    result = Bosphorus().preprocess_anf(ring, polys)
    assert result.status == STATUS_UNSAT


def test_unsat_through_learning():
    # x1+x2=1, x2+x3=1, x1+x3=1 is an odd parity cycle: UNSAT via GJE.
    ring, polys = parse_system("x1 + x2 + 1\nx2 + x3 + 1\nx1 + x3 + 1")
    result = Bosphorus().preprocess_anf(ring, polys)
    assert result.status == STATUS_UNSAT


def test_trivially_empty_system_is_fixed_point():
    result = Bosphorus().preprocess_anf(Ring(3), [])
    assert result.status != STATUS_UNSAT
    assert result.iterations <= 2


def test_facts_have_sources():
    ring, polys = parse_system(PAPER_EXAMPLE)
    result = Bosphorus(Config(stop_on_solution=False)).preprocess_anf(ring, polys)
    summary = result.facts.summary()
    assert sum(summary.values()) == len(result.facts)
    assert "xl" in summary  # XL learns facts on the paper example


def test_all_facts_sound_on_paper_example():
    ring, polys = parse_system(PAPER_EXAMPLE)
    result = Bosphorus(Config(stop_on_solution=False)).preprocess_anf(ring, polys)
    # Unique solution: x1..x4=1, x5=0.
    solution = [0, 1, 1, 1, 1, 0]
    for fact in result.facts.polynomials():
        padded = solution + [0] * 10
        assert fact.evaluate(padded) == 0, fact


def test_techniques_can_be_disabled():
    ring, polys = parse_system(PAPER_EXAMPLE)
    cfg = Config(use_xl=False, use_elimlin=False)
    result = Bosphorus(cfg).preprocess_anf(ring, polys)
    assert result.status in (STATUS_SAT, "unknown")


def test_groebner_technique_optional():
    ring, polys = parse_system("x1*x2 + 1\nx2 + x3")
    cfg = Config(use_groebner=True, use_sat=False, use_xl=False, use_elimlin=False)
    result = Bosphorus(cfg).preprocess_anf(ring, polys)
    # Buchberger alone derives the units.
    assert result.status != STATUS_UNSAT
    assert result.system.state.value(1) == 1


def test_output_cnf_solvable_to_same_answer():
    ring, polys = parse_system(PAPER_EXAMPLE)
    result = Bosphorus(Config(stop_on_solution=False)).preprocess_anf(ring, polys)
    solver = Solver()
    solver.ensure_vars(result.cnf.n_vars)
    for clause in result.cnf.clauses:
        solver.add_clause(clause)
    assert solver.solve() is True
    model = [1 if v == TRUE else 0 for v in solver.model]
    assert model[1:6] == [1, 1, 1, 1, 0]


def test_max_iterations_respected():
    ring, polys = parse_system(PAPER_EXAMPLE)
    result = Bosphorus(Config(max_iterations=1, stop_on_solution=False)).preprocess_anf(
        ring, polys
    )
    assert result.iterations == 1


# -- CNF preprocessor mode (paper section III-D) ---------------------------------


def _xor_cnf(formula, variables, rhs):
    for clause in parity_clauses(variables, rhs):
        formula.add_clause(clause)


def test_cnf_preprocessing_detects_parity_unsat():
    """An odd XOR cycle is UNSAT; Bosphorus finds it algebraically."""
    formula = CnfFormula(3)
    _xor_cnf(formula, [0, 1], 1)
    _xor_cnf(formula, [1, 2], 1)
    _xor_cnf(formula, [0, 2], 1)
    result = preprocess_cnf(formula)
    assert result.status == STATUS_UNSAT
    assert result.augmented_cnf is not None
    assert [] in result.augmented_cnf.clauses


def test_cnf_preprocessing_sat_instance():
    formula = CnfFormula(3)
    formula.add_clause([mk_lit(0)])
    formula.add_clause([mk_lit(0, True), mk_lit(1)])
    formula.add_clause([mk_lit(1, True), mk_lit(2, True)])
    result = preprocess_cnf(formula)
    assert result.status in (STATUS_SAT, "unknown")
    if result.solution is not None:
        assert len(result.solution.values) == 3
        bits = result.solution.values
        for clause in formula.clauses:
            assert any(bits[l >> 1] ^ (l & 1) for l in clause)


def test_augmented_cnf_contains_original_clauses():
    formula = CnfFormula(3)
    formula.add_clause([mk_lit(0), mk_lit(1)])
    result = preprocess_cnf(formula)
    if result.status == STATUS_UNSAT:
        return
    assert [mk_lit(0), mk_lit(1)] in result.augmented_cnf.clauses


def test_augmented_cnf_equisatisfiable():
    formula = CnfFormula(4)
    _xor_cnf(formula, [0, 1, 2], 1)
    formula.add_clause([mk_lit(3)])
    result = preprocess_cnf(formula)
    solver = Solver()
    aug = result.augmented_cnf
    solver.ensure_vars(aug.n_vars)
    ok = True
    for c in aug.clauses:
        ok = solver.add_clause(c) and ok
    verdict = solver.solve() if ok else False
    assert verdict is True  # the original formula is satisfiable


def test_convenience_wrappers():
    ring, polys = parse_system("x1 + 1")
    result = preprocess_anf(ring, polys)
    assert result.status != STATUS_UNSAT


def test_result_reports_run_wide_karnaugh_cache_stats():
    """The shared converter's cache counters are summed over every
    conversion of the run (inner-SAT iterations + the final CNF), not
    just the last one."""
    ring, polys = parse_system(PAPER_EXAMPLE)
    # SAT-only so the inner conversions actually see Karnaugh chunks
    # (XL solves this system outright before any conversion runs).
    cfg = Config(
        use_xl=False, use_elimlin=False, stop_on_solution=False
    )
    result = Bosphorus(cfg).preprocess_anf(ring, polys)
    hits = result.stats["karnaugh_cache_hits"]
    misses = result.stats["karnaugh_cache_misses"]
    assert misses >= 1  # something was minimised during the run
    final = result.conversion.stats
    assert hits >= final.karnaugh_cache_hits
    # The first inner-SAT conversion runs cold, so its misses must show
    # in the run-wide total even when the final conversion (warm cache,
    # or an all-units system) reports none.
    assert misses >= final.karnaugh_cache_misses
    assert (hits + misses) > (
        final.karnaugh_cache_hits + final.karnaugh_cache_misses
    )


# -- result.stats schema (repro.obs.schema) ---------------------------------


def test_result_stats_keys_are_all_declared():
    """Every key a preprocessing run emits — top-level and per-iteration
    technique entries — is declared in the frozen schema, so dashboards
    and downstream parsers can rely on the key set."""
    from repro.obs import undeclared_stats_keys

    ring, polys = parse_system(PAPER_EXAMPLE)
    cfg = Config(use_groebner=True, use_probing=True, stop_on_solution=False)
    result = Bosphorus(cfg).preprocess_anf(ring, polys)
    assert undeclared_stats_keys(result.stats) == []


#: Four iterations in which XL, Groebner and probing each learn facts.
LEARNER_MIX = """
x2*x3*x6 + x2*x4*x6 + x3*x4*x7 + x3*x6 + 1
x2*x7 + x5*x7 + x6*x7
x1*x3 + x2*x4*x6 + x3*x6
x2*x5*x7 + x3 + x3*x5*x6 + 1
"""


def test_each_iteration_runs_the_learners_in_order():
    """Every ``satlearn.iteration`` span has one child span per ANF
    learner, in loop order, whose ``facts`` attribute is the count the
    iteration's ``techniques`` stats entry reports for that learner."""
    from repro.obs import Tracer

    learners = ["xl", "elimlin", "groebner", "probing"]
    ring, polys = parse_system(LEARNER_MIX)
    tracer = Tracer()
    cfg = Config(use_groebner=True, use_probing=True, stop_on_solution=False)
    result = Bosphorus(cfg, tracer=tracer).preprocess_anf(ring, polys)
    spans = tracer.spans()
    iterations = [s for s in spans if s["name"] == "satlearn.iteration"]
    techniques = result.stats["techniques"]
    assert len(iterations) == len(techniques) == result.iterations >= 2
    for it_span, it_stats in zip(iterations, techniques):
        children = sorted(
            (s for s in spans
             if s["parent"] == it_span["id"] and s["name"] in learners),
            key=lambda s: s["t0"],
        )
        assert [s["name"] for s in children] == learners
        for child in children:
            assert child["attrs"]["facts"] == it_stats[child["name"] + "_facts"]
    for name in ("xl", "groebner", "probing"):
        assert sum(t[name + "_facts"] for t in techniques) > 0


def test_augmented_cnf_stats_keys_are_all_declared():
    from repro.obs import undeclared_stats_keys

    formula = CnfFormula(3)
    _xor_cnf(formula, [0, 1, 2], 1)
    result = preprocess_cnf(formula)
    assert undeclared_stats_keys(result.stats) == []


def test_early_exit_run_still_reports_conversion_stats():
    """Regression: a run that exits mid-iteration (solution found by the
    inner SAT step, stop_on_solution) must still report the conversion
    cache counters of the conversions it performed — the old manual
    accumulation only ran on the fixed-point path and dropped them."""
    ring, polys = parse_system(PAPER_EXAMPLE)
    # SAT-only: the first iteration's inner-SAT conversion runs cold,
    # then the solver finds the unique solution and the loop early-exits.
    cfg = Config(use_xl=False, use_elimlin=False, stop_on_solution=True)
    result = Bosphorus(cfg).preprocess_anf(ring, polys)
    assert result.status == STATUS_SAT
    counted = (
        result.stats["karnaugh_cache_hits"]
        + result.stats["karnaugh_cache_misses"]
        + result.stats["conversion_disk_hits"]
    )
    assert counted >= 1


def test_unsat_exit_still_reports_conversion_stats():
    """The contradiction exit path reports conversion counters too."""
    ring, polys = parse_system(
        "x1*x2 + x3\nx1 + x2 + x3 + 1\nx1*x3 + x2 + 1\nx1 + 1\nx2\nx3 + 1"
    )
    cfg = Config(use_xl=False, use_elimlin=False)
    result = Bosphorus(cfg).preprocess_anf(ring, polys)
    for key in (
        "karnaugh_cache_hits",
        "karnaugh_cache_misses",
        "karnaugh_disk_hits",
        "conversion_disk_hits",
    ):
        assert key in result.stats  # present (and schema-typed) on UNSAT too


# -- the caller's stop predicate -------------------------------------------------


def _dimacs_sha256(formula):
    import hashlib
    import io

    from repro.sat.dimacs import write_dimacs

    buf = io.StringIO()
    write_dimacs(buf, formula)
    return hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest()


def test_stop_that_holds_ends_the_run_without_a_cnf():
    from repro.ciphers import simon
    from repro.obs import Tracer

    inst = simon.generate_instance(1, 5, seed=1)
    tracer = Tracer()
    result = Bosphorus(Config(), tracer=tracer).preprocess_anf(
        inst.ring, inst.polynomials, stop=lambda: True
    )
    assert result.status == STATUS_UNKNOWN
    assert result.cnf is None
    assert "sat.solve" not in {s["name"] for s in tracer.spans()}


def test_stop_that_never_holds_leaves_the_run_unchanged():
    # A stop predicate only reads: asking it before every step and after
    # every conflict must not change what the run learns or emits.
    from repro.ciphers import simon

    inst = simon.generate_instance(1, 5, seed=1)
    config = Config(stop_on_solution=False)

    def run(stop):
        return Bosphorus(config).preprocess_anf(
            inst.ring.clone(), list(inst.polynomials), stop=stop
        )

    plain, watched = run(None), run(lambda: False)
    assert watched.status == plain.status
    assert list(watched.facts) == list(plain.facts)
    assert watched.stats["techniques"] == plain.stats["techniques"]
    assert any(t["sat_conflicts"] for t in plain.stats["techniques"])
    assert _dimacs_sha256(watched.cnf) == _dimacs_sha256(plain.cnf)
