"""The incremental fact-learning loop.

A Bosphorus run converts in one :class:`ConversionSession` (one CNF
numbering, a per-polynomial clause memo) and feeds each conversion's new
clauses to one warm CDCL solver.  These tests pin the session's
contract, the persistent cache's history keys, the per-call accounting,
the in-process model check, and — against brute force — that the loop
stays sound over many iterations.
"""

import itertools
import random

import pytest

from repro.anf import AnfSystem, Poly, Ring, parse_system
from repro.core import Bosphorus, Config, run_sat
from repro.core.anf_to_cnf import AnfToCnf
from repro.core.cnf_to_anf import cnf_to_anf
from repro.core.solution import reconstruct_model
from repro.obs import Tracer
from repro.sat import SAT, Solver, SolverConfig, UNSAT
from repro.satcomp.generators import pigeonhole
from repro.satcomp.suite import build_suite
from repro.server.jobs import JobSpec, execute_job

#: Small K and L, so systems this size need monomial and cut auxiliaries.
SMALL_KL = Config(karnaugh_limit=3, xor_cut_len=3)

#: The service workload's job configuration (perfbench ``FAST_CONFIG``).
FAST = dict(
    xl_sample_bits=12,
    elimlin_sample_bits=12,
    sat_conflict_start=1000,
    sat_conflict_step=1000,
    sat_conflict_max=5000,
    max_iterations=4,
)

N = 10


def _system(text):
    ring, polys = parse_system(text)
    return AnfSystem(ring, polys)


def _random_polys(seed, n=N, m=8, terms=6, deg=3):
    rng = random.Random(seed)
    polys = []
    while len(polys) < m:
        monomials = {
            tuple(sorted(rng.sample(range(n), rng.randint(1, deg))))
            for _ in range(rng.randint(2, terms))
        }
        if rng.random() < 0.5:
            monomials.add(())
        p = Poly(list(monomials))
        if not p.is_zero() and not p.is_one():
            polys.append(p)
    return polys


def _brute_solutions(polys, n=N):
    return [
        list(bits)
        for bits in itertools.product([0, 1], repeat=n)
        if all(p.evaluate(list(bits)) == 0 for p in polys)
    ]


def _projected_models(formula, n, conversion=None):
    """Every model of ``formula`` restricted to variables ``0..n-1``;
    each one must also reconstruct strictly through ``conversion``."""
    solver = Solver()
    solver.ensure_vars(formula.n_vars)
    solver.add_clauses(formula.clauses)
    assert not formula.xors
    models = set()
    while solver.solve() is SAT:
        if conversion is not None:
            reconstruct_model(conversion, solver.model)
        bits = tuple(1 if solver.model[v] == 1 else 0 for v in range(n))
        models.add(bits)
        # Block this projection: some original variable must differ.
        solver.add_clause([2 * v + bits[v] for v in range(n)])
    return models


def _sat_spans(tracer):
    return [s["attrs"] for s in tracer.spans() if s["name"] == "sat.solve"]


# -- the conversion session ---------------------------------------------------


def test_first_delta_is_the_whole_formula():
    # A session's first conversion is the one-shot formula (pinned
    # against the seed oracle in test_anf_to_cnf.py); all of it is new.
    text = "x0*x1*x2 + x3*x4 + x5 + x1*x4 + x2 + 1\nx0*x5 + x3 + x2*x4\n"
    conv = AnfToCnf(SMALL_KL).session().convert(_system(text))
    assert conv.stats.monomial_vars and conv.stats.cut_vars
    assert conv.delta.clauses == conv.formula.clauses
    assert conv.stats.memo_hits == 0


def test_session_keeps_numbering_and_emits_only_new_clauses():
    session = AnfToCnf(SMALL_KL).session()
    shared = "x0*x1*x2 + x3*x4 + x5 + x1*x4 + x2 + 1\n"
    first = session.convert(_system(shared + "x0*x5 + x3 + x2*x4\n"))
    monomials = dict(first.var_of_monomial)
    cuts = set(first.cut_vars)
    seen = {tuple(c) for c in first.formula.clauses}
    end_of_first = first.formula.n_vars

    system = _system(shared + "x2*x3 + x1*x4 + x0\n")
    system.state.assign(5, 1)
    second = session.convert(system)
    # A monomial keeps its variable; auxiliaries never get renumbered.
    for m, v in monomials.items():
        assert second.var_of_monomial[m] == v
    assert cuts <= second.cut_vars
    assert all(v >= end_of_first for v in second.cut_vars - cuts)
    assert second.stats.memo_hits == 1  # the shared polynomial
    # The delta is exactly the full formula's clauses not emitted before.
    new = [c for c in second.formula.clauses if tuple(c) not in seen]
    assert {tuple(c) for c in second.delta.clauses} == {tuple(c) for c in new}
    assert [5 * 2] in second.delta.clauses  # the new unit x5 = 1
    assert not any(tuple(c) in seen for c in second.delta.clauses)


@pytest.mark.parametrize("seed", range(6))
def test_later_full_formula_has_the_systems_models(seed):
    # conversion.final's contract: a session's later conversion still
    # returns the whole system's CNF, whose models projected on the ANF
    # variables are exactly the system's solutions — and every monomial
    # variable in its maps, even one only an earlier system used, is
    # defined, so each model reconstructs strictly.
    polys = _random_polys(seed, m=6)
    session = AnfToCnf(SMALL_KL).session()
    session.convert(AnfSystem(Ring(N), _random_polys(seed + 100, m=6)))
    later = session.convert(AnfSystem(Ring(N), polys))
    want = {tuple(s) for s in _brute_solutions(polys)}
    assert _projected_models(later.formula, N, later) == want


def test_session_rejects_a_different_variable_count():
    session = AnfToCnf().session()
    session.convert(AnfSystem(Ring(4), [Poly([(0, 1)])]))
    with pytest.raises(ValueError):
        session.convert(AnfSystem(Ring(5), [Poly([(0, 1)])]))


# -- the persistent cache keys sessions by history ---------------------------


def _cached_session(tmp_path):
    return AnfToCnf(SMALL_KL.with_(cache_dir=str(tmp_path))).session()


def test_same_system_from_different_histories_shares_no_entry(tmp_path):
    s1 = AnfSystem(Ring(N), _random_polys(1))
    s2 = AnfSystem(Ring(N), _random_polys(2))
    target = _random_polys(3)

    a = _cached_session(tmp_path)
    a.convert(s1)
    via_s1 = a.convert(AnfSystem(Ring(N), target))
    assert via_s1.stats.conversion_disk_hits == 0

    b = _cached_session(tmp_path)
    b.convert(s2)
    via_s2 = b.convert(AnfSystem(Ring(N), target))
    # Same system, different allocator history: a miss, converted afresh
    # exactly as an uncached session would.
    assert via_s2.stats.conversion_disk_hits == 0
    plain = AnfToCnf(SMALL_KL).session()
    plain.convert(s2)
    assert (
        via_s2.formula.clauses
        == plain.convert(AnfSystem(Ring(N), target)).formula.clauses
    )

    # Replaying A's history hits both entries, bit for bit.
    c = _cached_session(tmp_path)
    assert c.convert(s1).stats.conversion_disk_hits == 1
    again = c.convert(AnfSystem(Ring(N), target))
    assert again.stats.conversion_disk_hits == 1
    assert again.formula.clauses == via_s1.formula.clauses
    assert again.delta.clauses == via_s1.delta.clauses
    # A miss after replayed hits continues the same numbering.
    fresh = AnfSystem(Ring(N), _random_polys(4))
    after_hits = c.convert(fresh)
    assert after_hits.stats.conversion_disk_hits == 0
    replay = AnfToCnf(SMALL_KL).session()
    replay.convert(s1)
    replay.convert(AnfSystem(Ring(N), target))
    expected = replay.convert(fresh)
    assert after_hits.formula.clauses == expected.formula.clauses
    assert after_hits.delta.clauses == expected.delta.clauses


def _loop_config(**extra):
    return Config(
        use_xl=False,
        use_elimlin=False,
        stop_on_solution=False,
        sat_conflict_start=1,
        sat_conflict_step=1,
        sat_conflict_max=4,
        max_iterations=12,
        karnaugh_limit=3,
        xor_cut_len=3,
    ).with_(**extra)


def test_warm_rerun_hits_every_conversion_bit_for_bit(tmp_path):
    formula = pigeonhole(5)
    config = _loop_config(
        use_xl=True, use_elimlin=True, sat_conflict_start=5,
        sat_conflict_step=5, sat_conflict_max=20, max_iterations=4,
        cache_dir=str(tmp_path),
    )
    cold = Bosphorus(config).preprocess_cnf(formula)
    assert cold.iterations >= 3 and not cold.is_unsat
    warm = Bosphorus(config).preprocess_cnf(formula)
    # Every loop iteration, the final conversion and the CNF
    # augmentation load from disk.
    assert warm.stats["conversion_disk_hits"] == cold.iterations + 2
    assert warm.stats["karnaugh_cache_misses"] == 0
    assert warm.status == cold.status
    assert warm.stats["techniques"] == cold.stats["techniques"]
    assert warm.cnf.clauses == cold.cnf.clauses


# -- per-call accounting and the model check ---------------------------------


def test_per_call_conflicts_add_up_to_the_solver_total():
    anf = cnf_to_anf(pigeonhole(6))
    system = AnfSystem(anf.ring, anf.polynomials)
    session = AnfToCnf(Config()).session()
    budgets = [40, 80, 120, 160]
    results = [run_sat(system, Config(), b, session=session) for b in budgets]
    for result, budget in zip(results, budgets):
        assert 0 < result.conflicts <= budget
    assert sum(r.conflicts for r in results) == session.solver.num_conflicts


def test_loop_iterations_report_deltas_within_their_budgets():
    tracer = Tracer()
    config = Config(
        sat_conflict_start=100, sat_conflict_step=100,
        sat_conflict_max=300, max_iterations=4,
    )
    result = Bosphorus(config, tracer=tracer).preprocess_cnf(pigeonhole(6))
    spans = _sat_spans(tracer)
    assert len(spans) >= 2
    for attrs in spans:
        assert 0 < attrs["conflicts"] <= attrs["budget"]
        for name in ("decisions", "propagations", "learnts"):
            assert attrs[name] > 0
        assert "restarts" in attrs
    reported = [t["sat_conflicts"] for t in result.stats["techniques"]]
    assert reported == [attrs["conflicts"] for attrs in spans][: len(reported)]


def test_invalid_in_process_model_raises():
    system = _system("x0*x1 + 1\nx2\n")
    config = Config(karnaugh_limit=1)
    session = AnfToCnf(config).session()
    convert = session.convert

    def corrupted(system):
        conversion = convert(system)
        y = conversion.var_of_monomial[(0, 1)]
        conversion.monomial_of_var[y] = (0, 2)  # x2 = 0, so y = 1 is wrong
        return conversion

    session.convert = corrupted
    with pytest.raises(RuntimeError, match="soundness"):
        run_sat(system, config, session=session)
    # The same system with the true map is accepted.
    assert run_sat(system, config).status is SAT


# -- loop differential harness ------------------------------------------------

HARNESS_CONFIGS = {
    "xl-elimlin": (_loop_config(use_xl=True, use_elimlin=True), None),
    "seeded-inner": (
        _loop_config(use_xl=True, use_elimlin=True),
        SolverConfig(seed=7),
    ),
}


@pytest.mark.parametrize("mode", sorted(HARNESS_CONFIGS))
def test_loop_differential_against_brute_force(mode):
    config, inner = HARNESS_CONFIGS[mode]
    long_runs = 0
    for seed in range(24):
        polys = _random_polys(seed)
        solutions = _brute_solutions(polys)
        result = Bosphorus(config, inner_solver_config=inner).preprocess_anf(
            Ring(N), polys
        )
        long_runs += result.iterations >= 3
        if result.is_unsat:
            assert not solutions, (mode, seed)
            continue
        if result.solution is not None:
            assert result.solution.satisfies(polys), (mode, seed)
        for fact in result.facts.polynomials():
            for bits in solutions:
                assert fact.evaluate(bits) == 0, (mode, seed, fact)
        assert _projected_models(result.cnf, N, result.conversion) == {
            tuple(s) for s in solutions
        }, (mode, seed)
    assert long_runs >= 6, long_runs


def test_one_instance_two_runs_match_two_fresh_instances():
    config = _loop_config(use_xl=True, use_elimlin=True)
    first, second = _random_polys(5), _random_polys(6)
    reused = Bosphorus(config)
    got = [
        reused.preprocess_anf(Ring(N), first),
        reused.preprocess_anf(Ring(N), second),
    ]
    want = [
        Bosphorus(config).preprocess_anf(Ring(N), first),
        Bosphorus(config).preprocess_anf(Ring(N), second),
    ]
    for a, b in zip(got, want):
        assert a.status == b.status
        assert a.iterations == b.iterations
        assert a.processed_anf == b.processed_anf
        assert a.stats["techniques"] == b.stats["techniques"]
        assert a.cnf.clauses == b.cnf.clauses


# -- the mechanism, pinned ----------------------------------------------------


@pytest.mark.parametrize(
    "name, parent_conflicts",
    [("tseitin_n46_0", 10000), ("php_7", 2813)],
)
def test_warm_loop_refutes_inside_the_loop(name, parent_conflicts):
    # With a fresh solver per iteration the loop spent 1k+1,813
    # conflicts on php_7; the warm solver carries its learnt clauses
    # over.  The tseitin_n46_0 row no longer reaches the solver: CNF→ANF
    # recovers its parities, so algebra refutes it with 0 conflicts (see
    # test_tseitin_cnf_refuted_before_sat).
    instance = {
        s.name: s for s in build_suite(scale=1.0, per_family=1)
    }[name]
    tracer = Tracer()
    result = Bosphorus(Config().with_(**FAST), tracer=tracer).preprocess_cnf(
        instance.formula
    )
    assert result.is_unsat
    spent = sum(attrs["conflicts"] for attrs in _sat_spans(tracer))
    assert spent < parent_conflicts


def test_tseitin_cnf_refuted_before_sat():
    # tseitin_n46_0 is 46 parities encoded as 184 clauses.  CNF→ANF
    # recovers each parity as one linear polynomial, so the initial
    # propagation's GF(2) echelonisation refutes the formula before the
    # loop's first iteration, and no CDCL search runs.
    formula = {
        s.name: s for s in build_suite(scale=1.0, per_family=1)
    }["tseitin_n46_0"].formula
    config = Config().with_(**FAST)
    anf = cnf_to_anf(formula, config)
    assert len(anf.polynomials) == 46
    assert all(p.degree() == 1 for p in anf.polynomials)
    assert anf.ring.n_vars == formula.n_vars and not anf.cut_vars
    tracer = Tracer()
    result = Bosphorus(config, tracer=tracer).preprocess_cnf(formula)
    assert result.is_unsat
    assert result.iterations == 0
    assert not _sat_spans(tracer)


def test_job_solve_span_records_solver_counters():
    text = "p cnf 3 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 3 0\n"
    result = execute_job(
        JobSpec(fmt="dimacs", text=text, preprocess=False, trace=True)
    )
    (attrs,) = [s["attrs"] for s in result["spans"] if s["name"] == "job.solve"]
    assert attrs["verdict"] == "sat"
    assert attrs["propagations"] > 0 and attrs["decisions"] > 0
    assert "restarts" in attrs and "learnts" in attrs


def test_warm_solver_takes_new_clauses():
    # Two systems through one session: the second one's contradiction is
    # in its delta alone, and the converter emits clauses only.
    config = Config(karnaugh_limit=2)
    session = AnfToCnf(config).session()
    first = run_sat(_system("x0 + x1 + x2 + x3\n"), config, session=session)
    assert first.status is SAT
    assert first.conversion.delta.clauses and not first.conversion.delta.xors
    second = run_sat(
        _system("x0 + x1 + x2 + x3\nx0 + x1 + x2 + x3 + 1\n"),
        config,
        session=session,
    )
    assert second.status is UNSAT
