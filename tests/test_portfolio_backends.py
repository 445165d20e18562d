"""Backend conformance suite: every backend must honour the
SolverBackend contract on the same micro-instances.

The suite runs over the in-process personalities, a seed-diversified
copy, and every external DIMACS solver binary found on PATH (skipped
gracefully when none are installed) — exactly the guarantee the
portfolio engine relies on: correct SAT/UNSAT verdicts, valid models,
honoured wall-clock deadlines, and UNKNOWN (never a wrong answer) on
budget exhaustion.
"""

import shutil
import time

import pytest

from repro.portfolio import (
    PERSONALITIES,
    CdclBackend,
    DimacsBackend,
    create_backend,
    default_portfolio,
    stop_rule,
)
from repro.sat import CnfFormula, expand_xors, parse_dimacs
from repro.satcomp.generators import pigeonhole


#: External solver binaries the suite also runs when they are on PATH.
EXTERNAL_SOLVERS = (
    "cryptominisat5", "kissat", "cadical", "glucose", "minisat", "lingeling"
)


def conformance_specs():
    specs = ["minisat", "lingeling", "cms", "minisat@7", "cms@3"]
    specs += ["dimacs:" + prog for prog in EXTERNAL_SOLVERS if shutil.which(prog)]
    return specs


@pytest.fixture(params=conformance_specs())
def backend(request):
    instance = create_backend(request.param)
    if not instance.available():
        pytest.skip("backend unavailable: " + instance.name)
    return instance


def within(seconds):
    return stop_rule(time.monotonic() + seconds)


def sat_micro():
    return parse_dimacs("p cnf 3 3\n1 2 0\n-1 2 0\n-2 3 0\n")


def unsat_micro():
    return pigeonhole(4)


def _check_model(formula, model):
    assert model is not None
    assert len(model) == formula.n_vars
    for clause in formula.clauses:
        assert any(model[l >> 1] ^ (l & 1) == 1 for l in clause)


def test_registry_contains_personalities():
    assert {"minisat", "lingeling", "cms"} <= set(PERSONALITIES)
    for name in PERSONALITIES:
        assert create_backend(name).name == name


def test_conformance_covers_every_registered_backend():
    # Drift guard: adding a personality without adding it to the
    # conformance parameterization must fail loudly here, not silently
    # ship an untested personality.  A personality is covered when it
    # appears as a spec outright or as the base of an "@seed" spec.
    covered = {spec.split("@", 1)[0] for spec in conformance_specs()}
    missing = [name for name in PERSONALITIES if name not in covered]
    assert missing == [], (
        "personalities missing from the conformance suite: "
        + ", ".join(missing)
    )


def test_create_backend_rejects_garbage():
    with pytest.raises(ValueError):
        create_backend("no-such-backend")
    with pytest.raises(ValueError):
        create_backend("minisat@not-a-seed")
    with pytest.raises(ValueError):
        create_backend("dimacs:")


def test_default_portfolio_is_diverse():
    names = [b.name for b in default_portfolio(seed=0)]
    assert len(names) == len(set(names))
    assert {"minisat", "lingeling", "cms"} <= set(names)
    assert any("@" in n for n in names)  # a seed-diversified member


# -- the conformance contract, per backend ---------------------------------


def test_sat_verdict_and_model(backend):
    formula = sat_micro()
    result = backend.solve(formula, stop=within(20))
    assert result.status is True
    if isinstance(backend, CdclBackend):
        assert result.model is not None
    if result.model is not None:
        _check_model(formula, result.model)


def test_unsat_verdict(backend):
    result = backend.solve(unsat_micro(), stop=within(20))
    assert result.status is False


def test_xor_constraints_are_respected(backend):
    # x0^x1=1, x1^x2=1, x0^x2=1 is UNSAT; a backend without native XOR
    # support must expand rather than drop the x-lines.
    formula = CnfFormula(3)
    formula.add_xor([0, 1], 1)
    formula.add_xor([1, 2], 1)
    formula.add_xor([0, 2], 1)
    result = backend.solve(formula, stop=within(20))
    assert result.status is False


def test_timeout_is_honoured(backend):
    start = time.monotonic()
    result = backend.solve(pigeonhole(9), stop=within(0.3))
    elapsed = time.monotonic() - start
    assert result.status is None
    assert elapsed < 10.0


def test_past_deadline_returns_unknown_without_search(backend):
    result = backend.solve(
        pigeonhole(9), stop=stop_rule(time.monotonic() - 1.0)
    )
    assert result.status is None
    assert result.conflicts == 0


def test_budget_exhaustion_returns_unknown(backend):
    if isinstance(backend, DimacsBackend):
        pytest.skip("external binaries are wall-clock-bounded only")
    result = backend.solve(pigeonhole(9), conflict_budget=30)
    assert result.status is None
    assert result.conflicts <= 30 + 500  # one slice of overshoot at most


def test_assumptions_restrict_models(backend):
    # sat_micro leaves x0 free: a cube pinning either phase must be
    # honoured (natively in-process, as appended units over DIMACS).
    for lit, bit in ((0, 1), (1, 0)):  # mk_lit(0) / mk_lit(0, True)
        result = backend.solve(sat_micro(), stop=within(20), assumptions=[lit])
        assert result.status is True
        assert not result.assumption_failure
        if result.model is not None:
            assert result.model[0] == bit
            _check_model(sat_micro(), result.model)


def test_cube_unsat_is_flagged_assumption_relative(backend):
    # sat_micro forces x1; assuming its negation refutes the *cube*, not
    # the formula — every backend must flag the UNSAT as
    # assumption-relative so a cube scheduler never misreads it.
    result = backend.solve(sat_micro(), stop=within(20), assumptions=[3])
    assert result.status is False
    assert result.assumption_failure


def test_plain_unsat_carries_no_assumption_flag(backend):
    result = backend.solve(unsat_micro(), stop=within(20))
    assert result.status is False
    assert not result.assumption_failure


def test_lingeling_assumptions_bypass_bve():
    # BVE may eliminate an assumed variable; under a cube the lingeling
    # personality must solve unpreprocessed and still honour the cube.
    backend = CdclBackend("lingeling")
    result = backend.solve(sat_micro(), stop=within(20), assumptions=[1])
    assert result.status is True and result.model[0] == 0
    result = backend.solve(sat_micro(), stop=within(20), assumptions=[3])
    assert result.status is False and result.assumption_failure


def test_backends_are_picklable(backend):
    import pickle

    clone = pickle.loads(pickle.dumps(backend))
    assert clone.name == backend.name


# -- the DIMACS adapter, without needing a real binary ---------------------


def test_dimacs_backend_unavailable_is_graceful(tmp_path):
    backend = create_backend("dimacs:definitely-not-a-solver-binary")
    assert not backend.available()
    result = backend.solve(sat_micro(), stop=within(5))
    assert result.status is None
    assert result.error


def test_dimacs_backend_against_scripted_solver(tmp_path):
    # A stand-in external solver: a shell script answering in
    # SAT-competition format, proving the write→run→parse loop.
    script = tmp_path / "fakesolver"
    script.write_text(
        "#!/bin/sh\n"
        "echo 'c fake solver'\n"
        "echo 's SATISFIABLE'\n"
        "echo 'v 1 -2 3 0'\n"
        "exit 10\n"
    )
    script.chmod(0o755)
    backend = DimacsBackend(command=(str(script),))
    assert backend.available()
    result = backend.solve(CnfFormula(3), stop=within(5))
    assert result.status is True
    assert result.model == [1, 0, 1]


def test_dimacs_backend_embedded_cnf_placeholder(tmp_path):
    # Regression: "--input={cnf}" must not grow a duplicate positional
    # path argument (solvers rejecting extra operands would fail).
    script = tmp_path / "fakestrict"
    script.write_text(
        "#!/bin/sh\n"
        "[ $# -eq 1 ] || exit 1\n"
        "case \"$1\" in --input=*.cnf) ;; *) exit 1 ;; esac\n"
        "echo 's UNSATISFIABLE'\n"
        "exit 20\n"
    )
    script.chmod(0o755)
    backend = DimacsBackend(command=(str(script), "--input={cnf}"))
    result = backend.solve(CnfFormula(2), stop=within(5))
    assert result.status is False


def test_dimacs_backend_drains_large_output(tmp_path):
    # Regression: output beyond the 64 KB pipe buffer used to deadlock
    # the poll loop (the child blocks writing, the parent never reads),
    # turning a millisecond SAT answer into a timeout kill.
    script = tmp_path / "fakeverbose"
    script.write_text(
        "#!/bin/sh\n"
        "i=0\n"
        "while [ $i -lt 4000 ]; do\n"
        "  echo 'c padding padding padding padding padding padding padding'\n"
        "  i=$((i+1))\n"
        "done\n"
        "echo 's SATISFIABLE'\n"
        "echo 'v 1 2 0'\n"
        "exit 10\n"
    )
    script.chmod(0o755)
    backend = DimacsBackend(command=(str(script),))
    start = time.monotonic()
    result = backend.solve(CnfFormula(2), stop=within(20))
    assert time.monotonic() - start < 15.0
    assert result.status is True
    assert result.model == [1, 1]


def test_dimacs_backend_parses_unsat_exit_code(tmp_path):
    script = tmp_path / "fakeunsat"
    script.write_text("#!/bin/sh\nexit 20\n")
    script.chmod(0o755)
    backend = DimacsBackend(command=(str(script),))
    result = backend.solve(CnfFormula(2), stop=within(5))
    assert result.status is False


def test_dimacs_backend_kills_on_timeout(tmp_path):
    script = tmp_path / "fakesleep"
    script.write_text("#!/bin/sh\nsleep 30\n")
    script.chmod(0o755)
    backend = DimacsBackend(command=(str(script),))
    start = time.monotonic()
    result = backend.solve(CnfFormula(2), stop=within(0.3))
    assert result.status is None
    assert time.monotonic() - start < 5.0


def test_expand_xors_preserves_models():
    # Every model of the expanded CNF, restricted to the original
    # variables, has the right parity — and every original-parity
    # assignment extends to the expansion.
    formula = CnfFormula(5)
    formula.add_xor([0, 1, 2, 3, 4], 1)
    plain = expand_xors(formula)
    assert not plain.xors and plain.n_vars > 5
    from repro.sat import Solver

    for assignment in range(32):
        bits = [(assignment >> i) & 1 for i in range(5)]
        solver = Solver()
        solver.ensure_vars(plain.n_vars)
        ok = True
        for clause in plain.clauses:
            if not solver.add_clause(clause):
                ok = False
                break
        if ok:
            assumptions = [(v << 1) | (1 - bits[v]) for v in range(5)]
            verdict = solver.solve(assumptions=assumptions)
        else:
            verdict = False
        assert verdict is (sum(bits) % 2 == 1)
