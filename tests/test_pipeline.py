"""Differential tests of the one solve pipeline against brute force.

Every row solves a system of at most 12 variables through
:func:`repro.pipeline.solve_problem` — preprocessing on or off, one
backend, a two-worker portfolio race or a depth-2 cube conquest — and
checks the verdict against exhaustive enumeration and every SAT model
against the input.  The three adapters (the CLI, a server job and a
Table II cell) must answer what the pipeline answers on the same input.
"""

import io
import itertools
import random

import pytest

from repro.anf import parse_system
from repro.anf.polynomial import Poly
from repro.cli import build_parser, config_from_args, main
from repro.core.config import Config
from repro.experiments import Problem, run_instance
from repro.pipeline import FinalSolve, solve_problem
from repro.portfolio import default_portfolio
from repro.sat.dimacs import parse_dimacs, write_dimacs
from repro.satcomp import generators
from repro.server.jobs import JobSpec, execute_job


def _random_anf(n_vars, n_polys, seed, planted=None):
    """Random quadratic equations as ``.anf`` text; with ``planted`` the
    constants are chosen so that assignment satisfies every equation."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n_polys):
        poly = Poly.zero()
        for _ in range(rng.randint(2, 4)):
            a, b = rng.sample(range(n_vars), 2)
            term = Poly.variable(a)
            if rng.random() < 0.6:
                term = term * Poly.variable(b)
            poly = poly + term
        if planted is not None:
            poly = poly.add_constant(poly.evaluate(planted))
        else:
            poly = poly.add_constant(rng.randint(0, 1))
        lines.append(poly.to_string())
    return "\n".join(lines) + "\n"


def _dimacs(formula):
    buf = io.StringIO()
    write_dimacs(buf, formula)
    return buf.getvalue()


#: name -> (format, text).  Variables: at most 12 in every input.
INPUTS = {
    "anf-sat": ("anf", _random_anf(10, 8, seed=1,
                                   planted=[1, 0, 1, 1, 0, 0, 1, 0, 1, 1])),
    "anf-unsat": ("anf", _random_anf(7, 16, seed=4)),
    "cnf-sat": ("dimacs", _dimacs(generators.planted_ksat(12, 50, 3, seed=3)[0])),
    "cnf-unsat": ("dimacs", _dimacs(generators.pigeonhole(3))),
    "parity-sat": ("dimacs", _dimacs(generators.xor_chain(
        10, seed=1, satisfiable=True))),
    "parity-unsat": ("dimacs", _dimacs(generators.tseitin_parity(4, 3, seed=1))),
}

#: The flags of the CLI runs; learning by SAT is off so that the final
#: solve, not Bosphorus, answers wherever XL and ElimLin do not.
FLAGS = ["--no-sat", "--maxiters", "2", "-m", "8", "--solver", "minisat"]
CONFIG = Config(use_sat=False, max_iterations=2, xl_sample_bits=8,
                elimlin_sample_bits=8)

MODES = {
    "single": (lambda: FinalSolve(["minisat"]), []),
    "portfolio": (lambda: FinalSolve(default_portfolio(), jobs=2),
                  ["--portfolio", "--jobs", "2"]),
    "cube": (lambda: FinalSolve(["minisat"], cube_depth=2, jobs=2),
             ["--cube", "--cube-depth", "2", "--jobs", "2"]),
}


def _problem(name):
    fmt, text = INPUTS[name]
    if fmt == "anf":
        return Problem.from_anf(name, *parse_system(text))
    return Problem.from_cnf(name, parse_dimacs(text))


def _satisfies(problem, bits):
    if problem.kind == "anf":
        padded = list(bits) + [0] * (problem.ring.n_vars - len(bits))
        return all(p.evaluate(padded) == 0 for p in problem.polynomials)
    return problem.formula.satisfied_by(bits)


def _brute_force(problem):
    n = problem.ring.n_vars if problem.kind == "anf" else problem.formula.n_vars
    assert n <= 12
    return any(_satisfies(problem, bits)
               for bits in itertools.product((0, 1), repeat=n))


EXPECTED = {name: _brute_force(_problem(name)) for name in INPUTS}


def test_inputs_cover_both_verdicts_in_both_formats():
    assert EXPECTED == {
        "anf-sat": True, "anf-unsat": False, "cnf-sat": True,
        "cnf-unsat": False, "parity-sat": True, "parity-unsat": False,
    }


def test_cli_flags_give_the_grid_config():
    args = build_parser().parse_args(["--anfread", "x.anf"] + FLAGS)
    assert config_from_args(args) == CONFIG


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("preprocess", [True, False], ids=["pre", "nopre"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_pipeline_matches_brute_force(name, preprocess, mode):
    problem = _problem(name)
    outcome = solve_problem(problem, CONFIG, MODES[mode][0](),
                            preprocess=preprocess)
    assert outcome.verdict is EXPECTED[name]
    if outcome.verdict:
        assert outcome.model_checked is True
        assert _satisfies(problem, outcome.model)
    else:
        assert outcome.model is None and outcome.model_checked is None
    assert ("preprocess" in outcome.seconds) is preprocess


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_bosphorus_decided_answers_match_brute_force(name):
    # SAT learning on: Bosphorus itself finds the models and refutations,
    # and its models pass the same input check.
    problem = _problem(name)
    outcome = solve_problem(problem, Config(), FinalSolve(["minisat"]))
    assert outcome.verdict is EXPECTED[name]
    if outcome.verdict:
        assert outcome.model_checked is True
        assert _satisfies(problem, outcome.model)


def _cli_verdict(tmp_path, capsys, name, extra):
    fmt, text = INPUTS[name]
    path = tmp_path / ("in." + ("anf" if fmt == "anf" else "cnf"))
    path.write_text(text)
    flag = "--anfread" if fmt == "anf" else "--cnfread"
    code = main([flag, str(path), "--solve"] + FLAGS + extra)
    out = capsys.readouterr().out
    verdict = {10: True, 20: False, 0: None}[code]
    if verdict:
        (line,) = [l for l in out.splitlines() if l.startswith("v ")]
        bits = [1 if int(tok) > 0 else 0 for tok in line.split()[1:-1]]
        assert _satisfies(_problem(name), bits)
    return verdict


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_cli_agrees_with_the_pipeline(name, mode, tmp_path, capsys):
    expected = solve_problem(_problem(name), CONFIG, MODES[mode][0]()).verdict
    assert _cli_verdict(tmp_path, capsys, name, MODES[mode][1]) is expected


@pytest.mark.parametrize("preprocess", [True, False], ids=["pre", "nopre"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_server_job_and_runner_agree_with_the_pipeline(name, preprocess):
    problem = _problem(name)
    expected = solve_problem(problem, CONFIG, FinalSolve(["minisat"]),
                             preprocess=preprocess)
    fmt, text = INPUTS[name]
    job = execute_job(JobSpec(
        fmt=fmt, text=text, preprocess=preprocess, backend="minisat",
        config={"use_sat": False, "max_iterations": 2, "xl_sample_bits": 8,
                "elimlin_sample_bits": 8},
    ))
    assert job["verdict"] == expected.name
    assert job["model"] == expected.model
    cell = run_instance(problem, "minisat", preprocess, timeout_s=30,
                        bosphorus_config=CONFIG)
    assert cell.verdict is expected.verdict
    assert cell.model_checked is expected.model_checked
