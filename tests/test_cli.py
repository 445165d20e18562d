"""Tests for the bosphorus-py command-line interface."""

import json
import time

import pytest

from repro.cli import build_parser, config_from_args, main

PAPER_EXAMPLE = """\
x1*x2 + x3 + x4 + 1
x1*x2*x3 + x1 + x3 + 1
x1*x3 + x3*x4*x5 + x3
x2*x3 + x3*x5 + 1
x2*x3 + x5 + 1
"""


@pytest.fixture
def anf_file(tmp_path):
    path = tmp_path / "problem.anf"
    path.write_text(PAPER_EXAMPLE)
    return str(path)


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "problem.cnf"
    path.write_text("p cnf 3 3\n1 2 0\n-1 2 0\n-2 3 0\n")
    return str(path)


def test_requires_input(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_anf_solve_paper_example(anf_file, capsys):
    code = main(["--anfread", anf_file, "--solve"])
    out = capsys.readouterr().out
    assert code == 10
    assert "s SATISFIABLE" in out
    assert "v " in out
    # The unique solution: x1..x4 true (DIMACS vars 2..5), x5 false (var 6).
    model_line = [l for l in out.splitlines() if l.startswith("v ")][0]
    lits = set(model_line.split()[1:-1])
    assert {"2", "3", "4", "5", "-6"} <= lits


def test_unsat_detection(tmp_path, capsys):
    path = tmp_path / "unsat.anf"
    path.write_text("x1\nx1 + 1\n")
    code = main(["--anfread", str(path)])
    assert code == 20
    assert "s UNSATISFIABLE" in capsys.readouterr().out


def test_anfwrite_output(anf_file, tmp_path, capsys):
    out_path = tmp_path / "out.anf"
    main(["--anfread", anf_file, "--anfwrite", str(out_path)])
    text = out_path.read_text()
    assert "x1 + 1" in text  # the processed ANF contains the unit facts


def test_cnfwrite_output(anf_file, tmp_path, capsys):
    out_path = tmp_path / "out.cnf"
    main(["--anfread", anf_file, "--cnfwrite", str(out_path)])
    assert out_path.read_text().splitlines()[1].startswith("p cnf")


def test_cnf_preprocessing_roundtrip(cnf_file, tmp_path, capsys):
    out_path = tmp_path / "processed.cnf"
    code = main(["--cnfread", cnf_file, "--cnfwrite", str(out_path), "--solve"])
    out = capsys.readouterr().out
    assert code in (0, 10)
    assert out_path.exists()


def test_cnf_model_names_only_input_variables(tmp_path, capsys):
    # The 7-literal clause is cut on CNF->ANF, so the internal ring has
    # auxiliaries beyond the 8 input variables; the model must not.
    clauses = [[1, 2, 3, 4, 5, 6, 7], [-1, -2], [8, -3]]
    path = tmp_path / "cut.cnf"
    path.write_text(
        "p cnf 8 3\n"
        + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    )
    code = main(["--cnfread", str(path), "--solve",
                 "--no-xl", "--no-elimlin", "--no-sat"])
    out = capsys.readouterr().out
    assert code == 10
    model_line = [l for l in out.splitlines() if l.startswith("v ")][0]
    lits = [int(tok) for tok in model_line.split()[1:-1]]
    assert sorted(abs(lit) for lit in lits) == list(range(1, 9))
    true_lits = set(lits)
    assert all(any(lit in true_lits for lit in c) for c in clauses)


def test_parameter_flags_map_to_config():
    parser = build_parser()
    args = parser.parse_args([
        "--anfread", "x.anf", "-m", "20", "--dm", "3", "--xldeg", "2",
        "--karn", "6", "--cutnum", "4", "--clausecut", "7",
        "--confl", "123", "--maxconfl", "456", "--maxiters", "2",
        "--no-elimlin", "--groebner", "--seed", "9",
    ])
    config = config_from_args(args)
    assert config.xl_sample_bits == 20
    assert config.xl_expand_allowance == 3
    assert config.xl_degree == 2
    assert config.karnaugh_limit == 6
    assert config.xor_cut_len == 4
    assert config.clause_cut_len == 7
    assert config.sat_conflict_start == 123
    assert config.sat_conflict_max == 456
    assert config.max_iterations == 2
    assert config.use_xl and not config.use_elimlin and config.use_sat
    assert config.use_groebner
    assert config.seed == 9


def test_solver_personality_flag(anf_file, capsys):
    for solver in ("minisat", "lingeling", "cms"):
        code = main(["--anfread", anf_file, "--solve", "--solver", solver])
        assert code == 10


NO_LEARN = ["--no-sat", "--no-xl", "--no-elimlin"]


def test_solver_flag_final_solve_span_carries_conflicts(anf_file, tmp_path):
    # --solver and --backend share one final-solve branch, so a --solver
    # run's final.solve span records the backend's conflicts too.
    trace = tmp_path / "run.jsonl"
    code = main(["--anfread", anf_file, "--solve", "--solver", "minisat",
                 "--trace", str(trace)] + NO_LEARN)
    assert code == 10
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    final = [s for s in spans if s["name"] == "final.solve"]
    assert len(final) == 1
    assert final[0]["attrs"]["backend"] == "minisat"
    assert "conflicts" in final[0]["attrs"]


def test_portfolio_flag_sequential(anf_file, capsys):
    # Learning disabled so Bosphorus cannot decide the instance itself —
    # the final solve must come from the portfolio race.
    code = main(["--anfread", anf_file, "--solve", "--portfolio",
                 "--jobs", "1", "--verb", "2"] + NO_LEARN)
    out = capsys.readouterr().out
    assert code == 10
    assert "s SATISFIABLE" in out
    assert "c portfolio:" in out
    assert "[winner]" in out
    model_line = [l for l in out.splitlines() if l.startswith("v ")][0]
    lits = set(model_line.split()[1:-1])
    assert {"2", "3", "4", "5", "-6"} <= lits


def test_portfolio_flag_parallel(anf_file, capsys):
    code = main(["--anfread", anf_file, "--solve", "--portfolio",
                 "--jobs", "2"] + NO_LEARN)
    out = capsys.readouterr().out
    assert code == 10
    assert "s SATISFIABLE" in out


def test_backend_flag_accepts_specs(anf_file, capsys):
    for spec in ("minisat", "cms@3"):
        code = main(["--anfread", anf_file, "--solve", "--backend", spec]
                    + NO_LEARN)
        assert code == 10, spec
        assert "s SATISFIABLE" in capsys.readouterr().out


def test_backend_flag_unavailable_binary(anf_file, capsys):
    code = main(["--anfread", anf_file, "--solve",
                 "--backend", "dimacs:no-such-solver-binary"] + NO_LEARN)
    out = capsys.readouterr().out
    assert code == 0
    assert "backend unavailable" in out
    assert "s UNKNOWN" in out


def test_cube_flag_sequential(anf_file, capsys):
    code = main(["--anfread", anf_file, "--solve", "--cube",
                 "--cube-depth", "2", "--jobs", "1", "--verb", "2"]
                + NO_LEARN)
    out = capsys.readouterr().out
    assert code == 10
    assert "s SATISFIABLE" in out
    assert "c cube:" in out
    assert "[winner]" in out
    model_line = [l for l in out.splitlines() if l.startswith("v ")][0]
    lits = set(model_line.split()[1:-1])
    assert {"2", "3", "4", "5", "-6"} <= lits


def test_cube_listing_tags_only_the_winning_cube(anf_file, capsys,
                                                monkeypatch):
    from repro.cube import CubeConqueror
    from repro.portfolio import PortfolioStats

    real_run = CubeConqueror.run

    def run_with_two_sat_rows(self, formula, **kwargs):
        # Two workers may both answer SAT before the cancel lands; only
        # the arbitrated cube wins.
        outcome = real_run(self, formula, **kwargs)
        outcome.stats.append(PortfolioStats("minisat", "sat",
                                            index=len(outcome.stats),
                                            cube=(1,)))
        return outcome

    monkeypatch.setattr(CubeConqueror, "run", run_with_two_sat_rows)
    code = main(["--anfread", anf_file, "--solve", "--cube",
                 "--cube-depth", "2", "--jobs", "1", "--verb", "2"]
                + NO_LEARN)
    out = capsys.readouterr().out
    assert code == 10
    rows = [l for l in out.splitlines() if l.startswith("c cube: #")]
    assert sum(" sat " in l for l in rows) == 2
    (winner,) = [l for l in rows if l.endswith("[winner]")]
    assert winner.startswith("c cube: #0 ")


def test_single_backend_model_is_validated(anf_file, tmp_path, capsys):
    # An external solver claiming SAT with a model that violates
    # x1*x2 + x3 + x4 + 1: the single-backend final solve demotes it,
    # as --cube and --portfolio do, instead of printing it.
    liar = tmp_path / "liar.sh"
    liar.write_text("#!/bin/sh\necho 's SATISFIABLE'\n"
                    "echo 'v -1 -2 -3 -4 -5 -6 0'\nexit 10\n")
    liar.chmod(0o755)
    code = main(["--anfread", anf_file, "--solve",
                 "--backend", "dimacs:" + str(liar)] + NO_LEARN)
    out = capsys.readouterr().out
    assert code == 0
    assert "c model failed validation" in out
    assert "s UNKNOWN" in out
    assert not any(l.startswith("v ") for l in out.splitlines())


def test_cube_flag_unsat(tmp_path, capsys):
    path = tmp_path / "unsat.anf"
    path.write_text("x1*x2 + 1\nx1*x2\n")
    code = main(["--anfread", str(path), "--solve", "--cube"] + NO_LEARN)
    out = capsys.readouterr().out
    assert code == 20
    assert "s UNSATISFIABLE" in out


def test_cube_composes_with_portfolio(anf_file, capsys):
    code = main(["--anfread", anf_file, "--solve", "--cube", "--portfolio",
                 "--cube-depth", "1", "--jobs", "1"] + NO_LEARN)
    out = capsys.readouterr().out
    assert code == 10
    assert "s SATISFIABLE" in out


def test_cube_flag_unavailable_backend(anf_file, capsys):
    code = main(["--anfread", anf_file, "--solve", "--cube",
                 "--backend", "dimacs:no-such-solver-binary"] + NO_LEARN)
    out = capsys.readouterr().out
    assert code == 0
    assert "backend unavailable" in out
    assert "s UNKNOWN" in out


def test_jobs_flag_default():
    parser = build_parser()
    args = parser.parse_args(["--anfread", "x.anf"])
    assert args.jobs == 1 and not args.portfolio and args.backend is None
    assert not args.cube and args.cube_depth == 4


def test_quiet_mode(anf_file, capsys):
    main(["--anfread", anf_file, "--verb", "0"])
    out = capsys.readouterr().out
    assert "c bosphorus-py" not in out


def _simon_2_6(tmp_path):
    from repro.anf import write_anf
    from repro.ciphers import simon

    inst = simon.generate_instance(2, 6, seed=1)
    path = tmp_path / "simon.anf"
    with open(path, "w") as f:
        write_anf(f, inst.polynomials, inst.ring)
    return str(path)


def test_timeout_covers_the_whole_run(tmp_path, capsys):
    # Bosphorus alone needs most of a second on this instance; the
    # deadline reaches its loop, so the run stops instead of answering
    # late, and --cnfwrite is skipped because no CNF was produced.
    path, out_path = _simon_2_6(tmp_path), tmp_path / "out.cnf"
    start = time.monotonic()
    code = main(["--anfread", path, "--solve", "--timeout", "0.05",
                 "--cnfwrite", str(out_path)])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "s UNKNOWN" in out
    assert "c --cnfwrite skipped: the run stopped (timeout)" in out
    assert not out_path.exists()
    assert elapsed < 0.5


def test_cnf_input_final_solve_gets_the_augmented_cnf(tmp_path):
    # Paper section III-D: a CNF input's final solver gets the input
    # augmented with the learnt facts, the formula --cnfwrite writes.
    from repro.core.bosphorus import Bosphorus
    from repro.satcomp.generators import pigeonhole
    from repro.sat.dimacs import write_dimacs

    formula = pigeonhole(5)
    path, trace = tmp_path / "php5.cnf", tmp_path / "run.jsonl"
    with open(path, "w") as f:
        write_dimacs(f, formula)
    argv = ["--cnfread", str(path), "--solve", "--no-sat",
            "--maxiters", "2", "--trace", str(trace)]
    assert main(argv) == 20
    result = Bosphorus(
        config_from_args(build_parser().parse_args(argv))
    ).preprocess_cnf(formula)
    assert result.status == "unknown"  # the loop leaves it undecided
    assert len(result.augmented_cnf.clauses) != len(result.cnf.clauses)
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    (final,) = [s for s in spans if s["name"] == "final.solve"]
    assert final["attrs"]["n_clauses"] == len(result.augmented_cnf.clauses)


def test_bosphorus_model_is_checked_against_the_input(anf_file, capsys,
                                                      monkeypatch):
    # The paper example's unique solution, found by Bosphorus itself,
    # with one bit flipped: the run demotes it instead of printing it.
    from repro.core.bosphorus import Bosphorus

    real = Bosphorus.preprocess_anf

    def corrupted(self, ring, polynomials, stop=None):
        result = real(self, ring, polynomials, stop)
        result.solution.values[1] ^= 1
        return result

    monkeypatch.setattr(Bosphorus, "preprocess_anf", corrupted)
    code = main(["--anfread", anf_file, "--solve"])
    out = capsys.readouterr().out
    assert code == 0
    assert "c model failed validation" in out
    assert "s UNKNOWN" in out
    assert not any(l.startswith("v ") for l in out.splitlines())
