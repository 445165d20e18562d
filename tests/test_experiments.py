"""Tests for the PAR-2 scorer and the Table II runner."""

import time

import pytest

from repro.core.config import Config
from repro.experiments import (
    PERSONALITIES,
    Problem,
    ScoreLine,
    format_blocks,
    par2_score,
    run_block,
    run_instance,
    simon_problems,
    sr_problems,
)
from repro.portfolio import CdclBackend, stop_rule
from repro.satcomp import generators


def within(seconds):
    return stop_rule(time.monotonic() + seconds)


FAST = Config(
    xl_sample_bits=10,
    elimlin_sample_bits=10,
    sat_conflict_start=500,
    sat_conflict_step=500,
    sat_conflict_max=2000,
    max_iterations=3,
)


# -- PAR-2 ---------------------------------------------------------------------


def test_par2_all_solved():
    line = par2_score([(True, 1.0), (False, 2.0)], timeout=10)
    assert line.par2 == pytest.approx(3.0)
    assert line.solved_sat == 1 and line.solved_unsat == 1


def test_par2_unsolved_penalty():
    line = par2_score([(None, 10.0)], timeout=10)
    assert line.par2 == pytest.approx(20.0)
    assert line.solved == 0


def test_par2_over_timeout_verdict_is_unsolved():
    # SAT-Competition convention: an answer after the limit does not
    # count — it scores the full 2x penalty and is not "solved".
    line = par2_score([(True, 99.0)], timeout=10)
    assert line.par2 == pytest.approx(20.0)
    assert line.solved == 0


def test_par2_exactly_at_timeout_still_counts():
    line = par2_score([(False, 10.0)], timeout=10)
    assert line.par2 == pytest.approx(10.0)
    assert line.solved_unsat == 1


def test_par2_mixed_over_and_under_timeout():
    line = par2_score(
        [(True, 3.0), (True, 11.5), (False, 2.0), (None, 4.0)], timeout=10
    )
    # 3.0 + 20.0 (late SAT) + 2.0 + 20.0 (timeout)
    assert line.par2 == pytest.approx(45.0)
    assert line.solved_sat == 1 and line.solved_unsat == 1


def test_score_format_matches_paper_style():
    assert ScoreLine(4372.0, 89, 0).format() == "4372.0 (89)"
    assert ScoreLine(2105.0, 75, 38).format() == "2105.0 (75+38)"
    assert ScoreLine(4372000.0, 89, 0).format(thousands=True) == "4372.0 (89)"


# -- final solver personalities ----------------------------------------------------


@pytest.mark.parametrize("personality", PERSONALITIES)
def test_final_solver_personalities_agree(personality):
    sat = generators.planted_ksat(12, 40, 3, seed=3)[0]
    unsat = generators.pigeonhole(4)
    res = CdclBackend(personality).solve(sat, stop=within(20))
    v1, model = res.status, res.model
    assert v1 is True
    for clause in sat.clauses:
        assert any(model[l >> 1] ^ (l & 1) for l in clause)
    v2 = CdclBackend(personality).solve(unsat, stop=within(20)).status
    assert v2 is False


def test_cms_personality_uses_xors():
    from repro.sat.dimacs import CnfFormula

    f = CnfFormula(3)
    f.add_xor([0, 1], 1)
    f.add_xor([1, 2], 1)
    f.add_xor([0, 2], 1)  # odd cycle: UNSAT by GJE alone
    res = CdclBackend("cms").solve(f, stop=within(10))
    verdict, conflicts = res.status, res.conflicts
    assert verdict is False
    assert conflicts == 0  # decided by the XOR engine's GJE, not search


# -- run_instance -------------------------------------------------------------------


def test_run_instance_anf_with_and_without():
    problem = simon_problems(count=1, n_plaintexts=1, rounds=3, seed=3)[0]
    for use_b in (False, True):
        res = run_instance(problem, "minisat", use_b, timeout_s=20,
                           bosphorus_config=FAST)
        assert res.verdict is True
        assert res.model_checked in (True, None)


def test_run_instance_cnf_unsat_by_bosphorus():
    formula = generators.tseitin_parity(6, 3, seed=1)
    problem = Problem.from_cnf("tseitin", formula, expected=False)
    res = run_instance(problem, "minisat", True, timeout_s=20,
                       bosphorus_config=FAST)
    assert res.verdict is False


def test_run_instance_reports_bosphorus_time():
    problem = simon_problems(count=1, n_plaintexts=1, rounds=2, seed=5)[0]
    res = run_instance(problem, "minisat", True, timeout_s=20,
                       bosphorus_config=FAST)
    assert res.bosphorus_seconds >= 0.0


def test_run_block_and_format():
    problems = sr_problems(count=1, n_rounds=1, r=1, c=2, e=4, seed=2)
    block = run_block("SR-[1,1,2,4]", problems, timeout_s=20,
                      bosphorus_config=FAST, personalities=("minisat",))
    table = format_blocks([block])
    assert "SR-[1,1,2,4]" in table
    assert "w/o" in table and "w" in table


def test_invalid_personality_rejected():
    problem = simon_problems(count=1, n_plaintexts=1, rounds=2, seed=1)[0]
    with pytest.raises(ValueError):
        run_instance(problem, "chaff", False, timeout_s=5)
