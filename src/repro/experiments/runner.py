"""Experiment runner: instances x {with, without Bosphorus} x 3 solvers.

Reproduces the paper's Table II protocol:

* *without* Bosphorus the problem is only converted to CNF (if it is an
  ANF) and handed to the final solver;
* *with* Bosphorus the fact-learning loop runs first (under its own
  budget), then the final solver gets the processed CNF — and if
  Bosphorus already decided the instance, that verdict (and its time)
  stands.

Three solver personalities stand in for MiniSat / Lingeling /
CryptoMiniSat5 (DESIGN.md §4, substitution 5); they are the in-process
:class:`repro.portfolio.CdclBackend` adapters, so the same code path
serves this harness, the parallel portfolio engine and the CLI.  A
cell's time budget is one ``stop`` predicate that Bosphorus asks before
each learner step and every CDCL search asks after each conflict, so a
slow instance cannot wedge the harness.
``run_family(jobs=N)`` distributes the Table II grid over a bounded
worker pool (:class:`repro.portfolio.BatchScheduler`) with per-instance
wall-clock isolation; the PAR-2 math is unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..anf.polynomial import Poly
from ..anf.ring import Ring
from ..anf.system import AnfSystem, ContradictionError
from ..core.anf_to_cnf import AnfToCnf
from ..core.bosphorus import Bosphorus
from ..core.config import Config
from ..core.solution import satisfies_input
from ..portfolio.backends import PERSONALITIES, CdclBackend, stop_rule
from ..portfolio.batch import BatchItemError, BatchScheduler
from ..sat.dimacs import CnfFormula


@dataclass
class Problem:
    """One benchmark instance: an ANF or a CNF."""

    name: str
    kind: str  # "anf" | "cnf"
    ring: Optional[Ring] = None
    polynomials: Optional[List[Poly]] = None
    formula: Optional[CnfFormula] = None
    expected: Optional[bool] = None
    witness: Optional[List[int]] = None

    @staticmethod
    def from_anf(name, ring, polynomials, expected=True, witness=None) -> "Problem":
        return Problem(name, "anf", ring=ring, polynomials=polynomials,
                       expected=expected, witness=witness)

    @staticmethod
    def from_cnf(name, formula, expected=None) -> "Problem":
        return Problem(name, "cnf", formula=formula, expected=expected)


@dataclass
class RunResult:
    """Outcome of one (instance, configuration) run."""

    verdict: Optional[bool]  # True SAT / False UNSAT / None unsolved
    seconds: float
    bosphorus_seconds: float = 0.0
    conflicts: int = 0
    model_checked: Optional[bool] = None
    decided_by_bosphorus: bool = False


def _convert_anf(problem: Problem, config: Config, personality: str) -> CnfFormula:
    cfg = config.with_(emit_xor_clauses=(personality == "cms"))
    system = AnfSystem(problem.ring.clone(), problem.polynomials)
    return AnfToCnf(cfg).convert(system).formula


def run_instance(
    problem: Problem,
    personality: str,
    use_bosphorus: bool,
    timeout_s: float = 10.0,
    bosphorus_config: Optional[Config] = None,
) -> RunResult:
    """One Table II cell entry for one instance."""
    config = bosphorus_config or Config()
    start = time.monotonic()
    stop = stop_rule(start + timeout_s)  # Bosphorus and the final solve

    if not use_bosphorus:
        if problem.kind == "anf":
            try:
                formula = _convert_anf(problem, config, personality)
            except ContradictionError:
                return RunResult(False, time.monotonic() - start)
        else:
            formula = problem.formula
        res = CdclBackend(personality).solve(formula, stop=stop)
        seconds = time.monotonic() - start
        checked = _check_model(problem, res.model) if res.status is True else None
        return RunResult(res.status, seconds, 0.0, res.conflicts, checked)

    # With Bosphorus: learn facts first.
    b_start = time.monotonic()
    bosph = Bosphorus(config)
    if problem.kind == "anf":
        result = bosph.preprocess_anf(
            problem.ring.clone(), list(problem.polynomials), stop
        )
    else:
        result = bosph.preprocess_cnf(problem.formula, stop)
    bosphorus_seconds = time.monotonic() - b_start

    if result.is_unsat:
        return RunResult(False, time.monotonic() - start, bosphorus_seconds,
                         0, None, decided_by_bosphorus=True)
    if result.is_sat and result.solution is not None:
        checked = _check_model(problem, result.solution.values)
        return RunResult(True, time.monotonic() - start, bosphorus_seconds,
                         0, checked, decided_by_bosphorus=True)
    if result.cnf is None:  # stopped at the deadline
        return RunResult(None, time.monotonic() - start, bosphorus_seconds)

    # Final solving on the processed problem.
    if problem.kind == "cnf":
        formula = result.augmented_cnf or result.cnf
    elif personality == "cms" and result.system is not None:
        formula = AnfToCnf(config.with_(emit_xor_clauses=True)).convert(result.system).formula
    else:
        formula = result.cnf
    res = CdclBackend(personality).solve(formula, stop=stop)
    seconds = time.monotonic() - start
    checked = _check_model(problem, res.model) if res.status is True else None
    return RunResult(res.status, seconds, bosphorus_seconds, res.conflicts,
                     checked)


def _check_model(problem: Problem, model: Optional[List[int]]) -> Optional[bool]:
    """Validate a SAT model against the original problem when possible."""
    if model is None:
        return None
    return satisfies_input(
        model, problem.polynomials if problem.kind == "anf" else problem.formula
    )


def _run_family_cell(cell) -> RunResult:
    """One Table II grid cell, shaped for :class:`BatchScheduler.map`.

    The invalid-model check lives here, in the worker, so a model bug
    fails the run at the offending cell instead of after the whole grid
    has burned its wall-clock budget.
    """
    problem, personality, use_b, timeout_s, config = cell
    res = run_instance(problem, personality, use_b, timeout_s, config)
    if res.model_checked is False:
        raise AssertionError(
            "invalid model for {} ({}, bosphorus={})".format(
                problem.name, personality, use_b
            )
        )
    return res


def run_family(
    problems: Sequence[Problem],
    personalities: Sequence[str] = PERSONALITIES,
    timeout_s: float = 10.0,
    bosphorus_config: Optional[Config] = None,
    jobs: int = 1,
) -> Dict[Tuple[str, bool], List[Tuple[Optional[bool], float]]]:
    """All (personality, with/without) runs for one problem family.

    Returns ``{(personality, use_bosphorus): [(verdict, seconds), ...]}``,
    ready for :func:`repro.experiments.par2.par2_score`.

    With ``jobs > 1`` the grid's cells run over a bounded worker pool
    (one process per in-flight cell, each under its own wall-clock
    deadline), so one slow instance no longer serialises the whole
    table.  Cell order, verdicts and the PAR-2 math are identical to the
    sequential path; only wall-clock time changes.
    """
    cells = [
        (problem, personality, use_b, timeout_s, bosphorus_config)
        for personality in personalities
        for use_b in (False, True)
        for problem in problems
    ]
    results = BatchScheduler(jobs).map(_run_family_cell, cells)

    # Every grid key exists even for an empty problem list (the report
    # layer renders all-zero score lines for empty families).
    out: Dict[Tuple[str, bool], List[Tuple[Optional[bool], float]]] = {
        (personality, use_b): []
        for personality in personalities
        for use_b in (False, True)
    }
    for cell, res in zip(cells, results):
        if isinstance(res, BatchItemError):
            # An invalid model is a soundness bug, never score noise —
            # keep it loud.  Any other crash degrades that one cell to
            # unsolved-at-timeout (the PAR-2 worst case) instead of
            # killing the whole grid.
            if res.kind == "AssertionError":
                raise AssertionError(res.error)
            res = RunResult(None, cell[3])
        out[(cell[1], cell[2])].append((res.verdict, res.seconds))
    return out
