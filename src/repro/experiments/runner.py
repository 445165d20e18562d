"""Experiment runner: instances x {with, without Bosphorus} x 3 solvers.

Reproduces the paper's Table II protocol: *without* Bosphorus the
problem is only converted to CNF (if it is an ANF) and handed to the
final solver; *with* Bosphorus the fact-learning loop runs first, and a
verdict it reaches (with its time) stands.  Each cell is one call of
:func:`repro.pipeline.solve_problem`, the pipeline the CLI and the
server share, under one deadline; :func:`run_instance` keeps the PAR-2
bookkeeping.  A SAT model that fails the input check leaves the cell
unsolved, and :func:`run_family` fails loudly on it.  The three solver
personalities stand in for MiniSat / Lingeling / CryptoMiniSat5
(DESIGN.md §4, substitution 5).  ``run_family(jobs=N)`` distributes the
grid over a bounded worker pool (:class:`repro.portfolio.BatchScheduler`)
with per-instance wall-clock isolation; the PAR-2 math is unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import Config
from ..pipeline import FinalSolve, Problem, solve_problem
from ..portfolio.backends import PERSONALITIES
from ..portfolio.batch import BatchItemError, BatchScheduler


@dataclass
class RunResult:
    """Outcome of one (instance, configuration) run."""

    verdict: Optional[bool]  # True SAT / False UNSAT / None unsolved
    seconds: float
    conflicts: int = 0
    model_checked: Optional[bool] = None


def run_instance(
    problem: Problem,
    personality: str,
    use_bosphorus: bool,
    timeout_s: float = 10.0,
    bosphorus_config: Optional[Config] = None,
) -> RunResult:
    """One Table II cell entry for one instance."""
    start = time.monotonic()
    outcome = solve_problem(
        problem, bosphorus_config or Config(), FinalSolve([personality]),
        preprocess=use_bosphorus, deadline=start + timeout_s,
    )
    return RunResult(
        outcome.verdict, time.monotonic() - start, outcome.conflicts,
        outcome.model_checked,
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
