"""Cube-and-conquer on top of the portfolio pool: a final-solve engine
(CLI ``--cube``) that answers one CNF's verdict.

The classic split (Heule/Kullmann/Biere): a *splitter* partitions the
CNF's search space into assumption cubes
(:mod:`repro.cube.splitter`), a *conqueror* deals the cubes into
chains, each solved on one warm solver, and fans the chains over the
bounded :class:`repro.portfolio.BatchScheduler` pool through the
portfolio's one fan-out engine (:func:`repro.portfolio.engine.conquer`:
first validated verdict wins), adding only the all-cubes-refuted UNSAT
rule (:mod:`repro.cube.conquer`).  Per-cube rows are the engine's
:class:`~repro.portfolio.PortfolioStats`.  Soundness leans on the
backend assumption plumbing: backends report ``assumption_failure`` so
a refuted cube is never conflated with a refuted formula.
"""

from .conquer import CubeConqueror, CubeOutcome
from .splitter import (
    DEFAULT_MAX_CUBES,
    CubeSet,
    occurrence_scores,
    split_formula,
)

__all__ = [
    "CubeConqueror",
    "CubeOutcome",
    "DEFAULT_MAX_CUBES",
    "CubeSet",
    "occurrence_scores",
    "split_formula",
]
