"""Cube-and-conquer on top of the portfolio pool: a final-solve engine
(CLI ``--cube``) that answers one CNF's verdict.

The classic split (Heule/Kullmann/Biere): a *splitter* partitions the
CNF's search space into assumption cubes
(:mod:`repro.cube.splitter`), a *conqueror* deals the cubes into
chains, each solved on one warm solver, and fans the chains over the
bounded :class:`repro.portfolio.BatchScheduler` pool with first-SAT
early exit and all-cubes-refuted UNSAT aggregation
(:mod:`repro.cube.conquer`).  Soundness leans on the backend assumption
plumbing: backends report ``assumption_failure`` so a refuted cube is
never conflated with a refuted formula.
"""

from .conquer import (
    CUBE_CANCELLED,
    CUBE_ERROR,
    CUBE_INVALID_MODEL,
    CUBE_REFUTED,
    CUBE_SAT,
    CUBE_UNKNOWN,
    CubeConqueror,
    CubeDisagreement,
    CubeOutcome,
    CubeStats,
)
from .splitter import (
    DEFAULT_MAX_CUBES,
    CubeSet,
    occurrence_scores,
    split_formula,
)

__all__ = [
    "CUBE_CANCELLED",
    "CUBE_ERROR",
    "CUBE_INVALID_MODEL",
    "CUBE_REFUTED",
    "CUBE_SAT",
    "CUBE_UNKNOWN",
    "CubeConqueror",
    "CubeDisagreement",
    "CubeOutcome",
    "CubeStats",
    "DEFAULT_MAX_CUBES",
    "CubeSet",
    "occurrence_scores",
    "split_formula",
]
