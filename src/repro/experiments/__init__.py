"""Evaluation harness: PAR-2 scoring and the Table II drivers."""

from .par2 import ScoreLine, par2_score
from .runner import (
    PERSONALITIES,
    Problem,
    RunResult,
    run_family,
    run_instance,
)
from .tables import (
    TableBlock,
    bitcoin_problems,
    format_blocks,
    run_block,
    satcomp_hard_problems,
    satcomp_problems,
    simon_problems,
    sr_problems,
)

__all__ = [
    "ScoreLine",
    "par2_score",
    "Problem",
    "RunResult",
    "PERSONALITIES",
    "run_instance",
    "run_family",
    "TableBlock",
    "run_block",
    "format_blocks",
    "sr_problems",
    "simon_problems",
    "bitcoin_problems",
    "satcomp_problems",
    "satcomp_hard_problems",
]
