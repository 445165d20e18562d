"""PAR-2 scoring (SAT Competition convention, used in the paper's Table II).

PAR-2 = sum of runtimes of solved instances + 2 x timeout for each
unsolved instance.  Lower is better.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


@dataclass
class ScoreLine:
    """A Table II cell: PAR-2 plus solved counts, SAT and UNSAT separately."""

    par2: float
    solved_sat: int
    solved_unsat: int

    @property
    def solved(self) -> int:
        return self.solved_sat + self.solved_unsat

    def format(self, thousands: bool = False) -> str:
        """Render like the paper: ``score (sat+unsat)``."""
        score = self.par2 / 1000.0 if thousands else self.par2
        if self.solved_unsat:
            return "{:.1f} ({}+{})".format(score, self.solved_sat, self.solved_unsat)
        return "{:.1f} ({})".format(score, self.solved_sat)


def par2_score(
    results: Sequence[Tuple[Optional[bool], float]], timeout: float
) -> ScoreLine:
    """Score a list of ``(verdict, seconds)`` runs.

    ``verdict`` is True (SAT), False (UNSAT) or None (unsolved/timeout).

    Under the SAT-Competition convention a verdict only counts if it
    arrived *within* the timeout: a run that answered after the limit is
    scored exactly like a timeout (2 x timeout penalty) and is not
    counted as solved.
    """
    total = 0.0
    solved_sat = 0
    solved_unsat = 0
    for verdict, seconds in results:
        if verdict is None or seconds > timeout:
            total += 2.0 * timeout
        else:
            total += seconds
            if verdict:
                solved_sat += 1
            else:
                solved_unsat += 1
    return ScoreLine(total, solved_sat, solved_unsat)
