"""Descriptive statistics of ANF systems.

Used by the CLI's ``--stats`` flag and the experiment reports: degree
histograms, monomial counts and density tell you at a glance whether a
system is in XL's comfort zone (low degree, many equations) or SAT's
(sparse, wide support).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .polynomial import Poly


@dataclass
class SystemStats:
    """Summary numbers for one polynomial system."""

    n_equations: int = 0
    n_variables: int = 0
    n_monomials: int = 0
    n_distinct_monomials: int = 0
    max_degree: int = 0
    degree_histogram: Dict[int, int] = field(default_factory=dict)
    linear_equations: int = 0
    avg_equation_size: float = 0.0
    max_equation_size: int = 0

    def format(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            "equations:          {}".format(self.n_equations),
            "variables:          {}".format(self.n_variables),
            "monomials (total):  {}".format(self.n_monomials),
            "monomials (unique): {}".format(self.n_distinct_monomials),
            "max degree:         {}".format(self.max_degree),
            "linear equations:   {}".format(self.linear_equations),
            "avg equation size:  {:.1f}".format(self.avg_equation_size),
            "max equation size:  {}".format(self.max_equation_size),
            "degree histogram:   {}".format(
                " ".join(
                    "{}:{}".format(d, c)
                    for d, c in sorted(self.degree_histogram.items())
                )
            ),
        ]
        return "\n".join(lines)


def describe_system(polynomials: Sequence[Poly]) -> SystemStats:
    """Compute :class:`SystemStats` for a list of polynomials."""
    stats = SystemStats()
    variables = set()
    distinct = set()
    total_terms = 0
    for p in polynomials:
        stats.n_equations += 1
        degree = p.degree()
        stats.max_degree = max(stats.max_degree, degree)
        stats.degree_histogram[degree] = stats.degree_histogram.get(degree, 0) + 1
        if p.is_linear():
            stats.linear_equations += 1
        size = len(p)
        total_terms += size
        stats.max_equation_size = max(stats.max_equation_size, size)
        variables.update(p.variables())
        distinct.update(p.monomials)
    stats.n_variables = len(variables)
    stats.n_monomials = total_terms
    stats.n_distinct_monomials = len(distinct)
    if stats.n_equations:
        stats.avg_equation_size = total_terms / stats.n_equations
    return stats
