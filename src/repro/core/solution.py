"""Solutions, their verification, and CNF-model reconstruction.

:func:`reconstruct_model` closes the ANF→CNF→SAT round trip: given a
:class:`~repro.core.anf_to_cnf.ConversionResult` and a model of its CNF,
it inverts the conversion's auxiliary variables — Tseitin monomial
variables are checked against the AND of their monomial's bits, cut
variables (free partial-XOR accumulators) are dropped — and returns the
assignment over the original ANF variables, ready to evaluate on the
source system.  The round-trip harness
(``tests/test_roundtrip_model.py``) drives random systems through
convert → solve → reconstruct → evaluate and pins that every SAT model
satisfies the source ANF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..anf.polynomial import Poly
from ..sat.dimacs import CnfFormula
from ..sat.types import TRUE


def reconstruct_model(conversion, cnf_model: Sequence[int]) -> Dict[int, int]:
    """Translate a CNF model back to an assignment of the ANF variables.

    ``conversion`` is the :class:`~repro.core.anf_to_cnf.ConversionResult`
    that produced the formula; ``cnf_model`` is a model of it, indexed by
    CNF variable — either plain 0/1 bits or the solver's tri-state values
    (``repro.sat.types.TRUE`` counts as 1, everything else — FALSE or an
    unassigned UNDEF — as 0; a variable the formula never constrained is
    free, and 0 is a valid completion).  Variables beyond the model's
    length default to 0.

    Returns ``{var: bit}`` for every original ANF variable
    (``0 <= var < n_anf_vars``).  The auxiliaries are *inverted*, not
    copied: cut variables carry no ANF meaning and are dropped, and every
    Tseitin monomial variable is checked against the AND of its
    monomial's reconstructed bits — a mismatch
    means the model does not actually satisfy the AND-definition clauses
    (a corrupt model or a stale conversion map) and raises ``ValueError``.
    """

    def bit(v: int) -> int:
        if 0 <= v < len(cnf_model):
            return 1 if cnf_model[v] == TRUE else 0
        return 0

    model = {v: bit(v) for v in range(conversion.n_anf_vars)}
    for y, m in conversion.monomial_of_var.items():
        if y < conversion.n_anf_vars:
            continue
        expected = 1
        for v in m:
            if not bit(v):
                expected = 0
                break
        if bit(y) != expected:
            raise ValueError(
                "monomial variable {} (= {}) has value {} but its "
                "monomial evaluates to {}".format(y, m, bit(y), expected)
            )
    return model


def solution_from_model(conversion, cnf_model: Sequence[int]) -> "Solution":
    """:func:`reconstruct_model` packaged as a :class:`Solution`."""
    model = reconstruct_model(conversion, cnf_model)
    return Solution([model[v] for v in range(conversion.n_anf_vars)])


def make_model_validator(conversion, polynomials: Sequence[Poly]):
    """A ``cnf_model_bits -> bool`` callback closing the loop on the ANF.

    The portfolio engine's validation hook: a CNF model is accepted only
    if it survives reconstruction through the conversion's monomial/cut
    auxiliaries *and* satisfies ``polynomials``.  Reconstruction
    failures (corrupt models) count as invalid, never as errors.
    """
    polynomials = list(polynomials)

    def validate(cnf_model: Sequence[int]) -> bool:
        try:
            solution = solution_from_model(conversion, cnf_model)
        except ValueError:
            return False
        return solution.satisfies(polynomials)

    return validate


def satisfies_input(model: Sequence[int], problem) -> bool:
    """Whether the 0/1 ``model`` satisfies ``problem`` as it was given, a
    :class:`CnfFormula` or ANF polynomials (missing bits read 0)."""
    if isinstance(problem, CnfFormula):
        return problem.satisfied_by(model)
    return Solution(list(model)).satisfies(problem)


@dataclass
class Solution:
    """A concrete assignment to the problem's variables."""

    values: List[int]

    def __getitem__(self, var: int) -> int:
        return self.values[var]

    def satisfies(self, polynomials: Sequence[Poly]) -> bool:
        """True if every equation evaluates to zero under the assignment."""
        padded = self.values
        needed = 0
        for p in polynomials:
            vs = p.variables()
            if vs:
                needed = max(needed, max(vs) + 1)
        if needed > len(padded):
            padded = padded + [0] * (needed - len(padded))
        return all(p.evaluate(padded) == 0 for p in polynomials)

    def __repr__(self) -> str:
        bits = "".join(str(v) for v in self.values[:64])
        suffix = "..." if len(self.values) > 64 else ""
        return "Solution({}{})".format(bits, suffix)
