"""ElimLin (paper section II-C).

Iterates to fixed point: (1) GJE on the linearisation, (2) pull out the
linear equations, (3) for each linear equation eliminate — by substitution
— the participating variable that occurs in the fewest remaining
equations.  All linear equations discovered along the way are valid
consequences of the original system (substitution keeps us inside the
ideal), so they are exactly ElimLin's learnt facts.

After every elimination the *pending* linear equations of the round are
rewritten under the same substitution, so no equation ever mentions an
eliminated variable — ElimLin's invariant (eliminated variables never
come back) holds by construction; see ``ElimLinResult.eliminated_vars``
and the staleness regression test.

Mask-native elimination
-----------------------
The elimination loop never rescans the system: per-variable occurrence
counts are kept *persistent* and updated incrementally as rows are
rewritten (mirroring the occurrence lists of
:class:`~repro.anf.system.AnfSystem`), rows untouched by a substitution
are screened out with one AND of the eliminated variable's bit against
each row's cached support mask, literal-shaped replacements (constants
and ``y`` / ``y ⊕ 1``) go through the
:meth:`~repro.anf.polynomial.Poly.substitute_masks` kernel, and learnt
facts are deduplicated through a hash set instead of list scans.  The
GJE step itself rides the packed bulk encode/decode of
:mod:`repro.core.linearize`, whose elimination goes through the one
Four-Russians kernel (:func:`repro.gf2.elimination.eliminate`) shared
by every GF(2) consumer in the repo.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..anf.polynomial import Poly
from .config import Config
from .linearize import gauss_jordan
from .xl import _subsample


@dataclass
class ElimLinResult:
    """Outcome of one ElimLin invocation."""

    facts: List[Poly] = field(default_factory=list)
    rounds: int = 0
    eliminated: int = 0
    contradiction: bool = False
    #: Variables substituted out, in elimination order.  ElimLin's
    #: invariant: once eliminated, a variable never reappears — neither
    #: in the working system nor in ``residual``.
    eliminated_vars: List[int] = field(default_factory=list)
    #: The simplified system ElimLin ended with (empty on contradiction).
    residual: List[Poly] = field(default_factory=list)


def _occurrence_counts(polys: Sequence[Poly]) -> Dict[int, int]:
    """Full recount of variable occurrences (one per mentioning row).

    The elimination loop maintains these counts incrementally; this
    helper seeds them once per round (and serves as the recount oracle
    for the benches and invariant tests).
    """
    counts: Counter = Counter()
    for p in polys:
        counts.update(p.variables())
    return counts


def _substitution_fn(target: int, others: Sequence[int], const: int):
    """The substitution ``x_target = Σ others ⊕ const`` as a callable.

    Literal-shaped replacements (a constant, or ``y`` / ``y ⊕ 1``) go
    through the :meth:`Poly.substitute_masks` kernel; only multi-variable
    replacements pay the generic (still mask-native) substitution.
    """
    bit = 1 << target
    if len(others) == 0:
        # target := const — the substitute_masks literal kernel.
        dead = bit if const == 0 else 0
        return lambda p: p.substitute_masks(bit, dead, 0, None)
    if len(others) == 1:
        # target := y (+ 1) — an alias literal.
        alias = {target: (others[0], const)}
        return lambda p: p.substitute_masks(bit, 0, bit, alias)
    replacement = Poly._from_frozenset(
        frozenset([1 << v for v in others])
    ).add_constant(const)
    return lambda p: p.substitute(target, replacement)


def _eliminate(
    polys: List[Poly],
    target: int,
    others: Sequence[int],
    const: int,
    counts: Counter,
) -> Optional[List[Poly]]:
    """Substitute ``x_target = Σ others ⊕ const`` into ``polys``.

    Rows are screened with one support-mask AND per row; only rewritten
    rows touch ``counts`` (old variables decremented, new incremented).
    Returns the new row list, or None when a row reduced to ``1``.
    """
    bit = 1 << target
    sub = _substitution_fn(target, others, const)
    out: List[Poly] = []
    for p in polys:
        if not p.support_mask() & bit:
            out.append(p)
            continue
        q = sub(p)
        if q.is_one():
            return None
        for v in p.variables():
            counts[v] -= 1
        if q.is_zero():
            continue
        for v in q.variables():
            counts[v] += 1
        out.append(q)
    return out


def run_elimlin(
    polynomials: Sequence[Poly],
    config: Optional[Config] = None,
    rng: Optional[random.Random] = None,
) -> ElimLinResult:
    """Run ElimLin on a subsample of the system; returns learnt facts.

    A discovered ``1 = 0`` sets ``contradiction`` and appends ``Poly.one()``
    to the facts so the caller's master system raises on insertion.
    """
    config = config or Config()
    rng = rng or random.Random(config.seed)
    result = ElimLinResult()
    polys = [p for p in polynomials if not p.is_zero()]
    if not polys:
        return result
    system: List[Poly] = _subsample(polys, config.elimlin_sample_bits, rng)
    fact_set: Set[Poly] = set()

    while True:
        result.rounds += 1
        reduced = gauss_jordan(system)
        if any(p.is_one() for p in reduced):
            result.contradiction = True
            result.facts.append(Poly.one())
            return result
        linear = [p for p in reduced if p.is_linear() and not p.is_zero()]
        if not linear:
            result.residual = [p for p in reduced if not p.is_zero()]
            break
        nonlinear = [p for p in reduced if not p.is_linear()]
        # Record the linear equations as learnt facts (hash-set dedup).
        for eq in linear:
            if eq not in fact_set:
                fact_set.add(eq)
                result.facts.append(eq)
        # Eliminate one variable per linear equation, least-occurring
        # first.  ``counts`` is seeded once and maintained incrementally
        # by ``_eliminate`` from here on.
        counts = _occurrence_counts(nonlinear)
        current = nonlinear
        pending = list(linear)
        for k in range(len(pending)):
            eq = pending[k]
            decomposed = eq.as_linear_equation()
            if decomposed is None:
                continue
            variables, const = decomposed
            if not variables:
                continue
            target = min(variables, key=lambda v: counts.get(v, 0))
            others = [v for v in variables if v != target]
            new_current = _eliminate(current, target, others, const, counts)
            if new_current is None:
                result.contradiction = True
                result.facts.append(Poly.one())
                return result
            current = new_current
            result.eliminated += 1
            result.eliminated_vars.append(target)
            # Rewrite the *pending* linear equations of this round under
            # the same substitution.  Without this, a later equation
            # still mentions the just-eliminated variable: its
            # substitution is then either vacuous (the stale variable
            # re-targets as the least-occurring one, wasting the
            # equation's elimination) or would re-introduce an
            # eliminated variable through the replacement — both violate
            # ElimLin's invariant.  A rewritten row is ``peq + eq``, so
            # pending rows stay GF(2) combinations of the round's
            # independent RREF rows: they can become neither ``1``
            # (caught by the round-start check) nor ``0``.  Rows not
            # mentioning the target are screened by one mask AND.
            bit = 1 << target
            sub = _substitution_fn(target, others, const)
            for j in range(k + 1, len(pending)):
                peq = pending[j]
                if peq.support_mask() & bit:
                    pending[j] = sub(peq)
        if not current:
            break
        system = current
    return result
