"""eXtended Linearization (paper section II-B).

XL multiplies sampled equations by all monomials up to degree D, then runs
Gauss–Jordan on the linearised expansion.  Bosphorus uses XL not to solve
but to *learn facts*: only the linear and single-monomial rows of the
reduced system are retained.

Subsampling follows the paper: polynomials are drawn uniformly until the
linearised system size ``m' * n'`` reaches ``2**M``, and the expansion is
stopped once the size is near ``2**(M + δM)``.

The expansion loop is mask-native: multipliers and distinct monomials
are int bitmasks (one int hash per term), a multiplier×support AND
screens each product — a multiplier
disjoint from the polynomial's support cannot cancel terms, so its
product's monomial masks are one OR each, computed *before* any ``Poly``
is built — and the row/column/size caps are enforced **before** a row is
appended, so ``xl_max_rows`` / ``xl_max_cols`` / the ``2**(M + δM)``
size cap can no longer be overshot by the final pushes and ``XlResult``
reports overshoot-free counts.  The linearisation itself rides the
packed bulk encode/decode of :mod:`repro.core.linearize`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from ..anf import monomial as mono
from ..anf.polynomial import Poly
from .config import Config
from ..gf2.elimination import eliminate
from .linearize import Linearization, extract_facts


@dataclass
class XlResult:
    """Outcome of one XL invocation.

    ``expanded_rows`` and ``columns`` never exceed ``xl_max_rows`` /
    ``xl_max_cols``: the caps are enforced before each push.
    """

    facts: List[Poly] = field(default_factory=list)
    sampled: int = 0
    expanded_rows: int = 0
    columns: int = 0


def _subsample(
    polys: Sequence[Poly], target_bits: int, rng: random.Random
) -> List[Poly]:
    """Uniformly sample polynomials until m'·n' ≳ 2**target_bits."""
    order = list(range(len(polys)))
    rng.shuffle(order)
    target = 1 << target_bits
    chosen: List[Poly] = []
    seen: Set[int] = set()
    for idx in order:
        p = polys[idx]
        chosen.append(p)
        seen.update(p.masks)
        if len(chosen) * max(len(seen), 1) >= target:
            break
    return chosen


def _multipliers(variables: Sequence[int], degree: int) -> List[int]:
    """Masks of all monomials of degree 1..``degree`` over the given
    variables."""
    out: List[int] = []
    current: List[int] = [mono.ONE]
    for _ in range(degree):
        nxt: List[int] = []
        seen = set()
        for m in current:
            for v in variables:
                bit = 1 << v
                if m & bit:
                    continue
                nm = m | bit
                if nm not in seen:
                    seen.add(nm)
                    nxt.append(nm)
        out.extend(nxt)
        current = nxt
    return out


def run_xl(
    polynomials: Sequence[Poly],
    config: Optional[Config] = None,
    rng: Optional[random.Random] = None,
) -> XlResult:
    """One XL pass: subsample, expand, eliminate, extract facts.

    ``polynomials`` is the (already propagated) master equation list; the
    returned facts are *not* yet folded into any system.
    """
    config = config or Config()
    rng = rng or random.Random(config.seed)
    result = XlResult()
    polys = [p for p in polynomials if not p.is_zero()]
    if not polys:
        return result

    sample = _subsample(polys, config.xl_sample_bits, rng)
    result.sampled = len(sample)
    support = 0
    for p in sample:
        support |= p.support_mask()
    variables = mono.bits_of(support)

    # Expand in ascending degree order of the source equation, stopping
    # when the linearised size reaches 2**(M + δM) (or the hard caps) —
    # checked *before* each append, so no cap is ever overshot.
    size_cap = 1 << (config.xl_sample_bits + config.xl_expand_allowance)
    max_rows = config.xl_max_rows
    max_cols = config.xl_max_cols
    expanded: List[Poly] = []
    # Distinct monomials as masks.  Seeded with the constant's
    # mask (0): the linearisation always appends the constant column, so
    # counting it from the start makes the cap check equal the reported
    # ``columns`` exactly.
    col_masks: Set[int] = {0}
    multipliers = _multipliers(variables, config.xl_degree)

    def fits(n_rows: int, term_masks) -> bool:
        """Would a row with these monomial masks stay within every cap?

        Fast path: if even the upper bound (every term a new column)
        fits, skip the membership scan entirely — the caps are only
        counted precisely once the expansion gets near them.
        """
        hi = len(col_masks) + len(term_masks)
        if (
            n_rows <= max_rows
            and hi <= max_cols
            and n_rows * hi <= size_cap
        ):
            return True
        n_cols = len(col_masks)
        for mk in term_masks:
            if mk not in col_masks:
                n_cols += 1
        return (
            n_rows <= max_rows
            and n_cols <= max_cols
            and n_rows * max(n_cols, 1) <= size_cap
        )

    stop = False
    ordered = sorted(sample, key=lambda q: q.degree())
    for p in ordered:
        term_masks = list(p)
        if not fits(len(expanded) + 1, term_masks):
            stop = True
            break
        expanded.append(p)
        col_masks.update(term_masks)
    if not stop:
        for p in ordered:
            pmask = p.support_mask()
            for mmask in multipliers:
                if mmask & pmask:
                    # Multiplier shares variables with p: products can
                    # collide and cancel — build the real product.
                    q = p.mul_monomial(mmask)
                    if q.is_zero():
                        continue
                    term_masks = list(q)
                else:
                    # Disjoint multiplier: every product is one mask OR
                    # and no two terms collide; the cap check needs no
                    # Poly at all.
                    q = None
                    term_masks = [mk | mmask for mk in p]
                if not fits(len(expanded) + 1, term_masks):
                    stop = True
                    break
                if q is None:
                    # Materialise the collision-free product from the
                    # masks just computed — no second OR pass.
                    q = Poly._from_frozenset(frozenset(term_masks))
                expanded.append(q)
                col_masks.update(term_masks)
            if stop:
                break

    result.expanded_rows = len(expanded)
    if not expanded:
        return result
    lin = Linearization(expanded)
    result.columns = lin.n_cols
    matrix = lin.to_matrix(expanded)
    eliminate(matrix)
    reduced = lin.rows_to_polys(matrix)
    linear, monomial_rows = extract_facts(reduced)
    result.facts = linear + monomial_rows
    return result
