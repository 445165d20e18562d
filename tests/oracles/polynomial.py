"""The seed tuple loops over whole polynomials.

Products, substitution, literal substitution and CNF clause expansion,
each a per-monomial loop over the sorted-tuple merges of
:mod:`oracles.monomial` — the oracles for the mask-native kernels of
``Poly`` and ``repro.core.cnf_to_anf``.
"""

from typing import Dict, Optional, Sequence, Tuple

from repro.anf.polynomial import Poly
from repro.sat.types import lit_sign, lit_var

from . import monomial as mono


def poly_mul(p: Poly, q: Poly) -> Poly:
    """Boolean-ring product: every pair of monomials merged, mod 2."""
    acc = set()
    for a in p.monomials:
        for b in q.monomials:
            m = mono.mul(a, b)
            if m in acc:
                acc.discard(m)
            else:
                acc.add(m)
    return Poly(acc)


def substitute(p: Poly, var: int, replacement: Poly) -> Poly:
    """Replace ``var`` by ``replacement`` with the remove/mul loop."""
    if var < 0:
        raise ValueError("negative variable index: {}".format(var))
    untouched = set()
    acc = set()
    hit = False
    for m in p.monomials:
        if var not in m:
            untouched.add(m)
            continue
        hit = True
        rest = mono.remove(m, var)
        for r in replacement.monomials:
            prod = mono.mul(rest, r)
            if prod in acc:
                acc.discard(prod)
            else:
                acc.add(prod)
    if not hit:
        return p
    return Poly(untouched ^ acc)


def substitute_literals(
    p: Poly, simple: Dict[int, Tuple[Optional[int], int]]
) -> Poly:
    """Literal substitution (``Poly.substitute_literals`` encoding:
    ``(None, c)`` for a constant, ``(y, c)`` for ``y + c``) with the
    per-variable loop."""
    get = simple.get
    acc = set()
    for m in p.monomials:
        base = []
        negated = None
        dead = False
        for v in m:
            s = get(v)
            if s is None:
                base.append(v)
                continue
            y, c = s
            if y is None:
                if c == 0:
                    dead = True
                    break
                # constant 1: variable simply drops out
            elif c == 0:
                base.append(y)
            else:
                if negated is None:
                    negated = set()
                negated.add(y)
        if dead:
            continue
        base_m = mono.make(base)
        if not negated:
            if base_m in acc:
                acc.discard(base_m)
            else:
                acc.add(base_m)
            continue
        # Π (y_i + 1) = Σ over subsets; empty when the product dies.
        for pm in mono.expand_negated(base_m, negated):
            if pm in acc:
                acc.discard(pm)
            else:
                acc.add(pm)
    return Poly(acc)


def clause_to_poly(lits: Sequence[int]) -> Poly:
    """Product of negated literals: negated literals form the base
    monomial, each positive literal a ``(v + 1)`` factor."""
    base = []
    expand = set()
    for l in lits:
        v = lit_var(l)
        if lit_sign(l):
            base.append(v)
        else:
            expand.add(v)
    products = mono.expand_negated(mono.make(base), expand)
    if not products:
        return Poly.zero()
    acc = set()
    for m in products:
        if m in acc:
            acc.discard(m)
        else:
            acc.add(m)
    return Poly(acc)
