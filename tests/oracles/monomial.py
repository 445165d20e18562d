"""The seed sorted-tuple monomial merges, the oracles for the bitmask ops.

A monomial is a sorted tuple of variable indices, as in
``repro.anf.monomial``; these functions work on the tuples directly —
no masks, no interning — and their results compare equal to the mask
path's.
"""

from typing import Iterable, List, Tuple

Monomial = Tuple[int, ...]


def make(variables: Iterable[int]) -> Monomial:
    """Sorted, duplicate-free tuple; a negative index raises ``ValueError``."""
    vs = sorted(set(variables))
    if vs and vs[0] < 0:
        raise ValueError("negative variable index: {}".format(vs[0]))
    return tuple(vs)


def intern(m: Monomial) -> Monomial:
    """The monomial itself, after the negative-index check."""
    for v in m:
        if v < 0:
            raise ValueError("negative variable index: {}".format(v))
    return m


def mul(a: Monomial, b: Monomial) -> Monomial:
    """Product: merge two sorted tuples, dropping duplicates."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif x > y:
            out.append(y)
            j += 1
        else:
            out.append(x)
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def divides(a: Monomial, b: Monomial) -> bool:
    """True if every variable of ``a`` occurs in ``b``."""
    if len(a) > len(b):
        return False
    bs = set(b)
    return all(v in bs for v in a)


def remove(m: Monomial, var: int) -> Monomial:
    """``m`` with ``var`` divided out; a negative index raises."""
    if var < 0:
        raise ValueError("negative variable index: {}".format(var))
    return tuple(v for v in m if v != var)


def lcm(a: Monomial, b: Monomial) -> Monomial:
    """Least common multiple: the product, in the Boolean ring."""
    return mul(a, b)


def deglex_key(m: Monomial):
    """Degree-lexicographic sort key."""
    return (len(m), m)


def expand_negated(base: Monomial, negated: Iterable[int]) -> List[Monomial]:
    """Monomials of ``base * Π_y (x_y + 1)``; empty when some ``y``
    divides ``base`` (``y * (y + 1) = 0``)."""
    ys = sorted(set(negated))
    if any(y in base for y in ys):
        return []
    out = [base]
    for y in ys:
        out += [mul(p, (y,)) for p in out]
    return out
