"""The seed ``AnfSystem.normalize`` pipeline, the oracle for the
mask-native rewrite.

Every touched variable of the polynomial gets a ``Poly``-valued
substitution (a constant, or its class root plus parity), each
substitution is classified back into the literal encoding, and the
per-variable tuple loop of :mod:`oracles.polynomial` applies them.
"""

from repro.anf import monomial as mono
from repro.anf.polynomial import Poly

from .polynomial import substitute_literals


def normalize(system, p: Poly) -> Poly:
    """``p`` rewritten under ``system``'s values and equivalences."""
    state = system.state
    hit = state.touched_mask & p.support_mask()
    mapping = {}
    for v in mono.bits_of(hit):
        val = state.value(v)
        if val is not None:
            mapping[v] = Poly.constant(val)
            continue
        root, parity = state.find(v)
        if root != v:
            mapping[v] = Poly.variable(root).add_constant(parity)
    if not mapping:
        return p
    simple = {}
    for v, rp in mapping.items():
        ms = rp.monomials
        if not ms:
            simple[v] = (None, 0)  # constant 0: the monomial dies
        elif len(ms) == 1:
            (m,) = ms
            simple[v] = (None, 1) if not m else (m[0], 0)
        else:
            other = next(m for m in ms if m)
            simple[v] = (other[0], 1)  # negated alias y + 1
    return substitute_literals(p, simple)
