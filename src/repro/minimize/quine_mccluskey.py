"""Two-level logic minimisation via Quine–McCluskey.

Bosphorus uses ESPRESSO to turn the Karnaugh map of a small polynomial into
a near-minimal clause list.  ESPRESSO is heuristic; for the paper's regime
(Karnaugh parameter K <= 8, i.e. at most 256 minterms) an exact
Quine–McCluskey cover is affordable, so we implement that: prime implicant
generation by iterated merging, then essential-prime extraction plus a
branch-and-bound (Petrick-style) cover of the residue.  A function is
given by its on-set alone: the truth table of a polynomial chunk is
completely specified, so there is no don't-care set.

Cubes are encoded as ``(mask, value)`` pairs over ``n_vars`` bits: bit i of
``mask`` is 1 when variable i is fixed, in which case bit i of ``value``
gives the fixed polarity.  A cube covers ``2**(n_vars - popcount(mask))``
minterms.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

Cube = Tuple[int, int]

#: Largest candidate-cube x uncovered-minterm product :func:`minimize`
#: covers exactly; beyond it the cover is greedy.
EXACT_LIMIT = 4096


def prime_implicants(minterms: Iterable[int], n_vars: int) -> List[Cube]:
    """All prime implicants of the function given by its on-set.

    ``minterms`` are minterm indices in ``[0, 2**n_vars)``.
    """
    full_mask = (1 << n_vars) - 1
    current: Set[Cube] = {(full_mask, m) for m in set(minterms)}
    primes: Set[Cube] = set()
    while current:
        merged: Set[Cube] = set()
        used: Set[Cube] = set()
        by_mask: Dict[int, List[Cube]] = {}
        for cube in current:
            by_mask.setdefault(cube[0], []).append(cube)
        for mask, cubes in by_mask.items():
            values = {c[1] for c in cubes}
            for value in values:
                for bit in range(n_vars):
                    b = 1 << bit
                    if not (mask & b):
                        continue
                    partner = value ^ b
                    if partner in values and value < partner:
                        merged.add((mask ^ b, value & ~b))
                        used.add((mask, value))
                        used.add((mask, partner))
        primes.update(current - used)
        current = merged
    return sorted(primes)


def _cube_minterms(cube: Cube, n_vars: int) -> List[int]:
    mask, value = cube
    free = [i for i in range(n_vars) if not (mask & (1 << i))]
    out = []
    for combo in range(1 << len(free)):
        m = value
        for k, bit in enumerate(free):
            if combo & (1 << k):
                m |= 1 << bit
        out.append(m)
    return out


def _cover_search(
    remaining: FrozenSet[int],
    candidates: List[Tuple[Cube, FrozenSet[int]]],
    best_size: int,
) -> List[Cube]:
    """Branch-and-bound minimum cover of ``remaining`` by candidate cubes."""
    if not remaining:
        return []
    if best_size <= 0:
        return None  # type: ignore[return-value]
    # Branch on the least-covered minterm to keep the tree narrow.
    target = min(
        remaining,
        key=lambda m: sum(1 for _, cov in candidates if m in cov),
    )
    best: List[Cube] = None  # type: ignore[assignment]
    for cube, cov in candidates:
        if target not in cov:
            continue
        sub = _cover_search(
            remaining - cov,
            [c for c in candidates if c[1] & (remaining - cov)],
            (best_size if best is None else len(best)) - 1,
        )
        if sub is not None:
            pick = [cube] + sub
            if best is None or len(pick) < len(best):
                best = pick
    return best


def minimize(minterms: Sequence[int], n_vars: int) -> List[Cube]:
    """Minimum (or near-minimum) cube cover of the on-set.

    Runs Quine–McCluskey prime generation, takes essential primes, then
    covers the residue exactly when the search space is small (at most
    :data:`EXACT_LIMIT` candidate/minterm products) and greedily otherwise.
    Returns a list of cubes covering every minterm and no point outside
    the on-set, in canonical sorted order — the cover is a pure
    function of ``(on-set, n_vars)``, which is what lets the
    ANF→CNF layer share one cover across structurally identical chunks
    (and the differential tests compare clause lists bit for bit).
    """
    on = sorted(set(minterms))
    if not on:
        return []
    if n_vars == 0:
        return [(0, 0)]
    primes = prime_implicants(on, n_vars)
    cover_map: List[Tuple[Cube, FrozenSet[int]]] = []
    on_set = set(on)
    for cube in primes:
        cov = frozenset(m for m in _cube_minterms(cube, n_vars) if m in on_set)
        if cov:
            cover_map.append((cube, cov))

    chosen: List[Cube] = []
    remaining = set(on)
    # Essential primes: minterms covered by exactly one prime.
    changed = True
    while changed and remaining:
        changed = False
        for m in list(remaining):
            hits = [(cube, cov) for cube, cov in cover_map if m in cov]
            if len(hits) == 1:
                cube, cov = hits[0]
                chosen.append(cube)
                remaining -= cov
                cover_map = [
                    (c, f & frozenset(remaining))
                    for c, f in cover_map
                    if c != cube
                ]
                cover_map = [(c, f) for c, f in cover_map if f]
                changed = True
                break

    if remaining:
        candidates = [(c, f) for c, f in cover_map if f]
        if len(candidates) * len(remaining) <= EXACT_LIMIT:
            extra = _cover_search(
                frozenset(remaining), candidates, len(candidates) + 1
            )
        else:
            extra = None
        if extra is None:
            # Greedy fallback: repeatedly take the cube covering the most.
            extra = []
            rem = set(remaining)
            while rem:
                cube, cov = max(candidates, key=lambda cf: len(cf[1] & rem))
                extra.append(cube)
                rem -= cov
        chosen.extend(extra)
    chosen.sort()
    return chosen


def cube_to_clause(cube: Cube, variables: Sequence[int], n_vars: int):
    """Translate a forbidden cube into the CNF clause that excludes it.

    ``variables[i]`` is the external variable behind bit ``i``.  A cube
    fixing bit i to 1 contributes the literal ``not variables[i]`` (and to
    0 the positive literal), so the clause is violated exactly on the cube.
    Literals are returned as ``(variable, negated)`` pairs.
    """
    mask, value = cube
    clause = []
    for i in range(n_vars):
        b = 1 << i
        if mask & b:
            clause.append((variables[i], bool(value & b)))
    return clause
