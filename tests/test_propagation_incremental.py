"""Incremental vs full propagation equivalence, and the engine's new APIs.

The incremental engine (``propagate(system, dirty=...)``) must reach the
same fixpoint as a full pass: same variable state, same residual equation
set.  These tests drive both engines side by side on the Simon and Speck
encodings — the propagation-heavy workloads the paper benchmarks — and
pin the occurrence-list bookkeeping that makes the incremental path
correct.
"""

import pytest

from repro.anf import AnfSystem, Poly, parse_system
from repro.anf.parser import parse_polynomial
from repro.ciphers import simon, speck
from repro.core.propagation import propagate


def state_snapshot(system):
    """Canonical view of the variable state: values + equivalence classes."""
    values = {}
    classes = {}
    for v in range(system.state.n_vars):
        val = system.state.value(v)
        if val is not None:
            values[v] = val
        else:
            root, parity = system.state.find(v)
            if root != v:
                classes[v] = (root, parity)
    return values, classes


def assert_same_fixpoint(a, b):
    va, ca = state_snapshot(a)
    vb, cb = state_snapshot(b)
    assert va == vb
    # Equivalence classes may pick different roots; compare the induced
    # partition, with each member's parity taken relative to the group's
    # smallest variable so the representation is canonical.
    def normalized_classes(values, classes, n):
        groups = {}
        for v in range(n):
            if v in values:
                continue
            root, parity = v, 0
            while root in classes:
                r, p = classes[root]
                parity ^= p
                root = r
            groups.setdefault(root, set()).add((v, parity))
        out = set()
        for g in groups.values():
            if len(g) < 2:
                continue
            base = min(p for v, p in g if v == min(x for x, _ in g))
            out.add(frozenset((v, p ^ base) for v, p in g))
        return out

    n = max(a.state.n_vars, b.state.n_vars)
    assert normalized_classes(va, ca, n) == normalized_classes(vb, cb, n)
    assert set(a.polynomials) == set(b.polynomials)


def drive_incremental(ring, polynomials, fact_stream, batch):
    system = AnfSystem(ring, polynomials)
    propagate(system)
    for i in range(0, len(fact_stream), batch):
        fresh = []
        for fact in fact_stream[i : i + batch]:
            nf = system.normalize(fact)
            if not nf.is_zero() and system.add(nf):
                fresh.append(nf)
        if fresh:
            propagate(system, dirty=fresh)
    return system

def drive_full(ring, polynomials, fact_stream, batch):
    system = AnfSystem(ring, polynomials)
    propagate(system)
    for i in range(0, len(fact_stream), batch):
        added = False
        for fact in fact_stream[i : i + batch]:
            nf = system.normalize(fact)
            if not nf.is_zero() and system.add(nf):
                added = True
        if added:
            propagate(system)
    return system


@pytest.mark.parametrize("batch", [1, 5])
def test_incremental_matches_full_on_simon(batch):
    inst = simon.generate_instance(1, 4, seed=13)
    facts = [
        Poly.variable(v).add_constant(inst.witness[v]) for v in range(0, 48, 2)
    ]
    inc = drive_incremental(inst.ring.clone(), inst.polynomials, facts, batch)
    full = drive_full(inst.ring.clone(), inst.polynomials, facts, batch)
    assert_same_fixpoint(inc, full)


@pytest.mark.parametrize("batch", [1, 4])
def test_incremental_matches_full_on_speck(batch):
    inst = speck.generate_instance(1, 3, seed=5)
    facts = [
        Poly.variable(v).add_constant(inst.witness[v]) for v in range(0, 40, 2)
    ]
    inc = drive_incremental(inst.ring.clone(), inst.polynomials, facts, batch)
    full = drive_full(inst.ring.clone(), inst.polynomials, facts, batch)
    assert_same_fixpoint(inc, full)


def test_incremental_matches_full_witness_closure_on_simon():
    """Feeding the whole witness must solve the instance both ways."""
    inst = simon.generate_instance(1, 3, seed=31)
    facts = [
        Poly.variable(v).add_constant(inst.witness[v])
        for v in range(len(inst.witness))
    ]
    inc = drive_incremental(inst.ring.clone(), inst.polynomials, facts, 8)
    full = drive_full(inst.ring.clone(), inst.polynomials, facts, 8)
    assert len(inc) == 0 and len(full) == 0
    assert inc.check_assignment(inst.witness)
    # Every determined value agrees with the witness.
    for v in range(len(inst.witness)):
        val = inc.state.value(v)
        if val is not None:
            assert val == inst.witness[v]
    assert_same_fixpoint(inc, full)


# -- engine internals ---------------------------------------------------------


def test_occurrence_lists_stay_exact_through_propagation():
    ring, polys = parse_system(
        """
x1 + 1
x1*x2 + x3
x2*x4 + x3*x5
x4 + x5 + x6
"""
    )
    system = AnfSystem(ring, polys)
    propagate(system)
    # Invariant: occurrence lists exactly mirror the stored equations.
    expected = {}
    for idx, p in enumerate(system.polynomials):
        for v in p.variables():
            expected.setdefault(v, set()).add(idx)
    for v in range(system.ring.n_vars):
        assert set(system.occurrences(v)) == expected.get(v, set()), v


def test_rounds_counts_waves_not_pops():
    # A cascade chain: x1=1 unlocks x2, which unlocks x3, ...
    ring, polys = parse_system(
        """
x1 + 1
x1*x2 + 1
x2*x3 + 1
x3*x4 + 1
"""
    )
    system = AnfSystem(ring, polys)
    stats = propagate(system)
    # One wave seeds all four equations; the cascade takes a handful of
    # further waves — far fewer than the number of worklist pops.
    assert stats.rounds <= 6
    assert stats.processed >= stats.rounds
    assert stats.assignments == 4


def test_dirty_accepts_indices_and_polynomials():
    ring, polys = parse_system("x1*x2 + x3\nx4 + 1")
    system = AnfSystem(ring, polys)
    propagate(system)
    p = parse_polynomial("x1 + 1", system.ring)
    system.add(p)
    stats = propagate(system, dirty=[p])
    assert stats.assignments == 1
    q = parse_polynomial("x2 + 1", system.ring)
    system.add(q)
    stats = propagate(system, dirty=[system.index_of(q)])
    # x1=1, x2=1 reduce x1*x2 + x3 to x3 + 1... i.e. x3 = 1.
    assert system.state.value(3) == 1


def test_linear_subset_reduced_through_gf2():
    # Neither equation alone is a fact, but their GF(2) sum is the
    # equivalence x1 + x4 — only the echelonisation phase can see it.
    ring, polys = parse_system(
        """
x1 + x2 + x3
x2 + x3 + x4
"""
    )
    system = AnfSystem(ring, polys)
    stats = propagate(system)
    assert stats.linear_reductions >= 1
    assert stats.equivalences >= 1
    r1, p1 = system.state.find(1)
    r4, p4 = system.state.find(4)
    assert r1 == r4 and p1 == p4
    # The two rows collapse to a single residual after the rewrite.
    assert len(system) == 1


def test_linear_subset_contradiction_detected():
    ring, polys = parse_system(
        """
x1 + x2 + x3
x1 + x2 + x3 + 1
"""
    )
    from repro.anf import ContradictionError

    system = AnfSystem(ring, polys)
    with pytest.raises(ContradictionError):
        propagate(system)


def test_replace_at_and_remove_at_keep_index_map():
    ring, polys = parse_system("x1 + x2 + x5\nx2*x3 + x4\nx4*x5 + 1")
    system = AnfSystem(ring, polys)
    p_new = parse_polynomial("x6 + x7 + x8", system.ring)
    assert system.replace_at(0, p_new)
    assert system.index_of(p_new) == 0
    assert system.occurrences(1) == set()
    assert 0 in system.occurrences(6)
    removed = system.remove_at(0)
    assert removed == p_new
    #

    # The last equation swapped into slot 0.
    assert system.index_of(system.polynomials[0]) == 0
    for idx, p in enumerate(system.polynomials):
        for v in p.variables():
            assert idx in system.occurrences(v)


def test_replace_at_with_equal_object_is_noop():
    # Regression: an equal-but-distinct Poly for the same slot must not
    # fall into the dedup branch and silently drop the equation.
    ring, polys = parse_system("x1 + x2")
    system = AnfSystem(ring, polys)
    twin = Poly([(1,), (2,)])
    assert twin is not system.polynomials[0]
    assert system.replace_at(0, twin) is True
    assert len(system) == 1
    assert system.occurrences(1) == {0}


def test_full_propagation_still_idempotent_after_incremental():
    inst = simon.generate_instance(1, 3, seed=2)
    system = AnfSystem(inst.ring.clone(), inst.polynomials)
    propagate(system)
    snapshot = set(system.polynomials)
    stats = propagate(system)
    assert not stats.changed
    assert set(system.polynomials) == snapshot
