"""Tests for the master ANF system and the parity union-find."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles.system import normalize as seed_normalize
from repro.anf import AnfSystem, ContradictionError, Poly, Ring, VariableState
from repro.anf.parser import parse_polynomial


def P(text, n=8):
    return parse_polynomial(text, Ring(n))


# -- VariableState -------------------------------------------------------------


def test_assign_and_value():
    st_ = VariableState(4)
    assert st_.value(0) is None
    assert st_.assign(0, 1) is True
    assert st_.value(0) == 1
    assert st_.assign(0, 1) is False  # not new


def test_assign_conflict_raises():
    st_ = VariableState(2)
    st_.assign(0, 1)
    with pytest.raises(ContradictionError):
        st_.assign(0, 0)


def test_equate_propagates_value():
    st_ = VariableState(4)
    st_.assign(1, 1)
    st_.equate(0, 1, 1)  # x0 = ¬x1
    assert st_.value(0) == 0


def test_equate_then_assign_propagates_to_class():
    st_ = VariableState(4)
    st_.equate(0, 1, 0)
    st_.equate(1, 2, 1)
    st_.assign(2, 0)
    assert st_.value(0) == 1
    assert st_.value(1) == 1


def test_equate_conflict_raises():
    st_ = VariableState(3)
    st_.equate(0, 1, 0)
    with pytest.raises(ContradictionError):
        st_.equate(0, 1, 1)


def test_equate_value_conflict():
    st_ = VariableState(3)
    st_.assign(0, 0)
    st_.assign(1, 1)
    with pytest.raises(ContradictionError):
        st_.equate(0, 1, 0)


def test_equate_consistent_values_ok():
    st_ = VariableState(3)
    st_.assign(0, 0)
    st_.assign(1, 1)
    assert st_.equate(0, 1, 1) is True


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 1)),
                max_size=12))
def test_union_find_transitive_consistency(ops):
    """After any sequence of merges, x = root ⊕ parity is self-consistent."""
    st_ = VariableState(8)
    try:
        for a, b, c in ops:
            st_.equate(a, b, c)
    except ContradictionError:
        return
    # find() must be stable and consistent with the recorded relations.
    for v in range(8):
        root, parity = st_.find(v)
        root2, parity2 = st_.find(v)
        assert (root, parity) == (root2, parity2)
        rr, rp = st_.find(root)
        assert rr == root and rp == 0


# -- AnfSystem -------------------------------------------------------------------


def test_add_dedupes():
    sys_ = AnfSystem(Ring(4))
    p = P("x1 + x2")
    assert sys_.add(p) is True
    assert sys_.add(p) is False
    assert len(sys_) == 1


def test_add_zero_ignored():
    sys_ = AnfSystem(Ring(2))
    assert sys_.add(Poly.zero()) is False
    assert len(sys_) == 0


def test_add_one_raises():
    sys_ = AnfSystem(Ring(2))
    with pytest.raises(ContradictionError):
        sys_.add(Poly.one())


def test_occurrence_lists():
    sys_ = AnfSystem(Ring(5), [P("x1*x2 + x3"), P("x3 + x4")])
    assert sys_.occurrences(3) == {0, 1}
    assert sys_.occurrences(1) == {0}
    assert sys_.occurrence_count(4) == 1
    assert sys_.occurrence_count(0) == 0


def test_normalize_uses_state():
    sys_ = AnfSystem(Ring(4), [P("x1*x2 + x3")])
    sys_.state.assign(1, 1)
    assert sys_.normalize(P("x1*x2 + x3")) == P("x2 + x3")


def test_normalize_equivalence():
    sys_ = AnfSystem(Ring(4))
    sys_.state.equate(1, 2, 1)  # x1 = ¬x2
    normalized = sys_.normalize(P("x1 + x2"))
    assert normalized == Poly.one() or normalized == P("x1 + x2")
    # x1 + x2 = (x2+1) + x2 = 1 under the equivalence.
    assert sys_.normalize(P("x1 + x2")).is_one()


def test_normalize_matches_seed_pipeline():
    """The mask-native normalize agrees with the seed Poly-valued
    pipeline at widths across the one-limb boundary."""
    import random

    rng = random.Random(13)
    for _ in range(40):
        width = rng.choice([10, 64, 65, 130])
        system = AnfSystem(Ring(width))
        for v in rng.sample(range(width), rng.randrange(1, 8)):
            try:
                if rng.random() < 0.4:
                    system.state.assign(v, rng.randrange(2))
                else:
                    other = rng.randrange(width)
                    if other != v:
                        system.state.equate(v, other, rng.randrange(2))
            except ContradictionError:
                pass
        for _ in range(10):
            p = Poly(
                tuple(sorted(rng.sample(range(width), rng.randrange(0, 4))))
                for _ in range(rng.randrange(1, 6))
            )
            assert system.normalize(p) == seed_normalize(system, p)


def test_check_assignment():
    sys_ = AnfSystem(Ring(3), [P("x1 + x2 + 1")])
    assert sys_.check_assignment([0, 1, 0])
    assert not sys_.check_assignment([0, 1, 1])


def test_ring_grows_on_add():
    sys_ = AnfSystem(Ring(1))
    sys_.add(P("x5 + 1", n=6))
    assert sys_.ring.n_vars >= 6
