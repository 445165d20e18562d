"""Tests for eXtended Linearization (paper section II-B, Table I)."""

from repro.anf import parse_system
from repro.core import Config, run_xl


def polys_of(text):
    _, polys = parse_system(text)
    return polys


def test_paper_table1_learns_the_three_facts():
    polys = polys_of("x1*x2 + x1 + 1\nx2*x3 + x3")
    result = run_xl(polys, Config(xl_sample_bits=4, xl_degree=1))
    texts = {p.to_string() for p in result.facts}
    assert {"x1 + 1", "x2", "x3"} <= texts


def test_paper_section2e_xl_facts():
    """Section II-E lists the facts XL (D=1) learns on system (1)."""
    polys = polys_of("""
x1*x2 + x3 + x4 + 1
x1*x2*x3 + x1 + x3 + 1
x1*x3 + x3*x4*x5 + x3
x2*x3 + x3*x5 + 1
x2*x3 + x5 + 1
""")
    result = run_xl(polys, Config(xl_sample_bits=8, xl_degree=1))
    expected = set(polys_of("""
x2*x3*x4 + 1
x1*x3*x4 + 1
x1 + x5 + 1
x1 + x4
x3 + 1
x1 + x2
"""))
    assert expected <= set(result.facts)


def test_empty_input():
    result = run_xl([], Config())
    assert result.facts == []


def test_facts_are_consequences():
    """Every learnt fact must vanish on every solution of the system."""
    import itertools
    polys = polys_of("x1*x2 + x3\nx1 + x2\nx2*x3 + x3")
    result = run_xl(polys, Config(xl_sample_bits=8, xl_degree=1, seed=3))
    solutions = [
        bits
        for bits in itertools.product([0, 1], repeat=4)
        if all(p.evaluate(list(bits)) == 0 for p in polys)
    ]
    assert solutions, "test system should be satisfiable"
    for fact in result.facts:
        for sol in solutions:
            assert fact.evaluate(list(sol)) == 0


def test_size_caps_respected():
    polys = polys_of("\n".join(
        "x{}*x{} + x{}".format(i, i + 1, i + 2) for i in range(1, 40)
    ))
    cfg = Config(xl_sample_bits=6, xl_expand_allowance=1, xl_degree=1,
                 xl_max_rows=50, xl_max_cols=100)
    result = run_xl(polys, cfg)
    assert result.expanded_rows <= 50


def test_caps_enforced_before_push():
    """Regression: the caps are checked before appending, so the final
    pushes can no longer overshoot xl_max_rows / xl_max_cols / the
    2**(M + δM) size cap (the old engine pushed first and checked
    after, overshooting by up to one row's worth of columns)."""
    polys = polys_of("\n".join(
        "x{}*x{} + x{}*x{} + x{}".format(i, i + 1, i + 2, i + 3, i + 4)
        for i in range(1, 60)
    ))
    for cfg in [
        Config(xl_sample_bits=6, xl_expand_allowance=1, xl_degree=1,
               xl_max_rows=23, xl_max_cols=37),
        Config(xl_sample_bits=5, xl_expand_allowance=2, xl_degree=2,
               xl_max_rows=200, xl_max_cols=61),
        Config(xl_sample_bits=8, xl_expand_allowance=0, xl_degree=1),
    ]:
        result = run_xl(polys, cfg)
        size_cap = 1 << (cfg.xl_sample_bits + cfg.xl_expand_allowance)
        assert result.expanded_rows <= cfg.xl_max_rows
        assert result.columns <= cfg.xl_max_cols
        assert result.expanded_rows * result.columns <= size_cap


def test_degree2_multipliers():
    polys = polys_of("x1*x2 + x3\nx1 + x2 + x3")
    result = run_xl(polys, Config(xl_sample_bits=10, xl_degree=2))
    # Degree-2 expansion must at least reproduce degree-1 conclusions.
    assert result.expanded_rows > len(polys)


def test_deterministic_given_seed():
    polys = polys_of("x1*x2 + x3\nx2*x3 + x1\nx1*x3 + x2")
    a = run_xl(polys, Config(seed=5))
    b = run_xl(polys, Config(seed=5))
    assert a.facts == b.facts
