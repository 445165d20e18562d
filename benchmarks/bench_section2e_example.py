"""Section II-E: the paper's worked example, end to end.

XL learns six facts, ElimLin adds x1 = 1, the SAT step mops up, and ANF
propagation collapses the system to (2): x1 = x2 = x3 = x4 = 1, x5 = 0.
The benchmark measures a full Bosphorus run on the example.
"""

from repro.anf import parse_system
from repro.core import Bosphorus, Config

EXAMPLE = """
x1*x2 + x3 + x4 + 1
x1*x2*x3 + x1 + x3 + 1
x1*x3 + x3*x4*x5 + x3
x2*x3 + x3*x5 + 1
x2*x3 + x5 + 1
"""


def _run():
    ring, polys = parse_system(EXAMPLE)
    return Bosphorus(Config(stop_on_solution=False)).preprocess_anf(ring, polys)


def test_section2e_full_loop(benchmark):
    result = benchmark(_run)

    processed = {p.to_string() for p in result.processed_anf}
    assert {"x1 + 1", "x2 + 1", "x3 + 1", "x4 + 1", "x5"} <= processed
    assert result.solution is None or result.solution.values[1:6] == [1, 1, 1, 1, 0]
    benchmark.extra_info["facts"] = result.facts.summary()


def test_section2e_xl_only(benchmark):
    """Paper: 'ANF propagation after the XL step would have led to (2)'."""
    ring, polys = parse_system(EXAMPLE)
    cfg = Config(use_elimlin=False, use_sat=False, stop_on_solution=False)

    def run():
        r, p = parse_system(EXAMPLE)
        return Bosphorus(cfg).preprocess_anf(r, p)

    result = benchmark(run)
    processed = {q.to_string() for q in result.processed_anf}
    assert {"x1 + 1", "x2 + 1", "x3 + 1", "x4 + 1", "x5"} <= processed
