"""Extension family: Speck32/64 key recovery (ARX, adder-heavy ANF).

Not in the paper's Table II, but the natural fourth column: Speck is
Simon's ARX sibling, and its ANF (ripple-carry adders, like the Bitcoin
instances) stresses a different equation shape.  Reported in the same
with/without-Bosphorus protocol.
"""

import pytest

from repro.ciphers import speck
from repro.experiments import PERSONALITIES, Problem, format_blocks, run_block

from .conftest import bench_count, bench_timeout, fast_config


@pytest.fixture(scope="module")
def problems():
    out = []
    for i in range(bench_count()):
        inst = speck.generate_instance(2, 3, seed=400 + i)
        out.append(Problem.from_anf(
            "Speck-[2,3]#{}".format(i), inst.ring, inst.polynomials,
            expected=True, witness=inst.witness,
        ))
    return out


def test_speck_block(benchmark, problems, table_printer):
    block = benchmark.pedantic(
        run_block,
        args=("Speck-[2,3]", problems),
        kwargs={"timeout_s": bench_timeout(15.0),
                "bosphorus_config": fast_config()},
        rounds=1, iterations=1,
    )
    table_printer("Extension / Speck block", format_blocks([block]))
    for personality in PERSONALITIES:
        w = block.scores[(personality, True)]
        wo = block.scores[(personality, False)]
        benchmark.extra_info[personality] = {"w/o": wo.format(), "w": w.format()}
