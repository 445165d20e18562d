"""Table II, SR block: round-reduced small-scale AES.

Paper row: SR-[1,4,4,8], 500 instances, PAR-2 (thousands) + solved —
Bosphorus lets MiniSat solve 489 vs 89 instances.

Scaling (DESIGN.md §4): the pure-Python CDCL cannot absorb the e = 8
system in seconds, so the bench runs SR-[1,2,2,4] (same quadratic S-box
encoding, same round structure) with REPRO_BENCH_COUNT instances.  The
shape to check: with Bosphorus, plain CDCL solves at least as many
instances, and PAR-2 does not degrade on the solved set.
"""

import pytest

from repro.experiments import (
    PERSONALITIES,
    format_blocks,
    run_block,
    sr_problems,
)

from .conftest import bench_count, bench_timeout, fast_config


@pytest.fixture(scope="module")
def problems():
    return sr_problems(count=bench_count(), n_rounds=1, r=2, c=2, e=4, seed=100)


def test_table2_sr_block(benchmark, problems, table_printer):
    timeout = bench_timeout()

    block = benchmark.pedantic(
        run_block,
        args=("SR-[1,2,2,4]", problems),
        kwargs={"timeout_s": timeout, "bosphorus_config": fast_config()},
        rounds=1,
        iterations=1,
    )

    table_printer("Table II / SR block (scaled: SR-[1,2,2,4])",
                  format_blocks([block]))
    for personality in PERSONALITIES:
        without = block.scores[(personality, False)]
        with_b = block.scores[(personality, True)]
        benchmark.extra_info[personality] = {
            "w/o": without.format(),
            "w": with_b.format(),
        }
        # Paper shape: Bosphorus never solves fewer instances on SR.
        assert with_b.solved >= without.solved
