"""Table II, Simon blocks: Simon-[8,6], [9,7], [10,8].

Paper shape: the blocks get harder with more rounds; with Bosphorus,
MiniSat goes from 22/50 solved to 50/50 on Simon-[9,7] and from 0/50 to
34/50 on Simon-[10,8], while on the easy Simon-[8,6] the Bosphorus
overhead only costs PAR-2 without losing solved instances.

Scaling: rounds are reduced ([2,3], [2,4], [2,5]) so a pure-Python CDCL
sits at the same relative difficulty tiers; counts via REPRO_BENCH_COUNT.
"""

import pytest

from repro.experiments import (
    PERSONALITIES,
    format_blocks,
    run_block,
    simon_problems,
)

from .conftest import bench_count, bench_timeout, fast_config

#: (n_plaintexts, rounds) tiers standing in for the paper's
#: [8,6] / [9,7] / [10,8] difficulty ladder.  At the hardest tier the
#: paper's headline reappears: plain CDCL times out where the
#: Bosphorus-preprocessed run solves.
TIERS = [(2, 4), (2, 5), (2, 6)]


@pytest.fixture(scope="module")
def blocks():
    out = []
    for n, r in TIERS:
        problems = simon_problems(count=bench_count(), n_plaintexts=n,
                                  rounds=r, seed=200 + r)
        out.append(("Simon-[{},{}]".format(n, r), problems))
    return out


def test_table2_simon_blocks(benchmark, blocks, table_printer):
    timeout = bench_timeout(20.0)

    def run_all():
        return [
            run_block(label, problems, timeout_s=timeout,
                      bosphorus_config=fast_config())
            for label, problems in blocks
        ]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table_printer("Table II / Simon blocks (scaled rounds)",
                  format_blocks(results))
    for block in results:
        for personality in PERSONALITIES:
            w = block.scores[(personality, True)]
            wo = block.scores[(personality, False)]
            benchmark.extra_info["{}:{}".format(block.label, personality)] = {
                "w/o": wo.format(), "w": w.format(),
            }
            # Paper shape on Simon: Bosphorus never loses solved instances.
            assert w.solved >= wo.solved
