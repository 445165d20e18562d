"""Table II, Bitcoin blocks: weakened nonce finding at k ∈ {10, 15, 20}.

Paper shape: on the easy tier Bosphorus's overhead *hurts* (PAR-2 4k→23k
on Bitcoin-[10]) while on the hard tiers the overhead washes out and the
solved counts edge up (Bitcoin-[20]: 1→2, 3→4, 2→3).

Scaling: SHA-256 is round-reduced to 16 rounds and k ∈ {4, 6, 8} so the
difficulty ladder stays within pure-Python reach.
"""

import pytest

from repro.experiments import (
    PERSONALITIES,
    bitcoin_problems,
    format_blocks,
    run_block,
)

from .conftest import bench_count, bench_timeout, fast_config

TIERS = [4, 6, 8]
ROUNDS = 16


@pytest.fixture(scope="module")
def blocks():
    out = []
    for k in TIERS:
        problems = bitcoin_problems(count=bench_count(), k=k, rounds=ROUNDS,
                                    seed=300 + k)
        out.append(("Bitcoin-[{}]".format(k), problems))
    return out


def test_table2_bitcoin_blocks(benchmark, blocks, table_printer):
    timeout = bench_timeout(20.0)

    def run_all():
        return [
            run_block(label, problems, timeout_s=timeout,
                      bosphorus_config=fast_config())
            for label, problems in blocks
        ]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table_printer(
        "Table II / Bitcoin blocks (scaled: 16 rounds, k in {4,6,8})",
        format_blocks(results),
    )
    for block in results:
        for personality in PERSONALITIES:
            w = block.scores[(personality, True)]
            wo = block.scores[(personality, False)]
            benchmark.extra_info["{}:{}".format(block.label, personality)] = {
                "w/o": wo.format(), "w": w.format(),
            }
