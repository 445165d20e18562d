"""Table II, SAT-2017 blocks: the substitute CNF suite + its hard subset.

Paper shape: Bosphorus as a CNF preprocessor helps most on UNSAT
instances (CryptoMiniSat5: 63 → 77 UNSAT solved on the full set, 32 → 46
on the hard subset).  Our substitute suite (DESIGN.md §4) contains
Tseitin-parity and inconsistent 3-XOR instances whose UNSATness is exactly
the hidden GF(2) structure Bosphorus recovers via CNF→ANF, so the same
UNSAT-favouring shape must show.
"""

import pytest

from repro.experiments import (
    PERSONALITIES,
    format_blocks,
    run_block,
    satcomp_hard_problems,
    satcomp_problems,
)

from .conftest import bench_count, bench_timeout, fast_config


@pytest.fixture(scope="module")
def suites():
    per_family = max(1, bench_count() // 2)
    full = satcomp_problems(scale=1.0, per_family=per_family, seed=42)
    hard = satcomp_hard_problems(scale=1.0, per_family=per_family, seed=42,
                                 conflict_threshold=500)
    return full, hard


def test_table2_satcomp_blocks(benchmark, suites, table_printer):
    full, hard = suites
    timeout = bench_timeout()

    def run_all():
        blocks = [
            run_block("SAT-2017*", full, timeout_s=timeout,
                      bosphorus_config=fast_config()),
        ]
        if hard:
            blocks.append(
                run_block("SAT-2017* hard", hard, timeout_s=timeout,
                          bosphorus_config=fast_config())
            )
        return blocks

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table_printer(
        "Table II / SAT-2017 blocks (substitute suite, {} + {} instances)".format(
            len(full), len(hard)
        ),
        format_blocks(results),
    )
    full_block = results[0]
    for personality in PERSONALITIES:
        w = full_block.scores[(personality, True)]
        wo = full_block.scores[(personality, False)]
        benchmark.extra_info[personality] = {"w/o": wo.format(), "w": w.format()}
        # Paper shape: with Bosphorus, UNSAT solves do not regress.
        assert w.solved_unsat >= wo.solved_unsat
