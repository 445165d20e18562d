"""Portfolio/batch scaling: parallel Table II vs the sequential path.

The claim behind ``make bench-portfolio``: batch-mode ``run_family``
(cells distributed over a bounded worker pool) beats the sequential path
on wall-clock for the SAT-competition smoke suite, while producing the
same verdicts cell for cell (PAR-2 under the deterministic unit-time
proxy is identical — wall-clock seconds are the one thing parallelism is
*allowed* to change).

The speedup assertion arms only when the machine can actually parallelise
(>= 2 CPUs) and the run is big enough to measure (REPRO_BENCH_COUNT >= 2);
otherwise the bench still runs both paths and checks agreement.

Verdict comparison is a *soundness* check, not bit-equality: a cell near
its wall-clock deadline may legitimately time out on one path and not
the other (parallel workers share the CPUs), so definitive verdicts must
never contradict, and timeout drift is reported rather than asserted
away.  The deterministic bit-for-bit equality claim lives in
``tests/test_portfolio_batch.py`` on fast instances with generous
deadlines.
"""

import os
import time

from repro.experiments import par2_score, run_family, satcomp_problems

from .conftest import bench_count, bench_timeout, fast_config

PERSONALITIES = ("minisat", "cms")


def _verdicts(result):
    return {key: [v for v, _ in runs] for key, runs in result.items()}


def _agreement(sequential, parallel):
    """(contradictions, timeout_drift) between the two verdict grids."""
    contradictions = drift = 0
    seq_v, par_v = _verdicts(sequential), _verdicts(parallel)
    for key in seq_v:
        for a, b in zip(seq_v[key], par_v[key]):
            if a is None or b is None:
                drift += a is not b
            elif a != b:
                contradictions += 1
    return contradictions, drift


def _unit_par2(result, timeout):
    return {
        key: par2_score([(v, 1.0) for v, _ in runs], timeout).format()
        for key, runs in result.items()
    }


def test_batch_run_family_parallel_speedup(benchmark, table_printer):
    per_family = max(1, bench_count() // 2)
    problems = satcomp_problems(scale=1.0, per_family=per_family, seed=42)
    timeout = bench_timeout()
    config = fast_config()
    cpus = os.cpu_count() or 1
    jobs = min(4, cpus)

    t0 = time.monotonic()
    sequential = run_family(problems, PERSONALITIES, timeout, config, jobs=1)
    seq_s = time.monotonic() - t0

    t0 = time.monotonic()
    parallel = benchmark.pedantic(
        lambda: run_family(problems, PERSONALITIES, timeout, config, jobs=jobs),
        rounds=1,
        iterations=1,
    )
    par_s = time.monotonic() - t0

    assert set(sequential) == set(parallel)
    contradictions, drift = _agreement(sequential, parallel)
    assert contradictions == 0, "parallel and sequential verdicts contradict"
    if drift == 0:
        # No instance straddled its deadline: the PAR-2 grids (under the
        # deterministic unit-time proxy) must then match exactly.
        assert _unit_par2(sequential, timeout) == _unit_par2(parallel, timeout)

    speedup = seq_s / par_s if par_s > 0 else float("inf")
    benchmark.extra_info["timeout_drift"] = drift
    benchmark.extra_info["sequential_s"] = round(seq_s, 2)
    benchmark.extra_info["parallel_s"] = round(par_s, 2)
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["speedup"] = round(speedup, 2)
    table_printer(
        "Batch portfolio scheduling ({} instances x {} personalities x 2)".format(
            len(problems), len(PERSONALITIES)
        ),
        "sequential {:.2f}s  parallel({} jobs) {:.2f}s  speedup {:.2f}x".format(
            seq_s, jobs, par_s, speedup
        ),
    )

    armed = cpus >= 2 and jobs >= 2 and bench_count() >= 2
    if armed:
        assert speedup >= 1.15, (
            "batch run_family with {} workers only {:.2f}x faster".format(
                jobs, speedup
            )
        )
