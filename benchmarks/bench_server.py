"""Solver-service benchmarks: worker scaling and the persistent cache.

Two claims behind ``make bench-server``:

* **throughput scales with workers** — a batch of jobs submitted over
  the JSON-lines protocol completes faster on a 2-worker pool than on a
  1-worker pool, comparing the best of three batches on each side.  The
  speedup assertion arms only when the machine can
  actually parallelise (>= 2 CPUs) and the run is big enough to measure
  (``REPRO_BENCH_COUNT >= 2``); otherwise the bench still runs both
  pools and checks the verdicts agree.
* **a warm cache beats a cold one** — the same ANF jobs against a
  server restarted on the same cache directory take strictly fewer
  Karnaugh minimisations (zero reconversions: every conversion loads
  from disk) and reproduce the CNF bit-for-bit; so does a job whose
  fact-learning loop runs several iterations in one CNF numbering.
  This one asserts unconditionally: it is determinism, not timing.
"""

import asyncio
import io
import os
import random
import time

from repro.server.app import ServerClient, SolverServer

from .conftest import bench_count

#: A small family of distinct ANF systems; distinct so the cold run
#: cannot serve one job from another's in-run cache entries.
def _anf_family(count):
    systems = []
    for k in range(count):
        lines = []
        n = 6
        for i in range(n):
            j = (i + 1) % n
            h = (i + 2 + k) % n
            lines.append(
                "x{i}*x{j} + x{h} + {c}".format(
                    i=i, j=j, h=h, c=(i + k) % 2
                )
            )
        systems.append("\n".join(lines) + "\n")
    return systems


def _cnf_family(count, n=130, ratio=4.26):
    """Random 3-SAT near the threshold: ~0.1-0.2 s of CDCL per job, so
    the scaling claim measures solving, not per-job dispatch noise (the
    tiny ANF family finishes a whole batch in ~20 ms)."""
    texts = []
    for seed in range(count):
        rng = random.Random(seed)
        lines = ["p cnf {} {}".format(n, int(n * ratio))]
        for _ in range(int(n * ratio)):
            lits = [v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, n + 1), 3)]
            lines.append(" ".join(map(str, lits)) + " 0")
        texts.append("\n".join(lines) + "\n")
    return texts


#: A CNF job whose Bosphorus loop runs several iterations: tiny conflict
#: budgets on a pigeonhole refutation, XL and ElimLin on.
LOOP_JOB = {
    "fmt": "dimacs",
    "solve": False,
    "config": {
        "sat_conflict_start": 5,
        "sat_conflict_step": 5,
        "sat_conflict_max": 20,
        "max_iterations": 4,
        "karnaugh_limit": 3,
        "xor_cut_len": 3,
    },
}


def _php_text(holes=5):
    from repro.satcomp.generators import pigeonhole
    from repro.sat.dimacs import write_dimacs

    buf = io.StringIO()
    write_dimacs(buf, pigeonhole(holes))
    return buf.getvalue()


def _run_batch(jobs, cache_dir, texts, repeat=1, fmt="anf", **options):
    """Submit every system `repeat` times over the protocol; returns
    (wall seconds, results)."""

    async def run():
        async with SolverServer(jobs=jobs, cache_dir=cache_dir) as server:
            async with await ServerClient.connect(
                server.host, server.port
            ) as client:
                t0 = time.monotonic()
                ids = []
                for _ in range(repeat):
                    for text in texts:
                        ids.append(await client.submit(fmt, text, **options))
                results = [
                    await client.wait_result(job, timeout=300) for job in ids
                ]
                return time.monotonic() - t0, results

    return asyncio.run(run())


def _best_batch(jobs, tmp_path, tag, texts, batches=3, **options):
    """The fastest of ``batches`` runs of the same batch, each on its own
    cache dir: (wall seconds, results).  Every run must agree on the
    verdicts."""
    runs = [
        _run_batch(jobs, str(tmp_path / "{}-{}".format(tag, i)), texts,
                   **options)
        for i in range(batches)
    ]
    verdicts = {tuple(r["verdict"] for r in results) for _, results in runs}
    assert len(verdicts) == 1, verdicts
    return min(runs, key=lambda run: run[0])


def test_server_throughput_scales_with_workers(benchmark, table_printer,
                                               tmp_path):
    texts = _cnf_family(max(2, bench_count() * 4))
    cpus = os.cpu_count() or 1
    solve_only = {"fmt": "dimacs", "preprocess": False}

    # Separate cache dirs: the scaling comparison must not let run two
    # ride run one's disk entries.  Each side is the best of three
    # batches, so one slow batch on a busy host does not decide the
    # comparison.
    one_s, one_results = _best_batch(1, tmp_path, "one", texts, **solve_only)
    two_s, two_results = benchmark.pedantic(
        lambda: _best_batch(2, tmp_path, "two", texts, **solve_only),
        rounds=1,
        iterations=1,
    )

    verdicts_one = [r["verdict"] for r in one_results]
    verdicts_two = [r["verdict"] for r in two_results]
    assert verdicts_one == verdicts_two
    assert all(v in ("sat", "unsat", "unknown") for v in verdicts_one)

    speedup = one_s / two_s if two_s > 0 else float("inf")
    benchmark.extra_info["one_worker_s"] = round(one_s, 2)
    benchmark.extra_info["two_worker_s"] = round(two_s, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    table_printer(
        "Solver service throughput ({} jobs)".format(len(texts)),
        "1 worker {:.2f}s  2 workers {:.2f}s  speedup {:.2f}x".format(
            one_s, two_s, speedup
        ),
    )

    armed = cpus >= 2 and bench_count() >= 2
    if armed:
        assert speedup >= 1.15, (
            "2-worker pool only {:.2f}x faster".format(speedup)
        )


def test_warm_cache_beats_cold_with_zero_reconversions(benchmark,
                                                       table_printer,
                                                       tmp_path):
    texts = _anf_family(max(2, bench_count()))
    cache_dir = str(tmp_path / "cache")

    cold_s, cold_results = _run_batch(1, cache_dir, texts)
    warm_s, warm_results = benchmark.pedantic(
        lambda: _run_batch(1, cache_dir, texts),
        rounds=1,
        iterations=1,
    )

    assert [r["verdict"] for r in warm_results] == [
        r["verdict"] for r in cold_results
    ]
    # Bit-for-bit identical CNF wherever one was produced.
    for cold_r, warm_r in zip(cold_results, warm_results):
        if "cnf_sha256" in cold_r:
            assert warm_r["cnf_sha256"] == cold_r["cnf_sha256"]
    # Zero reconversions: every warm conversion was a disk hit, so no
    # warm job ran a single Karnaugh minimisation.
    for warm_r in warm_results:
        stats = warm_r["stats"]
        assert stats.get("conversion_disk_hits", 0) > 0
        assert stats.get("karnaugh_cache_misses", 0) == 0

    # The same holds for a job whose loop runs several iterations: each
    # iteration's conversion continues one CNF numbering, and the warm
    # run replays every one of them (plus the final conversion and the
    # CNF augmentation) from disk, bit for bit.
    _, (cold_loop,) = _run_batch(1, cache_dir, [_php_text()], **LOOP_JOB)
    _, (warm_loop,) = _run_batch(1, cache_dir, [_php_text()], **LOOP_JOB)
    iterations = cold_loop["stats"]["iterations"]
    assert iterations >= 3
    assert warm_loop["cnf_sha256"] == cold_loop["cnf_sha256"]
    assert warm_loop["stats"]["techniques"] == cold_loop["stats"]["techniques"]
    assert warm_loop["stats"]["conversion_disk_hits"] == iterations + 2
    assert warm_loop["stats"]["karnaugh_cache_misses"] == 0

    benchmark.extra_info["cold_s"] = round(cold_s, 2)
    benchmark.extra_info["warm_s"] = round(warm_s, 2)
    table_printer(
        "Persistent conversion cache ({} jobs)".format(len(texts)),
        "cold {:.2f}s  warm {:.2f}s  (warm: zero reconversions,"
        " CNF bit-for-bit)".format(cold_s, warm_s),
    )
