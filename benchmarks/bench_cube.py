"""Cube-and-conquer scaling: the cubed final solve vs the uncubed one.

The claim behind ``make bench-cube``: splitting a hard UNSAT Simon
key-recovery refutation into assumption cubes and fanning them over the
``BatchScheduler`` pool beats the single uncubed solver on wall-clock,
while reaching the *same* verdict.  UNSAT is the interesting direction —
a SAT instance can be won by one lucky cube, but a refutation forces the
scheduler to close every piece of the partition, so the speedup is real
parallel work rather than scheduling luck.

The instance is deterministic: one correct Simon32/64 (plaintext,
ciphertext) pair with a single flipped ciphertext bit, all but
``FREE_KEY_BITS`` key bits pinned to the encoding witness.  Refuting it
means exhausting the remaining key subspace modulo propagation — CDCL
needs thousands of conflicts, and the work splits cleanly along key
variables.  (Verified UNSAT at tuning time; the bench re-asserts both
paths agree on ``False`` whenever neither times out.)

The speedup assertion arms only when the machine can parallelise
(>= 2 CPUs) and the run is big enough to measure (REPRO_BENCH_COUNT
>= 2); the smoke configuration shrinks the free key space so the check
fits the 2-second smoke timeout.
"""

import os
import random
import time

from repro.anf import AnfSystem
from repro.anf.polynomial import Poly
from repro.ciphers import simon
from repro.core.anf_to_cnf import AnfToCnf
from repro.core.config import Config
from repro.cube import CubeConqueror
from repro.portfolio import CdclBackend

from .conftest import bench_count, bench_timeout

#: ~3 s of sequential minisat refutation on the tuning machine.
ROUNDS = 7
FREE_KEY_BITS = 16
SMOKE_FREE_KEY_BITS = 10
CUBE_DEPTH = 4


def unsat_simon_cnf(rounds, free_key_bits, seed=7):
    """A guaranteed-hard, deterministic UNSAT Simon32/64 refutation."""
    rng = random.Random(seed)
    key = [rng.getrandbits(16) for _ in range(simon.KEY_WORDS)]
    plaintext = (rng.getrandbits(16), rng.getrandbits(16))
    inst = simon.encode_instance([plaintext], key, rounds)
    polys = list(inst.polynomials)
    # Flip one ciphertext bit: no key in the free subspace reaches it.
    polys[-1] = polys[-1] + Poly.one()
    for v in inst.key_vars[free_key_bits:]:
        polys.append(Poly.variable(v) + Poly.constant(inst.witness[v]))
    system = AnfSystem(inst.ring, polys)
    return AnfToCnf(Config()).convert(system).formula


def test_cube_and_conquer_unsat_speedup(benchmark, table_printer):
    free = FREE_KEY_BITS if bench_count() >= 2 else SMOKE_FREE_KEY_BITS
    formula = unsat_simon_cnf(ROUNDS, free)
    timeout = max(bench_timeout(), 30.0) if bench_count() >= 2 else bench_timeout()
    cpus = os.cpu_count() or 1
    jobs = min(4, cpus)

    t0 = time.monotonic()
    uncubed = CdclBackend("minisat").solve(formula, timeout_s=timeout)
    seq_s = time.monotonic() - t0

    conqueror = CubeConqueror(
        [CdclBackend("minisat")], jobs=jobs, depth=CUBE_DEPTH
    )
    t0 = time.monotonic()
    outcome = benchmark.pedantic(
        lambda: conqueror.run(formula, timeout_s=timeout),
        rounds=1,
        iterations=1,
    )
    cube_s = time.monotonic() - t0

    # Soundness: the cubed solve must never contradict the uncubed one,
    # and on this deterministic instance a definitive verdict is UNSAT.
    for verdict in (uncubed.status, outcome.verdict):
        assert verdict in (False, None)
    if uncubed.status is not None and outcome.verdict is not None:
        assert outcome.verdict is uncubed.status is False
        assert all(s.status in ("unsat", "cancelled")
                   for s in outcome.stats)

    speedup = seq_s / cube_s if cube_s > 0 else float("inf")
    benchmark.extra_info["free_key_bits"] = free
    benchmark.extra_info["n_cubes"] = outcome.n_cubes
    benchmark.extra_info["n_refuted"] = outcome.n_refuted
    benchmark.extra_info["sequential_s"] = round(seq_s, 2)
    benchmark.extra_info["cubed_s"] = round(cube_s, 2)
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["speedup"] = round(speedup, 2)
    table_printer(
        "Cube-and-conquer on Simon32/64 {} rounds, {} free key bits".format(
            ROUNDS, free
        ),
        "uncubed {:.2f}s  cubed({} cubes, {} jobs) {:.2f}s  speedup {:.2f}x".format(
            seq_s, outcome.n_cubes, jobs, cube_s, speedup
        ),
    )

    armed = cpus >= 2 and jobs >= 2 and bench_count() >= 2
    if armed:
        assert speedup >= 1.15, (
            "cube-and-conquer with {} workers only {:.2f}x faster".format(
                jobs, speedup
            )
        )
