"""ANF→CNF conversion benchmarks: the mask-native bridge vs the seed path.

The conversion layer is the last hop of every Bosphorus iteration (the
inner SAT step converts the whole system each round), so its constants
sit under all Table II numbers.  These benches pin the PR-4 claims at
Simon32 scale (288 variables — more than four 64-bit mask limbs):

* the *isolated truth-table/convert path* — batch numpy truth tables
  over support-compressed term masks plus the structure-keyed Karnaugh
  cache, against the seed's per-row Python evaluation with a fresh
  Quine–McCluskey run per chunk — must be >= 3x;
* end-to-end ``convert_polynomials`` vs the seed scalar converter
  (``tests/oracles/anf_to_cnf.py``) is verified bit-for-bit (clauses,
  xors, maps) on Simon *and* Speck encodings, with the speedup recorded.

``REPRO_BENCH_COUNT >= 2`` arms the ratio assertions (the smoke run
uses count 1 and only checks correctness), mirroring
``bench_solver_core``.
"""

import time

from repro.anf import monomial as mono
from repro.anf.polynomial import Poly
from repro.ciphers import simon, speck
from repro.core.anf_to_cnf import AnfToCnf
from repro.core.config import Config
from repro.minimize import minimize
from repro.minimize.truthtable import truth_table_masks
from tests.oracles.anf_to_cnf import convert_polynomials_scalar
from tests.oracles.truthtable import truth_table

from .conftest import bench_count


def _ab_best_pair(fn_new, fn_seed, rounds):
    """Interleaved best-of timing of two implementations."""
    best_new = best_seed = float("inf")
    r_new = r_seed = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        r_new = fn_new()
        best_new = min(best_new, time.perf_counter() - t0)
        t0 = time.perf_counter()
        r_seed = fn_seed()
        best_seed = min(best_seed, time.perf_counter() - t0)
    return best_new, best_seed, r_new, r_seed


def _karnaugh_chunks(polys, n_vars, config):
    """The Karnaugh-path chunk stream of a conversion: XOR-cut pieces
    whose support fits the parameter K, as (term masks, rhs, support,
    chunk polynomial) quadruples.  Replicates the converter's cutting so
    the truth-table bench times exactly the per-chunk minimisation
    workload; the polynomial (terms plus rhs) is the seed leg's input."""
    cut_len = max(config.xor_cut_len, 3)
    next_var = n_vars
    chunks = []
    for p in polys:
        if p.is_zero() or p.is_one():
            continue
        rhs = 1 if p.has_constant_term() else 0
        # Ascending deglex, as the converter orders a polynomial's terms.
        terms = sorted(
            (m for m in p if m), key=mono.deglex_desc_key, reverse=True
        )
        if not terms:
            continue
        pieces = []
        while len(terms) > cut_len:
            head, tail = terms[: cut_len - 1], terms[cut_len - 1:]
            aux = 1 << next_var
            next_var += 1
            pieces.append((head + [aux], 0))
            terms = [aux] + tail
        pieces.append((terms, rhs))
        for chunk_terms, chunk_rhs in pieces:
            support = 0
            for mk in chunk_terms:
                support |= mk
            if support.bit_count() <= config.karnaugh_limit:
                poly = Poly([mono.as_tuple(mk) for mk in chunk_terms])
                chunks.append(
                    (
                        chunk_terms,
                        chunk_rhs,
                        mono.bits_of(support),
                        poly.add_constant(chunk_rhs),
                    )
                )
    return chunks


def _assert_formulas_identical(a, b):
    assert a.formula.clauses == b.formula.clauses
    assert a.formula.xors == b.formula.xors
    assert a.formula.n_vars == b.formula.n_vars
    assert a.var_of_monomial == b.var_of_monomial
    assert a.monomial_of_var == b.monomial_of_var
    assert a.cut_vars == b.cut_vars


def test_cnf_wide_truthtable_isolated_batch_vs_python(benchmark):
    """The isolated truth-table/convert path at Simon32 scale: numpy
    batch evaluation + structure-keyed cube cache vs the seed's per-row
    Python truth table and per-chunk Quine–McCluskey.  Must be >= 3x,
    with identical cube covers chunk for chunk.
    """
    inst = simon.generate_instance(2, 8, seed=7)
    assert inst.n_vars > 4 * mono.LIMB_BITS
    config = Config()
    chunks = _karnaugh_chunks(list(inst.polynomials), inst.n_vars, config)
    assert len(chunks) > 500  # cipher-scale chunk stream

    def batch_cached():
        cache = {}
        out = []
        for masks, rhs, _support, _poly in chunks:
            smask = 0
            for mk in masks:
                smask |= mk
            key = mono.shape_key(masks, smask, rhs)
            cubes = cache.get(key)
            if cubes is None:
                cubes = minimize(truth_table_masks(key[1], key[0], rhs), key[0])
                cache[key] = cubes
            out.append(cubes)
        return out

    def python_per_chunk():
        out = []
        for _masks, _rhs, support, poly in chunks:
            out.append(minimize(truth_table(poly, support), len(support)))
        return out

    full = bench_count() >= 2
    new_s, seed_s, covers_new, covers_seed = _ab_best_pair(
        batch_cached, python_per_chunk, rounds=5 if full else 1
    )
    # Shape-local cube space == support-index cube space (the renaming
    # is order-preserving), so the covers must agree exactly.
    assert covers_new == covers_seed
    benchmark.pedantic(batch_cached, rounds=3 if full else 1, iterations=1)
    ratio = seed_s / new_s
    benchmark.extra_info["n_vars"] = inst.n_vars
    benchmark.extra_info["chunks"] = len(chunks)
    shapes = set()
    for masks, rhs, _support, _poly in chunks:
        smask = 0
        for mk in masks:
            smask |= mk
        shapes.add(mono.shape_key(masks, smask, rhs))
    benchmark.extra_info["distinct_shapes"] = len(shapes)
    benchmark.extra_info["batch_ms"] = round(new_s * 1e3, 3)
    benchmark.extra_info["python_ms"] = round(seed_s * 1e3, 3)
    benchmark.extra_info["speedup"] = round(ratio, 2)
    if full:
        assert ratio >= 3.0, (
            "isolated truth-table path only {:.2f}x faster".format(ratio)
        )


def test_cnf_wide_convert_simon_vs_scalar(benchmark):
    """End-to-end conversion of the Simon32 encoding: mask path vs the
    seed scalar twin, verified bit-for-bit, speedup recorded (the shared
    clause emission bounds the end-to-end gap; the >=3x claim lives on
    the isolated bench above)."""
    inst = simon.generate_instance(2, 8, seed=7)
    polys = list(inst.polynomials)
    config = Config()

    fast = lambda: AnfToCnf(config).convert_polynomials(polys, n_vars=inst.n_vars)
    scalar = lambda: convert_polynomials_scalar(
        polys, n_vars=inst.n_vars, config=config
    )

    full = bench_count() >= 2
    new_s, seed_s, conv_new, conv_seed = _ab_best_pair(
        fast, scalar, rounds=5 if full else 1
    )
    _assert_formulas_identical(conv_new, conv_seed)
    conv = benchmark.pedantic(fast, rounds=3 if full else 1, iterations=1)
    ratio = seed_s / new_s
    benchmark.extra_info["n_vars"] = inst.n_vars
    benchmark.extra_info["clauses"] = len(conv.formula.clauses)
    benchmark.extra_info["cache_hits"] = conv.stats.karnaugh_cache_hits
    benchmark.extra_info["cache_misses"] = conv.stats.karnaugh_cache_misses
    benchmark.extra_info["speedup"] = round(ratio, 2)


def test_cnf_wide_convert_speck_differential(benchmark):
    """Differential leg on the Speck32 encoding (476 variables, ARX
    structure with distinct chunk shapes from the modular additions):
    bit-for-bit agreement with the scalar twin."""
    inst = speck.generate_instance(2, 5, seed=11)
    assert inst.n_vars > 7 * mono.LIMB_BITS
    polys = list(inst.polynomials)
    config = Config()

    fast = lambda: AnfToCnf(config).convert_polynomials(polys, n_vars=inst.n_vars)
    conv_seed = convert_polynomials_scalar(
        polys, n_vars=inst.n_vars, config=config
    )
    conv_new = benchmark.pedantic(
        fast, rounds=3 if bench_count() >= 2 else 1, iterations=1
    )
    _assert_formulas_identical(conv_new, conv_seed)
    benchmark.extra_info["n_vars"] = inst.n_vars
    benchmark.extra_info["clauses"] = len(conv_new.formula.clauses)
    benchmark.extra_info["cache_hits"] = conv_new.stats.karnaugh_cache_hits
    benchmark.extra_info["cache_misses"] = conv_new.stats.karnaugh_cache_misses
