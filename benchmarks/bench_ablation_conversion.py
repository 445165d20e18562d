"""Ablation: conversion parameters K (Karnaugh limit) and L (XOR cut).

Section III-C argues the Karnaugh path is more compact but exponential in
K, while Tseitin is flexible.  This bench measures clause counts and
conversion time across K and L on a Simon instance, quantifying Fig. 2's
6-vs-11 observation at system scale.
"""

import pytest

from repro.ciphers import simon
from repro.core import AnfToCnf, Config


@pytest.fixture(scope="module")
def instance():
    return simon.generate_instance(2, 4, seed=55)


@pytest.mark.parametrize("karnaugh", [0, 4, 8])
def test_karnaugh_limit_sweep(benchmark, instance, karnaugh):
    converter = AnfToCnf(Config(karnaugh_limit=karnaugh))

    conv = benchmark(
        converter.convert_polynomials, instance.polynomials, instance.ring.n_vars
    )

    benchmark.extra_info["clauses"] = len(conv.formula.clauses)
    benchmark.extra_info["aux_vars"] = conv.stats.monomial_vars + conv.stats.cut_vars
    benchmark.extra_info["karnaugh_polys"] = conv.stats.karnaugh_polys


def test_karnaugh_reduces_auxiliary_variables(benchmark, instance):
    """Section III-C's claim, measured: the Karnaugh path reduces the
    number of auxiliary variables used (clause counts can go either way
    at system scale — parity-like supports minimise poorly — which is why
    the paper says Karnaugh "can" be more compact, not "is")."""
    karnaugh = benchmark(
        AnfToCnf(Config(karnaugh_limit=8)).convert_polynomials,
        instance.polynomials, instance.ring.n_vars,
    )
    tseitin = AnfToCnf(Config(karnaugh_limit=0)).convert_polynomials(
        instance.polynomials, instance.ring.n_vars
    )
    assert karnaugh.stats.monomial_vars < tseitin.stats.monomial_vars
    assert karnaugh.formula.n_vars <= tseitin.formula.n_vars
    benchmark.extra_info["karnaugh_clauses"] = len(karnaugh.formula.clauses)
    benchmark.extra_info["tseitin_clauses"] = len(tseitin.formula.clauses)


@pytest.mark.parametrize("cut_len", [3, 5, 8])
def test_xor_cut_length_sweep(benchmark, instance, cut_len):
    converter = AnfToCnf(Config(karnaugh_limit=4, xor_cut_len=cut_len))

    conv = benchmark(
        converter.convert_polynomials, instance.polynomials, instance.ring.n_vars
    )

    benchmark.extra_info["clauses"] = len(conv.formula.clauses)
    benchmark.extra_info["cut_vars"] = conv.stats.cut_vars
