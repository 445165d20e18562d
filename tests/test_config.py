"""Tests for the configuration object and the paper's parameter set."""

import dataclasses
import inspect

from repro.core import Config, PAPER_CONFIG
from repro.sat import (
    Preprocessor,
    SolverConfig,
    lingeling_config,
    minisat_config,
)


def test_paper_parameters_match_section_iv():
    """Section IV: M=30, deltaM=4, D=1, K=8, L=L'=5, C: 10k..100k by 10k."""
    assert PAPER_CONFIG.xl_sample_bits == 30
    assert PAPER_CONFIG.xl_expand_allowance == 4
    assert PAPER_CONFIG.xl_degree == 1
    assert PAPER_CONFIG.karnaugh_limit == 8
    assert PAPER_CONFIG.xor_cut_len == 5
    assert PAPER_CONFIG.clause_cut_len == 5
    assert PAPER_CONFIG.sat_conflict_start == 10000
    assert PAPER_CONFIG.sat_conflict_step == 10000
    assert PAPER_CONFIG.sat_conflict_max == 100000


def test_default_config_is_scaled_down():
    cfg = Config()
    assert cfg.xl_sample_bits < PAPER_CONFIG.xl_sample_bits
    assert cfg.sat_conflict_max <= PAPER_CONFIG.sat_conflict_max
    # But the conversion parameters are the paper's.
    assert cfg.karnaugh_limit == PAPER_CONFIG.karnaugh_limit
    assert cfg.xor_cut_len == PAPER_CONFIG.xor_cut_len


def test_with_creates_modified_copy():
    base = Config()
    derived = base.with_(xl_degree=3)
    assert derived.xl_degree == 3
    assert base.xl_degree == 1
    assert derived.karnaugh_limit == base.karnaugh_limit


def test_all_techniques_enabled_by_default():
    cfg = Config()
    assert cfg.use_xl and cfg.use_elimlin and cfg.use_sat
    assert not cfg.use_groebner  # optional plug-in (paper section V)


def test_solver_option_inventory():
    """Every solver option has two values in use: the personalities
    differ on ``var_decay`` and ``restart_base``, tests shrink the
    learnt-database bounds, and ``seed`` diversifies portfolio legs.  A
    new knob has to justify itself against this list."""
    assert {f.name for f in dataclasses.fields(SolverConfig)} == {
        "var_decay", "restart_base", "learnt_keep_base", "learnt_keep_step",
        "seed",
    }
    minisat, lingeling = minisat_config(), lingeling_config()
    assert minisat.var_decay != lingeling.var_decay
    assert minisat.restart_base != lingeling.restart_base
    assert list(inspect.signature(Preprocessor.run).parameters) == ["self"]
