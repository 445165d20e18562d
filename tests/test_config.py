"""Tests for the configuration object and the paper's parameter set."""

from repro.core import Config, PAPER_CONFIG


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
