"""End-to-end regression: cipher-scale (>64-variable) systems ride the
width-adaptive mask path.

A Simon round encoding runs hundreds of variables, so before the
multi-limb masks every monomial here silently fell off the bitwise fast
path.  These tests drive the full Bosphorus ``_absorb`` + failed-literal
probing pipeline on such a system and check its output bit for bit
against the golden record (``golden/anf_pipeline.py``), which the
sorted-tuple engine reproduced exactly when the record was written.
"""

import json

import pytest

from golden.anf_pipeline import FIXTURE, absorb_and_probe, instance, record
from repro.anf import monomial as mono
from repro.ciphers import simon
from repro.core.bosphorus import Bosphorus
from repro.core.config import Config


def test_simon_round_encoding_exceeds_one_limb():
    assert instance().n_vars > mono.LIMB_BITS


def test_wide_absorb_probing_sweep_zero_fallbacks():
    inst = instance()
    system, probe = absorb_and_probe(inst)
    assert probe.probed > 0
    assert system.check_assignment(inst.witness)


def test_wide_pipeline_matches_golden_record():
    """Mask-path engine output == the recorded output, which the tuple
    engine matched when the record was written."""
    with open(FIXTURE) as f:
        golden = json.load(f)
    assert json.loads(json.dumps(record())) == golden


@pytest.mark.slow
def test_full_bosphorus_run_reports_zero_mask_fallbacks():
    """A whole preprocess run at cipher scale rides the mask path."""
    inst = simon.generate_instance(2, 4, seed=5)
    assert inst.n_vars > 2 * mono.LIMB_BITS
    config = Config(
        xl_sample_bits=12,
        elimlin_sample_bits=12,
        use_sat=False,
        use_probing=True,
        probe_limit=4,
        max_iterations=2,
    )
    result = Bosphorus(config).preprocess_anf(inst.ring, inst.polynomials)
    assert not result.is_unsat
    assert all(p.evaluate(inst.witness) == 0 for p in result.processed_anf)
