"""Golden record of the wide ANF pipeline: the corpus, the recorder, the writer.

The pipeline is the Bosphorus inner-loop shape on a cipher-scale
(>64-variable) system: propagate to a fixpoint, probe failed literals,
absorb the probe facts, propagate again.  The record holds what that
run produced on Simon32/64, 1 plaintext, 3 rounds, seed 3:

* ``facts`` — the probe facts, in the order probing emitted them;
* ``processed`` — ``materialize(system)``, in list order;
* ``value`` / ``find`` — the variable state, per variable.

Polynomials are written as lists of sorted monomials, each monomial a
list of variable indices, sorted so the record does not depend on set
iteration order inside a polynomial.

The record was first written while the monomial layer still carried
its sorted-tuple mode, and generation asserted that the mask and tuple
engines produced exactly this output; the tuple mode is gone, so the
record now stands in for it.  ``tests/test_propagation_wide.py``
replays it.  Regenerate only in a change that means to alter
propagation or probing (and say so in its description)::

    PYTHONPATH=src python tests/golden/anf_pipeline.py
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.anf import AnfSystem
from repro.anf.polynomial import Poly
from repro.ciphers import simon
from repro.core.probing import run_probing
from repro.core.propagation import materialize, propagate

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "anf_pipeline.json")


def instance():
    """The recorded system: Simon32/64, 1 plaintext, 3 rounds, seed 3."""
    return simon.generate_instance(1, 3, seed=3)


def absorb_and_probe(inst, probe_limit=8):
    """The Bosphorus inner-loop shape: fixpoint, probe, absorb, fixpoint."""
    system = AnfSystem(inst.ring.clone(), inst.polynomials)
    propagate(system)
    probe = run_probing(system, probe_limit)
    fresh = []
    for fact in probe.facts:
        nf = system.normalize(fact)
        if not nf.is_zero() and system.add(nf):
            fresh.append(nf)
    if fresh:
        propagate(system, dirty=fresh)
    return system, probe


def poly_record(p: Poly) -> List[List[int]]:
    return sorted(list(m) for m in p.monomials)


def record() -> Dict[str, object]:
    """Run the pipeline and return its JSON-ready record."""
    inst = instance()
    system, probe = absorb_and_probe(inst)
    state = system.state
    return {
        "n_vars": inst.n_vars,
        "facts": [poly_record(p) for p in probe.facts],
        "processed": [poly_record(p) for p in materialize(system)],
        "value": [state.value(v) for v in range(inst.n_vars)],
        "find": [list(state.find(v)) for v in range(inst.n_vars)],
    }


def main() -> None:
    with open(FIXTURE, "w") as f:
        json.dump(record(), f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
