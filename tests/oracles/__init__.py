"""Frozen differential oracles: the seed implementations of the hot layers.

Each production fast path is pinned bit for bit to one of these:

* :mod:`oracles.gf2` — the column-at-a-time Gauss–Jordan ``rref_gj``,
  for the Four-Russians kernel ``repro.gf2.elimination.eliminate``;
* :mod:`oracles.linearize` — the per-cell / per-row matrix codecs, for
  ``Linearization.to_matrix`` / ``rows_to_polys``;
* :mod:`oracles.anf_to_cnf` — the per-variable tuple-path converter, for
  the mask-native ``AnfToCnf``;
* :mod:`oracles.monomial` and :mod:`oracles.polynomial` — the
  sorted-tuple monomial merges and the tuple loops of polynomial
  products, substitution and CNF clause expansion, for the bitmask
  monomial layer;
* :mod:`oracles.system` — the ``Poly``-valued ``AnfSystem.normalize``
  pipeline, for the mask-native rewrite propagation runs on.

They live with the tests and nothing in ``src/`` imports them.  Their
value is being unchanged: every top-level definition here is pinned by
a normalized-AST fingerprint in ``tests/oracle_fingerprints.json``,
checked by ``make lint`` (ORACLE-FREEZE) and by
``tests/test_oracle_fingerprints.py``.  A deliberate, reviewed edit
regenerates the pins with::

    PYTHONPATH=src python -m repro.analysis --update-fingerprints
"""
