"""Configuration of the Bosphorus workflow.

Field names follow the paper's section IV parameter list:

* ``xl_sample_bits`` — M: XL/ElimLin subsample so that the linearised
  system has roughly ``2**M`` matrix bits,
* ``xl_expand_allowance`` — δM: XL expansion stops near ``2**(M + δM)``,
* ``xl_degree`` — D: maximum degree of expansion multipliers,
* ``karnaugh_limit`` — K: maximum support size for the Karnaugh-map
  conversion path (clamped to 20, the widest truth table it builds),
* ``xor_cut_len`` — L: XOR-cutting length for ANF→CNF,
* ``clause_cut_len`` — L': clause-cutting length for CNF→ANF,
* ``sat_conflict_*`` — the conflict budget schedule C (start, step, max).

The paper's exact values are preserved in :data:`PAPER_CONFIG`; the default
:class:`Config` scales the matrix and conflict budgets down so the
pure-Python reproduction remains fast (documented in DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass
class Config:
    """Tunable parameters of the Bosphorus fact-learning loop."""

    # XL / ElimLin linearisation budgets.
    xl_sample_bits: int = 16
    xl_expand_allowance: int = 4
    xl_degree: int = 1
    elimlin_sample_bits: int = 16
    # ANF→CNF conversion.
    karnaugh_limit: int = 8
    xor_cut_len: int = 5
    # CNF→ANF conversion.
    clause_cut_len: int = 5
    # Conflict budget schedule for the inner SAT solver.
    sat_conflict_start: int = 2000
    sat_conflict_step: int = 2000
    sat_conflict_max: int = 20000
    # Workflow control.
    max_iterations: int = 20
    stop_on_solution: bool = True
    use_xl: bool = True
    use_elimlin: bool = True
    use_sat: bool = True
    use_groebner: bool = False
    # Failed-literal probing — the section-V "lookahead" plug-in.
    use_probing: bool = False
    probe_limit: int = 32
    # Hard caps keeping the pure-Python XL matrices manageable.
    xl_max_rows: int = 6000
    xl_max_cols: int = 6000
    # RNG seed for the subsampling steps (replicability).
    seed: int = 0
    # Persistent conversion cache (repro.server.cache): when set,
    # converters spill minimised Karnaugh covers and whole conversion
    # results to this directory and load them back on later runs —
    # entries are content-addressed, version-stamped, and corrupt/stale
    # entries degrade to misses.  None keeps the caches in-memory only.
    cache_dir: Optional[str] = None

    def with_(self, **kwargs) -> "Config":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)


#: The exact parameters reported in the paper (section IV).
PAPER_CONFIG = Config(
    xl_sample_bits=30,
    xl_expand_allowance=4,
    xl_degree=1,
    elimlin_sample_bits=30,
    karnaugh_limit=8,
    xor_cut_len=5,
    clause_cut_len=5,
    sat_conflict_start=10000,
    sat_conflict_step=10000,
    sat_conflict_max=100000,
    xl_max_rows=10**9,
    xl_max_cols=10**9,
)
