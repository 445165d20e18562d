"""CDCL SAT solving substrate (our MiniSat/Lingeling/CryptoMiniSat stand-in).

Three *personalities* reproduce the paper's three back-end solvers:

* :func:`minisat_config` — plain CDCL (MiniSat 2.2 role),
* :func:`lingeling_config` — CDCL + SatELite preprocessing (Lingeling role),
* ``cms`` — :func:`minisat_config` CDCL + native XOR/GJE engine
  (CryptoMiniSat5 role; the engine is attached by
  :class:`repro.portfolio.CdclBackend`).
"""

from .clause import Clause
from .dimacs import (
    CnfFormula,
    DimacsError,
    expand_xors,
    parse_dimacs,
    read_dimacs,
    write_dimacs,
)
from .drat import DratProof, check_rup
from .preprocess import Preprocessor, PreprocessResult
from .solver import SAT, UNKNOWN, UNSAT, Solver, SolverConfig, luby
from .types import (
    FALSE,
    TRUE,
    UNDEF,
    lit_from_dimacs,
    lit_neg,
    lit_sign,
    lit_to_dimacs,
    lit_var,
    mk_lit,
)
from .xorengine import XorClause, XorEngine
from .xorrecovery import formula_with_recovered_xors, recover_xors


#: The CDCL work counters a span records at exit, read from
#: ``Solver.num_<name>`` (``simplified``: problem clauses removed by
#: level-0 simplification); :func:`solver_counters` adds the learnt-DB
#: size.
SOLVER_COUNTERS = (
    "conflicts", "decisions", "propagations", "restarts", "reductions",
    "simplified",
)


def solver_counters(solver: Solver) -> dict:
    """The solver's running work totals plus its learnt-clause count."""
    counts = {name: getattr(solver, "num_" + name) for name in SOLVER_COUNTERS}
    counts["learnts"] = len(solver.learnts)
    return counts


def minisat_config() -> SolverConfig:
    """Plain CDCL tuned like MiniSat 2.2."""
    return SolverConfig(var_decay=0.95, restart_base=100)


def lingeling_config() -> SolverConfig:
    """More aggressive restarts; pair with the SatELite preprocessor."""
    return SolverConfig(var_decay=0.85, restart_base=50)


__all__ = [
    "Clause",
    "DratProof",
    "check_rup",
    "Solver",
    "SolverConfig",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "luby",
    "SOLVER_COUNTERS",
    "solver_counters",
    "Preprocessor",
    "PreprocessResult",
    "XorEngine",
    "XorClause",
    "recover_xors",
    "formula_with_recovered_xors",
    "CnfFormula",
    "DimacsError",
    "expand_xors",
    "parse_dimacs",
    "read_dimacs",
    "write_dimacs",
    "mk_lit",
    "lit_var",
    "lit_sign",
    "lit_neg",
    "lit_from_dimacs",
    "lit_to_dimacs",
    "TRUE",
    "FALSE",
    "UNDEF",
]
