"""repro — a from-scratch reproduction of BOSPHORUS (DATE 2019).

BOSPHORUS bridges ANF (GF(2) polynomial systems) and CNF solving: XL,
ElimLin and conflict-bounded CDCL SAT solving are iterated, with ANF
propagation folding each technique's learnt facts back into the master
problem, until a fixed point.  See DESIGN.md for the system inventory and
where the reproduction departs from the paper's setup.

Quickstart::

    from repro import Bosphorus, parse_system

    ring, polys = parse_system('''
        x1*x2 + x3 + x4 + 1
        x1*x2*x3 + x1 + x3 + 1
        x1*x3 + x3*x4*x5 + x3
        x2*x3 + x3*x5 + 1
        x2*x3 + x5 + 1
    ''')
    result = Bosphorus().preprocess_anf(ring, polys)
    print(result.status, result.solution)
"""

from .anf import (
    AnfSystem,
    ContradictionError,
    Monomial,
    Poly,
    Ring,
    parse_polynomial,
    parse_system,
    read_anf,
    write_anf,
)
from .core import (
    PAPER_CONFIG,
    Bosphorus,
    BosphorusResult,
    Config,
    FactStore,
    Solution,
    cnf_to_anf,
)
from .portfolio import (
    BatchScheduler,
    CdclBackend,
    DimacsBackend,
    PortfolioRunner,
    PortfolioStats,
    SolverBackend,
    create_backend,
    default_portfolio,
)
from .sat import CnfFormula, Solver, SolverConfig, parse_dimacs, write_dimacs

__version__ = "1.1.0"

__all__ = [
    "Poly",
    "Monomial",
    "Ring",
    "AnfSystem",
    "ContradictionError",
    "parse_polynomial",
    "parse_system",
    "read_anf",
    "write_anf",
    "Bosphorus",
    "BosphorusResult",
    "Config",
    "PAPER_CONFIG",
    "FactStore",
    "Solution",
    "cnf_to_anf",
    "Solver",
    "SolverConfig",
    "CnfFormula",
    "parse_dimacs",
    "write_dimacs",
    "SolverBackend",
    "CdclBackend",
    "DimacsBackend",
    "create_backend",
    "default_portfolio",
    "PortfolioRunner",
    "PortfolioStats",
    "BatchScheduler",
    "__version__",
]
