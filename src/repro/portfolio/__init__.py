"""Pluggable solver backends + the parallel portfolio engine.

The paper's evaluation (Table II) is a race of solver backends over
hundreds of instances; this package is the reproduction's scaling
counterpart:

* :mod:`repro.portfolio.backends` — the :class:`SolverBackend` protocol,
  the in-process CDCL personalities (plus seed-diversified copies), the
  external-binary DIMACS backend, and the name registry;
* :mod:`repro.portfolio.engine` — :class:`PortfolioRunner`: one instance
  fanned out to N backends, first validated verdict wins, losers are
  cancelled cooperatively, per-backend :class:`PortfolioStats` reported;
* :mod:`repro.portfolio.batch` — the one worker pool every fan-out runs
  on, and :class:`BatchScheduler`, a map over it with per-item isolation
  (parallel Table II via ``run_family(jobs=...)``, portfolio legs,
  cubes).
"""

from .backends import (
    BackendResult,
    CdclBackend,
    DimacsBackend,
    EXTERNAL_SOLVER_CANDIDATES,
    SolverBackend,
    create_backend,
    default_portfolio,
    detect_external_backends,
    register_backend,
    registered_backends,
)
from .batch import BatchItemError, BatchScheduler, batch_cancel, default_jobs
from .engine import (
    PortfolioDisagreement,
    PortfolioResult,
    PortfolioRunner,
    PortfolioStats,
    arbitrate,
)

__all__ = [
    "BackendResult",
    "CdclBackend",
    "DimacsBackend",
    "EXTERNAL_SOLVER_CANDIDATES",
    "SolverBackend",
    "create_backend",
    "default_portfolio",
    "detect_external_backends",
    "register_backend",
    "registered_backends",
    "BatchItemError",
    "BatchScheduler",
    "batch_cancel",
    "default_jobs",
    "PortfolioDisagreement",
    "PortfolioResult",
    "PortfolioRunner",
    "PortfolioStats",
    "arbitrate",
]
