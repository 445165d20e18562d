"""Pluggable solver backends + the parallel portfolio engine.

The paper's evaluation (Table II) is a race of solver backends over
hundreds of instances; this package is the reproduction's scaling
counterpart:

* :mod:`repro.portfolio.backends` — the :class:`SolverBackend` protocol,
  the in-process CDCL personalities (plus seed-diversified copies), the
  external-binary DIMACS backend, and :func:`create_backend`'s spec
  lookup;
* :mod:`repro.portfolio.engine` — the one fan-out engine: cubes dealt
  into chains over backends, first validated verdict wins, losers are
  cancelled cooperatively, one :class:`PortfolioStats` row per cube, one
  verdict rule (:func:`arbitrate`).  :class:`PortfolioRunner` races N
  backends as the conquest of one empty cube each; cube-and-conquer
  (:mod:`repro.cube`) splits first;
* :mod:`repro.portfolio.batch` — the one worker pool every fan-out runs
  on, and :class:`BatchScheduler`, a map over it with per-item isolation
  (parallel Table II via ``run_family(jobs=...)``, portfolio legs,
  cubes).
"""

from .backends import (
    BackendResult,
    CdclBackend,
    DimacsBackend,
    PERSONALITIES,
    SolverBackend,
    create_backend,
    default_portfolio,
    stop_rule,
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
    "PERSONALITIES",
    "SolverBackend",
    "create_backend",
    "default_portfolio",
    "stop_rule",
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
