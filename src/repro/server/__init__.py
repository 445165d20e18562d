"""Solver-as-a-service: the async job layer over a persistent worker pool.

The package splits into four pieces:

* :mod:`repro.server.cache` — the persistent content-addressed cache
  store backing the conversion layer (Karnaugh covers + whole
  conversions survive restarts);
* :mod:`repro.server.pool` — the long-lived daemon worker pool (job
  submission by message, cooperative cancellation within one conflict,
  dead-worker respawn);
* :mod:`repro.server.jobs` — what one job *is*: its text parsed and
  handed to :func:`repro.pipeline.solve_problem`, the one solve
  pipeline (workers are backends-only), under the job's deadline;
* :mod:`repro.server.protocol` / :mod:`repro.server.app` — the
  JSON-lines protocol over ``asyncio.start_server`` and the
  :class:`SolverServer` that bridges connections to the pool.

This ``__init__`` stays import-light on purpose: :mod:`repro.core`
lazily imports the cache store, so pulling the whole server stack (which
itself imports :mod:`repro.core`) at that moment would cycle.  The heavy
modules load on first attribute access instead.
"""

from __future__ import annotations

from .cache import CACHE_VERSION, CacheStore, content_key

__all__ = [
    "CACHE_VERSION",
    "CacheStore",
    "content_key",
    "JobSpec",
    "WorkerPool",
    "execute_job",
    "SolverServer",
    "ServerClient",
]

_LAZY = {
    "JobSpec": "jobs",
    "execute_job": "jobs",
    "WorkerPool": "pool",
    "SolverServer": "app",
    "ServerClient": "app",
}


def __getattr__(name: str):
    modname = _LAZY.get(name)
    if modname is None:
        raise AttributeError(name)
    import importlib

    module = importlib.import_module("." + modname, __name__)
    return getattr(module, name)
