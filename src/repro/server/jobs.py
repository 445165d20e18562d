"""What one server job *is*: parse → preprocess → solve, as plain data.

A :class:`JobSpec` is the picklable description a client submits over
the protocol and the pool ships to a worker; :func:`execute_job` is the
worker-side adapter over :func:`repro.pipeline.solve_problem`, the one
solve pipeline the CLI and the Table II runner share: it parses the
text and turns the outcome into the wire result, with **no solving
logic of its own**.  Workers are backends-only: a job's final solve is
one :func:`repro.portfolio.create_backend` spec.

The worker is the job's only clock: the deadline is ``timeout_s`` after
the worker starts the job, and the pipeline composes it with the
client's cancel token into one ``stop``.  Bosphorus asks it before each
learner step and the backend after every conflict, so a job stops within
one learner step of its signal.  ``cancel`` is any object with
``is_set()`` (the pool passes its shared-flag token).
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, Optional

from ..anf import parse_system
from ..core.config import Config
from ..obs import MetricsRegistry, NULL_TRACER, Tracer
from ..pipeline import FinalSolve, Problem, solve_problem
from ..sat.dimacs import CnfFormula, parse_dimacs, write_dimacs

#: Accepted ``JobSpec.fmt`` values.
FORMATS = ("anf", "dimacs")


@dataclass
class JobSpec:
    """One solving job, as submitted by a client.

    ``fmt`` names the payload format (``"anf"`` text or ``"dimacs"``
    CNF); ``text`` is the problem itself.  ``preprocess`` runs the
    Bosphorus fact-learning loop first (the service's reason to exist);
    with it off the input is converted/parsed and handed straight to the
    backend.  ``backend`` is a :func:`repro.portfolio.create_backend`
    spec.  ``conflict_budget`` bounds the final solve; ``timeout_s`` is
    the per-job deadline, measured from the moment a worker *starts* the
    job (queue time does not count).  ``config`` carries
    :class:`repro.core.config.Config` field overrides (e.g.
    ``{"max_iterations": 3}``); unknown fields are rejected.  ``trace``
    records a per-stage span tree (:class:`repro.obs.Tracer`, created in
    the worker, never fork-inherited) and returns it in the result's
    ``"spans"`` list for client-side stitching/export.
    """

    job_id: int = 0
    fmt: str = "anf"
    text: str = ""
    preprocess: bool = True
    solve: bool = True
    backend: str = "minisat"
    conflict_budget: Optional[int] = None
    timeout_s: Optional[float] = None
    config: Dict[str, object] = field(default_factory=dict)
    trace: bool = False

    def validate(self) -> None:
        if self.fmt not in FORMATS:
            raise ValueError(
                "unknown job format {!r} (choices: {})".format(
                    self.fmt, ", ".join(FORMATS)
                )
            )
        if not self.text.strip():
            raise ValueError("empty problem text")
        known = {f.name for f in dataclass_fields(Config)}
        unknown = sorted(set(self.config) - known)
        if unknown:
            raise ValueError(
                "unknown config overrides: " + ", ".join(unknown)
            )
        if "cache_dir" in self.config:
            # The cache directory is service policy, not client input —
            # a client must not point workers at arbitrary paths.
            raise ValueError("config override 'cache_dir' is reserved")


def _sha256_dimacs(formula: CnfFormula) -> str:
    buf = io.StringIO()
    write_dimacs(buf, formula)
    return hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest()


def execute_job(
    spec: JobSpec,
    cache_dir: Optional[str] = None,
    cancel=None,
    progress=None,
) -> Dict[str, object]:
    """Run one job to completion and return its JSON-serialisable result.

    ``progress(stage, payload)`` (if given) hears ``"parsed"``,
    ``"preprocessed"`` and ``"solving"`` with small JSON-safe payloads.
    A SAT answer, the backend's or one Bosphorus found, is reported only
    when its model satisfies the job's input; otherwise the verdict is
    ``unknown`` and ``error`` says ``"model failed validation"``.

    The result always carries ``job_id``, ``verdict`` (``sat`` /
    ``unsat`` / ``unknown``, or ``cancelled`` when the client cancelled
    the job and ``timeout`` when ``spec.timeout_s`` ran out), ``model``,
    ``stats``, ``metrics`` (a :class:`repro.obs.MetricsRegistry`
    snapshot the pool merges into its service-wide counters) and —
    whenever a CNF was produced — ``cnf_sha256``, the hash of the exact
    DIMACS a fresh run must reproduce bit-for-bit (warm
    persistent-cache restarts are asserted against it).  With
    ``spec.trace`` it also carries ``"spans"``: the job's span tree
    (root ``server.job``), recorded by a worker-local tracer.
    """
    spec.validate()
    started = time.monotonic()
    deadline = None if spec.timeout_s is None else started + spec.timeout_s
    # Observability is per-job and worker-local: the tracer/registry are
    # created here, after any fork, and leave this process only as plain
    # dicts on the result (the standing fork-boundary pattern).
    tracer = Tracer() if spec.trace else NULL_TRACER
    metrics = MetricsRegistry()
    root = tracer.span("server.job", job_id=spec.job_id, fmt=spec.fmt)

    config = Config(cache_dir=cache_dir).with_(**spec.config)

    with tracer.span("job.parse", fmt=spec.fmt), metrics.timer("parse_s"):
        if spec.fmt == "anf":
            problem = Problem.from_anf("job", *parse_system(spec.text))
            parsed = {"fmt": "anf", "n_vars": problem.ring.n_vars,
                      "n_polys": len(problem.polynomials)}
        else:
            problem = Problem.from_cnf("job", parse_dimacs(spec.text))
            parsed = {"fmt": "dimacs", "n_vars": problem.formula.n_vars,
                      "n_clauses": len(problem.formula.clauses)}
        if progress is not None:
            progress("parsed", parsed)

    outcome = solve_problem(
        problem, config,
        FinalSolve([spec.backend], conflict_budget=spec.conflict_budget)
        if spec.solve else None,
        preprocess=spec.preprocess, deadline=deadline, cancel=cancel,
        tracer=tracer, metrics=metrics, progress=progress,
        spans=("job.preprocess", "job.solve"),
    )
    if outcome.error and outcome.model_checked is None:
        raise RuntimeError(outcome.error)  # the backend is unavailable

    # ``cnf_sha256`` hashes the processed CNF (``result.cnf``), or the
    # CNF the backend got when nothing was preprocessed.
    stats: Dict[str, object] = {}
    pre, cnf = outcome.result, outcome.formula
    if pre is not None:
        cnf = pre.cnf
        stats = dict(pre.stats, iterations=pre.iterations,
                     facts=pre.facts.summary())
    elif spec.fmt == "anf" and cnf is not None:
        stats = {name: metrics.counter(name) for name in
                 ("karnaugh_disk_hits", "conversion_disk_hits")}
    if "solve" in outcome.seconds:
        stats.update(conflicts=outcome.conflicts, backend=outcome.backend)

    result: Dict[str, object] = {
        "job_id": spec.job_id,
        "verdict": outcome.name,
        "model": outcome.model,
        "stats": stats,
        "seconds": time.monotonic() - started,
    }
    if cnf is not None:
        result["cnf_sha256"] = _sha256_dimacs(cnf)
        result["n_vars"] = cnf.n_vars
        result["n_clauses"] = len(cnf.clauses)
    if outcome.model_checked is False:
        result["error"] = outcome.error
    metrics.inc("jobs")
    metrics.inc("jobs_" + outcome.name)
    result["metrics"] = metrics.snapshot()
    if tracer.enabled:
        root.set("verdict", outcome.name)
        root.__exit__(None, None, None)
        result["spans"] = tracer.spans()
    return result
