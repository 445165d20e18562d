"""What one server job *is*: parse → preprocess → solve, as plain data.

A :class:`JobSpec` is the picklable description a client submits over
the protocol and the pool ships to a worker; :func:`execute_job` is the
worker-side pipeline.  It deliberately contains **no solving logic of
its own** — parsing is :mod:`repro.anf` / :mod:`repro.sat.dimacs`,
preprocessing is :class:`repro.core.bosphorus.Bosphorus` (which picks up
the persistent conversion cache through ``Config.cache_dir``), and the
final solve goes through :func:`repro.portfolio.create_backend`.  Server
workers are backends-only: there is ONE solving path, and the service
merely schedules it.

The worker is the job's only clock: :func:`execute_job` stops at each
stage boundary once the client cancelled or ``timeout_s`` ran out, and
hands the rest of the budget to the backend solve.  ``cancel`` is any
object with ``is_set()`` (the pool passes its shared-flag token),
checked there and after every conflict inside an in-process backend
solve.
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, Optional

from ..anf.system import ContradictionError
from ..core.config import Config
from ..obs import MetricsRegistry, NULL_TRACER, Tracer
from ..sat.dimacs import CnfFormula, parse_dimacs, write_dimacs

#: Accepted ``JobSpec.fmt`` values.
FORMATS = ("anf", "dimacs")

#: Verdict strings reported by :func:`execute_job`.
VERDICT_SAT = "sat"
VERDICT_UNSAT = "unsat"
VERDICT_UNKNOWN = "unknown"
VERDICT_CANCELLED = "cancelled"
VERDICT_TIMEOUT = "timeout"


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

    ``progress`` (if given) is called as ``progress(stage, payload)``
    with stages ``"parsed"``, ``"preprocessed"`` and ``"solving"``;
    payloads are small JSON-safe dicts.  ``cancel`` and the deadline
    are checked between stages and threaded into the backend solve, so
    a cancelled job stops within one conflict of the signal.  A
    backend's SAT answer is reported only when its model satisfies the
    job's input (the clauses and XORs of a ``dimacs`` job, the
    polynomials of an ``anf`` one); otherwise the verdict is ``unknown`` and the result's ``error`` says
    ``"model failed validation"``.

    The result dict always carries ``job_id``, ``verdict`` (one of
    ``sat`` / ``unsat`` / ``unknown`` / ``cancelled`` / ``timeout``; a
    job without an answer reports ``cancelled`` when its client
    cancelled it and ``timeout`` when ``spec.timeout_s`` ran out),
    ``model``, ``stats``, ``metrics`` (a :class:`repro.obs.MetricsRegistry`
    snapshot the pool merges into its service-wide counters) and —
    whenever a CNF was produced — ``cnf_sha256``, the hash of the exact
    DIMACS a fresh run must reproduce bit-for-bit (warm
    persistent-cache restarts are asserted against it).  With
    ``spec.trace`` the result also carries ``"spans"``: the job's span
    tree (root ``server.job``), recorded by a worker-local tracer.
    """
    spec.validate()
    started = time.perf_counter()
    # The deadline covers the whole pipeline, from the moment the worker
    # starts the job (queue time does not count).
    deadline = None if spec.timeout_s is None else started + spec.timeout_s
    # Observability is per-job and worker-local: the tracer/registry are
    # created here, after any fork, and leave this process only as plain
    # dicts on the result (the standing fork-boundary pattern).
    tracer = Tracer() if spec.trace else NULL_TRACER
    metrics = MetricsRegistry()
    root = tracer.span("server.job", job_id=spec.job_id, fmt=spec.fmt)

    def emit(stage: str, payload: Optional[Dict[str, object]] = None) -> None:
        if progress is not None:
            progress(stage, payload or {})

    def finish(verdict, model=None, stats=None, formula=None, extra=None):
        result: Dict[str, object] = {
            "job_id": spec.job_id,
            "verdict": verdict,
            "model": model,
            "stats": stats or {},
            "seconds": time.perf_counter() - started,
        }
        if formula is not None:
            result["cnf_sha256"] = _sha256_dimacs(formula)
            result["n_vars"] = formula.n_vars
            result["n_clauses"] = len(formula.clauses)
        if extra:
            result.update(extra)
        metrics.inc("jobs")
        metrics.inc("jobs_" + verdict)
        result["metrics"] = metrics.snapshot()
        if tracer.enabled:
            root.set("verdict", verdict)
            root.__exit__(None, None, None)
            result["spans"] = tracer.spans()
        return result

    def verdict_of(status: Optional[bool]) -> str:
        """The one verdict rule: a job without an answer was cancelled by
        its client, or ran past its deadline, or is just unknown."""
        if status is not None:
            return VERDICT_SAT if status else VERDICT_UNSAT
        if cancel is not None and cancel.is_set():
            return VERDICT_CANCELLED
        if deadline is not None and time.perf_counter() >= deadline:
            return VERDICT_TIMEOUT
        return VERDICT_UNKNOWN

    def stopped() -> bool:
        return verdict_of(None) != VERDICT_UNKNOWN

    try:
        config = Config(cache_dir=cache_dir).with_(**spec.config)
    except TypeError as exc:  # pragma: no cover - validate() catches first
        raise ValueError(str(exc))

    # -- parse ---------------------------------------------------------------
    with tracer.span("job.parse", fmt=spec.fmt), metrics.timer("parse_s"):
        if spec.fmt == "anf":
            from ..anf import parse_system

            ring, polynomials = parse_system(spec.text)
            emit("parsed", {"fmt": "anf", "n_vars": ring.n_vars,
                            "n_polys": len(polynomials)})
        else:
            formula = parse_dimacs(spec.text)
            emit("parsed", {"fmt": "dimacs", "n_vars": formula.n_vars,
                            "n_clauses": len(formula.clauses)})
    if stopped():
        return finish(verdict_of(None))

    # -- preprocess ----------------------------------------------------------
    pre_stats: Dict[str, object] = {}
    solution_values = None
    if spec.preprocess:
        from ..core.bosphorus import Bosphorus, STATUS_SAT, STATUS_UNSAT

        # The job's tracer is handed down, so the preprocessor's span
        # tree (satlearn iterations, conversions, ...) nests under this
        # stage; its per-run conversion counters merge into the job's
        # registry afterwards.
        bosph = Bosphorus(config, tracer=tracer)
        with tracer.span("job.preprocess") as span, \
                metrics.timer("preprocess_s"):
            if spec.fmt == "anf":
                pre = bosph.preprocess_anf(ring, polynomials)
            else:
                pre = bosph.preprocess_cnf(formula)
            span.set("iterations", pre.iterations)
            span.set("status", pre.status)
        metrics.merge(bosph.metrics)
        cnf = pre.cnf
        pre_stats = dict(pre.stats)
        pre_stats["iterations"] = pre.iterations
        pre_stats["facts"] = pre.facts.summary()
        emit("preprocessed", {
            "iterations": pre.iterations,
            "status": pre.status,
            "conversion_disk_hits": pre_stats.get("conversion_disk_hits", 0),
            "karnaugh_disk_hits": pre_stats.get("karnaugh_disk_hits", 0),
        })
        if pre.status == STATUS_UNSAT:
            return finish(VERDICT_UNSAT, stats=pre_stats, formula=cnf)
        if pre.status == STATUS_SAT and pre.solution is not None:
            solution_values = list(pre.solution.values)
            return finish(VERDICT_SAT, model=solution_values,
                          stats=pre_stats, formula=cnf)
    elif spec.fmt == "anf":
        from ..anf import AnfSystem
        from ..core.anf_to_cnf import AnfToCnf

        try:
            system = AnfSystem(ring, polynomials)
        except ContradictionError:
            return finish(VERDICT_UNSAT)
        conversion = AnfToCnf(config, tracer=tracer, metrics=metrics).convert(
            system
        )
        cnf = conversion.formula
        pre_stats = {
            "karnaugh_disk_hits": conversion.stats.karnaugh_disk_hits,
            "conversion_disk_hits": conversion.stats.conversion_disk_hits,
        }
    else:
        cnf = formula
    if stopped():
        return finish(verdict_of(None), stats=pre_stats, formula=cnf)

    if not spec.solve or cnf is None:
        return finish(VERDICT_UNKNOWN, stats=pre_stats, formula=cnf)

    # -- solve ---------------------------------------------------------------
    from ..portfolio import create_backend
    from ..portfolio.engine import validated

    # A SAT answer is checked against the job's input, not the processed
    # CNF: the backend may be an external binary.
    if spec.fmt == "anf":
        from ..core.solution import Solution

        def satisfies_input(model) -> bool:
            return Solution(list(model)).satisfies(polynomials)
    else:
        satisfies_input = formula.satisfied_by

    backend = create_backend(spec.backend)
    if not backend.available():
        raise RuntimeError("backend unavailable: {}".format(backend.name))
    emit("solving", {"backend": backend.name,
                     "n_vars": cnf.n_vars, "n_clauses": len(cnf.clauses)})
    remaining = (None if deadline is None
                 else max(0.0, deadline - time.perf_counter()))
    with tracer.span(
        "job.solve", backend=backend.name, n_clauses=len(cnf.clauses)
    ) as span, metrics.timer("solve_s"):
        res = validated(backend.solve(
            cnf,
            timeout_s=remaining,
            conflict_budget=spec.conflict_budget,
            cancel=cancel,
        ), satisfies_input)
        verdict = verdict_of(res.status)
        span.set("verdict", verdict)
        span.set("conflicts", res.conflicts)
        for name, value in (res.counters or {}).items():
            span.set(name, value)
    metrics.inc("backend_solves")
    metrics.inc("backend_conflicts", res.conflicts)
    stats = dict(pre_stats)
    stats["conflicts"] = res.conflicts
    stats["backend"] = backend.name
    # The backend model covers the whole final CNF; a job answers over
    # its input's variables only, as a preprocessing-found model does.
    model = None if res.demoted else res.model
    if model is not None:
        model = model[: ring.n_vars if spec.fmt == "anf" else formula.n_vars]
    return finish(verdict, model=model, stats=stats, formula=cnf,
                  extra={"error": res.error} if res.demoted else None)
