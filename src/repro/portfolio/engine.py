"""Parallel portfolio solving with first-win cancellation.

One instance fans out to N :class:`~repro.portfolio.backends.SolverBackend`
legs as a :meth:`~repro.portfolio.batch.BatchScheduler.map` over the
shared worker pool; the first validated definitive verdict stops the
map — running losers are cancelled through their slot flag and stand
down at their next conflict slice, legs not yet started never run — and
every backend's fate is reported as a per-backend :class:`PortfolioStats`
row.  A leg whose worker dies gets an error row; its siblings are
untouched.

Soundness and determinism:

* a SAT claim is only *accepted* after the caller-supplied validator
  confirms the model (the Bosphorus wiring validates through
  ``core.solution.reconstruct_model`` + evaluate-on-the-original-ANF); an
  invalid or missing model **demotes** that backend's answer to no-verdict
  and the race continues;
* the reported verdict is chosen by :func:`arbitrate`, a pure function of
  the collected results that prefers the lowest backend index among the
  definitive answers — so the same inputs yield the same arbitrated
  verdict regardless of worker finish order (the wall-clock race only
  decides *when* losers are cancelled, never *what* is answered);
* definitive verdicts must agree; a SAT/UNSAT split raises
  :class:`PortfolioDisagreement` instead of silently picking one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from ..sat.solver import SAT, UNSAT
from .backends import BackendResult, SolverBackend
from .batch import BatchItemError, BatchScheduler, batch_cancel, default_jobs

#: Stats row status values.
STATUS_SAT = "sat"
STATUS_UNSAT = "unsat"
STATUS_UNKNOWN = "unknown"
STATUS_CANCELLED = "cancelled"
STATUS_SKIPPED = "skipped"
STATUS_ERROR = "error"
STATUS_INVALID_MODEL = "invalid-model"


class PortfolioDisagreement(RuntimeError):
    """Two backends returned contradictory definitive verdicts."""


@dataclass
class PortfolioStats:
    """What happened to one backend during a portfolio run."""

    backend: str
    status: str
    seconds: float = 0.0
    conflicts: int = 0
    won: bool = False
    cancelled: bool = False
    demoted: bool = False
    error: Optional[str] = None
    #: Trace span id of this backend's solving leg (tracing runs only),
    #: so the stats row links into the stitched cross-process timeline.
    span_id: Optional[str] = None


@dataclass
class PortfolioResult:
    """The arbitrated outcome of one portfolio run."""

    verdict: Optional[bool]
    model: Optional[List[int]] = None
    winner: Optional[str] = None
    stats: List[PortfolioStats] = field(default_factory=list)
    wall_seconds: float = 0.0
    results: List[Optional[BackendResult]] = field(default_factory=list)

    @property
    def n_cancelled(self) -> int:
        return sum(1 for s in self.stats if s.cancelled)


def arbitrate(
    entries: Sequence[Tuple[int, Optional[BackendResult]]]
) -> Optional[int]:
    """Pick the winning entry: lowest backend index with a definitive verdict.

    ``entries`` pairs each backend's index with its (possibly absent)
    result; demoted results must already carry ``status=None``.  Returns
    the winning backend index, or ``None`` when nothing was decided.
    Raises :class:`PortfolioDisagreement` when definitive verdicts
    conflict — arbitration never papers over an unsound backend.
    """
    verdicts = set()
    best: Optional[int] = None
    for index, result in entries:
        if result is None or result.status is None:
            continue
        verdicts.add(bool(result.status))
        if best is None or index < best:
            best = index
    if len(verdicts) > 1:
        raise PortfolioDisagreement(
            "backends disagree: both SAT and UNSAT were claimed"
        )
    return best


@dataclass
class Leg:
    """A chain of solves on one backend: the unit a portfolio race or a
    cube conquest maps over the worker pool.

    ``cubes`` are solved in order, each as assumptions, by one
    :meth:`~repro.portfolio.backends.SolverBackend.cube_solver` — an
    in-process backend loads the formula once per leg and keeps its
    solver warm from cube to cube.  A portfolio leg is the single empty
    cube.  ``indices`` name the cubes in spans and results (the backend
    index in a race, the cube index in a conquest); ``span`` and
    ``prefix`` name the per-cube trace span and metric counters."""

    backend: SolverBackend
    formula: object
    deadline: Optional[float]
    conflict_budget: Optional[int]
    indices: Tuple[int, ...]
    cubes: Tuple[Tuple[int, ...], ...] = ((),)
    span: str = "portfolio.backend"
    prefix: str = "backend"
    trace: bool = False


def run_leg(leg: Leg) -> List[Tuple[BackendResult, float]]:
    """Solve one leg's cubes where the pool runs it; returns
    ``(result, seconds)`` per cube reached, in order.

    The leg stops after a SAT answer, a refutation that never needed
    its cube (the formula itself is UNSAT), or a cancel.  A raising cube
    loses that cube only: the exception becomes its error result and the
    next cube still runs.
    """
    cancel = batch_cancel()
    solve_cube = leg.backend.cube_solver(leg.formula, leg.cubes)
    out = []
    for index, cube in zip(leg.indices, leg.cubes):
        t0 = time.monotonic()
        try:
            result = solve_cube(
                cube, deadline=leg.deadline,
                conflict_budget=leg.conflict_budget, cancel=cancel,
            )
        except Exception as exc:
            result = BackendResult(
                None, error="{}: {}".format(type(exc).__name__, exc)
            )
        elapsed = time.monotonic() - t0
        if leg.trace:
            _observe(leg, index, cube, result, t0, elapsed)
        out.append((result, elapsed))
        if result.status is SAT or result.cancelled or (
            result.status is UNSAT and not result.assumption_failure
        ) or (cancel is not None and cancel.is_set()):
            break
    return out


def _observe(leg: Leg, index: int, cube, result: BackendResult,
             t0: float, elapsed: float) -> None:
    """Instrument one cube post-fork (FORK-SAFETY): a tracer and a
    registry are created *here*, in the process that did the solving,
    and ride the result back for parent-side merging.  The span brackets
    work that already happened, so its window is rewritten to the
    measured solve interval (``time.monotonic()`` is system-wide, so the
    parent's stitched timeline stays aligned)."""
    registry = MetricsRegistry()
    registry.inc(leg.prefix + "_solves")
    registry.inc(leg.prefix + "_conflicts", result.conflicts)
    registry.observe(leg.prefix + "_solve_s", elapsed)
    result.metrics = registry.snapshot()
    attrs = {"backend": leg.backend.name, "index": index}
    if cube:
        attrs["cube"] = list(cube)
    tracer = Tracer()
    with tracer.span(leg.span, **attrs) as span:
        span.set("conflicts", result.conflicts)
        span.set("cancelled", result.cancelled)
        for name, value in (result.counters or {}).items():
            span.set(name, value)
        if result.error:
            span.set("error", result.error)
    span.data["t0"] = t0
    span.data["dur"] = elapsed
    result.spans = tracer.spans()


def validated(result: BackendResult, validate) -> BackendResult:
    """Demote a SAT claim whose model ``validate`` rejects (or that has
    no model): an unvalidated SAT answer never wins."""
    if result.status is SAT and validate is not None:
        if result.model is None or not validate(result.model):
            result.status = None
            result.error = result.error or "model failed validation"
            result.demoted = True
    return result


def leg_status(result: BackendResult, unsat: str = STATUS_UNSAT) -> str:
    """The stats-row status of one leg result (cube rows name UNSAT
    ``refuted``)."""
    if result.demoted:
        return STATUS_INVALID_MODEL
    if result.status is SAT:
        return STATUS_SAT
    if result.status is UNSAT:
        return unsat
    if result.cancelled:
        return STATUS_CANCELLED
    if result.error:
        return STATUS_ERROR
    return STATUS_UNKNOWN


def absorb_observability(
    tracer, metrics, result: Optional[BackendResult],
    parent_id: Optional[str],
) -> Optional[str]:
    """Merge one cube result's spans and metrics at the result boundary.

    Adoption reparents the worker's root span under ``parent_id`` and
    deduplicates by span id, so a duplicate delivery can never
    double-count.  Returns the leg's span id, if any.
    """
    if result is None:
        return None
    metrics.merge(result.metrics)
    if not result.spans:
        return None
    tracer.adopt(result.spans, parent_id=parent_id)
    for span in result.spans:
        if span.get("parent") is None:
            return span.get("id")
    return None


def run_legs(legs, jobs, validate, stop, tracer, metrics, parent_id):
    """Map :func:`run_leg` over ``legs`` on the worker pool; the first
    leg with a validated result for which ``stop`` holds ends the map.

    Returns, per leg, one ``(result, seconds, span_id)`` per cube, in
    cube order, with every result validated and its observability
    absorbed under ``parent_id``.  A cube the leg never reached (it
    stopped earlier, never started, or was cancelled) is ``None``.
    Results travel when the leg ends, so a leg whose worker died gives
    every cube an error result.
    """

    def stops(entry) -> bool:
        return any([stop(validated(res, validate)) for res, _ in entry])

    raw = BatchScheduler(jobs).map(run_leg, legs, stop_when=stops)
    out = []
    for leg, entry in zip(legs, raw):
        rows = [None] * len(leg.cubes)
        if isinstance(entry, BatchItemError):
            error = "worker failed: {}: {}".format(entry.kind, entry.error)
            rows = [(BackendResult(None, error=error), entry.seconds, None)
                    for _ in leg.cubes]
        elif entry is not None:
            for k, (result, seconds) in enumerate(entry):
                rows[k] = (result, seconds, absorb_observability(
                    tracer, metrics, result, parent_id))
        out.append(rows)
    return out


class PortfolioRunner:
    """Race a fixed set of backends on single instances.

    ``jobs`` bounds the worker processes (``None`` — one per backend,
    capped by the CPUs this process may run on, see
    :func:`~repro.portfolio.batch.default_jobs`; ``1`` — the
    deterministic sequential mode, where
    backends run in order and everything after the first definitive
    verdict is cancelled without running).  ``validate`` is an optional
    ``model_bits -> bool`` callback; when present, SAT answers without a
    validated model are demoted.
    """

    def __init__(
        self,
        backends: Sequence[SolverBackend],
        jobs: Optional[int] = None,
        validate: Optional[Callable[[List[int]], bool]] = None,
        tracer=None,
        metrics=None,
    ):
        if not backends:
            raise ValueError("a portfolio needs at least one backend")
        self.backends = list(backends)
        self.jobs = jobs
        self.validate = validate
        # Observability (repro.obs): instance-threaded, parent-side.
        # Worker spans/metrics ride each BackendResult back and are
        # adopted/merged here at the result boundary.
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- public API --------------------------------------------------------

    def run(
        self,
        formula,
        timeout_s: Optional[float] = None,
        conflict_budget: Optional[int] = None,
    ) -> PortfolioResult:
        start = time.monotonic()
        # One deadline for the whole run: timeout_s bounds the race, not
        # each backend (sequential mode would otherwise stack budgets N
        # deep).  time.monotonic() is system-wide, so the absolute value
        # stays meaningful inside worker processes.
        deadline = start + timeout_s if timeout_s is not None else None
        with self.tracer.span(
            "portfolio.race",
            backends=[b.name for b in self.backends],
        ) as race_span:
            legs = [
                Leg(backend, formula, deadline, conflict_budget, (i,),
                    trace=self.tracer.enabled)
                for i, backend in enumerate(self.backends)
                if backend.available()
            ]
            jobs = self.jobs if self.jobs is not None else default_jobs()
            jobs = max(1, min(jobs, len(legs)))
            race_span.set("jobs", jobs)

            results: List[Optional[BackendResult]] = [None] * len(self.backends)
            stats = [PortfolioStats(b.name, STATUS_SKIPPED) for b in self.backends]
            ran = run_legs(
                legs, jobs, self.validate, lambda r: r.status is not None,
                self.tracer, self.metrics, race_span.id,
            )
            for leg, [entry] in zip(legs, ran):
                (index,) = leg.indices
                if entry is None:  # never started: the race was over
                    stats[index] = PortfolioStats(
                        leg.backend.name, STATUS_CANCELLED, cancelled=True
                    )
                    continue
                res, seconds, span_id = entry
                results[index] = res
                stats[index] = PortfolioStats(
                    leg.backend.name, leg_status(res), seconds=seconds,
                    conflicts=res.conflicts, cancelled=res.cancelled,
                    demoted=res.demoted, error=res.error, span_id=span_id,
                )
            winner = arbitrate(list(enumerate(results)))
            verdict = None
            model = None
            winner_name = None
            if winner is not None:
                win_result = results[winner]
                verdict = bool(win_result.status)
                model = win_result.model
                winner_name = self.backends[winner].name
                stats[winner].won = True
                race_span.set("winner", winner_name)
            return PortfolioResult(
                verdict,
                model=model,
                winner=winner_name,
                stats=stats,
                wall_seconds=time.monotonic() - start,
                results=results,
            )
