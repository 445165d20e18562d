"""The one fan-out engine: cubes over backends, first validated verdict
wins.

:func:`conquer` deals a list of assumption cubes round-robin into
chains over a list of backends
(:class:`~repro.portfolio.backends.SolverBackend`) and maps the chains
(:class:`Leg`) over the shared worker pool
(:meth:`~repro.portfolio.batch.BatchScheduler.map`).  The first
*decisive* answer stops the map — running chains are cancelled through
their slot flag and stand down within one conflict, chains not
yet started never run — and every cube's fate is reported as one
:class:`PortfolioStats` row.  A chain whose worker dies gives its cubes
error rows; its siblings are untouched.

Both final-solve modes are this one engine:

* a **portfolio race** (:class:`PortfolioRunner`) is the conquest in
  which every available backend gets the empty cube ``()`` — with
  ``len(backends)`` empty cubes, chain ``k`` is cube ``k`` on
  ``backends[k]``;
* **cube-and-conquer** (:class:`repro.cube.CubeConqueror`) splits the
  formula into cubes first, and adds only the partition rule: UNSAT
  when every cube is refuted.

Soundness and determinism:

* a SAT claim is only *accepted* after the caller-supplied validator
  confirms the model (:func:`repro.pipeline.solve_problem` checks it
  against the input with ``core.solution.satisfies_input``); an
  invalid or missing model **demotes** that answer to no verdict and the
  run continues;
* an answer is decisive when it is a validated SAT or an *unconditional*
  UNSAT (``assumption_failure`` False: the proof never needed the cube).
  On the empty cube every UNSAT is unconditional, so the race's stop
  rule is the conquest's;
* the reported verdict is chosen by :func:`arbitrate`, a pure function of
  the collected results (lowest-index SAT, else lowest-index
  unconditional UNSAT) — the same inputs yield the same verdict
  regardless of worker finish order (the wall-clock race only decides
  *when* losers are cancelled, never *what* is answered);
* a validated SAT beside an unconditional UNSAT is a soundness bug and
  raises :class:`PortfolioDisagreement` instead of silently picking one.

Tracing stays in the parent: a worker builds no tracer.  :func:`run_leg`
returns each cube's measured ``time.monotonic()`` window and the pid
that solved it, and :func:`conquer` records the cube's span from them
under the race or conquest span open when it is called; the stats row
links to that span through ``span_id``.  A dead worker's cubes get no
span.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs import NULL_TRACER
from ..sat.solver import SAT, UNSAT
from .backends import BackendResult, SolverBackend, stop_rule
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
    """A validated SAT and an unconditional UNSAT in one fan-out."""


@dataclass
class PortfolioStats:
    """What happened to one cube of a fan-out — in a race, to one
    backend's empty cube."""

    backend: str
    status: str
    seconds: float = 0.0
    conflicts: int = 0
    won: bool = False
    error: Optional[str] = None
    #: Trace span id of this cube's solve (tracing runs only), so the
    #: stats row links into the stitched cross-process timeline.
    span_id: Optional[str] = None
    #: The backend's index in a race, the cube's in a conquest.
    index: int = 0
    cube: Tuple[int, ...] = ()
    assumption_failure: bool = False

    @property
    def cancelled(self) -> bool:
        return self.status == STATUS_CANCELLED

    @property
    def demoted(self) -> bool:
        return self.status == STATUS_INVALID_MODEL


@dataclass
class PortfolioResult:
    """The arbitrated outcome of one fan-out."""

    verdict: Optional[bool]
    model: Optional[List[int]] = None
    winner: Optional[str] = None
    stats: List[PortfolioStats] = field(default_factory=list)
    wall_seconds: float = 0.0
    results: List[Optional[BackendResult]] = field(default_factory=list)

def _decisive(result: BackendResult) -> bool:
    """SAT, or an UNSAT that never needed its cube."""
    return result.status is SAT or (
        result.status is UNSAT and not result.assumption_failure
    )


def arbitrate(
    entries: Sequence[Tuple[int, Optional[BackendResult]]]
) -> Optional[int]:
    """Pick the winning entry: the lowest-index SAT, else the
    lowest-index unconditional UNSAT.

    ``entries`` pairs each index with its (possibly absent) result;
    demoted results must already carry ``status=None``.  Returns the
    winning index, or ``None`` when nothing was decided.  Raises
    :class:`PortfolioDisagreement` on a SAT beside an unconditional
    UNSAT — arbitration never papers over an unsound backend.
    """
    sat, unsat = [], []
    for index, result in entries:
        if result is not None and _decisive(result):
            (sat if result.status is SAT else unsat).append(index)
    if sat and unsat:
        raise PortfolioDisagreement(
            "entry {} claims a validated model but entry {} refuted the "
            "formula unconditionally".format(min(sat), min(unsat))
        )
    return min(sat or unsat, default=None)


@dataclass
class Leg:
    """A chain of solves on one backend: the unit a fan-out maps over
    the worker pool.

    ``cubes`` are solved in order, each as assumptions, by one
    :meth:`~repro.portfolio.backends.SolverBackend.cube_solver` — an
    in-process backend loads the formula once per leg and keeps its
    solver warm from cube to cube.  A race leg is the single empty cube.
    ``indices`` name the cubes in spans and results."""

    backend: SolverBackend
    formula: object
    deadline: Optional[float]
    conflict_budget: Optional[int]
    indices: Tuple[int, ...]
    cubes: Tuple[Tuple[int, ...], ...] = ((),)


def run_leg(leg: Leg) -> List[Tuple[BackendResult, float, float, int]]:
    """Solve one leg's cubes where the pool runs it; returns
    ``(result, t0, seconds, pid)`` per cube reached, in order: the
    ``time.monotonic()`` window of the solve and the process that ran
    it, from which the parent records the cube's span.

    Every cube stops on the leg's deadline or the pool's cancel token;
    one that ends without an answer or error once the token is set was
    cancelled.  The leg stops after a SAT answer, a refutation that
    never needed its cube (the formula itself is UNSAT), or a cancel.  A
    raising cube loses that cube only: the exception becomes its error
    result and the next cube still runs.
    """
    cancel = batch_cancel()
    stop = stop_rule(leg.deadline, cancel)
    solve_cube = leg.backend.cube_solver(leg.formula, leg.cubes)
    pid = os.getpid()
    out = []
    for cube in leg.cubes:
        t0 = time.monotonic()
        try:
            result = solve_cube(
                cube, conflict_budget=leg.conflict_budget, stop=stop
            )
        except Exception as exc:
            result = BackendResult(
                None, error="{}: {}".format(type(exc).__name__, exc)
            )
        elapsed = time.monotonic() - t0
        cancelled = cancel is not None and cancel.is_set()
        if cancelled and result.status is None and not result.error:
            result.cancelled = True
        out.append((result, t0, elapsed, pid))
        if _decisive(result) or cancelled:
            break
    return out


def _record_span(tracer, name: str, backend: str, index: int, cube,
                 measured) -> str:
    """Record one cube's span in the parent, under the span open here,
    over the window and pid ``run_leg`` measured (``time.monotonic()``
    is system-wide, so a worker's window lines up with the parent's
    spans).  Returns the span id."""
    result, t0, seconds, pid = measured
    attrs = {"backend": backend, "index": index}
    if cube:
        attrs["cube"] = list(cube)
    with tracer.span(name, **attrs) as span:
        span.set("conflicts", result.conflicts)
        span.set("cancelled", result.cancelled)
        for key, value in (result.counters or {}).items():
            span.set(key, value)
        if result.error:
            span.set("error", result.error)
    span.data.update(t0=t0, dur=seconds, pid=pid)
    return span.id


def validated(result: BackendResult, validate) -> BackendResult:
    """Demote a SAT claim whose model ``validate`` rejects (or that has
    no model): an unvalidated SAT answer never wins."""
    if result.status is SAT and validate is not None:
        if result.model is None or not validate(result.model):
            result.status = None
            result.error = result.error or "model failed validation"
            result.demoted = True
    return result


def leg_status(result: BackendResult) -> str:
    """The stats-row status of one cube's result."""
    if result.demoted:
        return STATUS_INVALID_MODEL
    if result.status is SAT:
        return STATUS_SAT
    if result.status is UNSAT:
        return STATUS_UNSAT
    if result.cancelled:
        return STATUS_CANCELLED
    if result.error:
        return STATUS_ERROR
    return STATUS_UNKNOWN


def conquer(
    outcome: PortfolioResult,
    formula,
    cubes: Sequence[Tuple[int, ...]],
    backends: Sequence[SolverBackend],
    jobs: Optional[int],
    validate,
    deadline: Optional[float],
    conflict_budget: Optional[int],
    tracer,
    span: str = "portfolio.backend",
) -> None:
    """Solve ``formula`` under each of ``cubes`` on ``backends`` (all
    available) and fill ``outcome``.

    The cubes are dealt round-robin into ``n = min(max(jobs,
    len(backends)), len(cubes))`` chains: chain ``k`` holds cubes ``k,
    k+n, ...`` in order and runs on ``backends[k % len(backends)]``.
    The chains are mapped over the pool until a validated decisive
    answer; a chain that stopped at a SAT claim the validator rejected
    has its untried cubes dispatched again as a new chain.
    ``outcome.stats`` gets one row per cube (a cube never reached is
    ``cancelled``), ``outcome.results`` one validated result or
    ``None``, and the verdict, model and winner come from
    :func:`arbitrate`.
    """
    if not cubes or not backends:
        return
    jobs = jobs if jobs is not None else default_jobs()
    n = min(max(jobs, len(backends)), len(cubes))
    chains = [
        Leg(backends[k % len(backends)], formula, deadline, conflict_budget,
            tuple(range(k, len(cubes), n)), tuple(cubes[k::n]))
        for k in range(n)
    ]
    names = [chains[i % n].backend.name for i in range(len(cubes))]
    ran: List = [None] * len(cubes)

    def stops(entry) -> bool:
        return any([_decisive(validated(res, validate))
                    for res, _, _, _ in entry])

    while chains:
        raw = BatchScheduler(jobs).map(run_leg, chains, stop_when=stops)
        again = []
        for leg, entry in zip(chains, raw):
            if isinstance(entry, BatchItemError):
                # Results travel when the chain ends: a dead worker
                # loses every cube of its chain.
                error = "worker failed: {}: {}".format(entry.kind, entry.error)
                for index in leg.indices:
                    ran[index] = (BackendResult(None, error=error),
                                  entry.seconds, None)
                continue
            entry = entry or []
            for index, cube, measured in zip(leg.indices, leg.cubes, entry):
                result, _, seconds, _ = measured
                span_id = None
                if tracer.enabled:
                    span_id = _record_span(tracer, span, leg.backend.name,
                                           index, cube, measured)
                ran[index] = (result, seconds, span_id)
            if 0 < len(entry) < len(leg.cubes) and entry[-1][0].demoted:
                again.append(replace(
                    leg, indices=leg.indices[len(entry):],
                    cubes=leg.cubes[len(entry):],
                ))
        if any(e is not None and _decisive(e[0]) for e in ran):
            break
        chains = again

    for index, entry in enumerate(ran):
        row = PortfolioStats(names[index], STATUS_CANCELLED, index=index,
                             cube=cubes[index])
        result = None
        if entry is not None:
            result, row.seconds, row.span_id = entry
            row.status = leg_status(result)
            row.conflicts = result.conflicts
            row.assumption_failure = result.assumption_failure
            row.error = result.error
        outcome.stats.append(row)
        outcome.results.append(result)
    win = arbitrate(list(enumerate(outcome.results)))
    if win is not None:
        outcome.verdict = bool(outcome.results[win].status)
        outcome.model = outcome.results[win].model
        outcome.winner = names[win]
        outcome.stats[win].won = True


class PortfolioRunner:
    """Race a fixed set of backends on single instances: the conquest
    in which every available backend gets the empty cube.

    ``jobs`` bounds the worker processes (``None`` — one per backend,
    capped by the CPUs this process may run on, see
    :func:`~repro.portfolio.batch.default_jobs`; ``1`` — the
    deterministic sequential mode, where
    backends run in order and everything after the first definitive
    verdict is cancelled without running).  ``validate`` is an optional
    ``model_bits -> bool`` callback; when present, SAT answers without a
    validated model are demoted.  ``stats[i]`` describes
    ``backends[i]``; an unavailable backend gets a ``skipped`` row.
    """

    def __init__(
        self,
        backends: Sequence[SolverBackend],
        jobs: Optional[int] = None,
        validate: Optional[Callable[[List[int]], bool]] = None,
        tracer=None,
    ):
        if not backends:
            raise ValueError("a portfolio needs at least one backend")
        self.backends = list(backends)
        self.jobs = jobs
        self.validate = validate
        # Observability (repro.obs): instance-threaded, parent-side.
        # conquer() records each leg's span here from the window the
        # worker measured.
        self.tracer = tracer or NULL_TRACER

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
            ready = [i for i, b in enumerate(self.backends) if b.available()]
            jobs = self.jobs if self.jobs is not None else default_jobs()
            jobs = max(1, min(jobs, len(ready)))
            race_span.set("jobs", jobs)
            outcome = PortfolioResult(None)
            conquer(
                outcome, formula, [()] * len(ready),
                [self.backends[i] for i in ready], jobs, self.validate,
                deadline, conflict_budget, self.tracer,
            )
            # Back to one row per backend, skipped ones included.
            stats = [PortfolioStats(b.name, STATUS_SKIPPED, index=i)
                     for i, b in enumerate(self.backends)]
            results: List[Optional[BackendResult]] = [None] * len(stats)
            for i, row, result in zip(ready, outcome.stats, outcome.results):
                row.index = i
                stats[i], results[i] = row, result
            outcome.stats, outcome.results = stats, results
            if outcome.winner is not None:
                race_span.set("winner", outcome.winner)
            outcome.wall_seconds = time.monotonic() - start
            return outcome
