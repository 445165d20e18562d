"""One solve pipeline: preprocess → final solve → model check.

Bosphorus has one contract (paper Fig. 1): learn facts on the ANF, then
hand a CNF to a final solver.  :func:`solve_problem` composes it once,
and the CLI, the server's jobs and the Table II runner are adapters over
it.  It applies one rule for each of four things:

* **time** — one ``time.monotonic()`` deadline and an optional cancel
  token, composed once by :func:`~repro.portfolio.backends.stop_rule`,
  cover preprocessing and the final solve;
* **formula** — an ANF input's final solve gets ``result.cnf``, a CNF
  input's the input augmented with the learnt facts
  (``result.augmented_cnf``, paper §III-D); without preprocessing, the
  input CNF or one :class:`~repro.core.anf_to_cnf.AnfToCnf` conversion;
* **model** — every SAT model, one Bosphorus found included, is checked
  against the input (:func:`~repro.core.solution.satisfies_input`) and
  demoted to no answer when it fails, in a fan-out's legs too;
* **mode** — one backend solves through ``backend.solve``, several race
  (:class:`~repro.portfolio.PortfolioRunner`), and with a cube depth
  they conquer (:class:`~repro.cube.CubeConqueror`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .anf.polynomial import Poly
from .anf.ring import Ring
from .anf.system import AnfSystem, ContradictionError
from .core.anf_to_cnf import AnfToCnf
from .core.bosphorus import Bosphorus, BosphorusResult
from .core.config import Config
from .core.solution import satisfies_input
from .cube import CubeConqueror
from .obs import NULL_TRACER, MetricsRegistry
from .portfolio.backends import (
    BackendResult,
    SolverBackend,
    create_backend,
    stop_rule,
)
from .portfolio.engine import PortfolioResult, PortfolioRunner, validated
from .sat.dimacs import CnfFormula


@dataclass
class Problem:
    """One input problem: an ANF or a CNF."""

    name: str
    kind: str  # "anf" | "cnf"
    ring: Optional[Ring] = None
    polynomials: Optional[List[Poly]] = None
    formula: Optional[CnfFormula] = None
    expected: Optional[bool] = None
    witness: Optional[List[int]] = None

    @staticmethod
    def from_anf(name, ring, polynomials, expected=True, witness=None) -> "Problem":
        return Problem(name, "anf", ring=ring, polynomials=polynomials,
                       expected=expected, witness=witness)

    @staticmethod
    def from_cnf(name, formula, expected=None) -> "Problem":
        return Problem(name, "cnf", formula=formula, expected=expected)


@dataclass
class FinalSolve:
    """The final solve: ``backends`` (objects or
    :func:`~repro.portfolio.create_backend` specs, built when the solve
    starts) solve alone, race, or with ``cube_depth`` conquer cubes over
    at most ``jobs`` workers; ``conflict_budget`` bounds every solve."""

    backends: Sequence[Union[str, SolverBackend]]
    cube_depth: Optional[int] = None
    jobs: Optional[int] = 1
    conflict_budget: Optional[int] = None


@dataclass
class SolveOutcome:
    """What one run of :func:`solve_problem` answered."""

    verdict: Optional[bool] = None  # True SAT / False UNSAT / None
    #: A SAT model over the input's variables, checked against the input.
    model: Optional[List[int]] = None
    #: ``None`` without a SAT claim; False when its model failed the
    #: check (the verdict is then ``None`` and ``error`` says why).
    model_checked: Optional[bool] = None
    #: Why an unanswered run stopped: ``cancelled``, ``timeout`` or None.
    stopped: Optional[str] = None
    result: Optional[BosphorusResult] = None
    #: The CNF the final solve gets (or would get), if one was produced.
    formula: Optional[CnfFormula] = None
    #: Seconds of each stage that ran: ``preprocess`` and ``solve``.
    seconds: Dict[str, float] = field(default_factory=dict)
    #: The final solve's backend name (``+``-joined for a fan-out).
    backend: Optional[str] = None
    conflicts: int = 0
    #: A race's or conquest's outcome, one stats row per leg or cube.
    fanout: Optional[PortfolioResult] = None
    #: Why a final solve gave no answer: a demoted model, or
    #: ``backend unavailable: <name>`` (then nothing was solved).
    error: Optional[str] = None

    @property
    def name(self) -> str:
        """``sat``/``unsat``, else ``stopped`` or ``unknown``."""
        if self.verdict is not None:
            return "sat" if self.verdict else "unsat"
        return self.stopped or "unknown"


def solve_problem(
    problem: Problem,
    config: Config,
    final: Optional[FinalSolve] = None,
    *,
    preprocess: bool = True,
    deadline: Optional[float] = None,
    cancel=None,
    tracer=NULL_TRACER,
    metrics: Optional[MetricsRegistry] = None,
    progress=None,
    spans: Tuple[Optional[str], str] = (None, "final.solve"),
) -> SolveOutcome:
    """Preprocess ``problem`` (unless ``preprocess`` is off), solve the
    final CNF with ``final`` (``None``: no final solve) and check every
    model against the input, by the module's four rules.

    ``cancel`` is anything with ``is_set()``; a fan-out answers to the
    ``deadline`` only.  ``metrics`` (fresh if ``None``) gets the stage
    timers ``preprocess_s``/``solve_s``, the conversion counters and
    ``backend_solves``/``backend_conflicts``.  ``progress(stage,
    payload)`` hears ``"preprocessed"`` and ``"solving"``.  ``spans``
    names the preprocessing span (``None``: none) and the single-backend
    final solve's.
    """
    anf = problem.kind == "anf"
    given = problem.polynomials if anf else problem.formula
    n_vars = problem.ring.n_vars if anf else problem.formula.n_vars
    stop = stop_rule(deadline, cancel)
    metrics = metrics if metrics is not None else MetricsRegistry()
    emit = progress or (lambda stage, payload: None)
    out = SolveOutcome()

    def check(model) -> bool:
        return satisfies_input(model, given)

    def settle(res: BackendResult) -> BackendResult:
        """A checked SAT answers over the input's variables (missing bits
        read 0, as the check read them); a demoted one answers nothing."""
        out.conflicts = res.conflicts
        if res.demoted:
            out.model_checked, out.error = False, res.error
        elif res.status is True:
            model = list(res.model[:n_vars])
            out.verdict, out.model_checked = True, True
            out.model = model + [0] * (n_vars - len(model))
        else:
            out.verdict = res.status
        if out.verdict is None:
            out.stopped = _why_stopped(deadline, cancel)
        return res

    def run_bosphorus() -> None:
        bosph = Bosphorus(config, tracer=tracer)
        t0 = time.monotonic()
        with tracer.span(spans[0]) if spans[0] else NULL_TRACER.span("") \
                as span, metrics.timer("preprocess_s"):
            if anf:
                result = bosph.preprocess_anf(
                    problem.ring.clone(), list(problem.polynomials), stop
                )
            else:
                result = bosph.preprocess_cnf(problem.formula, stop)
            span.set("iterations", result.iterations)
            span.set("status", result.status)
        out.seconds["preprocess"] = time.monotonic() - t0
        metrics.merge(bosph.metrics)
        out.result = result
        out.formula = result.cnf if anf else result.augmented_cnf
        emit("preprocessed", {
            "iterations": result.iterations, "status": result.status,
            "conversion_disk_hits": result.stats.get("conversion_disk_hits", 0),
            "karnaugh_disk_hits": result.stats.get("karnaugh_disk_hits", 0),
        })
        if result.is_unsat:
            out.verdict = False
        elif result.is_sat and result.solution is not None:
            settle(validated(
                BackendResult(True, model=list(result.solution.values)), check
            ))

    def run_final(formula: CnfFormula, backends) -> BackendResult:
        emit("solving", {"backend": out.backend, "n_vars": formula.n_vars,
                         "n_clauses": len(formula.clauses)})
        if final.cube_depth is None and len(backends) == 1:
            with tracer.span(spans[1], backend=out.backend,
                             n_clauses=len(formula.clauses)) as span, \
                    metrics.timer("solve_s"):
                res = settle(validated(
                    backends[0].solve(formula, final.conflict_budget, stop),
                    check,
                ))
                span.set("verdict", out.name)
                span.set("conflicts", res.conflicts)
                for key, value in (res.counters or {}).items():
                    span.set(key, value)
            return res
        if final.cube_depth is None:
            runner = PortfolioRunner(backends, jobs=final.jobs,
                                     validate=check, tracer=tracer)
        else:
            runner = CubeConqueror(backends, jobs=final.jobs,
                                   depth=final.cube_depth, validate=check,
                                   tracer=tracer)
        with metrics.timer("solve_s"):
            out.fanout = runner.run(
                formula, conflict_budget=final.conflict_budget,
                timeout_s=None if deadline is None
                else max(0.0, deadline - time.monotonic()),
            )
        # The engine accepts only models that passed ``check``.
        return settle(BackendResult(
            out.fanout.verdict, model=out.fanout.model,
            conflicts=sum(row.conflicts for row in out.fanout.stats),
        ))

    if stop is None or not stop():
        if preprocess:
            run_bosphorus()
        elif anf:
            try:
                system = AnfSystem(problem.ring.clone(), problem.polynomials)
            except ContradictionError:
                out.verdict = False
            else:
                out.formula = AnfToCnf(
                    config, tracer=tracer, metrics=metrics
                ).convert(system).formula
        else:
            out.formula = problem.formula
    if (final is not None and out.formula is not None and out.verdict is None
            and out.model_checked is None and not (stop and stop())):
        backends = [create_backend(b) if isinstance(b, str) else b
                    for b in final.backends]
        out.backend = "+".join(b.name for b in backends)
        if len(backends) == 1 and not backends[0].available():
            out.error = "backend unavailable: " + out.backend
        else:
            t0 = time.monotonic()
            res = run_final(out.formula, backends)
            out.seconds["solve"] = time.monotonic() - t0
            metrics.inc("backend_solves")
            metrics.inc("backend_conflicts", res.conflicts)
    if out.verdict is None:
        out.stopped = _why_stopped(deadline, cancel)
    return out


def _why_stopped(deadline, cancel) -> Optional[str]:
    if cancel is not None and cancel.is_set():
        return "cancelled"
    if deadline is not None and time.monotonic() >= deadline:
        return "timeout"
    return None
