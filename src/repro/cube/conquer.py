"""Conquer: fan a cube set over the bounded batch pool.

The cubes are dealt round-robin into **chains**, and each chain is one
:class:`~repro.portfolio.engine.Leg` — the unit the portfolio race runs
too — mapped over :class:`repro.portfolio.BatchScheduler` (the one
worker pool behind every fan-out).  An in-process backend loads the
formula once per chain and solves the chain's cubes in order, each as
assumptions on the same warm solver, so learnt clauses carry from cube
to cube (the incremental conquer of Heule, Kullmann, Wieringa and
Biere, HVC 2011).  The first-win protocol is the map's ``stop_when``:

* a **validated SAT** cube stops the run — running chains are cancelled
  through their slot flag and stand down at their next conflict slice,
  chains not yet started never run, and every cube left without a
  result gets a ``cancelled`` row;
* an **UNSAT with** ``assumption_failure=False`` from an in-process
  backend is a *global* refutation (the proof never needed the cube), so
  it stops the run too — the whole-formula UNSAT shortcut;
* otherwise the instance is UNSAT only when **every** scheduled cube is
  refuted (plus the branches the splitter already closed).  A cube left
  unknown, errored, or cancelled blocks the UNSAT verdict: a partition
  with an open piece proves nothing.

A chain stops at its first SAT claim; when the validator demotes it,
the cubes the chain never reached go out again as a new chain.

A validated SAT and a global refutation in one run is a soundness bug
and raises :class:`CubeDisagreement`, mirroring the portfolio engine's
disagreement policy.  A conquest answers a verdict (and a validated
model) only; no learnt fact travels back from a cube.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..obs import NULL_TRACER, MetricsRegistry
from ..portfolio.backends import BackendResult, SolverBackend, create_backend
from ..portfolio.batch import default_jobs
from ..portfolio.engine import Leg, leg_status, run_legs
from ..sat.dimacs import CnfFormula
from ..sat.solver import SAT, UNSAT
from .splitter import DEFAULT_MAX_CUBES, split_formula

#: Per-cube stats row status values (those of
#: :func:`~repro.portfolio.engine.leg_status`, UNSAT named ``refuted``).
CUBE_SAT = "sat"
CUBE_REFUTED = "refuted"
CUBE_UNKNOWN = "unknown"
CUBE_CANCELLED = "cancelled"
CUBE_ERROR = "error"
CUBE_INVALID_MODEL = "invalid-model"


class CubeDisagreement(RuntimeError):
    """A validated SAT cube and a global refutation cannot coexist."""


@dataclass
class CubeStats:
    """What happened to one cube during a conquer run."""

    index: int
    cube: Tuple[int, ...]
    backend: str
    status: str
    seconds: float = 0.0
    conflicts: int = 0
    assumption_failure: bool = False
    error: Optional[str] = None
    #: Trace span id of this cube's conquest leg (tracing runs only),
    #: so the stats row links into the stitched cross-process timeline.
    span_id: Optional[str] = None


@dataclass
class CubeOutcome:
    """The aggregated verdict of one cube-and-conquer run."""

    verdict: Optional[bool]
    model: Optional[List[int]] = None
    sat_cube: Optional[Tuple[int, ...]] = None
    winner: Optional[str] = None
    stats: List[CubeStats] = field(default_factory=list)
    n_cubes: int = 0
    n_refuted_at_split: int = 0
    #: True when UNSAT came from the whole-formula shortcut (or the
    #: splitter's root propagation), not from refuting every cube.
    global_unsat: bool = False
    wall_seconds: float = 0.0
    results: List[Optional[BackendResult]] = field(default_factory=list)
    variables: List[int] = field(default_factory=list)

    @property
    def n_cancelled(self) -> int:
        return sum(1 for s in self.stats if s.status == CUBE_CANCELLED)

    @property
    def n_refuted(self) -> int:
        return self.n_refuted_at_split + sum(
            1 for s in self.stats if s.status == CUBE_REFUTED
        )


class CubeConqueror:
    """Split one CNF into cubes and conquer them over the batch pool.

    The cubes are dealt round-robin into ``n = max(jobs,
    len(backends))`` chains (at most one per cube): chain ``k`` holds
    cubes ``k, k+n, ...`` in order and runs on ``backends[k %
    len(backends)]``, so a heterogeneous pool — personalities,
    seed-diversified copies, external ``dimacs:`` binaries — spreads
    across the partition.  Per-cube results depend only on the formula,
    the cubes, ``jobs`` and the backends, never on which worker finishes
    first.  ``jobs`` bounds the worker processes (``1`` runs the chains
    in order in-process, the schedule the equivalence tests use);
    ``validate`` is the usual ``model_bits -> bool`` hook — SAT claims
    from a cube are demoted unless the model validates, exactly like the
    portfolio engine.
    """

    def __init__(
        self,
        backends: Sequence[Union[str, SolverBackend]],
        jobs: Optional[int] = 1,
        depth: int = 4,
        mode: str = "lookahead",
        max_cubes: int = DEFAULT_MAX_CUBES,
        validate: Optional[Callable[[List[int]], bool]] = None,
        tracer=None,
        metrics=None,
    ):
        if not backends:
            raise ValueError("cube-and-conquer needs at least one backend")
        self.backends = [
            create_backend(b) if isinstance(b, str) else b for b in backends
        ]
        self.jobs = jobs
        self.depth = depth
        self.mode = mode
        self.max_cubes = max_cubes
        self.validate = validate
        # Observability (repro.obs): instance-threaded, parent-side.
        # Cube-worker spans/metrics ride each BackendResult back and are
        # adopted/merged at aggregation time.
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def run(
        self,
        formula: CnfFormula,
        timeout_s: Optional[float] = None,
        conflict_budget: Optional[int] = None,
    ) -> CubeOutcome:
        start = time.monotonic()
        deadline = start + timeout_s if timeout_s is not None else None
        with self.tracer.span("cube.conquer", mode=self.mode) as conquer_span:
            with self.tracer.span("cube.split", depth=self.depth) as split_span:
                cubeset = split_formula(
                    formula, self.depth, mode=self.mode,
                    max_cubes=self.max_cubes,
                )
                split_span.set("cubes", len(cubeset.cubes))
                split_span.set("refuted_at_split", len(cubeset.refuted))
            conquer_span.set("cubes", len(cubeset.cubes))
            outcome = CubeOutcome(
                None,
                n_cubes=len(cubeset.cubes),
                n_refuted_at_split=len(cubeset.refuted),
                variables=list(cubeset.variables),
            )
            if cubeset.root_unsat:
                outcome.verdict = UNSAT
                outcome.global_unsat = True
                outcome.wall_seconds = time.monotonic() - start
                return outcome

            if not cubeset.cubes and cubeset.refuted:
                # The split closed every branch: the partition is
                # exhausted without a solver call.
                outcome.verdict = UNSAT
                outcome.wall_seconds = time.monotonic() - start
                return outcome
            backends = [b for b in self.backends if b.available()]
            if not backends:
                outcome.wall_seconds = time.monotonic() - start
                return outcome
            cubes = cubeset.cubes
            jobs = self.jobs if self.jobs is not None else default_jobs()
            n = min(max(jobs, len(backends)), len(cubes))
            chains = [
                Leg(backends[k % len(backends)], formula, deadline,
                    conflict_budget, tuple(range(k, len(cubes), n)),
                    cubes=tuple(cubes[k::n]), span="cube.solve",
                    prefix="cube", trace=self.tracer.enabled)
                for k in range(n)
            ]
            names = [backends[i % n % len(backends)].name
                     for i in range(len(cubes))]
            ran: List = [None] * len(cubes)

            def stop(res) -> bool:
                # A validated SAT, or the whole-formula shortcut
                # (in-process backends only: DimacsBackend flags every
                # cubed UNSAT conservatively).
                return res.status is SAT or (
                    res.status is UNSAT and not res.assumption_failure
                )

            while chains:
                rows = run_legs(
                    chains, self.jobs, self.validate, stop, self.tracer,
                    self.metrics, conquer_span.id,
                )
                again = []
                for leg, entries in zip(chains, rows):
                    for index, entry in zip(leg.indices, entries):
                        ran[index] = entry
                    reached = sum(1 for e in entries if e is not None)
                    if 0 < reached < len(entries) and \
                            entries[reached - 1][0].demoted:
                        # The chain stopped at a SAT claim the validator
                        # rejected: its untried cubes go out again.
                        again.append(replace(
                            leg, indices=leg.indices[reached:],
                            cubes=leg.cubes[reached:],
                        ))
                if any(e is not None and stop(e[0])
                       for entries in rows for e in entries):
                    break
                chains = again
            self._aggregate(outcome, cubes, names, ran)
            outcome.wall_seconds = time.monotonic() - start
            return outcome

    # -- aggregation --------------------------------------------------------

    def _aggregate(self, outcome, cubes, names, ran) -> None:
        results: List[Optional[BackendResult]] = [None] * len(cubes)
        for index, entry in enumerate(ran):
            row = CubeStats(index, cubes[index], names[index], CUBE_CANCELLED)
            if entry is not None:
                res, seconds, span_id = entry
                results[index] = res
                row.status = leg_status(res, unsat=CUBE_REFUTED)
                row.seconds = seconds
                row.conflicts = res.conflicts
                row.assumption_failure = res.assumption_failure
                row.error = res.error
                row.span_id = span_id
            outcome.stats.append(row)
        outcome.results = results

        sat_idx = [i for i, r in enumerate(results) if r is not None
                   and r.status is SAT]
        global_idx = [i for i, r in enumerate(results) if r is not None
                      and r.status is UNSAT and not r.assumption_failure]
        if sat_idx and global_idx:
            raise CubeDisagreement(
                "cube {} claims a validated model but cube {} refuted the "
                "formula globally".format(min(sat_idx), min(global_idx))
            )
        if sat_idx:
            # Lowest cube index wins: deterministic given the same result
            # set, regardless of worker finish order.
            win = min(sat_idx)
            outcome.verdict = SAT
            outcome.model = results[win].model
            outcome.sat_cube = cubes[win]
            outcome.winner = names[win]
        elif global_idx:
            outcome.verdict = UNSAT
            outcome.global_unsat = True
            outcome.winner = names[min(global_idx)]
        elif results and all(
            r is not None and r.status is UNSAT for r in results
        ):
            # Every scheduled cube refuted; together with the splitter's
            # closed branches the partition is exhausted.
            outcome.verdict = UNSAT
