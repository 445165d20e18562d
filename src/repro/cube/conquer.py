"""Conquer: fan a cube set over the bounded batch pool.

Each cube becomes one :class:`~repro.portfolio.engine.Leg` — the
formula handed to a backend with the cube as assumptions, the same unit
the portfolio race runs — mapped over
:class:`repro.portfolio.BatchScheduler` (the one worker pool behind
every fan-out).  The first-win protocol is the map's ``stop_when``:

* a **validated SAT** cube stops the run — running sibling cubes are
  cancelled through their slot flag and stand down at their next
  conflict slice, cubes not yet started never run (``cancelled`` rows);
* an **UNSAT with** ``assumption_failure=False`` from an in-process
  backend is a *global* refutation (the proof never needed the cube), so
  it stops the run too — the whole-formula UNSAT shortcut;
* otherwise the instance is UNSAT only when **every** scheduled cube is
  refuted (plus the branches the splitter already closed).  A cube left
  unknown, errored, or cancelled blocks the UNSAT verdict: a partition
  with an open piece proves nothing.

A validated SAT and a global refutation in one run is a soundness bug
and raises :class:`CubeDisagreement`, mirroring the portfolio engine's
disagreement policy.  A conquest answers a verdict (and a validated
model) only; no learnt fact travels back from a cube.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..obs import NULL_TRACER, MetricsRegistry
from ..portfolio.backends import BackendResult, SolverBackend, create_backend
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

    ``backends`` (specs or instances) are assigned round-robin over the
    cube list, so a heterogeneous pool — personalities, seed-diversified
    copies, external ``dimacs:`` binaries — spreads across the
    partition.  ``jobs`` bounds the worker processes (``1`` is the
    deterministic sequential schedule used by the equivalence tests);
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

            backends = [b for b in self.backends if b.available()]
            if not backends:
                outcome.wall_seconds = time.monotonic() - start
                return outcome
            legs = [
                Leg(i, backends[i % len(backends)], formula, deadline,
                    conflict_budget, cube=cube, span="cube.solve",
                    prefix="cube", trace=self.tracer.enabled)
                for i, cube in enumerate(cubeset.cubes)
            ]

            def stop(res) -> bool:
                # A validated SAT, or the whole-formula shortcut
                # (in-process backends only: DimacsBackend flags every
                # cubed UNSAT conservatively).
                return res.status is SAT or (
                    res.status is UNSAT and not res.assumption_failure
                )

            ran = run_legs(
                legs, self.jobs, self.validate, stop, self.tracer,
                self.metrics, conquer_span.id,
            )
            self._aggregate(outcome, cubeset, legs, ran)
            outcome.wall_seconds = time.monotonic() - start
            return outcome

    # -- aggregation --------------------------------------------------------

    def _aggregate(self, outcome, cubeset, legs, ran) -> None:
        results: List[Optional[BackendResult]] = [None] * len(legs)
        for leg, (res, seconds, span_id) in zip(legs, ran):
            results[leg.index] = res
            row = CubeStats(leg.index, leg.cube, leg.backend.name,
                            CUBE_CANCELLED)
            if res is not None:
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
            outcome.sat_cube = cubeset.cubes[win]
            outcome.winner = legs[win].backend.name
        elif global_idx:
            outcome.verdict = UNSAT
            outcome.global_unsat = True
            outcome.winner = legs[min(global_idx)].backend.name
        elif results and all(
            r is not None and r.status is UNSAT for r in results
        ):
            # Every scheduled cube refuted; together with the splitter's
            # closed branches the partition is exhausted.
            outcome.verdict = UNSAT
