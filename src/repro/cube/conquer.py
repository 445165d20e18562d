"""Conquer: fan a cube set over the bounded batch pool.

A conquest is the one fan-out engine,
:func:`repro.portfolio.engine.conquer` — the portfolio race is the same
engine with one empty cube per backend.  The cubes are dealt
round-robin into **chains**, each one
:class:`~repro.portfolio.engine.Leg` mapped over
:class:`repro.portfolio.BatchScheduler` (the one worker pool behind
every fan-out).  An in-process backend loads the formula once per chain
and solves the chain's cubes in order, each as assumptions on the same
warm solver, so learnt clauses carry from cube to cube (the incremental
conquer of Heule, Kullmann, Wieringa and Biere, HVC 2011).  The engine
stops at the first validated decisive answer:

* a **validated SAT** cube stops the run — running chains are cancelled
  through their slot flag and stand down within one conflict,
  chains not yet started never run, and every cube left without a
  result gets a ``cancelled`` row;
* an **UNSAT with** ``assumption_failure=False`` from an in-process
  backend is a *global* refutation (the proof never needed the cube), so
  it stops the run too — the whole-formula UNSAT shortcut;
* a chain stops at its first SAT claim; when the validator demotes it,
  the cubes the chain never reached go out again as a new chain;
* a validated SAT beside a global refutation raises
  :class:`~repro.portfolio.engine.PortfolioDisagreement`.

This module adds the split and the partition rule: without a decisive
answer the instance is UNSAT only when **every** scheduled cube is
refuted (plus the branches the splitter already closed).  A cube left
unknown, errored, or cancelled blocks the UNSAT verdict: a partition
with an open piece proves nothing.  A conquest answers a verdict (and a
validated model) only; no learnt fact travels back from a cube.  A
traced conquest gets one ``cube.solve`` span per cube that reported,
recorded under ``cube.conquer`` in this process from the window its
worker measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from ..obs import NULL_TRACER
from ..portfolio.backends import SolverBackend, create_backend
from ..portfolio.engine import STATUS_UNSAT, PortfolioResult, conquer
from ..sat.dimacs import CnfFormula
from ..sat.solver import UNSAT
from .splitter import split_formula


@dataclass
class CubeOutcome(PortfolioResult):
    """The verdict of one cube-and-conquer run: the engine's
    :class:`~repro.portfolio.engine.PortfolioResult` (one stats row and
    one result per cube) plus the split's fields."""

    n_cubes: int = 0
    n_refuted_at_split: int = 0
    #: True when UNSAT came from the whole-formula shortcut (or the
    #: splitter's root propagation), not from refuting every cube.
    global_unsat: bool = False
    variables: List[int] = field(default_factory=list)

    @property
    def n_refuted(self) -> int:
        return self.n_refuted_at_split + sum(
            1 for s in self.stats if s.status == STATUS_UNSAT
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
    from a cube are demoted unless the model validates, exactly as in a
    portfolio race (both run on :func:`~repro.portfolio.engine.conquer`).
    """

    def __init__(
        self,
        backends: Sequence[Union[str, SolverBackend]],
        jobs: Optional[int] = 1,
        depth: int = 4,
        mode: str = "lookahead",
        validate: Optional[Callable[[List[int]], bool]] = None,
        tracer=None,
    ):
        if not backends:
            raise ValueError("cube-and-conquer needs at least one backend")
        self.backends = [
            create_backend(b) if isinstance(b, str) else b for b in backends
        ]
        self.jobs = jobs
        self.depth = depth
        self.mode = mode
        self.validate = validate
        # Observability (repro.obs): instance-threaded, parent-side.
        # conquer() records each cube's span here from the window the
        # worker measured.
        self.tracer = tracer or NULL_TRACER

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
                cubeset = split_formula(formula, self.depth, mode=self.mode)
                split_span.set("cubes", len(cubeset.cubes))
                split_span.set("refuted_at_split", len(cubeset.refuted))
            conquer_span.set("cubes", len(cubeset.cubes))
            outcome = CubeOutcome(
                None,
                n_cubes=len(cubeset.cubes),
                n_refuted_at_split=len(cubeset.refuted),
                variables=list(cubeset.variables),
            )
            if cubeset.root_unsat or not cubeset.cubes:
                # The formula died at the root, or the split closed
                # every branch: the partition is exhausted without a
                # solver call.
                outcome.verdict = UNSAT
                outcome.global_unsat = cubeset.root_unsat
            else:
                self._conquer(outcome, formula, cubeset.cubes, deadline,
                              conflict_budget)
            outcome.wall_seconds = time.monotonic() - start
            return outcome

    def _conquer(self, outcome, formula, cubes, deadline,
                 conflict_budget) -> None:
        conquer(
            outcome, formula, cubes,
            [b for b in self.backends if b.available()], self.jobs,
            self.validate, deadline, conflict_budget, self.tracer,
            span="cube.solve",
        )
        if outcome.verdict is UNSAT:
            outcome.global_unsat = True
        elif outcome.results and all(
            r is not None and r.status is UNSAT for r in outcome.results
        ):
            # Every scheduled cube refuted; together with the splitter's
            # closed branches the partition is exhausted.
            outcome.verdict = UNSAT
