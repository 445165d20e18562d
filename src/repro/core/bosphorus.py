"""The Bosphorus workflow (paper section III-A, Fig. 1).

An input problem — ANF or CNF — is normalised into a master ANF system.
ANF propagation runs first; then the XL → ElimLin → SAT-solver loop learns
facts, with propagation folding each batch of facts back into the master
copy, until a fixed point where no step produces anything new.  The output
is the processed ANF and its CNF conversion (plus, for CNF inputs, the
original CNF augmented with the learnt facts).

Termination conditions mirror the paper:

* ``1 = 0`` anywhere → UNSAT;
* the inner SAT solver finds a model → (optionally) stop and report it
  (the model is *not* used to simplify the ANF, since it may not be the
  unique solution);
* no new facts in a full pass → fixed point;
* the caller's ``stop()`` holds → no verdict and no CNF.  It is asked
  before each learner and SAT step and after every inner conflict; an XL
  or ElimLin step runs to its end, so a run overshoots by one step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..anf.polynomial import Poly
from ..anf.ring import Ring
from ..anf.system import AnfSystem, ContradictionError
from ..obs import NULL_TRACER, MetricsRegistry
from ..sat.dimacs import CnfFormula
from ..sat.solver import SAT, UNSAT, SolverConfig
from .anf_to_cnf import CACHE_COUNTERS, AnfToCnf, ConversionResult
from .cnf_to_anf import cnf_to_anf
from .config import Config
from .elimlin import run_elimlin
from .facts import (
    SOURCE_ELIMLIN,
    SOURCE_GROEBNER,
    SOURCE_PROBING,
    SOURCE_SAT,
    SOURCE_XL,
    FactStore,
)
from .groebner import buchberger
from .probing import run_probing
from .propagation import materialize, propagate
from .satlearn import run_sat
from .solution import Solution
from .xl import run_xl

#: Status strings for :class:`BosphorusResult`.
STATUS_SAT = "sat"
STATUS_UNSAT = "unsat"
STATUS_UNKNOWN = "unknown"


class _Stopped(Exception):
    """The caller's ``stop`` held between two steps of the loop."""


def _halt(stop) -> None:
    if stop is not None and stop():
        raise _Stopped


@dataclass
class BosphorusResult:
    """Everything the preprocessing run produced."""

    status: str
    facts: FactStore
    iterations: int
    processed_anf: List[Poly]
    cnf: Optional[CnfFormula] = None
    conversion: Optional[ConversionResult] = None
    solution: Optional[Solution] = None
    augmented_cnf: Optional[CnfFormula] = None
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status == STATUS_SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == STATUS_UNSAT


class Bosphorus:
    """The iterative ANF/CNF fact-learning preprocessor."""

    def __init__(
        self,
        config: Optional[Config] = None,
        inner_solver_config: Optional[SolverConfig] = None,
        tracer=None,
    ):
        self.config = config or Config()
        self.inner_solver_config = inner_solver_config
        # Observability (repro.obs).  A caller-supplied tracer records
        # the run's spans (the caller exports them); the default is the
        # zero-overhead no-op.  The metrics registry is per-run
        # (``_run_loop`` swaps in a fresh one) — instance-threaded,
        # never module-global.
        self.tracer = tracer or NULL_TRACER
        self.metrics = MetricsRegistry()
        # One converter per workflow: its structure-keyed Karnaugh cache
        # is shared across the inner-SAT conversions of every iteration,
        # the final conversion and the CNF augmentation, so structurally
        # repeated chunks (cipher rounds) are minimised once per run.
        self.converter = AnfToCnf(
            self.config, tracer=self.tracer, metrics=self.metrics
        )

    # -- entry points ---------------------------------------------------------

    def preprocess_anf(
        self, ring: Ring, polynomials: Sequence[Poly], stop=None
    ) -> BosphorusResult:
        """Run the fact-learning loop on an ANF problem (until ``stop()``
        holds, see the module docstring)."""
        facts = FactStore()
        with self.tracer.span(
            "bosphorus.preprocess",
            n_vars=ring.n_vars,
            n_polys=len(polynomials),
        ) as span:
            try:
                system = AnfSystem(ring, polynomials)
            except ContradictionError:
                result = self._unsat_result(facts, iterations=0, ring=ring)
            else:
                result = self._run_loop(system, facts, stop)
            span.set("status", result.status)
            span.set("iterations", result.iterations)
        return result

    def preprocess_cnf(self, formula: CnfFormula, stop=None) -> BosphorusResult:
        """Use Bosphorus as a CNF preprocessor (paper section III-D).

        The result carries both the original CNF (augmented with learnt
        facts — the paper returns this because a CNF→ANF→CNF round trip
        alone is suboptimal) and the CNF of the internal ANF; a run
        ``stop`` cut off carries neither.
        """
        anf = cnf_to_anf(formula, self.config)
        result = self.preprocess_anf(anf.ring, anf.polynomials, stop)
        if result.cnf is not None:
            with self.tracer.span("bosphorus.augment_cnf"):
                result.augmented_cnf = self._augment_cnf(
                    formula, result, set(anf.cut_vars)
                )
        if result.solution is not None:
            result.solution = Solution(result.solution.values[: formula.n_vars])
        return result

    # -- the loop -------------------------------------------------------------

    def _run_loop(self, system: AnfSystem, facts: FactStore, stop) -> BosphorusResult:
        config = self.config
        rng = random.Random(config.seed)
        original_ring = system.ring
        sat_budget = config.sat_conflict_start
        solution: Optional[Solution] = None
        status = STATUS_UNKNOWN
        iterations = 0
        technique_stats: List[Dict[str, object]] = []
        tracer = self.tracer
        # Run-wide accounting lives in a fresh per-run MetricsRegistry
        # (repro.obs): the shared converter increments the Karnaugh/disk
        # cache counters on *every* conversion it performs — inner-SAT
        # iterations, the final CNF, the CNF augmentation — and the
        # result stats are re-derived from the registry.  That makes the
        # totals exit-path independent: an early-exit (facts-solved →
        # UNSAT) run reports the conversions it did perform instead of
        # silently dropping them.
        metrics = MetricsRegistry()
        self.metrics = metrics
        self.converter.metrics = metrics
        # One CNF numbering and one warm inner solver for the whole run:
        # each iteration's conversion hands the solver only new clauses.
        session = self.converter.session()
        # The ANF learners in loop order: (enabled, source, learn).  Each
        # ``learn`` reads the system as it stands when it is called, so a
        # learner sees the facts its predecessors folded in.
        learners = [
            (config.use_xl, SOURCE_XL,
             lambda: run_xl(system.polynomials, config, rng).facts),
            (config.use_elimlin, SOURCE_ELIMLIN,
             lambda: run_elimlin(system.polynomials, config, rng).facts),
            (config.use_groebner, SOURCE_GROEBNER,
             lambda: buchberger(list(system.polynomials)).facts),
            (config.use_probing, SOURCE_PROBING,
             lambda: run_probing(system, config.probe_limit).facts),
        ]

        try:
            with tracer.span("propagation.initial"):
                propagate(system)
            for iterations in range(1, config.max_iterations + 1):
                new_facts = 0
                it_stats: Dict[str, object] = {"iteration": iterations}
                it_span = tracer.span("satlearn.iteration", iteration=iterations)
                with it_span:
                    for enabled, source, learn in learners:
                        if not enabled:
                            continue
                        _halt(stop)
                        with tracer.span(source) as span, metrics.timer(
                            source + "_s"
                        ):
                            added = self._absorb(system, facts, learn(), source)
                            span.set("facts", added)
                        it_stats[source + "_facts"] = added
                        new_facts += added

                    if config.use_sat:
                        _halt(stop)
                        with tracer.span(
                            "sat", budget=sat_budget
                        ) as span, metrics.timer("sat_s"):
                            sat_res = run_sat(
                                system,
                                config,
                                sat_budget,
                                self.inner_solver_config,
                                session=session,
                                tracer=tracer,
                                stop=stop,
                            )
                            it_stats["sat_status"] = sat_res.status
                            it_stats["sat_conflicts"] = sat_res.conflicts
                            span.set("conflicts", sat_res.conflicts)
                            if sat_res.status is UNSAT:
                                raise ContradictionError(
                                    "SAT solver proved UNSAT"
                                )
                            added = self._absorb(
                                system, facts, sat_res.facts, SOURCE_SAT
                            )
                            span.set("facts", added)
                        it_stats["sat_facts"] = added
                        new_facts += added
                        if sat_res.status is SAT and sat_res.model is not None:
                            solution = Solution(list(sat_res.model))
                            if config.stop_on_solution:
                                status = STATUS_SAT
                                technique_stats.append(it_stats)
                                break
                        if added == 0:
                            sat_budget = min(
                                sat_budget + config.sat_conflict_step,
                                config.sat_conflict_max,
                            )

                    technique_stats.append(it_stats)
                    if new_facts == 0:
                        break
            if status == STATUS_UNKNOWN:
                _halt(stop)
        except ContradictionError:
            return self._unsat_result(
                facts,
                iterations,
                ring=original_ring,
                stats=technique_stats,
                metrics=metrics,
            )
        except _Stopped:
            processed, conversion = materialize(system), None
        else:
            with tracer.span("conversion.final"):
                processed = materialize(system)
                conversion = session.convert(system)
        return BosphorusResult(
            status=status,
            facts=facts,
            iterations=iterations,
            processed_anf=processed,
            cnf=conversion.formula if conversion else None,
            conversion=conversion,
            solution=solution,
            stats=self._assemble_stats(technique_stats, facts, metrics),
        )

    def _absorb(
        self,
        system: AnfSystem,
        facts: FactStore,
        candidates: Sequence[Poly],
        source: str,
    ) -> int:
        """Fold learnt facts into the master copy, then propagate.

        Propagation is incremental: only the newly inserted equations (and
        whatever they dirty through the occurrence lists) are revisited,
        so a batch of k facts costs O(closure of k), not O(system).
        """
        added = 0
        fresh: List[Poly] = []
        for fact in candidates:
            if fact.is_one():
                raise ContradictionError("learnt the contradiction 1 = 0")
            normalized = system.normalize(fact)
            if normalized.is_zero():
                continue
            if normalized.is_one():
                raise ContradictionError("learnt the contradiction 1 = 0")
            if facts.add(normalized, source):
                if system.add(normalized):
                    fresh.append(normalized)
                added += 1
        if fresh:
            with self.tracer.span("propagation", source=source, fresh=len(fresh)):
                propagate(system, dirty=fresh)
        if added:
            self.metrics.inc("facts_" + source, added)
        return added

    def _assemble_stats(
        self, techniques, facts: FactStore, metrics: MetricsRegistry
    ) -> Dict[str, object]:
        """The ``result.stats`` dict, re-derived from the run registry.

        One assembly point for every exit path (fixed point, solution,
        early UNSAT), so the run-wide conversion counters can never be
        dropped by one path and kept by another.  Keys are frozen in
        :mod:`repro.obs.schema`.
        """
        return {
            "techniques": techniques,
            "fact_summary": facts.summary(),
            **{name: metrics.counter(name) for name in CACHE_COUNTERS},
        }

    def _unsat_result(
        self, facts, iterations, ring, stats=None, metrics=None
    ) -> BosphorusResult:
        facts.add(Poly.one(), "contradiction")
        formula = CnfFormula(ring.n_vars if ring else 0)
        formula.add_clause([])
        return BosphorusResult(
            status=STATUS_UNSAT,
            facts=facts,
            iterations=iterations,
            processed_anf=[Poly.one()],
            cnf=formula,
            stats=self._assemble_stats(
                stats or [], facts, metrics or MetricsRegistry()
            ),
        )

    def _augment_cnf(
        self, original: CnfFormula, result: BosphorusResult, cut_vars
    ) -> CnfFormula:
        """Original clauses plus learnt facts encoded as CNF."""
        augmented = CnfFormula(original.n_vars)
        augmented.clauses = [list(c) for c in original.clauses]
        augmented.xors = [(list(v), r) for v, r in original.xors]
        if result.is_unsat:
            augmented.add_clause([])
            return augmented
        fact_polys = [
            p
            for p in result.facts.polynomials()
            if all(v < original.n_vars for v in p.variables())
        ]
        if fact_polys:
            conv = self.converter.convert_polynomials(
                fact_polys, n_vars=original.n_vars
            )
            # This conversion is part of the run: the converter has
            # already folded its cache counters into the run registry,
            # so the run-wide totals are simply re-read from it.
            for key in CACHE_COUNTERS:
                result.stats[key] = self.metrics.counter(key)
            for clause in conv.formula.clauses:
                augmented.add_clause(clause)
        return augmented
