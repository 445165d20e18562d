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
* no new facts in a full pass → fixed point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..anf.polynomial import Poly
from ..anf.ring import Ring
from ..anf.system import AnfSystem, ContradictionError
from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from ..sat.dimacs import CnfFormula
from ..sat.solver import SAT, UNSAT, SolverConfig
from .anf_to_cnf import AnfToCnf, ConversionResult
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
    system: Optional[AnfSystem] = None
    original_cnf: Optional[CnfFormula] = None
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
        # Observability (repro.obs).  A caller-supplied tracer is used
        # as-is (the caller exports); otherwise ``config.trace_path``
        # creates an owned tracer whose spans are exported when a
        # preprocess entry point finishes.  The default is the
        # zero-overhead no-op.  The metrics registry is per-run
        # (``_run_loop`` swaps in a fresh one) — instance-threaded,
        # never module-global.
        self._owns_tracer = tracer is None and bool(self.config.trace_path)
        if tracer is None:
            tracer = Tracer() if self.config.trace_path else NULL_TRACER
        self.tracer = tracer
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
        self, ring: Ring, polynomials: Sequence[Poly]
    ) -> BosphorusResult:
        """Run the fact-learning loop on an ANF problem."""
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
                result = self._run_loop(system, facts)
            span.set("status", result.status)
            span.set("iterations", result.iterations)
        self._export_trace()
        return result

    def preprocess_cnf(self, formula: CnfFormula) -> BosphorusResult:
        """Use Bosphorus as a CNF preprocessor (paper section III-D).

        The result carries both the original CNF (augmented with learnt
        facts — the paper returns this because a CNF→ANF→CNF round trip
        alone is suboptimal) and the CNF of the internal ANF.
        """
        anf = cnf_to_anf(formula, self.config)
        result = self.preprocess_anf(anf.ring, anf.polynomials)
        result.original_cnf = formula
        with self.tracer.span("bosphorus.augment_cnf"):
            result.augmented_cnf = self._augment_cnf(
                formula, result, set(anf.cut_vars)
            )
        if result.solution is not None:
            result.solution = Solution(result.solution.values[: formula.n_vars])
        # Re-export: the augmentation spans postdate preprocess_anf's
        # export, and the trace file should cover the whole call.
        self._export_trace()
        return result

    def _export_trace(self) -> None:
        """Write the owned tracer's spans to ``config.trace_path``."""
        if self._owns_tracer and self.config.trace_path:
            self.tracer.export(self.config.trace_path)

    # -- the loop -------------------------------------------------------------

    def _run_loop(self, system: AnfSystem, facts: FactStore) -> BosphorusResult:
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

        try:
            with tracer.span("propagation.initial"):
                propagate(system)
            for iterations in range(1, config.max_iterations + 1):
                new_facts = 0
                it_stats: Dict[str, object] = {"iteration": iterations}
                it_span = tracer.span("satlearn.iteration", iteration=iterations)
                with it_span:
                    if config.use_xl:
                        with tracer.span("xl") as span, metrics.timer("xl_s"):
                            xl_res = run_xl(system.polynomials, config, rng)
                            added = self._absorb(
                                system, facts, xl_res.facts, SOURCE_XL
                            )
                            span.set("facts", added)
                        it_stats["xl_facts"] = added
                        new_facts += added

                    if config.use_elimlin:
                        with tracer.span("elimlin") as span, metrics.timer(
                            "elimlin_s"
                        ):
                            el_res = run_elimlin(system.polynomials, config, rng)
                            added = self._absorb(
                                system, facts, el_res.facts, SOURCE_ELIMLIN
                            )
                            span.set("facts", added)
                        it_stats["elimlin_facts"] = added
                        new_facts += added

                    if config.use_groebner:
                        with tracer.span("groebner") as span, metrics.timer(
                            "groebner_s"
                        ):
                            gb_res = buchberger(
                                list(system.polynomials),
                                max_pairs=config.groebner_max_pairs,
                                max_basis=config.groebner_max_basis,
                            )
                            added = self._absorb(
                                system, facts, gb_res.facts, SOURCE_GROEBNER
                            )
                            span.set("facts", added)
                        it_stats["groebner_facts"] = added
                        new_facts += added

                    if config.use_probing:
                        with tracer.span("probing") as span, metrics.timer(
                            "probing_s"
                        ):
                            probe_res = run_probing(
                                system, config, config.probe_limit
                            )
                            added = self._absorb(
                                system, facts, probe_res.facts, SOURCE_PROBING
                            )
                            span.set("facts", added)
                        it_stats["probing_facts"] = added
                        new_facts += added

                    if config.use_sat:
                        with tracer.span(
                            "sat", budget=sat_budget
                        ) as span, metrics.timer("sat_s"):
                            sat_res = run_sat(
                                system,
                                config,
                                sat_budget,
                                self.inner_solver_config,
                                converter=self.converter,
                                tracer=tracer,
                                metrics=metrics,
                            )
                            it_stats["sat_status"] = sat_res.status
                            it_stats["sat_conflicts"] = sat_res.conflicts
                            span.set("conflicts", sat_res.conflicts)
                            if sat_res.portfolio is not None:
                                it_stats["sat_portfolio_winner"] = (
                                    sat_res.portfolio.winner
                                )
                            if sat_res.cube is not None:
                                it_stats["sat_cubes"] = sat_res.cube.n_cubes
                                it_stats["sat_cubes_refuted"] = (
                                    sat_res.cube.n_refuted
                                )
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
        except ContradictionError:
            return self._unsat_result(
                facts,
                iterations,
                ring=original_ring,
                stats=technique_stats,
                metrics=metrics,
            )

        with tracer.span("conversion.final"):
            processed = materialize(system)
            conversion = self.converter.convert(system)
        return BosphorusResult(
            status=status,
            facts=facts,
            iterations=iterations,
            processed_anf=processed,
            cnf=conversion.formula,
            conversion=conversion,
            solution=solution,
            system=system,
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
            "karnaugh_cache_hits": metrics.counter("karnaugh_cache_hits"),
            "karnaugh_cache_misses": metrics.counter("karnaugh_cache_misses"),
            "karnaugh_disk_hits": metrics.counter("karnaugh_disk_hits"),
            "conversion_disk_hits": metrics.counter("conversion_disk_hits"),
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
            for key in (
                "karnaugh_cache_hits",
                "karnaugh_cache_misses",
                "karnaugh_disk_hits",
                "conversion_disk_hits",
            ):
                result.stats[key] = self.metrics.counter(key)
            for clause in conv.formula.clauses:
                augmented.add_clause(clause)
            for variables, rhs in conv.formula.xors:
                augmented.add_xor(variables, rhs)
        return augmented


def preprocess_anf(ring, polynomials, config=None) -> BosphorusResult:
    """Convenience wrapper: one-shot ANF preprocessing."""
    return Bosphorus(config).preprocess_anf(ring, polynomials)


def preprocess_cnf(formula, config=None) -> BosphorusResult:
    """Convenience wrapper: one-shot CNF preprocessing."""
    return Bosphorus(config).preprocess_cnf(formula)
