"""Conflict-bounded SAT solving as a fact learner (paper section II-D).

The ANF is converted to CNF and handed to the CDCL solver with a conflict
budget.  Outcomes:

* UNSAT — the learnt fact is the contradiction ``1 = 0``;
* SAT — the satisfying assignment is reported (Bosphorus stores it but
  does not simplify the ANF with it, since it may not be unique);
* budget exhausted — no verdict.

In the SAT and budget cases, linear equations are harvested from the
learnt clauses: every literal the solver fixed at decision level 0 gives a
unit fact, and every complementary pair of learnt binary clauses
``(a ∨ b), (¬a ∨ ¬b)`` gives the equivalence ``a = ¬b``.  Facts on
auxiliary (monomial / cut) variables are excluded by default, as in the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..anf.polynomial import Poly
from ..anf.system import AnfSystem
from ..obs import NULL_TRACER
from ..sat.solver import SAT, UNKNOWN, UNSAT, Solver, SolverConfig
from ..sat.types import TRUE, UNDEF, lit_neg, lit_sign, lit_var
from ..sat.xorengine import XorEngine
from .anf_to_cnf import AnfToCnf, ConversionResult, system_fingerprint
from .config import Config

__all__ = [
    "SatLearnResult",
    "run_sat",
    "extract_facts",
    "system_fingerprint",
]


@dataclass
class SatLearnResult:
    """Outcome of one conflict-bounded SAT invocation."""

    status: Optional[bool]  # SAT / UNSAT / UNKNOWN
    facts: List[Poly] = field(default_factory=list)
    model: Optional[List[int]] = None  # over the ANF variables
    conflicts: int = 0
    conversion: Optional[ConversionResult] = None
    portfolio: Optional[object] = None  # PortfolioResult when config.use_portfolio
    cube: Optional[object] = None  # CubeOutcome when config.use_cube


class _HarvestedFacts:
    """Adapter giving merged portfolio learnt facts the solver's
    fact-harvesting surface (:meth:`level0_literals`, ``learnt_binaries``),
    so :func:`extract_facts` serves both paths unchanged."""

    def __init__(self, level0, binaries):
        self._level0 = list(level0)
        self.learnt_binaries = set(binaries)

    def level0_literals(self):
        return self._level0


def _status_name(status) -> str:
    """Human-readable verdict for span attributes."""
    if status is SAT:
        return "sat"
    if status is UNSAT:
        return "unsat"
    return "unknown"


def _run_sat_portfolio(
    system: AnfSystem,
    config: Config,
    budget: int,
    conversion: ConversionResult,
    solver_config: Optional[SolverConfig] = None,
    tracer=None,
    metrics=None,
) -> SatLearnResult:
    """The inner SAT step as a backend race (``config.use_portfolio``).

    A caller-supplied ``solver_config`` (Bosphorus's
    ``inner_solver_config``) replaces the stock personality tuning of
    every in-process backend; per-backend seeds still apply on top, so
    the race stays diversified.

    Each backend gets the same conflict budget; SAT models are only
    accepted after reconstruction through the conversion's auxiliaries
    and evaluation on the original ANF (invalid models demote that
    backend's answer).  Learnt facts are merged from every facts-safe
    backend — cancelled losers still contribute their proven level-0
    units.
    """
    from ..portfolio import CdclBackend, PortfolioRunner, create_backend
    from .solution import make_model_validator

    backends = [create_backend(spec) for spec in config.portfolio_backends]
    if solver_config is not None:
        for backend in backends:
            if isinstance(backend, CdclBackend):
                backend.config_override = solver_config
    if config.portfolio_timeout_s is None:
        # The inner SAT step is conflict-bounded (paper budget C); a
        # backend that cannot honour that budget would make the loop
        # iteration unbounded, so demand an explicit wall-clock bound.
        unbounded = [b.name for b in backends if not b.supports_conflict_budget]
        if unbounded:
            raise ValueError(
                "portfolio_timeout_s must be set when portfolio_backends "
                "include wall-clock-only backends: " + ", ".join(unbounded)
            )

    runner = PortfolioRunner(
        backends,
        jobs=config.portfolio_jobs,
        validate=make_model_validator(conversion, system.polynomials),
        tracer=tracer,
        metrics=metrics,
    )
    outcome = runner.run(
        conversion.formula,
        timeout_s=config.portfolio_timeout_s,
        conflict_budget=budget,
    )
    conflicts = max(
        (r.conflicts for r in outcome.results if r is not None), default=0
    )
    result = SatLearnResult(
        status=outcome.verdict,
        conflicts=conflicts,
        conversion=conversion,
        portfolio=outcome,
    )
    if outcome.verdict is UNSAT:
        result.facts = [Poly.one()]
        return result

    result.facts = extract_facts(
        _HarvestedFacts(outcome.level0, outcome.binaries), conversion, config
    )

    if outcome.verdict is SAT and outcome.model is not None:
        result.model = [
            1 if (v < len(outcome.model) and outcome.model[v]) else 0
            for v in range(conversion.n_anf_vars)
        ]
    return result


def _run_sat_cube(
    system: AnfSystem,
    config: Config,
    budget: int,
    conversion: ConversionResult,
    solver_config: Optional[SolverConfig] = None,
    tracer=None,
    metrics=None,
) -> SatLearnResult:
    """The inner SAT step as a cube-and-conquer run (``config.use_cube``).

    The CNF is split into assumption cubes and conquered over the
    bounded pool; every cube gets the same conflict budget.  SAT models
    validate through the conversion before they are accepted, UNSAT is
    reported only on a global refutation shortcut or when every cube is
    refuted, and learnt facts merge from every facts-safe cube result —
    plus the splitter's root-propagation units.  Cube-local units can
    never appear: assumptions enter the solver as decisions, so
    ``level0_literals()`` stays globally valid (the conflation this
    layer's bugfix guards with a regression test).
    """
    from ..cube import CubeConqueror
    from ..portfolio import CdclBackend, create_backend
    from .solution import make_model_validator

    backends = [create_backend(spec) for spec in config.cube_backends]
    if solver_config is not None:
        for backend in backends:
            if isinstance(backend, CdclBackend):
                backend.config_override = solver_config
    if config.cube_timeout_s is None:
        # Same bounding policy as the portfolio: a backend that ignores
        # the conflict budget needs an explicit wall-clock bound or one
        # hard cube wedges the loop iteration.
        unbounded = [b.name for b in backends if not b.supports_conflict_budget]
        if unbounded:
            raise ValueError(
                "cube_timeout_s must be set when cube_backends include "
                "wall-clock-only backends: " + ", ".join(unbounded)
            )

    conqueror = CubeConqueror(
        backends,
        jobs=config.cube_jobs,
        depth=config.cube_depth,
        mode=config.cube_mode,
        max_cubes=config.cube_max_cubes,
        validate=make_model_validator(conversion, system.polynomials),
        tracer=tracer,
        metrics=metrics,
    )
    outcome = conqueror.run(
        conversion.formula,
        timeout_s=config.cube_timeout_s,
        conflict_budget=budget,
    )
    conflicts = sum(r.conflicts for r in outcome.results if r is not None)
    result = SatLearnResult(
        status=outcome.verdict,
        conflicts=conflicts,
        conversion=conversion,
        cube=outcome,
    )
    if outcome.verdict is UNSAT:
        result.facts = [Poly.one()]
        return result

    result.facts = extract_facts(
        _HarvestedFacts(outcome.level0, outcome.binaries), conversion, config
    )
    if outcome.verdict is SAT and outcome.model is not None:
        result.model = [
            1 if (v < len(outcome.model) and outcome.model[v]) else 0
            for v in range(conversion.n_anf_vars)
        ]
    return result


def run_sat(
    system: AnfSystem,
    config: Optional[Config] = None,
    conflict_budget: Optional[int] = None,
    solver_config: Optional[SolverConfig] = None,
    converter: Optional[AnfToCnf] = None,
    tracer=None,
    metrics=None,
) -> SatLearnResult:
    """Convert, solve under a conflict budget, and harvest learnt facts.

    Pass a long-lived ``converter`` to share its structure-keyed Karnaugh
    cache across invocations (the Bosphorus loop converts the same round
    structures every iteration).  The converter carries its own config:
    when one is passed, *its* conversion parameters (K, L,
    ``emit_xor_clauses``) are the ones used — ``config`` then only
    governs the conflict budget and fact harvesting, so build the
    converter from the same config unless you mean them to differ.

    With ``config.cache_dir`` set (or a converter carrying a store) the
    conversion is keyed by the canonical system hash
    (:func:`system_fingerprint`): a system already converted by any
    earlier run — this process or a previous one — loads from disk with
    bit-for-bit identical CNF, reported via
    ``result.conversion.stats.conversion_disk_hits``.
    """
    config = config or Config()
    tracer = tracer or NULL_TRACER
    budget = conflict_budget if conflict_budget is not None else config.sat_conflict_start
    conversion = (converter or AnfToCnf(config, tracer=tracer)).convert(system)
    if config.use_cube and config.cube_backends:
        return _run_sat_cube(
            system, config, budget, conversion, solver_config, tracer, metrics
        )
    if config.use_portfolio and config.portfolio_backends:
        return _run_sat_portfolio(
            system, config, budget, conversion, solver_config, tracer, metrics
        )
    with tracer.span(
        "sat.solve", backend="in-process", budget=budget
    ) as span:
        solver = Solver(solver_config)
        solver.ensure_vars(conversion.formula.n_vars)
        ok = solver.add_clauses(conversion.formula.clauses)
        if ok and conversion.formula.xors:
            engine = XorEngine()
            for variables, rhs in conversion.formula.xors:
                engine.add_xor(variables, rhs)
            solver.attach_xor_engine(engine)
            ok = solver.ok

        if not ok:
            span.set("status", "unsat")
            return SatLearnResult(
                status=UNSAT, facts=[Poly.one()], conversion=conversion
            )

        status = solver.solve(conflict_budget=budget)
        span.set("status", _status_name(status))
        span.set("conflicts", solver.num_conflicts)
        result = SatLearnResult(
            status=status, conflicts=solver.num_conflicts, conversion=conversion
        )
        if status is UNSAT:
            result.facts = [Poly.one()]
            return result

        result.facts = extract_facts(solver, conversion, config)
        if status is SAT:
            model = []
            for v in range(conversion.n_anf_vars):
                val = solver.model[v] if v < len(solver.model) else UNDEF
                model.append(1 if val == TRUE else 0)
            result.model = model
        return result


def extract_facts(
    solver: Solver, conversion: ConversionResult, config: Config
) -> List[Poly]:
    """Translate level-0 units and complementary binaries into ANF facts."""
    facts: List[Poly] = []

    def usable_monomial(cnf_var: int):
        m = conversion.monomial_of_var.get(cnf_var)
        if m is None:
            return None  # cut variable: never participates in facts
        if len(m) == 1:
            return m
        return m if config.monomial_facts_from_sat else None

    for lit in solver.level0_literals():
        v = lit_var(lit)
        m = usable_monomial(v)
        if m is None:
            continue
        value = 0 if lit_sign(lit) else 1
        if len(m) == 1:
            facts.append(Poly.variable(m[0]).add_constant(value))
        elif value == 1:
            facts.append(Poly.from_monomial(m) + Poly.one())
        else:
            facts.append(Poly.from_monomial(m))

    binaries: Set[Tuple[int, int]] = set(solver.learnt_binaries)
    seen_pairs = set()
    for (a, b) in binaries:
        comp = tuple(sorted((lit_neg(a), lit_neg(b))))
        if comp not in binaries:
            continue
        va, vb = lit_var(a), lit_var(b)
        if va == vb:
            continue
        key = tuple(sorted((va, vb)))
        if key in seen_pairs:
            continue
        ma, mb = usable_monomial(va), usable_monomial(vb)
        if ma is None or mb is None or len(ma) != 1 or len(mb) != 1:
            continue
        seen_pairs.add(key)
        # (a ∨ b) ∧ (¬a ∨ ¬b) ⟺ lit_a ⊕ lit_b = 1 over literal values,
        # i.e. va ⊕ vb ⊕ (sign_a ⊕ sign_b ⊕ 1) = 0.
        c = (1 if lit_sign(a) else 0) ^ (1 if lit_sign(b) else 0) ^ 1
        facts.append(
            Poly.variable(ma[0]) + Poly.variable(mb[0]) + Poly.constant(c)
        )
    return facts
