"""Conflict-bounded SAT solving as a fact learner (paper section II-D).

The ANF is converted to CNF and handed to the CDCL solver with a conflict
budget.  The solver is incremental, after the MiniSat interface (Eén &
Sörensson, "Temporal Induction by Incremental SAT Solving", BMC 2003):
one :class:`~repro.sat.solver.Solver` lives on the run's
:class:`~repro.core.anf_to_cnf.ConversionSession`, each call adds only
the clauses the session never emitted before and searches on, so learnt
clauses, activities and phases carry over between budget steps.  That is
sound because every clause ever added follows from the original ANF plus
the session's fixed auxiliary definitions; clauses of polynomials the
loop has since simplified away stay, and are harmless.  Outcomes:

* UNSAT — the learnt fact is the contradiction ``1 = 0``;
* SAT — the satisfying assignment is reported (Bosphorus stores it but
  does not simplify the ANF with it, since it may not be unique);
* budget exhausted — no verdict.

In the SAT and budget cases, linear equations are harvested from the
learnt clauses: every literal the solver fixed at decision level 0 gives a
unit fact, and every complementary pair of learnt binary clauses
``(a ∨ b), (¬a ∨ ¬b)`` gives the equivalence ``a = ¬b``.  Facts on
auxiliary (monomial / cut) variables are excluded, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from ..anf.polynomial import Poly
from ..anf.system import AnfSystem
from ..obs import NULL_TRACER
from ..sat import SOLVER_COUNTERS, solver_counters
from ..sat.solver import SAT, UNSAT, Solver, SolverConfig
from ..sat.types import TRUE, UNDEF, lit_neg, lit_sign, lit_var
from ..sat.xorengine import XorEngine
from .anf_to_cnf import (
    AnfToCnf,
    ConversionResult,
    ConversionSession,
    system_fingerprint,
)
from .config import Config
from .solution import make_model_validator

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


def _status_name(status) -> str:
    """Human-readable verdict for span attributes."""
    if status is SAT:
        return "sat"
    if status is UNSAT:
        return "unsat"
    return "unknown"


def run_sat(
    system: AnfSystem,
    config: Optional[Config] = None,
    conflict_budget: Optional[int] = None,
    solver_config: Optional[SolverConfig] = None,
    session: Optional[ConversionSession] = None,
    tracer=None,
    stop: Optional[Callable[[], bool]] = None,
) -> SatLearnResult:
    """Convert, solve under a conflict budget, and harvest learnt facts.

    The system is converted in ``session`` (a fresh one when omitted).
    The in-process solver lives on the session: each call adds only the
    conversion's delta clauses to it and searches on, so a session
    passed to every loop iteration keeps its learnt clauses, activities
    and phases.  ``result.conflicts`` is this call's share.  The
    session's converter carries its own config: its conversion
    parameters (K, L, ``emit_xor_clauses``) are the ones used —
    ``config`` then only governs the conflict budget.  ``stop()``, asked
    after every conflict, ends the search as an exhausted budget does.

    With the converter's ``config.cache_dir`` set, each conversion is
    keyed by the session's history plus the canonical system hash
    (:func:`system_fingerprint`): a run repeating an earlier run's
    conversions — in this process or a previous one — loads them
    from disk with bit-for-bit identical CNF, reported via
    ``result.conversion.stats.conversion_disk_hits``.

    A SAT model is validated on ``system``; an invalid one raises
    ``RuntimeError``, because it proves a soundness bug.
    """
    config = config or Config()
    tracer = tracer or NULL_TRACER
    budget = conflict_budget if conflict_budget is not None else config.sat_conflict_start
    if session is None:
        session = AnfToCnf(config, tracer=tracer).session()
    conversion = session.convert(system)
    with tracer.span(
        "sat.solve", backend="in-process", budget=budget
    ) as span:
        solver = session.solver
        if solver is None:
            solver = session.solver = Solver(solver_config)
        before = solver_counters(solver)
        solver.ensure_vars(conversion.formula.n_vars)
        delta = conversion.delta
        if solver.add_clauses(delta.clauses) and delta.xors:
            # New XORs join the bound engine, which re-eliminates the
            # whole XOR set at level 0 when it is attached again.
            engine = solver.xor_engine or XorEngine()
            for variables, rhs in delta.xors:
                engine.add_xor(variables, rhs)
            solver.attach_xor_engine(engine)
        # A solver made UNSAT while adding answers UNSAT at once.
        status = solver.solve(conflict_budget=budget, stop=stop)
        counters = solver_counters(solver)
        for name in SOLVER_COUNTERS:
            counters[name] -= before[name]
        for name, value in counters.items():
            span.set(name, value)
        span.set("status", _status_name(status))
        result = SatLearnResult(
            status=status, conflicts=counters["conflicts"], conversion=conversion
        )
        if status is UNSAT:
            result.facts = [Poly.one()]
            return result

        result.facts = extract_facts(solver, conversion)
        if status is SAT:
            if not make_model_validator(conversion, system.polynomials)(
                solver.model
            ):
                raise RuntimeError(
                    "in-process SAT model fails the ANF it was converted "
                    "from: a soundness bug"
                )
            model = []
            for v in range(conversion.n_anf_vars):
                val = solver.model[v] if v < len(solver.model) else UNDEF
                model.append(1 if val == TRUE else 0)
            result.model = model
        return result


def extract_facts(solver: Solver, conversion: ConversionResult) -> List[Poly]:
    """Translate level-0 units and complementary binaries into ANF facts.

    Only original ANF variables (``v < conversion.n_anf_vars``) take
    part: monomial and cut auxiliaries never do, as in the paper.
    """
    n_anf_vars = conversion.n_anf_vars
    facts: List[Poly] = []
    for lit in solver.level0_literals():
        v = lit_var(lit)
        if v < n_anf_vars:
            value = 0 if lit_sign(lit) else 1
            facts.append(Poly.variable(v).add_constant(value))

    binaries: Set[Tuple[int, int]] = set(solver.learnt_binaries)
    seen_pairs = set()
    for (a, b) in binaries:
        comp = tuple(sorted((lit_neg(a), lit_neg(b))))
        if comp not in binaries:
            continue
        va, vb = lit_var(a), lit_var(b)
        if va == vb or va >= n_anf_vars or vb >= n_anf_vars:
            continue
        key = tuple(sorted((va, vb)))
        if key in seen_pairs:
            continue
        seen_pairs.add(key)
        # (a ∨ b) ∧ (¬a ∨ ¬b) ⟺ lit_a ⊕ lit_b = 1 over literal values,
        # i.e. va ⊕ vb ⊕ (sign_a ⊕ sign_b ⊕ 1) = 0.
        c = (1 if lit_sign(a) else 0) ^ (1 if lit_sign(b) else 0) ^ 1
        facts.append(Poly.variable(va) + Poly.variable(vb) + Poly.constant(c))
    return facts
