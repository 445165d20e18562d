"""The assembled CNF benchmark suite standing in for SAT Competition 2017.

:func:`build_suite` produces a list of named instances with (where known)
their expected satisfiability — a mix of SAT and UNSAT across five
families, mirroring the competition set's diversity.  The paper also
evaluates a "difficult" subset (the 219 instances MiniSat needs more than
2,500 s for); :func:`hard_subset` provides the analogous selection using
plain-CDCL conflict counts as the difficulty proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sat.dimacs import CnfFormula
from ..sat.solver import Solver
from . import generators


@dataclass
class SuiteInstance:
    """One CNF benchmark with provenance."""

    name: str
    family: str
    formula: CnfFormula
    expected: Optional[bool]  # True=SAT, False=UNSAT, None=unknown


def build_suite(
    scale: float = 1.0, per_family: int = 4, seed: int = 0
) -> List[SuiteInstance]:
    """Generate the substitute competition suite.

    ``scale`` multiplies instance sizes; ``per_family`` controls how many
    instances each family contributes.
    """
    out: List[SuiteInstance] = []

    def s(x: float) -> int:
        return max(3, int(round(x * scale)))

    for i in range(per_family):
        n = s(120 + 10 * i)
        m = int(n * 4.26)
        out.append(
            SuiteInstance(
                name="rand3sat_n{}_{}".format(n, i),
                family="random-3sat",
                formula=generators.random_ksat(n, m, 3, seed=seed + i),
                expected=None,
            )
        )
    for i in range(per_family):
        n = s(130 + 10 * i)
        formula, _ = generators.planted_ksat(n, int(n * 4.1), 3, seed=seed + 100 + i)
        out.append(
            SuiteInstance(
                name="planted3sat_n{}_{}".format(n, i),
                family="planted-3sat",
                formula=formula,
                expected=True,
            )
        )
    for i in range(per_family):
        holes = s(7) + i
        out.append(
            SuiteInstance(
                name="php_{}".format(holes),
                family="pigeonhole",
                formula=generators.pigeonhole(holes),
                expected=False,
            )
        )
    for i in range(per_family):
        nodes = s(46) + 4 * i
        out.append(
            SuiteInstance(
                name="tseitin_n{}_{}".format(nodes, i),
                family="tseitin-parity",
                formula=generators.tseitin_parity(nodes, 3, seed=seed + 200 + i),
                expected=False,
            )
        )
    for i in range(per_family):
        n = s(45) + 5 * i
        sat = i % 2 == 0
        out.append(
            SuiteInstance(
                name="xorchain_n{}_{}".format(n, "sat" if sat else "unsat"),
                family="xor-chain",
                formula=generators.xor_chain(n, seed=seed + 300 + i, satisfiable=sat),
                expected=sat,
            )
        )
    return out


def hard_subset(
    instances: List[SuiteInstance], conflict_threshold: int = 2000
) -> List[SuiteInstance]:
    """Instances a plain CDCL cannot solve within the conflict threshold.

    The analogue of the paper's 219-instance "requires > 2,500 s for
    MiniSat" selection, using conflicts as the replicable difficulty
    measure.
    """
    hard = []
    for inst in instances:
        solver = Solver()
        solver.ensure_vars(inst.formula.n_vars)
        if not solver.add_clauses(inst.formula.clauses):
            continue  # trivially unsat: not hard
        verdict = solver.solve(conflict_budget=conflict_threshold)
        if verdict is None:
            hard.append(inst)
    return hard
