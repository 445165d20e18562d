"""Golden CDCL search trajectories: the corpus, the recorder, the writer.

Each corpus entry runs the in-process solver on a fixed input and
records what its search did: the verdict, the work counters, a sha256
of the DRAT proof stream (every learnt clause and deletion, in order;
runs without the XOR engine) and of the final learnt database, the
level-0 literals, the learnt binaries, the model and the assumption
failure flags.  Two solvers that agree on all of that ran the same
search.

``tests/test_solver_trajectories.py`` replays the corpus against
``solver_trajectories.json``.  Regenerate the fixture only in a change
that means to alter the search (and say so in its description)::

    PYTHONPATH=src python tests/golden/solver_trajectories.py
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, List

from repro.anf import AnfSystem
from repro.anf.polynomial import Poly
from repro.core.anf_to_cnf import AnfToCnf
from repro.core.config import Config
from repro.ciphers import simon
from repro.cube.splitter import split_formula
from repro.portfolio.backends import sliced_solve
from repro.sat import (
    CnfFormula,
    DratProof,
    Solver,
    SolverConfig,
    XorEngine,
    lingeling_config,
    minisat_config,
    parse_dimacs,
)
from repro.sat.types import mk_lit
from repro.satcomp.generators import pigeonhole, random_ksat

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "solver_trajectories.json")

_VERDICTS = {True: "sat", False: "unsat", None: "unknown"}


def _sha(items) -> str:
    return hashlib.sha256(repr(list(items)).encode("ascii")).hexdigest()


def _load(formula, config=None, proof=True) -> Solver:
    solver = Solver(config)
    if proof:
        solver.proof = DratProof()
    solver.ensure_vars(formula.n_vars)
    for clause in formula.clauses:
        if not solver.add_clause(clause):
            break
    return solver


def _model(solver: Solver) -> str:
    return "".join({1: "1", 0: "0"}.get(v, "-") for v in solver.model)


def _record(solver: Solver, verdicts: List) -> Dict[str, object]:
    return {
        "verdicts": [_VERDICTS[v] for v in verdicts],
        "conflicts": solver.num_conflicts,
        "decisions": solver.num_decisions,
        "propagations": solver.num_propagations,
        "restarts": solver.num_restarts,
        "reductions": solver.num_reductions,
        "proof_sha256": (
            _sha(solver.proof.steps) if solver.proof is not None else None
        ),
        "learnts_sha256": _sha(c.lits for c in solver.learnts),
        "level0": solver.level0_literals(),
        "binaries": [list(b) for b in sorted(solver.learnt_binaries)],
        "model": _model(solver),
        "assumptions_failed": solver.assumptions_failed,
        "failed_assumption": solver.failed_assumption,
    }


def _solve(formula, config=None) -> Dict[str, object]:
    solver = _load(formula, config)
    return _record(solver, [solver.solve()])


def _simon_xor(plaintexts, rounds):
    # A Simon encoding whose longer XOR chunks are native x-lines (see
    # the fixture's header comments).
    name = "simon_xor_{}x{}.cnf".format(plaintexts, rounds)
    with open(os.path.join(os.path.dirname(FIXTURE), name)) as f:
        return parse_dimacs(f.read())


def _solve_with_xors(formula, **kwargs):
    solver = _load(formula, minisat_config(), proof=False)
    engine = XorEngine()
    for variables, rhs in formula.xors:
        engine.add_xor(variables, rhs)
    solver.attach_xor_engine(engine)
    return _record(solver, [solver.solve(**kwargs)])


def random3sat_sat():
    return _solve(random_ksat(120, 511, seed=1))


def random3sat_unsat():
    return _solve(random_ksat(100, 426, seed=0))


def pigeonhole7():
    return _solve(pigeonhole(7))


def lingeling_rescale():
    # var_decay 0.85: the activity increment passes 1e100 after ~1,420
    # conflicts, so this 1,810-conflict run goes through the rescale.
    return _solve(random_ksat(120, 511, seed=0), lingeling_config())


def reduce_db():
    return _solve(
        pigeonhole(6), SolverConfig(learnt_keep_base=50, learnt_keep_step=10)
    )


def seed7():
    return _solve(random_ksat(120, 511, seed=1), SolverConfig(seed=7))


def assumption_cubes():
    # One solver, incremental: every sign cube over three variables in
    # turn, so cube-relative refutations and SAT cubes interleave.
    solver = _load(random_ksat(100, 426, seed=1))
    runs = []
    for code in range(8):
        cube = [mk_lit(v, bool((code >> i) & 1)) for i, v in enumerate((0, 5, 9))]
        verdict = solver.solve(assumptions=cube)
        runs.append(_record(solver, [verdict]))
    return {"cubes": runs}


def sliced_resume():
    solver = _load(random_ksat(120, 511, seed=2))
    first = sliced_solve(solver, conflict_budget=300, slice_conflicts=100)
    second = sliced_solve(solver, slice_conflicts=100)
    return _record(solver, [first, second])


def cms_xor_simon4():
    return _solve_with_xors(_simon_xor(4, 4))


def cms_xor_simon5_budget():
    return _solve_with_xors(_simon_xor(2, 5), conflict_budget=1000)


def _simon_flipped(rounds, free_key_bits, seed):
    # As perfbench's fanout-unsat builds it: one ciphertext bit flipped,
    # all but ``free_key_bits`` key bits pinned.  The pins convert to
    # unit clauses after every long clause.
    inst = simon.generate_instance(1, rounds, seed)
    polys = list(inst.polynomials)
    polys[-1] = polys[-1] + Poly.one()
    for v in inst.key_vars[free_key_bits:]:
        polys.append(Poly.variable(v) + Poly.constant(inst.witness[v]))
    return AnfToCnf(Config()).convert(AnfSystem(inst.ring, polys)).formula


def simon_flipped_trailing_units():
    return _solve(_simon_flipped(6, 16, 11000), minisat_config())


def pigeonhole6_trailing_units():
    # Pigeon 0 in hole 0 and pigeon 1 not in hole 5, given last.
    formula = pigeonhole(6)
    formula.add_clause([mk_lit(0)])
    formula.add_clause([mk_lit(1 * 6 + 5, True)])
    return _solve(formula)


def incremental_trailing_units():
    # The warm-solver pattern of the SAT learner: a budgeted solve on
    # the long clauses, then the key pins added at level 0, then the
    # search resumed.
    formula = _simon_flipped(6, 16, 11001)
    k = next(i for i, c in enumerate(formula.clauses) if len(c) == 1)
    head = CnfFormula(formula.n_vars)
    head.clauses = formula.clauses[:k]
    solver = _load(head, minisat_config())
    first = solver.solve(conflict_budget=100)
    solver.add_clauses(formula.clauses[k:])
    return _record(solver, [first, solver.solve()])


def lookahead_split():
    # Depth 7 on this instance closes 26 branches by propagation alone.
    formula = random_ksat(100, 426, seed=0)
    cubes = split_formula(formula, depth=7)
    root = _load(formula, proof=False)
    root.propagate()
    return {
        "cubes": [list(c) for c in cubes.cubes],
        "refuted": [list(c) for c in cubes.refuted],
        "variables": cubes.variables,
        # The literals root propagation fixes, which no cube branches on.
        "forced": root.level0_literals(),
        "root_unsat": cubes.root_unsat,
    }


CORPUS: Dict[str, Callable[[], Dict[str, object]]] = {
    f.__name__: f
    for f in (
        random3sat_sat,
        random3sat_unsat,
        pigeonhole7,
        lingeling_rescale,
        reduce_db,
        seed7,
        assumption_cubes,
        sliced_resume,
        cms_xor_simon4,
        cms_xor_simon5_budget,
        lookahead_split,
        simon_flipped_trailing_units,
        pigeonhole6_trailing_units,
        incremental_trailing_units,
    )
}


def generate() -> Dict[str, object]:
    return {name: run() for name, run in CORPUS.items()}


def main() -> None:
    with open(FIXTURE, "w") as f:
        json.dump(generate(), f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
