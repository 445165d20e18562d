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

from repro.core.anf_to_cnf import AnfToCnf
from repro.core.config import Config
from repro.ciphers import simon
from repro.cube.splitter import split_formula
from repro.portfolio.backends import sliced_solve
from repro.sat import (
    DratProof,
    Solver,
    SolverConfig,
    XorEngine,
    lingeling_config,
    minisat_config,
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
        "binaries": [list(b) for b in solver.learnt_binary_clauses()],
        "model": _model(solver),
        "assumptions_failed": solver.assumptions_failed,
        "failed_assumption": solver.failed_assumption,
    }


def _solve(formula, config=None) -> Dict[str, object]:
    solver = _load(formula, config)
    return _record(solver, [solver.solve()])


def _simon_xor(plaintexts, rounds):
    # Karnaugh limit 2 sends every longer XOR chunk to a native x-line.
    inst = simon.generate_instance(plaintexts, rounds, seed=9)
    config = Config(karnaugh_limit=2, emit_xor_clauses=True)
    conv = AnfToCnf(config).convert_polynomials(
        inst.polynomials, n_vars=inst.ring.n_vars
    )
    return conv.formula


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


def lookahead_split():
    # Depth 7 on this instance closes 26 branches by propagation alone.
    cubes = split_formula(random_ksat(100, 426, seed=0), depth=7)
    return {
        "cubes": [list(c) for c in cubes.cubes],
        "refuted": [list(c) for c in cubes.refuted],
        "variables": cubes.variables,
        "forced": cubes.forced,
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
