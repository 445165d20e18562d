"""Bosphorus as a CNF preprocessor (paper section III-D).

Tseitin parity formulas hide GF(2) structure that resolution-based CDCL
solvers cannot see: a plain solver needs an exponential search, while the
CNF→ANF round trip plus Gauss–Jordan settles them instantly.  This
example measures both routes on the same UNSAT instance — the essence of
the paper's SAT-2017 result ("especially for the UNSAT instances").

Run:  python examples/cnf_preprocessing.py [nodes]
"""

import sys
import time

from repro import Bosphorus
from repro.satcomp.generators import tseitin_parity
from repro.sat import Solver


def main(nodes: int = 52, seed: int = 11):
    formula = tseitin_parity(nodes, degree=3, seed=seed, satisfiable=False)
    print("Tseitin parity formula: {} edge variables, {} clauses (UNSAT)".format(
        formula.n_vars, len(formula.clauses)
    ))

    # Route 1: plain CDCL.
    solver = Solver()
    solver.ensure_vars(formula.n_vars)
    for clause in formula.clauses:
        solver.add_clause(clause)
    start = time.monotonic()
    verdict = solver.solve(conflict_budget=2_000_000)
    plain_time = time.monotonic() - start
    print("Plain CDCL:      {} after {} conflicts in {:.2f}s".format(
        "UNSAT" if verdict is False else verdict, solver.num_conflicts, plain_time
    ))

    # Route 2: Bosphorus preprocessing (CNF -> ANF -> GJE).
    start = time.monotonic()
    result = Bosphorus().preprocess_cnf(formula)
    bosphorus_time = time.monotonic() - start
    print("Bosphorus:       {} in {:.2f}s (facts: {})".format(
        result.status.upper(), bosphorus_time, result.facts.summary()
    ))
    assert result.status == "unsat"
    if plain_time > 0:
        print("Speedup: {:.0f}x — the XOR structure is invisible to".format(
            max(plain_time / max(bosphorus_time, 1e-9), 1.0)
        ))
        print("resolution but trivial for the ANF's Gauss-Jordan elimination.")
    return 0


if __name__ == "__main__":
    nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 52
    sys.exit(main(nodes))
