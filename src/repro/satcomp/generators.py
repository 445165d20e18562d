"""Synthetic CNF benchmark generators (SAT Competition 2017 substitute).

The competition CNFs are not redistributable offline, so the reproduction
substitutes five canonical families spanning the same axes — SAT and
UNSAT, varying clause/variable ratio, and hidden algebraic structure
(DESIGN.md §4, substitution 4):

* random k-SAT at the satisfiability threshold (mixed SAT/UNSAT),
* planted random k-SAT (guaranteed SAT),
* pigeonhole PHP(n+1, n) (hard UNSAT, resolution lower bound),
* Tseitin parity formulas over random regular graphs (UNSAT with hidden
  XOR structure — the family where the paper's CNF→ANF round trip and
  GJE shine),
* XOR chains (parity ladders, SAT or UNSAT by charge).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..sat.dimacs import CnfFormula, parity_clauses
from ..sat.types import mk_lit


def random_ksat(
    n_vars: int, n_clauses: int, k: int = 3, seed: int = 0
) -> CnfFormula:
    """Uniform random k-SAT."""
    rng = random.Random(seed)
    formula = CnfFormula(n_vars)
    for _ in range(n_clauses):
        variables = rng.sample(range(n_vars), k)
        formula.add_clause(
            [mk_lit(v, rng.random() < 0.5) for v in variables]
        )
    return formula


def planted_ksat(
    n_vars: int, n_clauses: int, k: int = 3, seed: int = 0
) -> Tuple[CnfFormula, List[int]]:
    """Random k-SAT with a planted solution; returns (formula, solution)."""
    rng = random.Random(seed)
    solution = [rng.getrandbits(1) for _ in range(n_vars)]
    formula = CnfFormula(n_vars)
    for _ in range(n_clauses):
        while True:
            variables = rng.sample(range(n_vars), k)
            lits = [mk_lit(v, rng.random() < 0.5) for v in variables]
            # Keep only clauses satisfied by the planted assignment.
            if any(
                (solution[l >> 1] ^ (l & 1)) == 1 for l in lits
            ):
                formula.add_clause(lits)
                break
    return formula, solution


def pigeonhole(holes: int) -> CnfFormula:
    """PHP(holes+1, holes): provably UNSAT, exponentially hard for CDCL.

    Variable p_{i,j} (pigeon i in hole j) = i*holes + j.
    """
    pigeons = holes + 1
    formula = CnfFormula(pigeons * holes)

    def var(i: int, j: int) -> int:
        return i * holes + j

    for i in range(pigeons):
        formula.add_clause([mk_lit(var(i, j)) for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                formula.add_clause(
                    [mk_lit(var(i1, j), True), mk_lit(var(i2, j), True)]
                )
    return formula


def _random_regular_graph(
    n: int, degree: int, rng: random.Random
) -> List[Tuple[int, int]]:
    """A simple random regular multigraph via stub matching (loops dropped)."""
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = []
        ok = True
        for i in range(0, len(stubs) - 1, 2):
            a, b = stubs[i], stubs[i + 1]
            if a == b:
                ok = False
                break
            edges.append((a, b))
        if ok:
            return edges


def tseitin_parity(
    n_nodes: int, degree: int = 3, seed: int = 0, satisfiable: bool = False
) -> CnfFormula:
    """Tseitin formula over a random regular graph.

    One variable per edge; each node constrains the XOR of its incident
    edges to its charge.  An odd total charge makes the formula UNSAT —
    but only GF(2) reasoning sees that quickly; for CDCL these are hard.
    Clauses enumerate each node's parity constraint (degree is small).
    """
    rng = random.Random(seed)
    edges = _random_regular_graph(n_nodes, degree, rng)
    formula = CnfFormula(len(edges))
    incident: List[List[int]] = [[] for _ in range(n_nodes)]
    for e, (a, b) in enumerate(edges):
        incident[a].append(e)
        incident[b].append(e)
    charges = [0] * n_nodes
    total = 0 if satisfiable else 1
    # Distribute the total charge: set node 0's charge to `total`.
    charges[0] = total
    for node, edge_vars in enumerate(incident):
        for clause in parity_clauses(edge_vars, charges[node]):
            formula.add_clause(clause)
    return formula


def xor_chain(
    n_vars: int, seed: int = 0, satisfiable: bool = True
) -> CnfFormula:
    """A random sparse 3-XOR system encoded as CNF clauses.

    SAT instances plant a hidden assignment (right-hand sides are derived
    from it), so they are satisfiable by construction.  UNSAT instances
    draw random right-hand sides and keep adding constraints until the
    GF(2) system is verifiably inconsistent — invisible to resolution but
    immediate for Gauss–Jordan, the structure the paper's CNF→ANF round
    trip exploits.
    """
    from ..gf2.matrix import GF2Matrix

    rng = random.Random(seed)
    formula = CnfFormula(n_vars)
    plant = [rng.getrandbits(1) for _ in range(n_vars)]
    rows: List[List[int]] = []
    rhs_vec: List[int] = []

    def emit(variables, rhs):
        rows.append(list(variables))
        rhs_vec.append(rhs)
        for clause in parity_clauses(variables, rhs):
            formula.add_clause(clause)

    # A covering set of random triples (every variable constrained) plus
    # extra random 3-XORs, all consistent with the planted assignment.
    # The random hypergraph structure is what makes the UNSAT variant
    # resolution-hard: a chain would have constant pathwidth.
    shuffled = list(range(n_vars))
    rng.shuffle(shuffled)
    for i in range(0, n_vars - 2, 3):
        variables = shuffled[i:i + 3]
        emit(variables, plant[variables[0]] ^ plant[variables[1]] ^ plant[variables[2]])
    while len(rows) < max(n_vars // 3 + 4, int(1.25 * n_vars)):
        variables = rng.sample(range(n_vars), 3)
        emit(variables, plant[variables[0]] ^ plant[variables[1]] ^ plant[variables[2]])

    if satisfiable:
        return formula

    # UNSAT variant: flip the right-hand side of one constraint whose row
    # lies in the span of the *other* rows — the contradiction then needs
    # a wide GF(2) combination, deep for resolution but instant for GJE.
    full_rank_matrix = GF2Matrix.from_rows(rows, n_vars)
    full_rank = full_rank_matrix.rank()
    order = list(range(len(rows)))
    rng.shuffle(order)
    for idx in order:
        others = [rows[i] for i in range(len(rows)) if i != idx]
        if GF2Matrix.from_rows(others, n_vars).rank() == full_rank:
            rhs_vec[idx] ^= 1
            # Rebuild clauses with the flipped constraint.
            flipped = CnfFormula(n_vars)
            for r, rhs in zip(rows, rhs_vec):
                for clause in parity_clauses(r, rhs):
                    flipped.add_clause(clause)
            return flipped
    # Dependent row not found (unlikely): fall back to a direct clash.
    emit(rows[0], rhs_vec[0] ^ 1)
    return formula
