"""Cube splitting: pick branching variables, emit a bounded cube tree.

Cube-and-conquer (Heule/Kullmann/Biere) partitions a CNF's search space
into *cubes* — conjunctions of assumption literals — so independent
workers can conquer the pieces in parallel.  Soundness rests on the
partition property: the emitted cubes, together with the branches
already refuted at split time, cover every assignment of the branching
variables, so the instance is UNSAT exactly when every piece is refuted.

Two splitters share the :class:`CubeSet` output shape:

* ``occurrence`` — purely syntactic: variables are ranked by
  length-weighted clause/XOR occurrence (short constraints dominate,
  mirroring the solver's own propagation leverage) and the top ``depth``
  variables fan out to the full ``2**depth`` sign grid.  Cheap, and the
  cube set is a function of the formula text alone.
* ``lookahead`` — the CDCL solver itself walks the binary tree, pushing
  each tentative literal as a real decision and running unit
  propagation.  Branches that conflict are pruned (recorded as
  ``refuted``), propagation-implied variables are never branched on, and
  each node branches on the best-ranked variable still unassigned *in
  that subtree* — so different cubes may split on different variables.

XOR constraints are expanded for the lookahead walk, but branching
variables are always restricted to the *original* formula's variables:
cubes travel to backends as assumptions (or appended units) against the
unexpanded formula, where expansion-local auxiliaries would be
meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..sat.dimacs import CnfFormula, expand_xors
from ..sat.solver import Solver
from ..sat.types import UNDEF, mk_lit

#: Cap on emitted cubes — a depth-d split wants 2**d leaves, so depth is
#: clamped to keep the schedule bounded no matter what the caller asks.
DEFAULT_MAX_CUBES = 256


@dataclass
class CubeSet:
    """A splitter's output: the partition and its split-time byproducts.

    ``cubes`` are the open leaves (tuples of encoded literals) to be
    conquered; ``refuted`` are branches the splitter already closed by
    unit propagation — they count as refuted cubes in the UNSAT
    aggregation, no solver call needed.  ``root_unsat`` short-circuits
    everything: the formula died during clause loading or root
    propagation.
    """

    cubes: List[Tuple[int, ...]] = field(default_factory=list)
    refuted: List[Tuple[int, ...]] = field(default_factory=list)
    variables: List[int] = field(default_factory=list)
    root_unsat: bool = False

def occurrence_scores(formula: CnfFormula) -> List[float]:
    """Length-weighted occurrence score per variable (2^-len per
    constraint): the cheap proxy for propagation leverage used to rank
    branching candidates."""
    scores = [0.0] * formula.n_vars
    for clause in formula.clauses:
        if not clause:
            continue
        w = 2.0 ** -min(len(clause), 30)
        for lit in clause:
            scores[lit >> 1] += w
    for variables, _rhs in formula.xors:
        w = 2.0 ** -min(len(variables), 30)
        for v in variables:
            scores[v] += w
    return scores


def _ranked_vars(formula: CnfFormula) -> List[int]:
    scores = occurrence_scores(formula)
    ranked = sorted(range(formula.n_vars), key=lambda v: (-scores[v], v))
    return [v for v in ranked if scores[v] > 0.0]


def _clamp_depth(depth: int) -> int:
    if depth < 0:
        raise ValueError("cube depth must be >= 0")
    return min(depth, DEFAULT_MAX_CUBES.bit_length() - 1)


def _occurrence_split(formula: CnfFormula, depth: int) -> CubeSet:
    depth = _clamp_depth(depth)
    variables = _ranked_vars(formula)[:depth]
    cubes = [
        tuple(
            mk_lit(v, negated=bool((code >> i) & 1))
            for i, v in enumerate(variables)
        )
        for code in range(2 ** len(variables))
    ]
    return CubeSet(cubes=cubes, variables=list(variables))


def _lookahead_split(formula: CnfFormula, depth: int) -> CubeSet:
    depth = _clamp_depth(depth)
    plain = expand_xors(formula) if formula.xors else formula
    solver = Solver()
    solver.ensure_vars(plain.n_vars)
    if not solver.add_clauses(plain.clauses):
        return CubeSet(root_unsat=True)
    if solver.propagate() is not None:
        return CubeSet(root_unsat=True)
    # Branching candidates: original variables only (see module docstring).
    order = [v for v in _ranked_vars(plain) if v < formula.n_vars]
    out = CubeSet()
    used: set = set()
    _descend(solver, order, depth, [], out, used)
    out.variables = sorted(used)
    return out


def _descend(
    solver: Solver,
    order: Sequence[int],
    depth: int,
    prefix: List[int],
    out: CubeSet,
    used: set,
) -> None:
    if depth == 0:
        out.cubes.append(tuple(prefix))
        return
    v = next((u for u in order if solver.val[u << 1] == UNDEF), None)
    if v is None:
        out.cubes.append(tuple(prefix))
        return
    used.add(v)
    for negated in (False, True):
        lit = mk_lit(v, negated)
        level = solver.decision_level
        solver.decide(lit)
        if solver.propagate() is not None:
            # Refuted by propagation alone: a closed piece of the
            # partition, reported so the UNSAT aggregation still covers
            # the whole space.
            out.refuted.append(tuple(prefix + [lit]))
        else:
            _descend(solver, order, depth - 1, prefix + [lit], out, used)
        solver.cancel_until(level)


def split_formula(
    formula: CnfFormula, depth: int, mode: str = "lookahead"
) -> CubeSet:
    """Split ``formula`` into at most ``min(2**depth, DEFAULT_MAX_CUBES)``
    cubes.

    ``depth == 0`` degenerates to a single empty cube — the uncubed
    solve, scheduled unchanged.
    """
    if mode == "occurrence":
        return _occurrence_split(formula, depth)
    if mode == "lookahead":
        return _lookahead_split(formula, depth)
    raise ValueError("unknown cube split mode: " + mode)
