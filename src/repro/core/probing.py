"""Failed-literal probing as a pluggable fact-learning technique.

Section V argues that "it is relatively easy to include new solving
techniques by plugging them as components into the workflow, for example,
lookahead SAT solvers".  This module is that plug-in: the lookahead
primitive — assume a literal, propagate, observe — lifted to the ANF.

For each candidate variable ``x`` we tentatively assert ``x = 0`` and
``x = 1`` and run ANF propagation on a scratch copy:

* both branches contradict → the system is UNSAT (``1 = 0`` learnt);
* one branch contradicts → the *failed literal* yields the unit fact
  ``x = 1 - b``;
* both branches succeed but agree on some other variable's value or on
  an equivalence → that agreement is a learnt fact (the lookahead
  "necessary assignment" rule).

Like XL/ElimLin, probing never touches the master system; it returns
facts for the workflow to absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..anf import monomial as mono
from ..anf.polynomial import Poly
from ..anf.system import AnfSystem, ContradictionError, VariableState
from .propagation import propagate


@dataclass
class ProbeResult:
    """Outcome of one probing sweep."""

    facts: List[Poly] = field(default_factory=list)
    probed: int = 0
    failed_literals: int = 0
    contradiction: bool = False


def _branch(system: AnfSystem, var: int, value: int) -> Optional[VariableState]:
    """Propagate ``var = value`` on a scratch copy; None on contradiction.

    The master system is at propagation fixpoint when probing runs, so
    only the equations mentioning the assumed variable (or its
    equivalence-class root) can change — the incremental dirty-set call
    makes each probe cost the assumption's cone, not the whole system.
    """
    scratch = system.copy()
    scratch.state.ensure(var)
    try:
        scratch.state.assign(var, value)
        root, _ = scratch.state.find(var)
        dirty = set(scratch.occurrences(var)) | set(scratch.occurrences(root))
        propagate(scratch, dirty=dirty, linear=False)
    except ContradictionError:
        return None
    return scratch.state


def _candidate_variables(system: AnfSystem, limit: int) -> List[int]:
    """Most-occurring undetermined variables (the useful probe targets).

    Ranked straight off the system's persistent occurrence lists — no
    O(system) recount.
    """
    counts = {
        v: system.occurrence_count(v)
        for v in range(system.ring.n_vars)
        if system.occurrence_count(v)
    }
    order = sorted(counts, key=lambda v: -counts[v])
    out = []
    for v in order:
        if system.state.value(v) is None:
            out.append(v)
        if len(out) >= limit:
            break
    return out


def run_probing(system: AnfSystem, max_probes: int = 32) -> ProbeResult:
    """Probe up to ``max_probes`` variables; returns learnt facts.

    The input system is read, never written (probing works on copies).
    """
    result = ProbeResult()
    if not system.polynomials:
        return result
    # Union of the residuals' support, via the cached width-adaptive
    # support masks (one OR per equation at any variable count).
    interesting_mask = 0
    for p in system.polynomials:
        interesting_mask |= p.support_mask()

    for var in _candidate_variables(system, max_probes):
        result.probed += 1
        zero_state = _branch(system, var, 0)
        one_state = _branch(system, var, 1)

        if zero_state is None and one_state is None:
            result.contradiction = True
            result.facts.append(Poly.one())
            return result
        if zero_state is None:
            result.failed_literals += 1
            result.facts.append(Poly.variable(var) + Poly.one())  # x = 1
            continue
        if one_state is None:
            result.failed_literals += 1
            result.facts.append(Poly.variable(var))  # x = 0
            continue

        # Both branches alive: harvest what both imply for other variables.
        # A variable can only have a value in a branch if that branch's
        # propagation touched it (master-determined ones are skipped
        # below), so one AND of the branch touched masks prunes the
        # candidate sweep from "every interesting variable" to the
        # assumption's cone.
        candidates = mono.bits_of(
            zero_state.touched_mask & one_state.touched_mask & interesting_mask
        )
        for other in candidates:
            if other == var or system.state.value(other) is not None:
                continue
            v0 = zero_state.value(other)
            v1 = one_state.value(other)
            if v0 is not None and v0 == v1:
                result.facts.append(
                    Poly.variable(other).add_constant(v0)
                )
            elif v0 is not None and v1 is not None and v0 != v1:
                # other = var ⊕ v0 holds in both branches: an equivalence.
                result.facts.append(
                    Poly.variable(other)
                    + Poly.variable(var)
                    + Poly.constant(v0)
                )
    return result
