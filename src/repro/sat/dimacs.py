"""DIMACS CNF reading and writing.

Supports the standard ``p cnf`` header, comment lines, and (as an
extension, mirroring CryptoMiniSat) ``x`` lines for XOR constraints:
``x 1 -2 3 0`` means ``v1 ⊕ v2 ⊕ v3 = 0`` (a leading ``-`` on the first
literal flips the right-hand side, CMS-style).
"""

from __future__ import annotations

from typing import List, Sequence, TextIO, Tuple

from .types import lit_from_dimacs, lit_to_dimacs


class DimacsError(ValueError):
    """Raised on malformed DIMACS input."""


class CnfFormula:
    """A parsed CNF: clause list plus optional XOR constraints."""

    def __init__(self, n_vars: int = 0):
        self.n_vars = n_vars
        self.clauses: List[List[int]] = []
        self.xors: List[Tuple[List[int], int]] = []

    def add_clause(self, lits: List[int]) -> None:
        for l in lits:
            self.n_vars = max(self.n_vars, (l >> 1) + 1)
        self.clauses.append(lits)

    def add_xor(self, variables: List[int], rhs: int) -> None:
        # Normalise the empty constraint here: "0 = rhs" is trivially
        # true (drop) or a plain contradiction (empty clause).  Stored
        # xors therefore always have variables, so write_dimacs never
        # emits an "x 0" line — which would read back as the empty
        # *clause* and flip a true constraint to false.
        if not variables:
            if rhs & 1:
                self.add_clause([])
            return
        for v in variables:
            self.n_vars = max(self.n_vars, v + 1)
        self.xors.append((variables, rhs & 1))

    def satisfied_by(self, model: Sequence[int]) -> bool:
        """Whether the 0/1 ``model`` (indexed by variable; a variable
        beyond its end reads 0) satisfies every clause and XOR."""

        def bit(v: int) -> int:
            return model[v] if v < len(model) else 0

        return all(
            any(bit(l >> 1) ^ (l & 1) for l in clause)
            for clause in self.clauses
        ) and all(
            sum(bit(v) for v in variables) & 1 == rhs
            for variables, rhs in self.xors
        )


def parse_dimacs(text: str, strict: bool = False) -> CnfFormula:
    """Parse DIMACS text into a :class:`CnfFormula`.

    The default parse is lenient, as most solvers are: the ``p cnf``
    header is optional, and its declared variable/clause counts are
    treated as hints (the variable pool grows to cover whatever the
    clauses actually mention).  With ``strict=True`` the header becomes
    a contract: it must be present and appear at most once, the declared
    clause count must equal the number of clause + xor lines, and no
    literal may reference a variable beyond the declared count — any
    mismatch raises :class:`DimacsError`.
    """
    formula = CnfFormula()
    declared = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError("bad problem line: {!r}".format(line))
            if strict and declared is not None:
                raise DimacsError("duplicate problem line: {!r}".format(line))
            declared = (int(parts[2]), int(parts[3]))
            formula.n_vars = max(formula.n_vars, declared[0])
            continue
        if strict and declared is None:
            raise DimacsError(
                "clause before the problem line: {!r}".format(raw)
            )
        is_xor = False
        if line.startswith("x"):
            is_xor = True
            line = line[1:]
        try:
            nums = [int(tok) for tok in line.split()]
        except ValueError:
            raise DimacsError("bad clause line: {!r}".format(raw))
        if not nums or nums[-1] != 0:
            raise DimacsError("clause not 0-terminated: {!r}".format(raw))
        nums = nums[:-1]
        if not nums:
            formula.add_clause([])
            continue
        if is_xor:
            rhs = 1
            variables = []
            for n in nums:
                if n < 0:
                    rhs ^= 1
                variables.append(abs(n) - 1)
            formula.add_xor(variables, rhs)
        else:
            formula.add_clause([lit_from_dimacs(n) for n in nums])
    if strict:
        if declared is None:
            raise DimacsError("missing problem line")
        n_declared_vars, n_declared_clauses = declared
        n_constraints = len(formula.clauses) + len(formula.xors)
        if n_constraints != n_declared_clauses:
            raise DimacsError(
                "header declares {} clauses but {} were given".format(
                    n_declared_clauses, n_constraints
                )
            )
        if formula.n_vars > n_declared_vars:
            raise DimacsError(
                "header declares {} variables but variable {} is used".format(
                    n_declared_vars, formula.n_vars
                )
            )
    return formula


def expand_xors(formula: CnfFormula, cut_len: int = 4) -> CnfFormula:
    """A plain-CNF formula equivalent to ``formula``.

    XOR constraints are cut into chains of at most ``cut_len`` variables
    (fresh accumulator variables join the chunks) and each chunk's parity
    is enumerated as the ``2**(k-1)`` forbidding clauses.  Solvers and
    external DIMACS binaries without native XOR support get exactly the
    models of the original formula on the original variables; the
    accumulators occupy indices ``>= formula.n_vars``.  A formula with no
    XORs is returned unchanged.
    """
    if not formula.xors:
        return formula
    if cut_len < 3:
        raise ValueError("cut_len must be at least 3")
    out = CnfFormula(formula.n_vars)
    out.clauses = [list(c) for c in formula.clauses]

    def emit_parity(variables: List[int], rhs: int) -> None:
        # Repeated variables cancel in GF(2); the enumeration below
        # needs each variable to appear once.
        counts: dict = {}
        for v in variables:
            counts[v] = counts.get(v, 0) ^ 1
        vs = [v for v, odd in counts.items() if odd]
        if not vs:
            if rhs & 1:
                out.add_clause([])
            return
        m = len(vs)
        for pattern in range(1 << m):
            if bin(pattern).count("1") & 1 == rhs:
                continue
            out.add_clause(
                [(vs[i] << 1) | (pattern >> i & 1) for i in range(m)]
            )

    for variables, rhs in formula.xors:
        vs = list(variables)
        while len(vs) > cut_len:
            head, vs = vs[: cut_len - 1], vs[cut_len - 1 :]
            acc = out.n_vars
            out.n_vars = acc + 1
            emit_parity(head + [acc], 0)  # acc = parity(head)
            vs.insert(0, acc)
        emit_parity(vs, rhs)
    return out


def read_dimacs(f: TextIO, strict: bool = False) -> CnfFormula:
    """Read DIMACS from an open file."""
    return parse_dimacs(f.read(), strict=strict)


def write_dimacs(f: TextIO, formula: CnfFormula, comments: List[str] = ()) -> None:
    """Write a formula in DIMACS, including any XOR constraints."""
    for line in comments:
        f.write("c {}\n".format(line))
    f.write("p cnf {} {}\n".format(formula.n_vars, len(formula.clauses) + len(formula.xors)))
    for clause in formula.clauses:
        f.write(" ".join(str(lit_to_dimacs(l)) for l in clause))
        f.write(" 0\n")
    for variables, rhs in formula.xors:
        toks = [v + 1 for v in variables]
        if rhs == 0 and toks:
            toks[0] = -toks[0]
        f.write("x " + " ".join(str(t) for t in toks) + " 0\n")
