"""The seed tuple-path ANF→CNF converter, the oracle for ``AnfToCnf``.

Per-variable Python loops, a tuple-keyed monomial map, and a fresh
``2**K`` truth-table enumeration plus Quine–McCluskey run for every
chunk — the pre-mask data path, with two contract fixes shared with the
production converter: the XOR cut length is clamped to 3, and cut
auxiliaries live only in ``cut_vars``.  Output formulas must equal the
mask-native converter's bit for bit.
"""

from typing import Dict, List, Optional, Sequence, Set

from repro.anf.monomial import Monomial
from repro.anf.polynomial import Poly
from repro.core.anf_to_cnf import ConversionResult, ConversionStats
from repro.core.config import Config
from repro.minimize import cube_to_clause, minimize, truth_table
from repro.sat.dimacs import CnfFormula
from repro.sat.types import mk_lit


class ScalarContext:
    """Mutable conversion state: variable allocation and the monomial map."""

    def __init__(
        self,
        n_vars: int,
        formula: CnfFormula,
        stats: ConversionStats,
        config: Config,
    ):
        self.next_var = n_vars
        self.formula = formula
        self.stats = stats
        self.config = config
        self.var_of_monomial: Dict[Monomial, int] = {}
        self.monomial_of_var: Dict[int, Monomial] = {}
        self.cut_vars: Set[int] = set()
        # Single-variable monomials map to the variable itself.
        for v in range(n_vars):
            self.var_of_monomial[(v,)] = v
            self.monomial_of_var[v] = (v,)

    def fresh_var(self) -> int:
        v = self.next_var
        self.next_var += 1
        self.formula.n_vars = max(self.formula.n_vars, v + 1)
        return v

    # -- main poly dispatch -------------------------------------------------

    def convert_poly(self, p: Poly) -> None:
        rhs = 1 if p.has_constant_term() else 0
        terms = sorted(
            (m for m in p.monomials if m), key=lambda m: (len(m), m)
        )
        if not terms:
            if rhs:
                self.formula.add_clause([])
            return
        for chunk, chunk_rhs in self._cut(terms, rhs):
            self._emit_short(chunk, chunk_rhs)

    def _cut(self, terms: List[Monomial], rhs: int):
        """XOR-cutting: split into chunks of at most L terms (clamped to
        3 — a 2-chunk is a no-progress rename and looped forever in the
        seed)."""
        cut_len = max(self.config.xor_cut_len, 3)
        while len(terms) > cut_len:
            head, tail = terms[: cut_len - 1], terms[cut_len - 1:]
            aux = self.fresh_var()
            self.cut_vars.add(aux)
            self.stats.cut_vars += 1
            # aux = head_1 ⊕ ... (definition: head ⊕ aux = 0).
            yield (head + [(aux,)], 0)
            terms = [(aux,)] + tail
        yield (terms, rhs)

    def _emit_short(self, terms: List[Monomial], rhs: int) -> None:
        support = sorted({v for m in terms for v in m})
        if len(support) <= self.config.karnaugh_limit:
            self._emit_karnaugh(terms, rhs, support)
        else:
            self._emit_tseitin(terms, rhs)

    # -- approach 1: Karnaugh map + minimisation ------------------------------

    def _emit_karnaugh(
        self, terms: List[Monomial], rhs: int, support: List[int]
    ) -> None:
        self.stats.karnaugh_polys += 1
        poly = Poly(terms).add_constant(rhs)
        on_set = truth_table(poly, support)
        cubes = minimize(on_set, len(support))
        for cube in cubes:
            clause = [
                mk_lit(var, negated)
                for var, negated in cube_to_clause(cube, support, len(support))
            ]
            self.formula.add_clause(clause)
            self.stats.karnaugh_clauses += 1

    # -- approach 2: Tseitin-style monomial vars + XOR enumeration -----------

    def _monomial_var(self, m: Monomial) -> int:
        """CNF variable standing for the monomial, defining it on first use."""
        existing = self.var_of_monomial.get(m)
        if existing is not None:
            return existing
        y = self.fresh_var()
        self.var_of_monomial[m] = y
        self.monomial_of_var[y] = m
        self.stats.monomial_vars += 1
        # y = AND of the variables: (¬y ∨ x_i) for each i, (y ∨ ⋁ ¬x_i).
        for v in m:
            self.formula.add_clause([mk_lit(y, True), mk_lit(v)])
            self.stats.and_clauses += 1
        self.formula.add_clause([mk_lit(y)] + [mk_lit(v, True) for v in m])
        self.stats.and_clauses += 1
        return y

    def _emit_tseitin(self, terms: List[Monomial], rhs: int) -> None:
        self.stats.tseitin_polys += 1
        term_vars = []
        for m in terms:
            if len(m) == 1:
                term_vars.append(m[0])
            else:
                term_vars.append(self._monomial_var(m))
        if self.config.emit_xor_clauses:
            self.formula.add_xor(term_vars, rhs)
            return
        n = len(term_vars)
        # Forbid every assignment whose parity differs from rhs:
        # 2**(n-1) clauses of n literals each.
        for pattern in range(1 << n):
            parity = bin(pattern).count("1") & 1
            if parity == rhs:
                continue
            clause = [
                mk_lit(term_vars[i], negated=bool(pattern >> i & 1))
                for i in range(n)
            ]
            self.formula.add_clause(clause)
            self.stats.tseitin_clauses += 1


def convert_parts_scalar(
    n_vars: int, polynomials: Sequence[Poly], state, config: Config
) -> ConversionResult:
    """Convert ``polynomials`` (plus the units and equivalences held in
    ``state``, when given) over ``n_vars`` variables."""
    formula = CnfFormula(n_vars)
    stats = ConversionStats()
    ctx = ScalarContext(n_vars, formula, stats, config)
    if state is not None:
        for v in range(state.n_vars):
            value = state.value(v)
            if value is not None:
                formula.add_clause([mk_lit(v, negated=(value == 0))])
                stats.unit_clauses += 1
                continue
            root, parity = state.find(v)
            if root != v:
                # v = root ⊕ parity.
                if parity == 0:
                    formula.add_clause([mk_lit(v), mk_lit(root, True)])
                    formula.add_clause([mk_lit(v, True), mk_lit(root)])
                else:
                    formula.add_clause([mk_lit(v), mk_lit(root)])
                    formula.add_clause([mk_lit(v, True), mk_lit(root, True)])
                stats.equivalence_clauses += 2
    for p in polynomials:
        if p.is_zero():
            continue
        if p.is_one():
            formula.add_clause([])  # the empty clause: UNSAT
            continue
        ctx.convert_poly(p)
    return ConversionResult(
        formula=formula,
        n_anf_vars=n_vars,
        var_of_monomial=ctx.var_of_monomial,
        monomial_of_var=ctx.monomial_of_var,
        cut_vars=ctx.cut_vars,
        stats=stats,
    )


def convert_scalar(system, config: Optional[Config] = None) -> ConversionResult:
    """Twin of ``AnfToCnf(config).convert(system)``."""
    return convert_parts_scalar(
        max(system.ring.n_vars, system.state.n_vars),
        list(system.polynomials),
        system.state,
        config or Config(),
    )


def convert_polynomials_scalar(
    polynomials: Sequence[Poly],
    n_vars: Optional[int] = None,
    config: Optional[Config] = None,
) -> ConversionResult:
    """Twin of ``AnfToCnf(config).convert_polynomials(polynomials, n_vars)``."""
    if n_vars is None:
        n_vars = max(
            (max(p.variables()) + 1 for p in polynomials if p.variables()),
            default=0,
        )
    return convert_parts_scalar(n_vars, polynomials, None, config or Config())
