"""ANF → CNF conversion (paper section III-C).

Determined variables become unit clauses, equivalences become clause
pairs, and every residual polynomial is

1. cut into short XORs of at most L terms (the XOR-cutting length) by
   introducing fresh auxiliary variables, then
2. each short polynomial is encoded either via its Karnaugh map (support
   of at most K variables; minimised with Quine–McCluskey, our ESPRESSO
   stand-in) or via a Tseitin-style encoding: one auxiliary variable per
   high-degree monomial (AND definition clauses) followed by the
   ``2**(l-1)`` clauses enumerating the XOR.

A bi-directional monomial ↔ CNF-variable map is maintained so learnt CNF
facts can be translated back to ANF (paper: "we maintain a bi-directional
map for such variables").  Cut auxiliaries stand for partial XOR sums,
not monomials, so they live only in :attr:`ConversionResult.cut_vars`
and never appear in the monomial maps.

Mask-native conversion path
---------------------------
The production converter rides the packed monomial masks end to end
(ROADMAP "Standing invariants"): the monomial→CNF-variable map is
interned by monomial *mask* (int hash, exactly as
:class:`~repro.core.linearize.Linearization` interns its column map),
chunk supports and Tseitin AND definitions come from the cached
``Poly.monomial_masks()`` pairs instead of ``for v in m`` tuple loops,
and the Karnaugh truth table is one numpy broadcast over
support-compressed term masks
(:func:`~repro.minimize.truthtable.truth_table_masks`).  On top sits a
structure-keyed *Karnaugh cache*: chunks whose
:func:`~repro.anf.monomial.shape_key` agree are the same Boolean
function up to an order-preserving variable renaming, so one minimised
cube cover (in local-index space) serves all of them — Simon/Speck
round functions emit thousands of structurally identical chunks and
minimise once.  The seed per-variable converter lives with the tests
(``tests/oracles/anf_to_cnf.py``) as the differential oracle and the
``bench_anf_to_cnf`` baseline leg; both produce bit-for-bit identical
formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..anf import monomial as mono
from ..anf.monomial import Monomial
from ..anf.polynomial import Poly
from ..anf.system import AnfSystem
from ..minimize import cube_to_clause, minimize, truth_table
from ..minimize.truthtable import MAX_BATCH_VARS, truth_table_masks
from ..obs import NULL_TRACER, MetricsRegistry
from ..sat.dimacs import CnfFormula
from ..sat.types import mk_lit
from .config import Config

#: A chunk term on the mask path: (monomial mask, monomial tuple).
_TermPair = Tuple[int, Monomial]


@dataclass
class ConversionStats:
    """Clause/variable accounting for one conversion."""

    karnaugh_polys: int = 0
    tseitin_polys: int = 0
    karnaugh_clauses: int = 0
    tseitin_clauses: int = 0
    and_clauses: int = 0
    cut_vars: int = 0
    monomial_vars: int = 0
    unit_clauses: int = 0
    equivalence_clauses: int = 0
    # Structure-keyed Karnaugh cache accounting.
    karnaugh_cache_hits: int = 0
    karnaugh_cache_misses: int = 0
    # Persistent-cache tiers (only with a disk store attached): covers
    # loaded from disk instead of minimised, and whole conversions
    # served from disk by canonical system hash.
    karnaugh_disk_hits: int = 0
    conversion_disk_hits: int = 0


@dataclass
class ConversionResult:
    """CNF output plus the maps needed to translate facts back to ANF.

    Every CNF variable is exactly one of:

    * an *original* ANF variable (``var < n_anf_vars``),
    * a *monomial* auxiliary — a Tseitin variable defined as the AND of
      its monomial's variables, present in both directions of the
      monomial map, or
    * a *cut* auxiliary — a partial XOR sum from XOR-cutting, tracked
      only in :attr:`cut_vars` (it stands for no monomial, so it never
      appears in :attr:`monomial_of_var`).
    """

    formula: CnfFormula
    n_anf_vars: int
    var_of_monomial: Dict[Monomial, int]
    monomial_of_var: Dict[int, Monomial]
    cut_vars: Set[int]
    stats: ConversionStats

    def is_original_var(self, cnf_var: int) -> bool:
        """True if the CNF variable is one of the problem's ANF variables."""
        return cnf_var < self.n_anf_vars

    def is_cut_var(self, cnf_var: int) -> bool:
        """True if the CNF variable is an XOR-cutting auxiliary."""
        return cnf_var in self.cut_vars

    def is_monomial_var(self, cnf_var: int) -> bool:
        """True if the CNF variable is a Tseitin monomial auxiliary."""
        return cnf_var >= self.n_anf_vars and cnf_var in self.monomial_of_var


class AnfToCnf:
    """Converter carrying the paper's parameters K and L.

    The instance owns the structure-keyed Karnaugh cache, so reusing one
    converter across calls (as the Bosphorus loop does) shares minimised
    covers between iterations.

    With a persistent ``store`` (a :class:`repro.server.cache.CacheStore`,
    attached explicitly or auto-created from ``config.cache_dir``) the
    caches gain a disk tier that survives the process: minimised Karnaugh
    covers spill per shape key, and whole conversion results are keyed by
    the canonical system hash (:func:`system_fingerprint`), so a repeat
    conversion skips minimisation entirely and reproduces the exact same
    formula bit for bit.
    ``use_conversion_cache=False`` keeps the whole-conversion tier off
    (the Karnaugh tier still spills), which the cache tests use to
    exercise the per-shape path in isolation.
    """

    def __init__(
        self,
        config: Optional[Config] = None,
        store=None,
        use_conversion_cache: bool = True,
        tracer=None,
        metrics=None,
    ):
        self.config = config or Config()
        if store is None and self.config.cache_dir:
            from ..server.cache import CacheStore

            store = CacheStore(self.config.cache_dir)
        self.store = store
        self.use_conversion_cache = use_conversion_cache
        # shape_key -> minimised cube cover in local-index space.
        self._karnaugh_cache: Dict[tuple, list] = {}
        # Observability (repro.obs): instance-threaded, never global.
        # The owner of a run (Bosphorus) swaps in its per-run tracer and
        # registry; standalone converters get inert/private ones.
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics or MetricsRegistry()

    def convert(self, system: AnfSystem) -> ConversionResult:
        """Convert the (propagated) system to CNF."""
        return self.convert_parts(
            n_vars=max(system.ring.n_vars, system.state.n_vars),
            polynomials=list(system.polynomials),
            state=system.state,
        )

    def convert_polynomials(
        self, polynomials: Sequence[Poly], n_vars: Optional[int] = None
    ) -> ConversionResult:
        """Convert a bare polynomial list (no variable state)."""
        if n_vars is None:
            n_vars = _infer_n_vars(polynomials)
        return self.convert_parts(n_vars, polynomials, state=None)

    def convert_parts(self, n_vars, polynomials, state) -> ConversionResult:
        with self.tracer.span(
            "anf_to_cnf.convert",
            n_vars=n_vars,
            n_polys=len(polynomials),
        ) as span:
            with self.metrics.timer("conversion_s"):
                result = self._convert_inner(n_vars, polynomials, state)
            stats = result.stats
            span.set("clauses", len(result.formula.clauses))
            for name in (
                "karnaugh_cache_hits",
                "karnaugh_cache_misses",
                "karnaugh_disk_hits",
                "conversion_disk_hits",
            ):
                value = getattr(stats, name)
                span.set(name, value)
                self.metrics.inc(name, value)
            self.metrics.inc("conversions")
        return result

    def _convert_inner(self, n_vars, polynomials, state) -> ConversionResult:
        fingerprint = None
        if self.store is not None and self.use_conversion_cache:
            fingerprint = system_fingerprint(
                n_vars, polynomials, state, self.config
            )
            cached = self.store.get("conversion", fingerprint)
            if cached is not None:
                # The stored stats describe the formula (clause/variable
                # accounting stays truthful); the work counters are reset
                # because no minimisation happened on this load.
                cached.stats.karnaugh_cache_hits = 0
                cached.stats.karnaugh_cache_misses = 0
                cached.stats.karnaugh_disk_hits = 0
                cached.stats.conversion_disk_hits = 1
                return cached
        formula = CnfFormula(n_vars)
        stats = ConversionStats()
        ctx = _Context(
            n_vars, formula, stats, self.config, self._karnaugh_cache,
            store=self.store,
        )

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

        result = ConversionResult(
            formula=formula,
            n_anf_vars=n_vars,
            var_of_monomial=ctx.var_of_monomial,
            monomial_of_var=ctx.monomial_of_var,
            cut_vars=ctx.cut_vars,
            stats=stats,
        )
        if fingerprint is not None:
            self.store.put("conversion", fingerprint, result)
        return result


def system_fingerprint(n_vars, polynomials, state, config: Config) -> tuple:
    """Canonical hashable identity of one conversion's *inputs*.

    Two calls with equal fingerprints produce bit-for-bit identical CNF,
    so the fingerprint is the key of the persistent whole-conversion
    cache.  It covers everything :meth:`AnfToCnf.convert_parts` reads:

    * the variable count and, per polynomial *in list order* (auxiliary
      numbering depends on it), the sorted monomial-mask multiset plus
      the constant term (the in-poly emission order is canonicalised by
      ``convert_poly`` itself, so the multiset is exact);
    * the variable state's non-trivial entries (fixed values and
      union-find equivalences with parity);
    * the conversion parameters K, L and the XOR-clause switch.

    Masks are plain ints at any width, so the key is deterministic
    across processes and runs.
    """
    poly_keys = []
    for p in polynomials:
        poly_keys.append((
            tuple(sorted(mk for mk, _ in p.monomial_masks())),
            1 if p.has_constant_term() else 0,
        ))
    state_key = ()
    if state is not None:
        entries = []
        for v in range(state.n_vars):
            value = state.value(v)
            if value is not None:
                entries.append((v, "=", value))
                continue
            root, parity = state.find(v)
            if root != v:
                entries.append((v, "~", root, parity))
        state_key = (state.n_vars, tuple(entries))
    return (
        "anf-conversion",
        n_vars,
        tuple(poly_keys),
        state_key,
        config.karnaugh_limit,
        config.xor_cut_len,
        config.emit_xor_clauses,
    )


def _infer_n_vars(polynomials: Sequence[Poly]) -> int:
    """Highest variable index + 1, from the cached support masks.

    ``support_mask().bit_length()`` is exactly ``max(variables) + 1``
    (and 0 for constants), at any width — no tuple-path ``variables()``
    scan.
    """
    n_vars = 0
    for p in polynomials:
        width = p.support_mask().bit_length()
        if width > n_vars:
            n_vars = width
    return n_vars


class _Context:
    """Mutable conversion state: variable allocation and the monomial map.

    The mask-native production path: chunk terms are (mask, monomial)
    pairs straight off ``Poly.monomial_masks()``, the monomial→variable
    map is keyed by mask on the hot path, supports are mask ORs, and
    Karnaugh covers come from the shared structure-keyed cache.
    """

    def __init__(
        self,
        n_vars: int,
        formula: CnfFormula,
        stats: ConversionStats,
        config: Config,
        karnaugh_cache: Dict[tuple, list],
        store=None,
    ):
        self.next_var = n_vars
        self.formula = formula
        self.stats = stats
        self.config = config
        self.var_of_monomial: Dict[Monomial, int] = {}
        self.monomial_of_var: Dict[int, Monomial] = {}
        self.cut_vars: Set[int] = set()
        self._karnaugh_cache = karnaugh_cache
        self._store = store
        # Auxiliary-variable lookup by monomial mask.  Single-variable
        # terms never route through here (``_emit_tseitin`` resolves a
        # single-bit mask to its variable inline), so only degree >= 2
        # monomials are interned.
        self._var_of_mask: Dict[int, int] = {}
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
        pairs = [(mk, m) for mk, m in p.monomial_masks() if mk]
        if not pairs:
            if rhs:
                self.formula.add_clause([])
            return
        pairs.sort(key=_pair_deglex_key)
        for chunk, chunk_rhs in self._cut(pairs, rhs):
            self._emit_short(chunk, chunk_rhs)

    def _cut(
        self, pairs: List[_TermPair], rhs: int
    ) -> Iterator[Tuple[List[_TermPair], int]]:
        """XOR-cutting: split into chunks of at most L terms.

        The effective cut length is clamped to 3: a chunk of 2 would be
        one real term plus the bridging auxiliary — a pure rename that
        makes no net progress (the seed's clamp of 2 looped forever on
        ``xor_cut_len <= 2``).
        """
        cut_len = max(self.config.xor_cut_len, 3)
        while len(pairs) > cut_len:
            head, tail = pairs[: cut_len - 1], pairs[cut_len - 1:]
            aux = self.fresh_var()
            self.cut_vars.add(aux)
            self.stats.cut_vars += 1
            aux_pair = (1 << aux, (aux,))
            # aux = head_1 ⊕ ... (definition: head ⊕ aux = 0).
            yield (head + [aux_pair], 0)
            pairs = [aux_pair] + tail
        yield (pairs, rhs)

    def _emit_short(self, pairs: List[_TermPair], rhs: int) -> None:
        support_mask = 0
        for mk, _ in pairs:
            support_mask |= mk
        if support_mask.bit_count() <= self.config.karnaugh_limit:
            self._emit_karnaugh(pairs, rhs, support_mask)
        else:
            self._emit_tseitin(pairs, rhs)

    # -- approach 1: Karnaugh map + minimisation ------------------------------

    def _emit_karnaugh(
        self, pairs: List[_TermPair], rhs: int, support_mask: int
    ) -> None:
        self.stats.karnaugh_polys += 1
        key = mono.shape_key((mk for mk, _ in pairs), support_mask, rhs)
        n = key[0]
        cubes = self._karnaugh_cache.get(key)
        if cubes is not None:
            self.stats.karnaugh_cache_hits += 1
        else:
            if self._store is not None:
                # Disk tier: a cover minimised by any earlier run (or a
                # sibling worker) with the same shape.
                cubes = self._store.get("karnaugh", key)
                if cubes is not None:
                    self._karnaugh_cache[key] = cubes
                    self.stats.karnaugh_disk_hits += 1
        if cubes is None:
            local_masks = key[1]
            if n <= MAX_BATCH_VARS:
                on_set = truth_table_masks(local_masks, n, rhs)
            else:
                # Absurdly large K: fall back to the per-row evaluation
                # on the local problem (still cached by shape).
                local_poly = Poly(
                    [mono.from_mask(lm) for lm in local_masks]
                ).add_constant(rhs)
                on_set = truth_table(local_poly, list(range(n)))
            cubes = minimize(on_set, n)
            self._karnaugh_cache[key] = cubes
            self.stats.karnaugh_cache_misses += 1
            if self._store is not None:
                self._store.put("karnaugh", key, cubes)
        support = mono.bits_of(support_mask)
        formula = self.formula
        for cube in cubes:
            clause = [
                mk_lit(var, negated)
                for var, negated in cube_to_clause(cube, support, n)
            ]
            formula.add_clause(clause)
            self.stats.karnaugh_clauses += 1

    # -- approach 2: Tseitin-style monomial vars + XOR enumeration -----------

    def _monomial_var(self, mk: int, m: Monomial) -> int:
        """CNF variable standing for the monomial, defining it on first use."""
        existing = self._var_of_mask.get(mk)
        if existing is not None:
            return existing
        y = self.fresh_var()
        self._var_of_mask[mk] = y
        self.var_of_monomial[m] = y
        self.monomial_of_var[y] = m
        self.stats.monomial_vars += 1
        # y = AND of the variables: (¬y ∨ x_i) for each i, (y ∨ ⋁ ¬x_i).
        variables = mono.bits_of(mk)
        for v in variables:
            self.formula.add_clause([mk_lit(y, True), mk_lit(v)])
            self.stats.and_clauses += 1
        self.formula.add_clause(
            [mk_lit(y)] + [mk_lit(v, True) for v in variables]
        )
        self.stats.and_clauses += 1
        return y

    def _emit_tseitin(self, pairs: List[_TermPair], rhs: int) -> None:
        self.stats.tseitin_polys += 1
        term_vars = []
        for mk, m in pairs:
            if mk & (mk - 1) == 0:  # single-bit mask: the variable itself
                term_vars.append(mk.bit_length() - 1)
            else:
                term_vars.append(self._monomial_var(mk, m))
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


def _pair_deglex_key(pair: _TermPair):
    m = pair[1]
    return (len(m), m)
