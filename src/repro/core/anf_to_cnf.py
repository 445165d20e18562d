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

Conversion sessions
-------------------
Every conversion runs in a :class:`ConversionSession`: one CNF numbering
for a whole Bosphorus run.  A monomial keeps its CNF variable for the
session's lifetime and an XOR-cut auxiliary is defined exactly once.  A
per-polynomial clause memo (keyed by the polynomial's sorted monomial
masks plus its constant) and the set of state unit/equivalence clauses
already emitted let each conversion report
:attr:`ConversionResult.delta`: the clauses the session never emitted
before, which is all an incremental solver fed by earlier conversions
needs.  :attr:`ConversionResult.formula` is still the whole system's
CNF, assembled mostly from memo hits.  A one-shot
:meth:`AnfToCnf.convert` is a fresh session's first conversion, whose
delta is the whole formula.

Mask-native conversion path
---------------------------
The production converter rides the monomial masks a ``Poly`` is made of
end to end (ROADMAP "Standing invariants"): the monomial→CNF-variable
map is keyed by monomial *mask* (int hash, exactly as
:class:`~repro.core.linearize.Linearization` keys its column map), a
polynomial's terms are put in ascending deglex order by the mask-native
:func:`~repro.anf.monomial.deglex_desc_key` without decoding a tuple,
chunk supports are mask ORs, and the Karnaugh truth table is one numpy
broadcast over support-compressed term masks
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

import hashlib
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..anf import monomial as mono
from ..anf.monomial import Monomial
from ..anf.polynomial import Poly
from ..anf.system import AnfSystem
from ..minimize import cube_to_clause, minimize
from ..minimize.truthtable import MAX_BATCH_VARS, truth_table_masks
from ..obs import NULL_TRACER, MetricsRegistry
from ..sat.dimacs import CnfFormula, cut_xor, parity_clauses
from ..sat.types import mk_lit
from .config import Config

@dataclass
class ConversionStats:
    """Clause/variable accounting for one conversion.

    The encoding counters count the work the conversion did: in a
    session, a polynomial served from the clause memo counts only as a
    ``memo_hits``.
    """

    karnaugh_polys: int = 0
    tseitin_polys: int = 0
    karnaugh_clauses: int = 0
    tseitin_clauses: int = 0
    and_clauses: int = 0
    cut_vars: int = 0
    monomial_vars: int = 0
    unit_clauses: int = 0
    equivalence_clauses: int = 0
    memo_hits: int = 0
    # Structure-keyed Karnaugh cache accounting.
    karnaugh_cache_hits: int = 0
    karnaugh_cache_misses: int = 0
    # Persistent-cache tiers (only with a disk store attached): covers
    # loaded from disk instead of minimised, and whole conversions
    # served from disk by canonical system hash.
    karnaugh_disk_hits: int = 0
    conversion_disk_hits: int = 0


#: The :class:`ConversionStats` cache counters that a session folds into
#: its metrics registry and a Bosphorus run reports run-wide.
CACHE_COUNTERS = (
    "karnaugh_cache_hits",
    "karnaugh_cache_misses",
    "karnaugh_disk_hits",
    "conversion_disk_hits",
)


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

    The maps hold variable tuples.  The encoding never reads them (it
    looks monomials up by mask); it writes a tuple once, when it numbers
    the variable.  They are the session's maps: they cover every
    auxiliary the session has numbered so far, so a model or a learnt
    literal of an incremental solver fed by earlier conversions
    translates too.
    ``delta`` holds the clauses and XORs this conversion emitted that
    its session had never emitted before.
    """

    formula: CnfFormula
    n_anf_vars: int
    var_of_monomial: Dict[Monomial, int]
    monomial_of_var: Dict[int, Monomial]
    cut_vars: Set[int]
    stats: ConversionStats
    delta: Optional[CnfFormula] = None

class AnfToCnf:
    """Converter carrying the paper's parameters K and L.

    The instance owns the structure-keyed Karnaugh cache, so reusing one
    converter across calls (as the Bosphorus loop does) shares minimised
    covers between iterations.

    With ``config.cache_dir`` set, a persistent ``store`` (a
    :class:`repro.server.cache.CacheStore` on that directory) gives the
    caches a disk tier that survives the process: minimised Karnaugh
    covers spill per shape key, and whole conversion results are keyed by
    the session's history plus the canonical system hash
    (:func:`system_fingerprint`), so a repeat run skips minimisation
    entirely and reproduces the exact same formulas bit for bit.
    """

    def __init__(self, config: Optional[Config] = None, tracer=None, metrics=None):
        self.config = config or Config()
        self.store = None
        if self.config.cache_dir:
            from ..server.cache import CacheStore

            self.store = CacheStore(self.config.cache_dir)
        # shape_key -> minimised cube cover in local-index space.
        self._karnaugh_cache: Dict[tuple, list] = {}
        # Observability (repro.obs): instance-threaded, never global.
        # The owner of a run (Bosphorus) swaps in its per-run tracer and
        # registry; standalone converters get inert/private ones.
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics or MetricsRegistry()

    def session(self) -> "ConversionSession":
        """A fresh conversion session: one CNF numbering for one run."""
        return ConversionSession(self)

    def convert(self, system: AnfSystem) -> ConversionResult:
        """Convert the (propagated) system to CNF."""
        return self.session().convert(system)

    def convert_polynomials(
        self, polynomials: Sequence[Poly], n_vars: Optional[int] = None
    ) -> ConversionResult:
        """Convert a bare polynomial list (no variable state)."""
        if n_vars is None:
            n_vars = _infer_n_vars(polynomials)
        return self.session().convert_parts(n_vars, polynomials, state=None)


def system_fingerprint(n_vars, polynomials, state, config: Config) -> tuple:
    """Canonical hashable identity of one conversion's *inputs*.

    Two first conversions of a session with equal fingerprints produce
    bit-for-bit identical CNF; a later conversion's persistent-cache key
    adds the session's history.  It covers everything
    :meth:`ConversionSession.convert_parts` reads:

    * the variable count and, per polynomial *in list order* (auxiliary
      numbering depends on it), the sorted monomial-mask multiset plus
      the constant term (the in-poly emission order is canonicalised by
      the converter itself, so the multiset is exact);
    * the variable state's unit and equivalence clauses;
    * the conversion parameters K, L and the XOR-clause switch.

    Masks are plain ints at any width, so the key is deterministic
    across processes and runs.
    """
    return _fingerprint(
        n_vars,
        [_poly_key(p) for p in polynomials],
        _state_clauses(state) if state is not None else [],
        config,
    )


def _fingerprint(n_vars, poly_keys, state_clauses, config: Config) -> tuple:
    return (
        "anf-conversion",
        n_vars,
        tuple(poly_keys),
        tuple(map(tuple, state_clauses)),
        config.karnaugh_limit,
        config.xor_cut_len,
        config.emit_xor_clauses,
    )


def _poly_key(p: Poly) -> tuple:
    """A polynomial's sorted monomial masks plus its constant term."""
    return (tuple(sorted(p)), 1 if p.has_constant_term() else 0)


def _state_clauses(state) -> List[List[int]]:
    """The variable state's unit and equivalence clauses, by variable."""
    clauses = []
    for v in range(state.n_vars):
        value = state.value(v)
        if value is not None:
            clauses.append([mk_lit(v, negated=(value == 0))])
            continue
        root, parity = state.find(v)
        if root != v:
            # v = root ⊕ parity.
            if parity == 0:
                clauses.append([mk_lit(v), mk_lit(root, True)])
                clauses.append([mk_lit(v, True), mk_lit(root)])
            else:
                clauses.append([mk_lit(v), mk_lit(root)])
                clauses.append([mk_lit(v, True), mk_lit(root, True)])
    return clauses


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


class ConversionSession:
    """Run-wide conversion state: one CNF numbering, a clause memo.

    The mask-native production path: chunk terms are a polynomial's
    monomial masks, the monomial→variable map is keyed by mask, supports
    are mask ORs, and Karnaugh covers come from the converter's
    structure-keyed cache.

    A fresh polynomial's encoding is recorded as a list of *items*: a
    clause (list), an XOR ``(variables, rhs)`` (tuple) or a monomial
    variable whose AND definition must precede what follows (int).
    Emitting items into a formula writes each definition once per
    formula, so the whole formula and the delta come from one walk
    each, and the session's first conversion emits exactly what a
    fresh per-call converter would, in the same order.

    ``solver`` is the run's warm CDCL solver, fed each conversion's
    delta by :func:`repro.core.satlearn.run_sat`.
    """

    def __init__(self, converter: AnfToCnf):
        self.converter = converter
        self.config = converter.config
        self.n_vars: Optional[int] = None
        self.next_var = 0
        self.var_of_monomial: Dict[Monomial, int] = {}
        self.monomial_of_var: Dict[int, Monomial] = {}
        self.cut_vars: Set[int] = set()
        # Auxiliary-variable lookup by monomial mask.  Single-variable
        # terms never route through here (``_emit_tseitin`` resolves a
        # single-bit mask to its variable inline), so only degree >= 2
        # monomials get an entry.
        self._var_of_mask: Dict[int, int] = {}
        self._definitions: Dict[int, List[List[int]]] = {}
        # Monomial variables whose definition some delta has carried.
        self._defined: Set[int] = set()
        self._memo: Dict[tuple, list] = {}
        self._state_emitted: Set[tuple] = set()
        # Digest of every earlier persistent-cache key of this session.
        self._history = ""
        self._items: list = []
        self.stats = ConversionStats()
        self.solver = None

    def convert(self, system: AnfSystem) -> ConversionResult:
        """Convert the (propagated) system to CNF."""
        return self.convert_parts(
            n_vars=max(system.ring.n_vars, system.state.n_vars),
            polynomials=list(system.polynomials),
            state=system.state,
        )

    def convert_parts(self, n_vars, polynomials, state) -> ConversionResult:
        converter = self.converter
        with converter.tracer.span(
            "anf_to_cnf.convert",
            n_vars=n_vars,
            n_polys=len(polynomials),
        ) as span:
            with converter.metrics.timer("conversion_s"):
                result = self._convert_inner(n_vars, polynomials, state)
            stats = result.stats
            span.set("clauses", len(result.formula.clauses))
            span.set("memo_hits", stats.memo_hits)
            for name in CACHE_COUNTERS:
                value = getattr(stats, name)
                span.set(name, value)
                converter.metrics.inc(name, value)
            converter.metrics.inc("conversions")
        return result

    def _convert_inner(self, n_vars, polynomials, state) -> ConversionResult:
        if self.n_vars is None:
            self.n_vars = self.next_var = n_vars
            for v in range(n_vars):
                self.var_of_monomial[(v,)] = v
                self.monomial_of_var[v] = (v,)
        elif n_vars != self.n_vars:
            raise ValueError(
                "a conversion session numbers {} ANF variables, not {}".format(
                    self.n_vars, n_vars
                )
            )
        state_clauses = _state_clauses(state) if state is not None else []
        keys = [_poly_key(p) for p in polynomials]
        store = self.converter.store
        cache_key = None
        if store is not None:
            # The history makes an entry replay only onto the allocator
            # state it was recorded from.
            cache_key = (
                self._history,
                _fingerprint(n_vars, keys, state_clauses, self.config),
            )
            self._history = hashlib.sha256(
                repr(cache_key).encode("utf-8")
            ).hexdigest()
            cached = store.get("conversion", cache_key)
            if cached is not None:
                result, fresh_at = cached
                self._adopt(result, state_clauses)
                self._memo.update((keys[i], items) for i, items in fresh_at)
                # The stored stats describe the formula (clause/variable
                # accounting stays truthful); the work counters are reset
                # because no minimisation happened on this load.
                result.stats.karnaugh_cache_hits = 0
                result.stats.karnaugh_cache_misses = 0
                result.stats.karnaugh_disk_hits = 0
                result.stats.conversion_disk_hits = 1
                return result

        stats = self.stats = ConversionStats()
        formula = CnfFormula(n_vars)
        delta = CnfFormula(n_vars)
        emitted = self._state_emitted
        for clause in state_clauses:
            formula.clauses.append(clause)
            if len(clause) == 1:
                stats.unit_clauses += 1
            else:
                stats.equivalence_clauses += 1
            if tuple(clause) not in emitted:
                emitted.add(tuple(clause))
                delta.clauses.append(clause)

        # Polynomials first seen by this conversion, by list position.
        # The memo learns them only afterwards, so a duplicate within one
        # conversion is encoded afresh, exactly as a per-call converter
        # would.
        fresh_at: List[Tuple[int, list]] = []
        fresh: Dict[tuple, list] = {}
        defined_here: Set[int] = set()
        for i, (p, key) in enumerate(zip(polynomials, keys)):
            items = self._memo.get(key)
            if items is not None:
                stats.memo_hits += 1
            else:
                items = self._encode(p)
                if key not in fresh:
                    fresh[key] = items
                    fresh_at.append((i, items))
                self._emit(items, delta, self._defined)
            self._emit(items, formula, defined_here)
        self._memo.update(fresh)
        # The maps are the session's, so the formula defines every
        # monomial variable in them: its models then reconstruct
        # strictly, even where a monomial only an earlier system used
        # would otherwise be free.
        for y in self._var_of_mask.values():
            if y not in defined_here:
                formula.clauses.extend(self._definition(y))
        formula.n_vars = delta.n_vars = self.next_var

        result = ConversionResult(
            formula=formula,
            n_anf_vars=n_vars,
            var_of_monomial=self.var_of_monomial,
            monomial_of_var=self.monomial_of_var,
            cut_vars=self.cut_vars,
            stats=stats,
            delta=delta,
        )
        if cache_key is not None:
            store.put("conversion", cache_key, (result, fresh_at))
        return result

    def _adopt(self, result: ConversionResult, state_clauses) -> None:
        """Take over the allocator state a stored ``result`` left."""
        self.var_of_monomial = result.var_of_monomial
        self.monomial_of_var = result.monomial_of_var
        self.cut_vars = result.cut_vars
        self.next_var = result.formula.n_vars
        self._var_of_mask = {
            mono.make(m): y
            for y, m in self.monomial_of_var.items()
            if y >= self.n_vars
        }
        self._defined = set(self._var_of_mask.values())
        self._state_emitted.update(map(tuple, state_clauses))

    def _emit(self, items: list, formula: CnfFormula, defined: Set[int]) -> None:
        """Append a polynomial's items, defining each monomial variable
        the first time ``formula`` needs it."""
        clauses = formula.clauses
        for item in items:
            kind = item.__class__
            if kind is list:
                clauses.append(item)
            elif kind is tuple:
                formula.xors.append(item)
            elif item not in defined:
                defined.add(item)
                clauses.extend(self._definition(item))

    def _definition(self, y: int) -> List[List[int]]:
        """The AND definition of monomial variable ``y``:
        (¬y ∨ x_i) for each i, then (y ∨ ⋁ ¬x_i)."""
        clauses = self._definitions.get(y)
        if clauses is None:
            variables = self.monomial_of_var[y]
            clauses = [[mk_lit(y, True), mk_lit(v)] for v in variables]
            clauses.append([mk_lit(y)] + [mk_lit(v, True) for v in variables])
            self._definitions[y] = clauses
        return clauses

    def fresh_var(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v

    # -- main poly dispatch -------------------------------------------------

    def _encode(self, p: Poly) -> list:
        """A fresh polynomial's items (see the class docstring)."""
        self._items = items = []
        rhs = 1 if p.has_constant_term() else 0
        terms = [mk for mk in p if mk]
        if not terms:
            if rhs:
                items.append([])  # 1 = 0: the empty clause
            return items
        # Ascending deglex.
        terms.sort(key=mono.deglex_desc_key, reverse=True)
        # XOR-cutting into chunks of at most L terms.  L is clamped to 3:
        # a chunk of 2 would be one real term plus the bridging auxiliary
        # — a pure rename that makes no net progress (the seed's clamp of
        # 2 looped forever on ``xor_cut_len <= 2``).
        for chunk, chunk_rhs in cut_xor(
            terms, rhs, max(self.config.xor_cut_len, 3), self._cut_var
        ):
            self._emit_short(chunk, chunk_rhs)
        return items

    def _cut_var(self) -> int:
        """A fresh XOR-cutting auxiliary, as a single-variable mask."""
        aux = self.fresh_var()
        self.cut_vars.add(aux)
        self.stats.cut_vars += 1
        return 1 << aux

    def _emit_short(self, terms: List[int], rhs: int) -> None:
        # K is clamped to MAX_BATCH_VARS, the widest truth table the
        # batch evaluator builds; a wider chunk goes to Tseitin.
        support_mask = reduce(or_, terms)
        if support_mask.bit_count() <= min(
            self.config.karnaugh_limit, MAX_BATCH_VARS
        ):
            self._emit_karnaugh(terms, rhs, support_mask)
        else:
            self._emit_tseitin(terms, rhs)

    # -- approach 1: Karnaugh map + minimisation ------------------------------

    def _emit_karnaugh(
        self, terms: List[int], rhs: int, support_mask: int
    ) -> None:
        self.stats.karnaugh_polys += 1
        key = mono.shape_key(terms, support_mask, rhs)
        n = key[0]
        karnaugh_cache = self.converter._karnaugh_cache
        store = self.converter.store
        cubes = karnaugh_cache.get(key)
        if cubes is not None:
            self.stats.karnaugh_cache_hits += 1
        else:
            if store is not None:
                # Disk tier: a cover minimised by any earlier run (or a
                # sibling worker) with the same shape.
                cubes = store.get("karnaugh", key)
                if cubes is not None:
                    karnaugh_cache[key] = cubes
                    self.stats.karnaugh_disk_hits += 1
        if cubes is None:
            cubes = minimize(truth_table_masks(key[1], n, rhs), n)
            karnaugh_cache[key] = cubes
            self.stats.karnaugh_cache_misses += 1
            if store is not None:
                store.put("karnaugh", key, cubes)
        support = mono.bits_of(support_mask)
        items = self._items
        for cube in cubes:
            clause = [
                mk_lit(var, negated)
                for var, negated in cube_to_clause(cube, support, n)
            ]
            items.append(clause)
            self.stats.karnaugh_clauses += 1

    # -- approach 2: Tseitin-style monomial vars + XOR enumeration -----------

    def _monomial_var(self, mk: int) -> int:
        """CNF variable standing for the monomial, numbered on first use."""
        existing = self._var_of_mask.get(mk)
        if existing is not None:
            return existing
        y = self.fresh_var()
        self._var_of_mask[mk] = y
        m = mono.as_tuple(mk)
        self.var_of_monomial[m] = y
        self.monomial_of_var[y] = m
        self.stats.monomial_vars += 1
        self.stats.and_clauses += len(m) + 1
        return y

    def _emit_tseitin(self, terms: List[int], rhs: int) -> None:
        self.stats.tseitin_polys += 1
        items = self._items
        term_vars = []
        for mk in terms:
            if mk & (mk - 1) == 0:  # single-bit mask: the variable itself
                term_vars.append(mk.bit_length() - 1)
            else:
                y = self._monomial_var(mk)
                items.append(y)
                term_vars.append(y)
        if self.config.emit_xor_clauses:
            items.append((term_vars, rhs))
            return
        for clause in parity_clauses(term_vars, rhs):
            items.append(clause)
            self.stats.tseitin_clauses += 1
