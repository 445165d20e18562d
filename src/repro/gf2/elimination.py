"""The one GF(2) elimination kernel: Method-of-Four-Russians RREF.

Every elimination consumer in the repo — the XL/ElimLin linearisation
(:func:`repro.core.linearize.gauss_jordan`), the linear-residual-group
echelonisation in :mod:`repro.core.propagation`, the XOR engine's
CMS-style preprocessing (:meth:`repro.sat.xorengine.XorEngine`), and the
derived matrix paths ``rank`` / ``solve_affine`` / ``kernel_basis`` /
``rref_rows`` — goes through :func:`eliminate`.  New elimination call
sites must too: the per-call-site quirks the seed accumulated
(copy-then-rref rank scans, per-row consistency walks) get fixed here,
once.

Method of Four Russians (M4RI)
------------------------------
The seed eliminator (kept verbatim with the tests in
``tests/oracles/gf2.py``, the differential oracle) works a column at a
time: one strided column scan plus one row-XOR
sweep plus a physical row swap per pivot, so a rank-``r`` reduction
pays ``r`` full-matrix passes and ``r`` row moves.  The kernel here
processes columns in blocks of ``k`` (4–8, chosen from the row count by
:func:`choose_block_size`) and spends one pass where the oracle spends
``k``:

1. **One extraction per block** pulls every row's ``k`` block-column
   bits into a single ``uint64`` pattern (the packed word holding the
   block is cached, so the strided gather happens once per 64 columns,
   not once per column).  All further hunt work runs on the compressed
   *active* set — the rows with a non-zero pattern — which the sparse
   XL/ElimLin matrices keep tiny.
2. **Pivot hunt by simulation**: Gauss–Jordan is replayed on the small
   patterns (eager XOR of the chosen pivot pattern into every matching
   pattern), so pivot selection sees exactly the bits the oracle would
   without touching full rows.  Row swaps are *virtual* — a permutation
   pair (``vpos``/``rowat``) is updated in O(1) and the rows are laid
   out physically once, at the very end, instead of two full-row moves
   per pivot.
3. **Intra-reduction** of the ≤ ``k`` pivot rows against each other
   (full-width, but at most ``k`` row XORs) gives each pivot row a unit
   footprint on the block's pivot columns, making the clearing
   combination for a row with pivot-column bits ``b`` exactly the XOR
   of the pivot rows selected by ``b``.
4. **One table-lookup XOR per block**: only the combinations that
   actually occur are materialised (a full ``2**k`` table would dwarf
   the work on sparse blocks), then the whole sweep — rows above *and*
   below the front, full RREF — is a single fancy-indexed
   ``data[sel] ^= table[idx]``.

Strip-mining: rows below the pivot front are zero in every already
processed column, so a block starting at column ``c`` only ever touches
packed words ``>= c // 64``.  The table is built over that active word
window and the sweep XORs only it — late blocks of an XL-scale matrix
(the ``2**(M + δM)`` cap regime) touch a small suffix of each row
instead of the whole thing.

Because the simulated pivot hunt mirrors the oracle's candidate order
and swaps exactly (lowest row position at or below the front wins), and
the cleared value of a row is *unique* — the pivot rows restrict to an
invertible triangular system on the pivot columns — the kernel's output
is bit-for-bit identical to the seed's: pivot list, row order and row
content, which the hypothesis suites and the Simon32-scale differential
benches assert.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime import
    from .matrix import GF2Matrix

_ONE = np.uint64(1)

#: The byte-lane extraction fast path views packed uint64 words as
#: eight uint8 lanes, which only lines up on little-endian hosts.
_LITTLE = sys.byteorder == "little"

#: Active-set size at or below which the pivot hunt runs on plain Python
#: ints instead of numpy arrays — per-call overhead beats vectorisation
#: on a handful of rows, and sparse elimination blocks are the common
#: case on the XL/ElimLin path.
_SMALL_ACTIVE = 48

#: Largest pivot count cleared from a single combination table.  Blocks
#: yielding more pivots (block widths above 8) split them across two
#: half-size tables — two lookups per row instead of one, but table
#: construction stays ``O(2**(t/2))`` instead of ``O(2**t)``, which is
#: what makes wide blocks (and their halved per-block overhead) pay.
_SPLIT_T = 8

def choose_block_size(n_rows: int, n_cols: int) -> int:
    """Pick the Four-Russians block width ``k`` from the matrix size.

    Theory says ``k ≈ log2(n)`` for a single combination table; the
    kernel splits wide blocks across two half-size tables (see
    ``_SPLIT_T``), which shifts the table cost to ``O(2**(k/2))`` and
    moves the sweet spot up to ``~2*log2(n)``, capped at 16.  Wider
    blocks amortise the fixed per-block costs (pattern extraction,
    pivot hunt set-up, sweep selection) over more pivots, which is
    where the time goes on the sparse XL/ElimLin matrices.
    """
    n = max(n_rows, 1)
    k = max(4, min(2 * _SPLIT_T, n.bit_length() + 4))
    return max(1, min(k, n_cols)) if n_cols else 1


def m4ri_rref(
    matrix: "GF2Matrix",
    max_cols: Optional[int] = None,
    block: Optional[int] = None,
) -> List[int]:
    """In-place RREF by the Method of Four Russians.

    Processes columns left to right (up to ``max_cols`` if given) in
    blocks of ``block`` (chosen from the matrix size when None),
    returning the pivot column list exactly as the seed column-at-a-time
    Gauss–Jordan would.
    """
    n_rows = matrix.n_rows
    ncols = matrix.n_cols if max_cols is None else min(max_cols, matrix.n_cols)
    pivots: List[int] = []
    if n_rows == 0 or ncols <= 0:
        return pivots
    k = block if block is not None else choose_block_size(n_rows, ncols)
    # Combination tables have at most 2**_SPLIT_T rows (wide blocks
    # split their pivots across two tables), so the block width is
    # hard-capped at 2 * _SPLIT_T even for explicit overrides.
    k = max(1, min(2 * _SPLIT_T, int(k)))
    data = matrix._data
    n_words = data.shape[1]
    # Virtual row order: vpos maps physical row -> position, rowat maps
    # position -> physical row.  Swaps are O(1) bookkeeping; the rows
    # are laid out physically once, after the last block.
    vpos = np.arange(n_rows, dtype=np.intp)
    rowat = np.arange(n_rows, dtype=np.intp)
    # notpiv[r] is True while physical row r sits below the pivot
    # front; only those rows can become pivots, so the hunt never
    # touches the (eventually much larger) settled part of the matrix.
    notpiv = np.ones(n_rows, dtype=bool)
    permuted = False
    # Reusable scratch for the level-doubled combination tables (at
    # most 2**_SPLIT_T rows each by the full word width, viewed
    # contiguously per block; the second is only touched by blocks
    # that split their pivots across two tables).
    tbl_sz = (1 << min(k, _SPLIT_T)) * n_words
    tbl_a = np.empty(tbl_sz, dtype=np.uint64)
    tbl_b = np.empty(tbl_sz, dtype=np.uint64)
    # Word-level active tracking: when a block enters a new packed
    # word, one strided gather pulls the word column, and wact/wpat
    # compress it to the rows with any bit in the word.  No row outside
    # wact can gain a bit in this word while its blocks are processed
    # (every modified row is selected via a non-zero block pattern, a
    # subset of wact), so all per-block work — extraction, pivot hunt,
    # sweep selection — runs on the compressed set.
    wact = np.empty(0, dtype=np.intp)
    wpat = np.empty(0, dtype=np.uint64)
    wcur = -1
    rank = 0
    c = 0
    while c < ncols and rank < n_rows:
        # Blocks never straddle a word boundary: the pattern extraction
        # stays one shift-and-mask per block on the compressed word
        # patterns, and fill-in cannot widen a block pattern past k
        # bits (wide spans would make the simulated hunt scale with the
        # fill-in density instead of the block width).
        kk = min(k, ncols - c, 64 - (c & 63))
        w0 = c >> 6
        if w0 != wcur:
            wc = np.ascontiguousarray(data[:, w0])
            wact = np.nonzero(wc)[0]
            wpat = wc[wact]
            wpat8 = wpat.view(np.uint8).reshape(-1, 8) if _LITTLE else None
            wpat16 = wpat.view(np.uint16).reshape(-1, 4) if _LITTLE else None
            blkp = np.empty_like(wpat)
            wcur = w0
        if wact.size == 0:
            c += kk
            continue
        if _LITTLE and kk == 8 and (c & 7) == 0:
            # Lane-aligned full-width block: the pattern column is one
            # byte (or uint16) lane of the word patterns — a single
            # strided gather instead of a shift-and-mask pass.  The
            # lane aliases wpat, so in-place wpat updates keep it
            # current.
            bcol = wpat8[:, (c >> 3) & 7]
            sube = np.nonzero(bcol)[0]
            if sube.size == 0:
                c += kk
                continue
            orig = bcol[sube].astype(np.uint64)
        elif _LITTLE and kk == 16 and (c & 15) == 0:
            bcol = wpat16[:, (c >> 4) & 3]
            sube = np.nonzero(bcol)[0]
            if sube.size == 0:
                c += kk
                continue
            orig = bcol[sube].astype(np.uint64)
        else:
            np.right_shift(wpat, np.uint64(c & 63), out=blkp)
            np.bitwise_and(blkp, np.uint64((1 << kk) - 1), out=blkp)
            sube = np.nonzero(blkp)[0]
            if sube.size == 0:
                c += kk
                continue
            orig = blkp[sube]
        act = wact[sube]
        bfe = np.nonzero(notpiv[act])[0]
        if bfe.size == 0:
            c += kk
            continue
        # -- pivot hunt on the simulated block patterns ----------------
        # Mirrors the oracle exactly: the candidate for a column is the
        # below-front row at the lowest virtual position with the
        # (reduced) column bit set; it swaps (virtually) up to the
        # front, and its pattern is eagerly XOR-ed into every matching
        # pattern (its own entry self-cancels, retiring it).  Rows
        # already above the front can never pivot again, so the hunt
        # runs on the below-front subset only.
        piv_cc: List[int] = []
        piv_phys: List[int] = []
        piv_entry: List[int] = []
        t = 0
        if bfe.size <= _SMALL_ACTIVE:
            bact = act[bfe]
            arows = bact.tolist()
            apat = orig[bfe].tolist()
            ava = vpos[bact].tolist()
            # Transposed bitsets: cm[cc] holds one bit per below-front
            # entry with (reduced) column bit cc set, so an empty
            # column costs O(1) and a pivot costs O(popcount), not a
            # scan of the active set per column.
            cm = [0] * kk
            for e, x in enumerate(apat):
                ebit = 1 << e
                while x:
                    b = x & -x
                    cm[b.bit_length() - 1] |= ebit
                    x -= b
            for cc in range(kk):
                m = cm[cc]
                if not m:
                    continue
                thr = rank + t
                if m & (m - 1):
                    mm = m
                    best_e = -1
                    best_v = 0
                    while mm:
                        b = mm & -mm
                        e = b.bit_length() - 1
                        v = ava[e]
                        if best_e < 0 or v < best_v:
                            best_e, best_v = e, v
                        mm -= b
                else:
                    best_e = m.bit_length() - 1
                    best_v = ava[best_e]
                p = arows[best_e]
                pattern = apat[best_e]
                if best_v != thr:
                    q = int(rowat[thr])
                    rowat[thr] = p
                    rowat[best_v] = q
                    vpos[p] = thr
                    vpos[q] = best_v
                    permuted = True
                    ava[best_e] = thr
                    for e2, r2 in enumerate(arows):
                        if r2 == q:
                            ava[e2] = best_v
                            break
                # Eager XOR of the pivot pattern into every matching
                # entry (set m), mirrored in both representations; the
                # pivot's own entry self-cancels, retiring it.
                x = pattern
                while x:
                    b = x & -x
                    cm[b.bit_length() - 1] ^= m
                    x -= b
                mm = m
                while mm:
                    b = mm & -mm
                    apat[b.bit_length() - 1] ^= pattern
                    mm -= b
                piv_cc.append(cc)
                piv_phys.append(p)
                piv_entry.append(int(bfe[best_e]))
                t += 1
                if t == k or rank + t >= n_rows:
                    break
        else:
            brows = act[bfe]
            apat_v = orig[bfe].copy()
            ava_v = vpos[brows]
            for cc in range(kk):
                colbit = np.uint64(1 << cc)
                thr = rank + t
                amask = apat_v & colbit
                cond = amask.astype(bool)
                cond &= ava_v >= thr
                match = np.nonzero(cond)[0]
                if match.size == 0:
                    continue
                e = int(match[int(np.argmin(ava_v[match]))])
                p = int(brows[e])
                best_v = int(ava_v[e])
                pattern = apat_v[e]
                if best_v != thr:
                    q = int(rowat[thr])
                    rowat[thr] = p
                    rowat[best_v] = q
                    vpos[p] = thr
                    vpos[q] = best_v
                    permuted = True
                    ava_v[e] = thr
                    qi = int(np.searchsorted(brows, q))
                    if qi < brows.size and brows[qi] == q:
                        ava_v[qi] = best_v
                hit = np.nonzero(amask)[0]
                apat_v[hit] ^= pattern
                piv_cc.append(cc)
                piv_phys.append(p)
                piv_entry.append(int(bfe[e]))
                t += 1
                if t == k or rank + t >= n_rows:
                    break
        if t == 0:
            c += kk
            continue
        # Columns past the last pivot are left for the next block when
        # the hunt stopped early (k pivots found or the rank saturated).
        ccend = piv_cc[t - 1] + 1 if t == k or rank + t >= n_rows else kk
        pe = np.asarray(piv_entry, dtype=np.intp)
        # -- intra-reduce the pivot rows to unit pivot-column footprint
        # (done on one contiguous copy of the pivot rows, which then
        # serves directly as the table's generator window).  The new
        # pivot rows sat below the front, so every word before w0 is
        # zero and the copy covers the active window only.
        parr = np.asarray(piv_phys, dtype=np.intp)
        prows = data[parr, w0:]
        wvals = prows[:, 0].tolist()
        changed = False
        for i, cc in enumerate(piv_cc):
            s = (c & 63) + cc
            for j in range(t):
                if j != i and (wvals[j] >> s) & 1:
                    prows[j] ^= prows[i]
                    wvals[j] ^= wvals[i]
                    changed = True
        if changed:
            data[parr, w0:] = prows
            wpat[sube[pe]] = np.asarray(wvals, dtype=np.uint64)
        notpiv[parr] = False
        if act.size > t:
            # -- compress each row's pivot-column bits into a table
            # index — a pext of the original pattern over the pivot
            # columns, done one run of consecutive pivot columns at a
            # time (a single masked AND when no column was skipped, the
            # common case).
            if piv_cc[t - 1] == t - 1:
                idx = orig & np.uint64((1 << t) - 1)
            else:
                idx = orig
                i = 0
                while i < t:
                    j = i + 1
                    while j < t and piv_cc[j] == piv_cc[j - 1] + 1:
                        j += 1
                    run = (orig >> np.uint64(piv_cc[i])) & np.uint64(
                        (1 << (j - i)) - 1
                    )
                    idx = run if i == 0 else idx | (run << np.uint64(i))
                    i = j
            idx[pe] = 0
            keep = idx != 0
            sel = sube[keep]
            sel_rows = wact[sel]
            # -- level-doubled combination table(s), one lookup XOR per
            # row: table[b] = XOR of the pivot rows selected by the
            # bits of b, built with t vectorised XORs (no per-
            # combination work), over the active word window only
            # (strip-mining: rows below the front are zero in every
            # already-processed column).  Blocks with more than
            # _SPLIT_T pivots split them across two half-size tables —
            # one extra lookup XOR per row, exponentially less table
            # construction.
            if sel_rows.size:
                width = n_words - w0
                if t == 1:
                    data[sel_rows, w0:] ^= prows[0]
                    wpat[sel] ^= prows[0, 0]
                elif t <= _SPLIT_T:
                    sel_idx = idx[keep].astype(np.intp)
                    table = tbl_a[: (1 << t) * width].reshape(1 << t, width)
                    table[0] = 0
                    for i in range(t):
                        half = 1 << i
                        np.bitwise_xor(
                            table[:half], prows[i], out=table[half : 2 * half]
                        )
                    add = table[sel_idx]
                    data[sel_rows, w0:] ^= add
                    wpat[sel] ^= add[:, 0]
                else:
                    kept = idx[keep]
                    t1 = (t + 1) >> 1
                    t2 = t - t1
                    idx_a = (kept & np.uint64((1 << t1) - 1)).astype(np.intp)
                    idx_b = (kept >> np.uint64(t1)).astype(np.intp)
                    ta = tbl_a[: (1 << t1) * width].reshape(1 << t1, width)
                    ta[0] = 0
                    for i in range(t1):
                        half = 1 << i
                        np.bitwise_xor(
                            ta[:half], prows[i], out=ta[half : 2 * half]
                        )
                    tb = tbl_b[: (1 << t2) * width].reshape(1 << t2, width)
                    tb[0] = 0
                    for i in range(t2):
                        half = 1 << i
                        np.bitwise_xor(
                            tb[:half], prows[t1 + i], out=tb[half : 2 * half]
                        )
                    add = ta[idx_a]
                    add ^= tb[idx_b]
                    data[sel_rows, w0:] ^= add
                    wpat[sel] ^= add[:, 0]
        pivots.extend(c + cc for cc in piv_cc)
        rank += t
        c += ccend
    if permuted:
        data[:] = data[rowat]
    return pivots


def eliminate(
    matrix: "GF2Matrix",
    *,
    max_cols: Optional[int] = None,
    block: Optional[int] = None,
) -> List[int]:
    """The single elimination entry point for every GF(2) consumer.

    Reduces ``matrix`` to RREF in place over its first ``max_cols``
    columns (all of them when None) with the Four-Russians eliminator
    above and returns the pivot column list.  ``block`` overrides the
    block width (tests and benches only).
    """
    return m4ri_rref(matrix, max_cols=max_cols, block=block)
