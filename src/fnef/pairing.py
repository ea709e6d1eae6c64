"""Intersection pairing between divisor classes and F-curves.

The pairing of a generator with a 4-block partition is +1 when either side
of the generator is a union of two blocks, -1 when either side is a single
block, and 0 otherwise; psi-type keys inherit the singleton case.  A curve
functional assigns a pairing value to every generator and is admissible
when those values vanish on all pair relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .biplane import Biplane
from .divisors import DivisorClass, check_int64_sums, json_array, relation_matrix
from .errors import InvalidInputError, MalformedInputError
from .subsets import (
    FCurve,
    _assign,
    canonical_generator,
    check_memory,
    exact_int,
    fcurve_prefixes,
    format_subset,
    full_mask,
    is_psi_key,
    parse_subset,
    psi_key,
    validate_n,
)


@dataclass(frozen=True)
class CurveFunctional:
    """Integer pairing values on all generators of a fixed marking count:
    `values` holds the value on each canonical key (absent means 0), the
    value psi_i on the psi-type key of marking i (`psi_key`)."""

    values: DivisorClass

    @property
    def n(self) -> int:
        return self.values.n

    def boundary_min(self) -> int:
        """Minimum value over all boundary keys (absent keys count as 0)."""
        n = self.n
        boundary = [v for mask, v in self.values.coeffs.items() if not is_psi_key(mask, n)]
        if len(boundary) < (1 << (n - 1)) - 1 - n:
            boundary.append(0)  # some boundary key is absent
        return min(boundary)


def pair_generator_fcurve(mask: int, curve: FCurve) -> int:
    """Pairing of a single generator with an F-curve: one of -1, 0, +1."""
    n = curve.n
    key = canonical_generator(mask, n)
    other = key ^ full_mask(n)
    b0, b1, b2, b3 = curve.blocks
    if key in (b0, b1, b2, b3) or other in (b0, b1, b2, b3):
        return -1
    unions = (b0 | b1, b0 | b2, b0 | b3)
    if key in unions or other in unions:
        return 1
    return 0


def pair_divisor_fcurve(d: DivisorClass, curve: FCurve) -> int:
    """Pairing of a divisor class with an F-curve, in 7 key lookups:
    the three two-block unions count positively, the four blocks negatively."""
    if d.n != curve.n:
        raise InvalidInputError(f"marking counts differ: {d.n} vs {curve.n}")
    half = 1 << (d.n - 1)
    full = full_mask(d.n)
    coeffs = d.coeffs
    b0, b1, b2, b3 = curve.blocks

    def at(m: int) -> int:
        return coeffs.get(m if m < half else m ^ full, 0)

    return (
        at(b0 | b1) + at(b0 | b2) + at(b0 | b3) - at(b0) - at(b1) - at(b2) - at(b3)
    )


def pair_divisor_functional(d: DivisorClass, f: CurveFunctional) -> int:
    """Sum of divisor coefficients times functional values over all keys,
    walked over the functional's nonzero keys (23 for the biplane's
    witness, against 650 of the biplane divisor)."""
    if d.n != f.n:
        raise InvalidInputError(f"marking counts differ: {d.n} vs {f.n}")
    return sum(v * d.coeff(mask) for mask, v in f.values.coeffs.items())


def biplane_curve_functional(bp: Biplane) -> CurveFunctional:
    """The curve functional attached to the biplane at 12 markings: value 1
    on the eleven block keys, 0 on other boundary keys, -3 on the psi keys
    of markings 1..11 and -2 at marking 12."""
    values = {psi_key(i, 12): -3 if i < 12 else -2 for i in range(1, 13)}
    return CurveFunctional(DivisorClass(12, {**values, **dict.fromkeys(bp.blocks, 1)}))


@dataclass(frozen=True)
class RelationCheck:
    """Outcome of testing a functional against every pair relation."""

    ok: bool
    first_violation: Optional[tuple[int, int]] = None
    violation_value: Optional[int] = None


def check_relations(f: CurveFunctional) -> RelationCheck:
    """Sum the functional over each pair relation; all sums must vanish.
    The first violation is the first pair (i, j) in lexicographic order."""
    n = f.n
    check_int64_sums((f.values.max_abs,), 1 << (n - 2), "relation check")
    totals = relation_matrix(n) @ f.values.dense_table()[1:]
    bad = np.flatnonzero(totals)
    if not len(bad):
        return RelationCheck(True)
    i, j = np.triu_indices(n, 1)
    k = bad[0]
    return RelationCheck(False, (int(i[k]) + 1, int(j[k]) + 1), int(totals[k]))


#: The F-curve row: the signs of a pairing's seven keys (`row_keys`), +1 on
#: the three unions with block 0 and -1 on the four blocks.
ROW_PATTERN = np.array([1, 1, 1, -1, -1, -1, -1], dtype=np.int64)
ROW_PATTERN.flags.writeable = False


def full_width(table: np.ndarray) -> np.ndarray:
    """A table over the 2^(n-1) canonical keys, read at every subset mask
    below 2^n: the table followed by its reverse.  A mask m at or above
    2^(n-1) holds marking n, so its canonical key is its complement
    2^n - 1 - m, and the reverse holds that key's entry at m.  A mask thus
    reads its generator's entry whichever side of the generator it names."""
    return np.concatenate([table, table[::-1]])


def row_keys(table: np.ndarray, blocks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill `out`, a (7, len(blocks)) array, and return it: out[k, i] is
    `table` at key k of row i, for the keys b0|b1, b0|b2, b0|b3, b0, b1, b2,
    b3 of the row's blocks b0..b3, whose signs are `ROW_PATTERN`.

    `table` is read at every subset mask (`full_width`), and every mask
    must be below 2^n, its length: take's "wrap" mode, faster than its
    checked default, reads the same there and does not check it.  Each
    key's masks are taken straight into its row of `out`, so besides `out`
    and `blocks` only one key's masks are held at a time.

    The seven keys name seven distinct generators: they are pairwise
    distinct and no two are complements.  The blocks are nonempty and
    disjoint, so no block equals another block or a union of two, and no
    two of the unions are equal.  The complement of a block is a union of
    three blocks, and that of b0|bi the union of the two blocks other than
    b0; neither is among the seven.
    """
    b0 = blocks[:, 0]
    for row, key in zip(out, chain((b0 | b for b in blocks.T[1:]), blocks.T)):
        table.take(key, out=row, mode="wrap")
    return out


#: Rows per slice of the row scan.  The slices bound its temporaries at
#: every row count: one (7, _SCAN_ROWS) buffer of the scan dtype (112 KiB in
#: int8) and one key's masks.  They cost no speed: 100000 sampled rows at
#: n=13 scan in about 2.1 ms sliced or not (one pinned vCPU).
_SCAN_ROWS = 16384

#: Markings in the suffix of the enumeration scan.  Its plan takes 0.27 MiB
#: at 7 and serves every n >= 8.  Warm `fnef_check` (median of 9
#: interleaved rounds of 10 scans, one pinned vCPU, 64 KiB chunks) took
#: 1.19 ms in int8 at n=12, 3.66 ms at n=13 and 4.18 ms in int64 at n=12;
#: 6 (187 prefixes at n=12, not 51) took 1.43, 4.77 and 5.76 ms, and 8
#: took 1.10, 3.98 and 5.13 ms, its int8 within the rounds' interquartile
#: spread of 7 (0.23 ms at n=12, 0.49 at n=13), with a 1.06 MiB plan and an
#: int64 traced peak at n=12 of the zero bits plus 2.0 MiB, against 0.59.
_SCAN_SUFFIX = 7

#: Bytes of records that the enumeration scan lays out per chunk of
#: prefixes: 5 prefixes at a 7-marking suffix in int8, one in int64.  The
#: chunk's values take about 1.4 times its records more.  Warm
#: `fnef_check` in int8 (as for `_SCAN_SUFFIX`) took 2.05, 1.46, 1.19,
#: 1.12, 1.50 and 1.49 ms at n=12 with chunks of 16, 32, 64, 96, 128 and
#: 256 KiB, and 7.6, 5.6, 3.7, 3.9, 3.7 and 4.6 ms at n=13; in int64, one
#: prefix a chunk up to 128 KiB, 4.1-4.6 ms at n=12.  At 64 KiB a warm
#: `fnef_check`'s traced peak at n=12 is its zero bits plus 0.42 MiB in
#: int8 and 0.59 MiB in int64.
_SCAN_CHUNK = 1 << 16


#: Per part X | Y, X, Y of a disjoint pair: the bit in it of a marking with
#: digit 0, 1, 2 (neither, X, Y) in the pair's code.
_PAIR_BITS = np.array([[0, 1, 1], [0, 1, 0], [0, 0, 1]])
#: Per block 0..3 of a suffix marking: its digit in the codes of
#: (S1, S2), (S0, S1) and (S3, S1).
_KEY_DIGITS = np.array([[0, 1, 2, 0], [1, 2, 0, 0], [0, 2, 0, 1]])
#: The seven terms of a pairing: the unions of A, E and F, their first
#: singles, then A's second single.  Per term, its kind (a row of
#: _KEY_DIGITS) and the part of the pair it reads (a row of _PAIR_BITS).
_TERM_KIND = np.array([0, 1, 2, 0, 1, 2, 0])
_TERM_PART = np.array([0, 0, 0, 1, 1, 1, 2])


@lru_cache(maxsize=None)
def _scan_plan(s: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Index arrays of the enumeration scan for an s-marking suffix; they do
    not depend on n.

    A disjoint pair (X, Y) of suffix subsets has the ternary code with digit
    1 at each marking of X and 2 at each marking of Y, marking i at weight
    3^i.  The first s-2 markings form a completion's head and the last two
    its slot j = 4 b + b', for their blocks b and b'.  A record holds one
    kind's 16 values over the slots, at one code of the head's markings
    (the rest code): the digits of b and b' are read through the kind's row
    of `_KEY_DIGITS`.

    - `spread[t, l, j]` indexes a prefix's seven rows of 2^s suffix values,
      term t's row at t 2^s: the suffix mask with low bits l and, above
      them, term t's bits of slot j.  Spread, the rows are records, one per
      term and low mask, term t's at t 2^(s-2).
    - `gather[t, r]` is term t's record at rest code r among them.
    - `heads[u]`, for a prefix that opened u blocks, holds the three rest
      codes (A's, E's offset by 3^(s-2) and F's by 2 3^(s-2)) of every head
      that some slot completes, in enumeration order, and the valid slots
      of their grids of 16, in order; None when every slot is valid.  Both
      come from the walk that defines the order, `subsets._assign`: the
      heads are its walk over the first s-2 markings, cut at s, and a
      head's valid slots its walk over the last two after the head's v
      open blocks.
    """
    rest = s - 2
    digits = np.arange(3**rest)[:, None] // 3 ** np.arange(rest) % 3
    pick = (_PAIR_BITS[:, digits] << np.arange(rest)).sum(axis=2)
    term = np.arange(7)
    bits = _PAIR_BITS[_TERM_PART[:, None], _KEY_DIGITS[_TERM_KIND]]
    high = (bits[:, :, None] + 2 * bits[:, None, :]).reshape(7, 16) << rest
    spread = (term[:, None, None] << s) + np.arange(1 << rest)[:, None] + high[:, None, :]
    gather = (term[:, None] << rest) + pick[_TERM_PART]
    # tern[m]: the code of a mask m of head markings, digit 1 at each one
    tern = (np.arange(1 << rest)[:, None] >> np.arange(rest) & 1) @ 3 ** np.arange(rest)
    # valid[v, 4 b + b']: blocks b, b' of the last two markings complete v
    # open blocks; block k adds k times 4, 1 or 5 to the slot when it holds
    # the first of them, the second or both
    empty = np.zeros((1, 4), dtype=np.int32)
    valid = np.zeros((5, 16), dtype=bool)
    for v in range(2, 5):
        last, _ = _assign(empty, np.array([v]), range(2), 2)
        valid[v, np.array([0, 4, 1, 5])[last] @ np.arange(4)] = True
    heads = {}
    for u in range(1, 5):
        head, opened = _assign(empty, np.array([u]), range(rest), s)
        codes = (tern[head] @ _KEY_DIGITS.T + 3**rest * np.arange(3)).T
        select = np.flatnonzero(valid[opened])
        heads[u] = (codes, None if len(select) == 16 * len(opened) else select)
    for a in (spread, gather, *(a for h in heads.values() for a in h if a is not None)):
        a.setflags(write=False)
    return spread, gather, heads


@lru_cache(maxsize=None)
def _slot_pad(s: int, dtype: np.dtype) -> dict[int, np.ndarray]:
    """Per open-block count u, the pad of a prefix's padded layout in
    `dtype`, 16 slots per head (`_scan_plan`): its minimum at the slots
    that are curves and its maximum at the others, so that `np.maximum`
    overwrites only the others."""
    info = np.iinfo(dtype)
    pad = {}
    for u, (codes, select) in _scan_plan(s)[2].items():
        pad[u] = np.full(16 * codes.shape[1], info.max, dtype=dtype)
        pad[u][slice(None) if select is None else select] = info.min
        pad[u].setflags(write=False)
    return pad


@lru_cache(maxsize=None)
def _scan_layout(n: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, dict]:
    """The prefix side of the enumeration scan at n, from one walk of its
    prefixes (`fcurve_prefixes`), all read-only: the suffix length s; the
    blocks each prefix opened; where its slots and its curves end, the
    running totals of 16 slots per head (`_scan_plan`) and of its curves;
    and the prefixes by the number u of blocks they opened, from u = 4
    down: per u, the seven masks of each (the unions, then the singles of
    `_TERM_KIND`'s terms) and the slot where its slots start, both in
    enumeration order."""
    split, prefixes, opened = fcurve_prefixes(n, _SCAN_SUFFIX)
    s = n - split
    # size[u]: the slots and the curves of a prefix that opened u blocks
    size = np.zeros((5, 2), dtype=np.int64)
    for u, (codes, select) in _scan_plan(s)[2].items():
        size[u] = 16 * codes.shape[1], 16 * codes.shape[1] if select is None else len(select)
    slots, curves = size[opened].cumsum(axis=0).T.copy()
    starts = slots - size[opened, 0]
    p0, p1, p2, p3 = prefixes.astype(np.intp).T
    masks = np.stack([p1 | p2, p0 | p1, p1 | p3, p1, p0, p3, p2], axis=1)
    groups = {u: (masks[opened == u], starts[opened == u]) for u in range(4, 0, -1) if u in opened}
    for a in (opened, slots, curves, *(a for g in groups.values() for a in g)):
        a.setflags(write=False)
    return s, opened, slots, curves, groups


def slot_count(n: int) -> int:
    """Slots of the padded layout at n (`scan_fcurves`): 703136 at n=12 for
    611501 curves.  A multiple of 16."""
    return int(_scan_layout(validate_n(n))[2][-1])


def curve_index(n: int, slot: int) -> int:
    """The enumeration index of the curve at a slot of the padded layout:
    the number of curve slots before it, those of the prefixes before the
    slot's and those of its prefix's selection (`_scan_plan`) before it."""
    s, opened, slots, curves, _ = _scan_layout(n)
    p = int(np.searchsorted(slots, slot, side="right"))
    local = slot - (int(slots[p - 1]) if p else 0)
    before = int(curves[p - 1]) if p else 0
    select = _scan_plan(s)[2][int(opened[p])][1]
    return before + (local if select is None else int(np.searchsorted(select, local)))


def curve_flags(bits: np.ndarray, n: int) -> np.ndarray:
    """Flags over the padded layout at n, packed 8 to a byte in slot order,
    as a boolean array over the curves in enumeration order: one prefix at
    a time, its slots unpacked and its curve slots taken by the plan's
    selection (`_scan_plan`), so besides the result only one prefix's
    slots are held."""
    s, opened, slots, curves, _ = _scan_layout(n)
    heads = _scan_plan(s)[2]
    out = np.empty(int(curves[-1]), dtype=bool)
    s0 = c0 = 0
    for u, s1, c1 in zip(opened.tolist(), slots.tolist(), curves.tolist()):
        flags, select = np.unpackbits(bits[s0 // 8 : s1 // 8]).view(bool), heads[u][1]
        out[c0:c1] = flags if select is None else flags.take(select)
        s0, c0 = s1, c1
    return out


def _scan_chunks(table: np.ndarray, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairings of the enumeration in padded slots, a chunk of prefixes
    at a time: per chunk, the slot where each of its prefixes starts, and
    their values, of the table's dtype, one row per prefix in slot order
    with gaps.  A gap is a slot that completes no curve and holds the
    dtype's maximum, so it never lowers a minimum and never reads as zero.
    The chunks take the groups of prefixes that opened the same number of
    blocks (`_scan_layout`) in turn, each group's prefixes in enumeration
    order, so the groups interleave in slot order.

    A row is a prefix's blocks P0..P3 joined with a completion's S0..S3, and
    the full-width table reads a mask and its complement alike, so b0|b3
    reads as b1|b2 and b0|b2 as b1|b3.  The seven terms regroup into three
    kinds, each a function of a disjoint pair of suffix parts: A(S1, S2) =
    c(b1|b2) - c(b1) - c(b2), E(S0, S1) = c(b0|b1) - c(b0) and F(S3, S1) =
    c(b1|b3) - c(b3).

    Completions that agree on all but the last two suffix markings (a head)
    are consecutive, and those two markings carry the top digits of every
    code.  So each chunk of prefixes lays A, E and F out as records of 16
    values (`_scan_plan`), one per slot of the last two markings, which its
    seven rows fill through `spread` and `gather` with three record gathers
    and two subtractions.  The prefixes of a chunk opened the same number
    of blocks, so they have the same heads: the chunk's values are three
    gathers of every prefix's records at its heads' codes (`_scan_plan`,
    one index array per kind shared by the chunk's prefixes) and two adds,
    16 slots per head.  A slot that completes no curve (the head's last two
    markings must still open blocks) stays in place, and one `np.maximum`
    with the group's pad (`_slot_pad`, broadcast over the prefixes)
    overwrites it with the dtype's maximum.  Every value is a partial sum
    of at most 7 coefficients, exact in the table's dtype (`scan_dtype`).
    A record is a `np.void` of 16 values, so each gather copies 16 values
    at once; the sums run on the numeric view.
    """
    s, _, _, _, groups = _scan_layout(n)
    spread, gather, heads = _scan_plan(s)
    record = np.dtype((np.void, 16 * table.itemsize))
    # by_suffix[P, T] is c(P | T << split): one row per prefix mask
    by_suffix = table.reshape(1 << s, -1).T.copy()
    chunk = max(1, _SCAN_CHUNK // (3 * gather.shape[1] * record.itemsize))
    pads = _slot_pad(s, table.dtype)
    for u, (masks, starts) in groups.items():
        for lo in range(0, len(masks), chunk):
            # ndarray.take, not np.take: its Python wrapper adds about 0.8 us
            # a call
            rows = by_suffix.take(masks[lo : lo + chunk], axis=0)
            values = _scan_chunk(rows, spread, gather, record, heads[u][0], pads[u])
            yield starts[lo : lo + chunk], values


def _scan_chunk(rows, spread, gather, record, codes, pad) -> np.ndarray:
    """One chunk of `_scan_chunks`: its padded values, one row per prefix,
    from the seven rows of 2^s suffix values of each of its prefixes, the
    A, E and F record codes of their heads and their pad.  Its temporaries
    die with the call."""
    dtype, k = pad.dtype, len(rows)
    terms = rows.reshape(k, -1).take(spread, axis=1).view(record).reshape(k, -1)
    records = terms.take(gather[:3], axis=1)
    values = records.view(dtype)
    values -= terms.take(gather[3:6], axis=1).view(dtype)
    values[:, 0] -= terms.take(gather[6], axis=1).view(dtype)
    records = records.reshape(k, -1)
    out = records.take(codes[0], axis=1, mode="wrap")
    more = records.take(codes[1], axis=1, mode="wrap")
    values = out.view(dtype)
    values += more.view(dtype)
    records.take(codes[2], axis=1, out=more, mode="wrap")
    values += more.view(dtype)
    return np.maximum(values, pad, out=values)


def scan_fcurves(d: DivisorClass) -> tuple[int, int, int, np.ndarray]:
    """One scan of the pairings of `d` with every F-curve, in
    `scan_dtype(d)`: returns their minimum, the enumeration index of the
    first curve at it, their zero count, and their zero flags over the
    padded layout, packed 8 to a byte in slot order (`curve_flags` keeps
    the curve slots).  At n=12 the 611501 curves take 703136 slots
    (`slot_count`).

    The chunks of `_scan_chunks` are reduced as they come, while each is in
    cache, and the argmin slot is mapped to its curve (`curve_index`), so
    no array of a value per curve is built; a chunk is a few hundred KiB
    whatever n is.  What the scan keeps, one bit per slot, is refused
    before any scan when it would not fit in physical memory
    (InvalidInputError; at n=16 0.02 GiB for its 179 million slots), and so
    are coefficients whose sums could leave int64."""
    slots = slot_count(d.n)
    check_memory(slots // 8, f"the F-nef scan of {slots} slots")
    dtype = scan_dtype(d)
    table = full_width(d.dense_table().astype(dtype))
    bits = np.empty(slots // 8, dtype=np.uint8)
    low, zeros = None, 0
    for starts, values in _scan_chunks(table, d.n):
        width = values.shape[1]
        i = int(values.argmin())
        # the lowest (value, slot) pair: the groups interleave in slot order
        first = (int(values.flat[i]), int(starts[i // width]) + i % width)
        low = first if low is None else min(low, first)
        zero = values == 0
        zeros += int(np.count_nonzero(zero))
        packed, step = np.packbits(zero), width // 8
        for p, start in enumerate((starts // 8).tolist()):
            bits[start : start + step] = packed[p * step : (p + 1) * step]
    return low[0], curve_index(d.n, low[1]), zeros, bits


#: The scan's dtypes, narrowest first, each with its maximum.
_SCAN_DTYPES = tuple(
    (np.iinfo(t).max, np.dtype(t)) for t in (np.int8, np.int16, np.int32, np.int64)
)


def scan_dtype(d: DivisorClass) -> np.dtype:
    """The narrowest signed integer dtype that holds 7 times the largest
    |coefficient| of `d`: every partial sum of a pairing has at most 7
    terms, so the scan is exact in it.  Beyond int64 raises
    InvalidInputError."""
    top = d.max_abs
    check_int64_sums((top,), 7, "F-curve pairing scan")
    return next(t for most, t in _SCAN_DTYPES if 7 * top <= most)


def pairing_values(d: DivisorClass, blocks: np.ndarray) -> np.ndarray:
    """Pairings of a divisor with the rows of `blocks`, 4-block partitions
    of {1..n} as int32 or int64 masks, each below 2^n: the three unions
    with block 0 count positively, the four blocks negatively.

    The result, and every value array the scan allocates, has
    `scan_dtype(d)`: the narrowest of int8, int16, int32 and int64 that
    holds 7 times the largest |coefficient|, so every sum is exact;
    coefficients whose sums could leave int64 raise InvalidInputError.  The
    named divisors, and the biplane divisor's boundary form pulled back up
    to n=16, have |c| <= 9 and scan in int8.  A caller that multiplies
    values should first widen them with `.astype(np.int64)`.

    The table is `d.dense_table()` at full width (`full_width`), read at
    every subset mask.  The rows are taken in slices of `_SCAN_ROWS`:
    `row_keys` fills one 7-row buffer with a slice's keys, and the three
    union rows minus the four block rows are summed into its part of the
    result.  It serves sampled rows, and it is the tests' oracle for the
    scan of every F-curve, `scan_fcurves`.
    """
    dtype = scan_dtype(d)
    table = full_width(d.dense_table().astype(dtype))
    out = np.empty(len(blocks), dtype=dtype)
    keys = np.empty((len(ROW_PATTERN), _SCAN_ROWS), dtype=dtype)
    for s in range(0, len(blocks), _SCAN_ROWS):
        rows = blocks[s : s + _SCAN_ROWS]
        acc = out[s : s + len(rows)]
        terms = row_keys(table, rows, keys[:, : len(rows)])
        terms[:3].sum(axis=0, dtype=dtype, out=acc)
        acc -= terms[3:].sum(axis=0, dtype=dtype)
    return out


def functional_to_json_dict(f: CurveFunctional) -> dict:
    """The functional's JSON form: the values of the psi keys of markings
    1..n as `psi`, and those of the other keys, in ascending key order, as
    `boundary` entries (zeros omitted)."""
    n, values = f.n, f.values
    return {
        "n": n,
        "psi": [values.coeff(psi_key(i, n)) for i in range(1, n + 1)],
        "boundary": [
            {"subset": format_subset(mask), "value": values.coeffs[mask]}
            for mask in sorted(values.coeffs)
            if not is_psi_key(mask, n)
        ],
    }


def functional_from_json_dict(obj: dict) -> CurveFunctional:
    """The functional of a JSON form (`functional_to_json_dict`): n psi
    values, and boundary entries whose subsets name distinct boundary keys
    as their sides omitting marking n."""
    try:
        n = validate_n(exact_int(obj["n"], "n"))
        psi = [exact_int(v, "psi") for v in json_array(obj, "psi")]
        values = {}
        for t in json_array(obj, "boundary"):
            mask = parse_subset(t["subset"], n)
            if mask in values:
                raise InvalidInputError(f"boundary subset {format_subset(mask)} is repeated")
            values[mask] = exact_int(t["value"], "value")
        if len(psi) != n:
            raise InvalidInputError(f"need {n} psi values, got {len(psi)}")
        for mask in values:
            if is_psi_key(mask, n) or mask >> (n - 1):
                raise InvalidInputError(f"{format_subset(mask)} is not a boundary key for n={n}")
        values.update((psi_key(i, n), v) for i, v in enumerate(psi, 1))
        return CurveFunctional(DivisorClass(n, values))
    except InvalidInputError as exc:
        raise MalformedInputError(str(exc)) from None
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad functional object: {exc!r}") from None
