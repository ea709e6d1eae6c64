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
from typing import Optional

import numpy as np

from .biplane import Biplane
from .divisors import DivisorClass, check_int64_sums, json_array, relation_matrix
from .errors import InvalidInputError, MalformedInputError
from .subsets import (
    FCurve,
    _assign,
    canonical_generator,
    count_fcurves,
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
    """Sum of divisor coefficients times functional values over all keys."""
    if d.n != f.n:
        raise InvalidInputError(f"marking counts differ: {d.n} vs {f.n}")
    return sum(c * f.values.coeff(mask) for mask, c in d.coeffs.items())


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
    check_int64_sums(f.values.coeffs.values(), 1 << (n - 2), "relation check")
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
#: at 7 and serves every n >= 8.  In int8, 6 (187 prefixes at n=12, not 51)
#: scanned n=12 and 13 about 40% slower, and 8 a third slower at n=12 and
#: 5% faster at n=13, with a 1.06 MiB plan.
_SCAN_SUFFIX = 7

#: Bytes of records that the enumeration scan lays out per chunk of
#: prefixes: 11 prefixes at a 7-marking suffix in int8, one in int64.  In
#: int8, chunks of 4 KiB to 1 MiB scanned n=12 in 1.04-1.62 ms (median of 5
#: rounds of 10 scans, one pinned vCPU), and 128 KiB ran fastest there and
#: within 4% of the fastest, 256 KiB, at n=13; in int64 every size up to
#: 512 KiB ran within 8% of the others.  A chunk's temporaries are under
#: 3 times its records.
_SCAN_CHUNK = 1 << 17


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
def _scan_prefixes(n: int) -> tuple[int, np.ndarray, tuple[int, ...]]:
    """The prefix side of the enumeration scan at n: the markings before the
    suffix, each prefix's seven masks (the unions, then the singles of
    `_TERM_KIND`'s terms) as rows of a read-only array, and the blocks each
    prefix opened."""
    split, prefixes, opened = fcurve_prefixes(n, _SCAN_SUFFIX)
    p0, p1, p2, p3 = prefixes.astype(np.intp).T
    masks = np.stack([p1 | p2, p0 | p1, p1 | p3, p1, p0, p3, p2], axis=1)
    masks.setflags(write=False)
    return split, masks, tuple(opened.tolist())


def _scan_enumeration(table: np.ndarray, n: int) -> np.ndarray:
    """`pairing_values` over the enumeration, as prefixes times completions.

    A row is a prefix's blocks P0..P3 joined with a completion's S0..S3, and
    the full-width table reads a mask and its complement alike, so b0|b3
    reads as b1|b2 and b0|b2 as b1|b3.  The seven terms regroup into three
    kinds, each a function of a disjoint pair of suffix parts: A(S1, S2) =
    c(b1|b2) - c(b1) - c(b2), E(S0, S1) = c(b0|b1) - c(b0) and F(S3, S1) =
    c(b1|b3) - c(b3).

    Completions that agree on all but the last two suffix markings are
    consecutive, and those two markings carry the top digits of every code.
    So each chunk of prefixes lays A, E and F out as records of 16 values
    (`_scan_plan`), one per slot of the last two markings, which its seven
    rows fill through `spread` and `gather` with three record gathers and
    two subtractions.  A prefix's values are then three record gathers over
    its heads and two adds, 16 curves at a time, and one `take` of the
    valid slots of the grid when the prefix opened fewer than 4 blocks.
    Every value is a partial sum of at most 7 coefficients, exact in the
    table's dtype (`scan_dtype`).  A record is a `np.void` of 16 values, so
    each gather copies 16 values at once; the sums run on the numeric view.
    """
    split, masks, opened = _scan_prefixes(n)
    s = n - split
    spread, gather, heads = _scan_plan(s)
    dtype = table.dtype
    record = np.dtype((np.void, 16 * dtype.itemsize))
    # by_suffix[P, T] is c(P | T << split): one row per prefix mask
    by_suffix = table.reshape(1 << s, 1 << split).T.copy()
    chunk = max(1, _SCAN_CHUNK // (3 * gather.shape[1] * record.itemsize))
    size = 16 * max(codes.shape[1] for codes, _ in heads.values())
    grid, val = np.empty(size, dtype=dtype), np.empty(size, dtype=dtype)
    # per open-block count: the head codes, the selection, the values written,
    # and the grid and value buffers with their record views
    ways = {}
    for u, (codes, select) in heads.items():
        g, v = grid[: 16 * codes.shape[1]], val[: 16 * codes.shape[1]]
        count = g.size if select is None else len(select)
        ways[u] = (*codes, select, count, g, g.view(record), v, v.view(record))
    out = np.empty(count_fcurves(n), dtype=dtype)
    start = 0
    for lo in range(0, len(masks), chunk):
        # ndarray.take, not np.take: its Python wrapper adds about 0.8 us a
        # call, some 0.2 ms of the 1.3 ms of n=12
        rows = by_suffix.take(masks[lo : lo + chunk], axis=0)
        k = len(rows)
        terms = rows.reshape(k, -1).take(spread, axis=1).view(record).reshape(k, -1)
        records = terms.take(gather[:3], axis=1)
        values = records.view(dtype)
        values -= terms.take(gather[3:6], axis=1).view(dtype)
        values[:, 0] -= terms.take(gather[6], axis=1).view(dtype)
        for rec, u in zip(records.reshape(k, -1), opened[lo : lo + chunk]):
            k_a, k_e, k_f, select, count, g, g_rec, v, v_rec = ways[u]
            acc = out[start : start + count]
            if select is None:  # every slot is a completion
                g, g_rec = acc, acc.view(record)
            rec.take(k_a, out=g_rec, mode="wrap")
            rec.take(k_e, out=v_rec, mode="wrap")
            g += v
            rec.take(k_f, out=v_rec, mode="wrap")
            g += v
            if select is not None:
                g.take(select, out=acc, mode="wrap")
            start += count
    return out


#: The scan's dtypes, narrowest first, each with its maximum.
_SCAN_DTYPES = tuple(
    (np.iinfo(t).max, np.dtype(t)) for t in (np.int8, np.int16, np.int32, np.int64)
)


def scan_dtype(d: DivisorClass) -> np.dtype:
    """The narrowest signed integer dtype that holds 7 times the largest
    |coefficient| of `d`: every partial sum of a pairing has at most 7
    terms, so the scan is exact in it.  Beyond int64 raises
    InvalidInputError."""
    top = max(map(abs, d.coeffs.values()), default=0)
    check_int64_sums((top,), 7, "F-curve pairing scan")
    return next(t for most, t in _SCAN_DTYPES if 7 * top <= most)


def pairing_values(d: DivisorClass, blocks: Optional[np.ndarray] = None) -> np.ndarray:
    """Pairings of a divisor with every F-curve, in enumeration order (or
    with the rows of `blocks`): the three unions with block 0 count
    positively, the four blocks negatively.

    The result, and every value array the scan allocates, has
    `scan_dtype(d)`: the narrowest of int8, int16, int32 and int64 that
    holds 7 times the largest |coefficient|, so every sum is exact;
    coefficients whose sums could leave int64 raise InvalidInputError.  The
    named divisors, and the biplane divisor's boundary form pulled back up
    to n=16, have |c| <= 9 and scan in int8.  A caller that multiplies
    values should first widen them with `.astype(np.int64)`.

    The table is `d.dense_table()` at full width (`full_width`), read at
    every subset mask.  The two paths read it differently:

    - Without `blocks`, the enumeration is scanned as prefixes times
      completions (`_scan_enumeration`): per-prefix records of 16 values,
      one per way its last two markings fall, so three record gathers and
      two adds fill 16 consecutive curves.  It needs the enumeration's
      structure, so it serves only the whole enumeration.
    - With `blocks`, any rows are scanned: 4-block partitions as int32 or
      int64 masks, each below 2^n (`row_keys`).  The rows are taken in
      slices of `_SCAN_ROWS`: `row_keys` fills one 7-row buffer with a
      slice's keys, and the three union rows minus the four block rows are
      summed into its part of the result.  This path serves sampled rows
      and is the enumeration scan's oracle in the tests.
    """
    dtype = scan_dtype(d)
    table = full_width(d.dense_table().astype(dtype))
    if blocks is None:
        return _scan_enumeration(table, d.n)
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
