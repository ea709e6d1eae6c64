"""F-nefness scans, the counterexample verification, and extremality rank.

A divisor is F-nef when it pairs nonnegatively with every 4-block
partition class.  Extremality of an F-nef divisor inside the F-nef cone
is certified by the rank of its zero-pairing curves in reduced
coordinates: modular rank never exceeds rational rank, and the rational
rank is at most ambient-1 because the divisor itself annihilates every
row, so hitting ambient-1 modulo a single prime is already a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

import numpy as np

from .biplane import Biplane
from .divisors import (
    DivisorClass,
    biplane_block_star_divisor,
    biplane_divisor,
    canonical_divisor,
    pullback_forgetful,
    reduce_canonical,
    relation_system,
    symmetric_divisor,
)
from .errors import InvalidInputError
from .pairing import (
    CurveFunctional,
    biplane_curve_functional,
    check_relations,
    pair_divisor_functional,
    pair_blocks,
    pairing_values,
    _canon_cols,
    scan_table,
)
from .subsets import FCurve, count_fcurves, fcurve_block_arrays, full_mask

#: Fixed moduli for extremality certification, both just below the 2^31
#: cap that keeps the rank kernel's arithmetic exact: residue products stay
#: below 2^62 in int64, and the float64 matrix products on 16-bit halves
#: stay below 2^53 (see ModpEliminator).
DEFAULT_PRIMES = (2147483629, 2147483647)

_ROW_PATTERN = np.array([1, 1, 1, -1, -1, -1, -1], dtype=np.int64)


@dataclass(frozen=True)
class FNefReport:
    """One scan of every F-curve.  `zero_bits` marks the curves pairing to
    zero, in enumeration order, packed 8 to a byte."""

    n: int
    min_value: int
    argmin: FCurve
    zero_count: int
    nonnegative: bool
    zero_bits: np.ndarray = field(repr=False, compare=False)

    def zero_mask(self) -> np.ndarray:
        """Boolean mask of the zero-pairing rows of fcurve_block_arrays(n)."""
        return np.unpackbits(self.zero_bits, count=count_fcurves(self.n)).view(bool)


@dataclass(frozen=True)
class BoundaryCertificate:
    """Witness-functional certificate that a divisor class is not an
    effective boundary sum (and, in the stronger variant, not a nonnegative
    multiple of the canonical class plus effective boundary)."""

    boundary_min: int
    pairing: int
    canonical_pairing: int
    certified: bool
    certified_with_canonical: bool


@dataclass(frozen=True)
class CounterexampleReport:
    """The four checks (`verdict`): the divisor is F-nef, the witness
    functional is nonnegative on boundary keys and on the canonical class,
    and pairs negatively with the divisor.  `decomposition_equal` is the
    identity divisor = symmetric - block star, as coefficients, as reduced
    coordinates and as pairings with every F-curve."""

    fnef: FNefReport
    certificate: BoundaryCertificate
    decomposition_equal: bool
    verdict: bool

    @property
    def verified(self) -> bool:
        """The whole verification: the four checks and the decomposition."""
        return self.verdict and self.decomposition_equal


@dataclass(frozen=True)
class ExtremalityReport:
    ambient_dim: int
    zero_set_size: int
    rank_mod_p: dict[int, int]
    certified_extremal: bool


@dataclass(frozen=True)
class ProjectionFormulaReport:
    total: int
    contracted: int
    mismatches: int

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def _argmin_curve(n: int, blocks: np.ndarray, idx: int) -> FCurve:
    row = blocks[idx]
    return FCurve(n, (int(row[0]), int(row[1]), int(row[2]), int(row[3])))


def fnef_check(d: DivisorClass, threads: int = 1) -> FNefReport:
    """Scan every F-curve once; report the exact minimum pairing, the first
    curve attaining it, and the number of zero pairings."""
    blocks = fcurve_block_arrays(d.n)
    values = pairing_values(d, blocks, threads=threads)
    idx = int(values.argmin())
    mn = int(values[idx])
    zero = values == 0
    return FNefReport(
        n=d.n,
        min_value=mn,
        argmin=_argmin_curve(d.n, blocks, idx),
        zero_count=int(np.count_nonzero(zero)),
        nonnegative=mn >= 0,
        zero_bits=np.packbits(zero),
    )


def verify_counterexample(bp: Biplane, threads: int = 1) -> CounterexampleReport:
    """Run the four-part check on the biplane divisor and its witness
    functional; the verdict requires F-nefness, nonnegative boundary
    values, nonnegative canonical pairing, and a negative divisor pairing.
    Also checks the decomposition identity; pairing is linear, so the two
    sides pair identically with every F-curve iff their difference pairs
    to zero, and one scan of the difference decides it."""
    div = biplane_divisor(bp)
    fnef = fnef_check(div, threads=threads)
    cert = certify_not_boundary(div, biplane_curve_functional(bp))
    decomposition = symmetric_divisor(12) - biplane_block_star_divisor(bp)
    decomposition_equal = (
        div == decomposition
        and reduce_canonical(div) == reduce_canonical(decomposition)
        and not pairing_values(div - decomposition, threads=threads).any()
    )
    return CounterexampleReport(
        fnef=fnef,
        certificate=cert,
        decomposition_equal=decomposition_equal,
        verdict=fnef.nonnegative and cert.certified_with_canonical,
    )


def certify_not_boundary(d: DivisorClass, f: CurveFunctional) -> BoundaryCertificate:
    """Certified when f vanishes on every pair relation, so that it is a
    functional on numerical classes, is nonnegative on every boundary key,
    and yet pairs negatively with d; the stronger variant additionally
    needs f to pair nonnegatively with the canonical class."""
    boundary_min = f.boundary_min()
    pairing = pair_divisor_functional(d, f)
    canonical_pairing = pair_divisor_functional(canonical_divisor(d.n), f)
    certified = boundary_min >= 0 and pairing < 0 and check_relations(f).ok
    return BoundaryCertificate(
        boundary_min=boundary_min,
        pairing=pairing,
        canonical_pairing=canonical_pairing,
        certified=certified,
        certified_with_canonical=certified and canonical_pairing >= 0,
    )


def _is_probable_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


#: Largest modulus the rank kernel accepts (see DEFAULT_PRIMES).
MAX_MODULUS = 1 << 31


def check_modulus(p: int) -> None:
    """Raise InvalidInputError unless p is a prime no larger than 2^31."""
    if not _is_probable_prime(p):
        raise InvalidInputError(f"modulus {p} is not prime")
    if p > MAX_MODULUS:
        raise InvalidInputError(f"modulus {p} exceeds the cap 2^31")


def _complement(idx: np.ndarray, width: int) -> np.ndarray:
    """The positions in range(width) not in idx, increasing."""
    keep = np.ones(width, dtype=bool)
    keep[idx] = False
    return np.flatnonzero(keep)


class ModpEliminator:
    """Incremental Gaussian elimination over a prime field, in blocks.

    The basis is kept in reduced row echelon form: each stored row has 1 at
    its own pivot column and 0 at every other pivot column.  Rows arrive in
    batches; a batch is cleared of the known pivot columns by a few sparse
    gathers, eliminated among itself by recursive halving, and the new
    pivots are cleared from the basis with one matrix product.

    Every product of two residue matrices is exact in float64, as in
    FFLAS-FFPACK (Dumas, Giorgi, Pernet, "Dense linear algebra over
    word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS 2008).
    A residue below p < 2^31 splits into a high half below 2^15 and a low
    half below 2^16, so each term of the four products of halves is below
    2^32; with an inner dimension k < 2^21 every sum stays below 2^53 and
    the four float64 matrix products round nothing.  The halves recombine
    in int64 as ((hi*2^16 + mid) mod p)*2^16 + lo, where hi*2^16 + mid is
    below k*2^46, so k < 2^17 also keeps that exact.  The inner dimension
    never exceeds the column count, which is capped there.
    """

    MAX_COLUMNS = 1 << 17
    #: Row count at which the recursive elimination switches to row-by-row.
    BASE_ROWS = 32
    #: Rows per block of a product, which bounds the temporaries.
    BLOCK_ROWS = 256

    def __init__(self, ncols: int, p: int):
        check_modulus(p)
        if ncols >= self.MAX_COLUMNS:
            raise InvalidInputError(f"{ncols} columns reach the cap 2^17")
        self.ncols = ncols
        self.p = p
        self.rank = 0
        self.rows_seen = 0
        self._rows = np.zeros((ncols, ncols), dtype=np.int64)
        self._pivot_row_of_col = np.full(ncols, -1, dtype=np.int64)

    def _mulsub(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """c = (c - a @ b) mod p in place, for residue matrices, exactly (see
        the class); row blocks bound the temporaries."""
        p = self.p
        b_hi, b_lo = (b >> 16).astype(np.float64), (b & 0xFFFF).astype(np.float64)
        for s in range(0, len(c), self.BLOCK_ROWS):
            blk = a[s : s + self.BLOCK_ROWS]
            a_hi, a_lo = (blk >> 16).astype(np.float64), (blk & 0xFFFF).astype(np.float64)
            mid = a_hi @ b_lo
            mid += a_lo @ b_hi
            out = (a_hi @ b_hi).astype(np.int64)
            out <<= 16
            out += mid.astype(np.int64)
            out %= p
            out <<= 16
            out += (a_lo @ b_lo).astype(np.int64)
            part = c[s : s + self.BLOCK_ROWS]
            np.subtract(part, out, out=part)
            part %= p
        return c

    def _rref_rows(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`_rref` of a few rows, one pivot at a time."""
        p = self.p
        a = a.copy()
        rows, pivots = [], []
        for i in range(len(a)):
            nz = np.flatnonzero(a[i])
            if not nz.size:
                continue
            j = int(nz[0])
            a[i] = a[i] * pow(int(a[i, j]), -1, p) % p
            hit = np.flatnonzero(a[:, j])
            hit = hit[hit != i]
            if hit.size:
                a[hit] = (a[hit] - np.outer(a[hit, j], a[i])) % p
            rows.append(i)
            pivots.append(j)
        pivots = np.array(pivots, dtype=np.int64)
        return pivots, a[rows][:, _complement(pivots, a.shape[1])]

    def _rref(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reduced row echelon form of the residue matrix a, as (pivots, x):
        row i of the echelon form has 1 at column pivots[i], 0 at the other
        pivots, and x[i] at the remaining columns in increasing order.

        The top half is reduced first; the bottom half is cleared of its
        pivots and reduced on the remaining columns; the top half's rows
        are then cleared of the bottom half's pivots."""
        if len(a) <= self.BASE_ROWS:
            return self._rref_rows(a)
        half = len(a) // 2
        piv1, x1 = self._rref(a[:half])
        rest1 = _complement(piv1, a.shape[1])
        bottom = self._mulsub(a[half:, rest1], a[half:, piv1], x1)
        piv2, x2 = self._rref(bottom[bottom.any(axis=1)])
        rest2 = _complement(piv2, len(rest1))
        x1 = self._mulsub(x1[:, rest2], x1[:, piv2], x2)
        return np.concatenate([piv1, rest1[piv2]]), np.vstack([x1, x2])

    def _reduce_batch(
        self, chunk: np.ndarray, pattern: np.ndarray, free: np.ndarray
    ) -> np.ndarray:
        """The batch's rows cleared of every pivot column, as residues on
        the free columns; rows that vanish are dropped."""
        rows, pivot_of = self._rows, self._pivot_row_of_col
        at = np.full(self.ncols, -1, dtype=np.int64)
        at[free] = np.arange(len(free))
        dense = np.zeros((len(chunk), len(free)), dtype=np.int64)
        for k in range(chunk.shape[1]):
            row_k = np.flatnonzero(chunk[:, k] >= 0)
            col_k = chunk[row_k, k]
            on_pivot = pivot_of[col_k] >= 0
            dense[row_k[~on_pivot], at[col_k[~on_pivot]]] += pattern[k]
            if on_pivot.any():
                # a pivot entry v is cleared by v times its basis row, which
                # is 0 at every other pivot; |entry| <= width*max|v|*p < 2^63
                basis = rows[np.ix_(pivot_of[col_k[on_pivot]], free)]
                basis *= pattern[k]
                dense[row_k[on_pivot]] -= basis
        dense %= self.p
        return dense[dense.any(axis=1)]

    def _extend(self, free: np.ndarray, pivots: np.ndarray, x: np.ndarray) -> None:
        """Add the echelon rows (`_rref` form on the free columns) to the
        basis, clearing their pivot columns from the stored rows."""
        rows, rank, k = self._rows, self.rank, len(pivots)
        new = free[pivots]
        rest = free[_complement(pivots, len(free))]
        if rank:
            rows[:rank, rest] = self._mulsub(rows[:rank][:, rest], rows[:rank][:, new], x)
            rows[:rank, new] = 0
        added = rank + np.arange(k)
        rows[added, new] = 1
        rows[rank : rank + k, rest] = x
        self._pivot_row_of_col[new] = added
        self.rank = rank + k

    def add_pattern_rows(
        self,
        col_rows: np.ndarray,
        pattern: np.ndarray,
        batch: int = 512,
        stop_rank: Optional[int] = None,
    ) -> int:
        """Feed sparse rows sharing one value pattern: row i has
        pattern[k] at column col_rows[i, k] (no entry where that is -1).

        Rows are fed in batches of `batch`, and a later call continues from
        the basis of the earlier ones.  No further batch is fed once the
        rank reaches `stop_rank`, so the result is exactly the rank of all
        rows given whenever `stop_rank` is a proven upper bound for it (the
        column count always is).
        """
        ncols = self.ncols
        cap = ncols if stop_rank is None else min(stop_rank, ncols)
        pattern = np.asarray(pattern, dtype=np.int64)
        if len(pattern) * int(np.abs(pattern).max(initial=0)) * self.p >= 1 << 63:
            raise InvalidInputError("row pattern too large for int64 reduction")
        for start in range(0, len(col_rows), batch):
            if self.rank >= cap:
                break
            chunk = np.asarray(col_rows[start : start + batch], dtype=np.int64)
            self.rows_seen += len(chunk)
            free = np.flatnonzero(self._pivot_row_of_col < 0)
            dense = self._reduce_batch(chunk, pattern, free)
            if len(dense):
                self._extend(free, *self._rref(dense))
        return self.rank


def _free_col_rows(blocks: np.ndarray, free_index: np.ndarray, n: int) -> np.ndarray:
    """Per curve, the reduced-coordinate column of each of its 7 pairing
    keys (-1 where the key is a pivot and the entry is dropped)."""
    half = 1 << (n - 1)
    full = full_mask(n)
    b0, b1, b2, b3 = blocks[:, 0], blocks[:, 1], blocks[:, 2], blocks[:, 3]
    keys = (b0 | b1, b0 | b2, b0 | b3, b0, b1, b2, b3)
    return np.stack([free_index[_canon_cols(k, half, full)] for k in keys], axis=1)


#: Fixed seed for the row feed order.  Rank does not depend on row order,
#: but a decorrelated order saturates the pivot basis far sooner than the
#: enumeration order, whose neighboring partitions share most blocks.
_FEED_SEED = 0x5E7C0DE


def _feed_order(nrows: int) -> np.ndarray:
    return np.random.default_rng(_FEED_SEED).permutation(nrows)


def _feed_rows(
    elim: ModpEliminator, col_rows: np.ndarray, stop_rank: Optional[int] = None
) -> int:
    """Feed curve rows into the eliminator in the fixed decorrelated order;
    stops once the rank hits its proven cap."""
    return elim.add_pattern_rows(
        col_rows[_feed_order(len(col_rows))], _ROW_PATTERN, stop_rank=stop_rank
    )


def _check_orthogonal(
    col_rows: np.ndarray, reduced: dict[int, Fraction], free_index: np.ndarray, ncols: int
) -> None:
    """Exact int64 dot product of every row with the reduced coordinates,
    scaled by the lcm of their denominators; raises unless all vanish."""
    scale = lcm(*(v.denominator for v in reduced.values()))
    scaled = {int(free_index[m]): int(v * scale) for m, v in reduced.items()}
    width = len(_ROW_PATTERN)
    if width * max(abs(x) for x in scaled.values()) >= 1 << 63:
        raise InvalidInputError(
            "reduced coordinates too large for the int64 orthogonality check"
        )
    # one extra zero entry, so the -1 of a dropped pivot key reads 0
    coords = np.zeros(ncols + 1, dtype=np.int64)
    coords[list(scaled)] = list(scaled.values())
    dots = np.zeros(len(col_rows), dtype=np.int64)
    for k in range(width):
        dots += _ROW_PATTERN[k] * coords[col_rows[:, k]]
    if dots.any():
        raise AssertionError("zero-pairing row not orthogonal to the class")


def extremality_rank(
    d: DivisorClass,
    primes: Iterable[int] = DEFAULT_PRIMES,
    scan: Optional[FNefReport] = None,
) -> ExtremalityReport:
    """Rank certificate for extremality of an F-nef divisor.

    Collects every curve pairing to zero, maps each to its reduced
    coordinate row, and computes the modular rank per prime; reaching
    ambient-1 for any prime certifies the extremal ray.  `scan`, the
    caller's `fnef_check(d)`, saves scanning the curves a second time.
    """
    primes = tuple(primes)
    for p in primes:
        check_modulus(p)
    # a positive multiple spans the same ray, so the primitive part stands
    # in for d; its reduction fits int64 for the most coefficients
    reduced = reduce_canonical(d.primitive())
    if scan is None:
        scan = fnef_check(d)
    elif scan.n != d.n:
        raise InvalidInputError(f"scan is at n={scan.n}, the divisor at n={d.n}")
    if not scan.nonnegative:
        raise InvalidInputError(
            "divisor is not F-nef; extremality needs a member of the cone"
        )
    rs = relation_system(d.n)
    zero_blocks = fcurve_block_arrays(d.n)[scan.zero_mask()]
    col_rows = _free_col_rows(zero_blocks, rs.free_index, d.n)

    # Every zero row is an integer vector orthogonal to the reduced
    # coordinates of d, so when those are nonzero the rational rank is at
    # most ambient-1 and the modular rank (never larger) may stop there
    # exactly.  Check the orthogonality on every row.
    stop_rank = None
    if reduced:
        _check_orthogonal(col_rows, reduced, rs.free_index, rs.ambient_dim)
        stop_rank = rs.ambient_dim - 1

    ranks: dict[int, int] = {}
    for p in primes:
        elim = ModpEliminator(rs.ambient_dim, p)
        ranks[int(p)] = _feed_rows(elim, col_rows, stop_rank=stop_rank)
    certified = any(r == rs.ambient_dim - 1 for r in ranks.values())
    return ExtremalityReport(
        ambient_dim=rs.ambient_dim,
        zero_set_size=int(len(zero_blocks)),
        rank_mod_p=ranks,
        certified_extremal=certified,
    )


def projection_formula_report(
    d: DivisorClass,
    samples: Optional[int] = None,
    seed: int = 20260810,
) -> ProjectionFormulaReport:
    """Compare pairings of the pulled-back class at n+1 with pairings of the
    class against pushed-forward curves (contracted curves must pair 0).

    With samples=None the check is exhaustive over all curves at n+1;
    otherwise that many random 4-block partitions are drawn.
    """
    n = d.n
    lifted = pullback_forgetful(d)
    m = n + 1
    if samples is None:
        up_blocks = fcurve_block_arrays(m)
    else:
        rng = np.random.default_rng(seed)
        need = samples
        rows = []
        bits = (1 << np.arange(m, dtype=np.int64))[None, :]
        while need > 0:
            labels = rng.integers(0, 4, size=(int(need * 1.25) + 16, m))
            masks = np.stack(
                [((labels == k) * bits).sum(axis=1) for k in range(4)], axis=1
            )
            good = masks.all(axis=1)
            rows.append(masks[good])
            need = samples - sum(len(r) for r in rows)
        up_blocks = np.concatenate(rows)[:samples]

    lhs = pair_blocks(scan_table(lifted), up_blocks)

    last = 1 << n
    contracted = (up_blocks == last).any(axis=1)
    down_blocks = (up_blocks & ~last)[~contracted]
    rhs = pair_blocks(scan_table(d), down_blocks)

    mismatches = int(np.count_nonzero(lhs[contracted] != 0)) + int(
        np.count_nonzero(lhs[~contracted] != rhs)
    )
    return ProjectionFormulaReport(
        total=int(len(up_blocks)),
        contracted=int(np.count_nonzero(contracted)),
        mismatches=mismatches,
    )
