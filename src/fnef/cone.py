"""F-nefness scans, the counterexample verification, and extremality rank.

A divisor is F-nef when it pairs nonnegatively with every 4-block
partition class.  Extremality of an F-nef divisor inside the F-nef cone
is certified by the rank of its zero-pairing curves in reduced
coordinates: modular rank never exceeds rational rank, and the rational
rank is at most ambient-1 because the divisor itself annihilates every
row, so hitting ambient-1 modulo a single prime is already a proof.

The rank is computed in two stages.  A structural peel (singleton
propagation, as in the first pass of Faugere and Lachartre, PASCO 2010,
and of SpaSM, Bouillaguet and Delaplace, CASC 2016) settles the columns
that some row reaches alone; it is integer-exact and the same for every
prime.  The dense kernel `ModpEliminator` then ranks the rows restricted
to the columns left, modulo each prime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, Optional

import numpy as np

from .biplane import Biplane
from .divisors import (
    DivisorClass,
    biplane_block_star_divisor,
    biplane_divisor,
    canonical_divisor,
    check_int64_sums,
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
    pairing_values,
)
from .subsets import FCurve, check_memory, count_fcurves, fcurve_block_arrays

#: Fixed moduli for extremality certification, both just below the 2^31
#: cap that keeps the rank kernel's arithmetic exact: residue products stay
#: below 2^62 in int64, and the float64 matrix products on 16-bit halves
#: stay below 2^53 (see ModpEliminator).
DEFAULT_PRIMES = (2147483629, 2147483647)

#: An F-curve row's value at its seven keys b0|b1, b0|b2, b0|b3, b0, b1, b2,
#: b3 (`_free_col_rows`): the three unions with block 0 count +1, the blocks -1.
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
    identity divisor = symmetric - block star, as coefficients and as
    reduced coordinates; equal coefficients pair equally with every
    F-curve."""

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
    """`fnef` is the scan the zero set came from; a divisor that is not
    F-nef is ranked modulo no prime and is not certified."""

    ambient_dim: int
    fnef: FNefReport
    rank_mod_p: dict[int, int]
    certified_extremal: bool

    @property
    def zero_set_size(self) -> int:
        return self.fnef.zero_count


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
    curve attaining it, and the number of zero pairings.  The scan runs on
    one thread; `threads` accepts only 1."""
    if threads != 1:
        raise InvalidInputError(f"the scan runs on one thread, got threads={threads}")
    blocks = fcurve_block_arrays(d.n)
    values = pairing_values(d, blocks)
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


def verify_counterexample(bp: Biplane) -> CounterexampleReport:
    """Run the four-part check on the biplane divisor and its witness
    functional; the verdict requires F-nefness, nonnegative boundary
    values, nonnegative canonical pairing, and a negative divisor pairing.
    Also checks the decomposition identity.  The curves are scanned once."""
    div = biplane_divisor(bp)
    fnef = fnef_check(div)
    cert = certify_not_boundary(div, biplane_curve_functional(bp))
    decomposition = symmetric_divisor(12) - biplane_block_star_divisor(bp)
    # equal coefficients reduce equally; perfbench/selftest.py still wants
    # verify12's relation_system and reduce_canonical spans (ROADMAP item 1)
    decomposition_equal = div == decomposition and (
        reduce_canonical(div) == reduce_canonical(decomposition)
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


#: Largest modulus the rank kernel accepts (see DEFAULT_PRIMES).
MAX_MODULUS = 1 << 31


def check_modulus(p: int) -> None:
    """Raise InvalidInputError unless p is a prime no larger than 2^31.

    Below the cap, trial division by every odd number up to sqrt(p)
    (at most 23170 of them) is exact; p <= 2^31 fits the uint32 divisors.
    """
    if p > MAX_MODULUS:
        raise InvalidInputError(f"modulus {p} exceeds the cap 2^31")
    odd = np.arange(3, isqrt(max(p, 0)) + 1, 2, dtype=np.uint32)
    if p != 2 and (p < 3 or p % 2 == 0 or not np.all(p % odd)):
        raise InvalidInputError(f"modulus {p} is not prime")


def _complement(idx: np.ndarray, width: int) -> np.ndarray:
    """The positions in range(width) not in idx, increasing."""
    keep = np.ones(width, dtype=bool)
    keep[idx] = False
    return np.flatnonzero(keep)


class ModpEliminator:
    """Incremental Gaussian elimination over a prime field, in blocks.

    The basis is one reduced row echelon form in `_rref`'s shape (pivots, x),
    rank x (ncols - rank) residues.  Rows arrive in batches; a batch is
    cleared of the pivot columns by a few sparse gathers of basis rows and
    joins the basis through `_stack`, the merge step that ends `_rref`.

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

    `peeled` columns settled before the rows arrive (`_structural_peel`)
    count in `rank`; the dense basis covers only the `ncols` columns left,
    so the rows fed must already be restricted to those.  The basis and
    its copies while a batch joins it hold at most 3 ncols^2/4 residues
    besides the batch's rows; 8 ncols^2 bytes beyond physical memory is
    refused up front.
    """

    MAX_COLUMNS = 1 << 17
    #: Row count at which the recursive elimination switches to row-by-row.
    BASE_ROWS = 32
    #: Rows per block of a product, which bounds the temporaries.
    BLOCK_ROWS = 256

    def __init__(self, ncols: int, p: int, peeled: int = 0):
        check_modulus(p)
        if ncols >= self.MAX_COLUMNS:
            raise InvalidInputError(f"{ncols} columns reach the cap 2^17")
        check_memory(8 * ncols * ncols, f"a rank basis on {ncols} columns")  # int64
        self.ncols = ncols
        self.p = p
        self.peeled = peeled
        self.rank = peeled
        self.rows_seen = 0
        self._pivots = np.zeros(0, dtype=np.int64)
        self._x = np.zeros((0, ncols), dtype=np.int64)

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
        pivots and joins it (`_stack`)."""
        if len(a) <= self.BASE_ROWS:
            return self._rref_rows(a)
        half = len(a) // 2
        piv1, x1 = self._rref(a[:half])
        rest1 = _complement(piv1, a.shape[1])
        return self._stack(piv1, x1, self._mulsub(a[half:, rest1], a[half:, piv1], x1))

    def _stack(
        self, piv1: np.ndarray, x1: np.ndarray, bottom: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The echelon form (piv1, x1) joined by the rows of `bottom`, which
        are already 0 at piv1 and given on the other columns: they are
        reduced on those (zero rows dropped), and x1 is cleared of their
        pivots with one product."""
        bottom = bottom[bottom.any(axis=1)]
        if not len(bottom):
            return piv1, x1
        rest1 = _complement(piv1, len(piv1) + bottom.shape[1])
        piv2, x2 = self._rref(bottom)
        rest2 = _complement(piv2, len(rest1))
        x1 = self._mulsub(x1[:, rest2], x1[:, piv2], x2)
        return np.concatenate([piv1, rest1[piv2]]), np.vstack([x1, x2])

    def _reduce_batch(self, chunk: np.ndarray) -> np.ndarray:
        """The batch's rows cleared of every pivot column, as residues on
        the free columns."""
        pivots = self._pivots
        free = _complement(pivots, self.ncols)
        # a free column's position among the free ones; a pivot column's
        # basis row i as ~i, so that negative means pivot
        at = np.empty(self.ncols, dtype=np.int64)
        at[free] = np.arange(len(free))
        at[pivots] = ~np.arange(len(pivots))
        dense = np.zeros((len(chunk), len(free)), dtype=np.int64)
        for k in range(chunk.shape[1]):
            row_k = np.flatnonzero(chunk[:, k] >= 0)
            at_k = at[chunk[row_k, k]]
            on_pivot = at_k < 0
            dense[row_k[~on_pivot], at_k[~on_pivot]] += _ROW_PATTERN[k]
            if on_pivot.any():
                # a pivot entry v = +-1 is cleared by v times its basis row,
                # which is 0 at every other pivot; |entry| <= 7p < 2^63
                dense[row_k[on_pivot]] -= _ROW_PATTERN[k] * self._x[~at_k[on_pivot]]
        dense %= self.p
        return dense

    def add_pattern_rows(
        self, col_rows: np.ndarray, batch: int = 512, stop_rank: Optional[int] = None
    ) -> int:
        """Feed F-curve rows: row i has `_ROW_PATTERN[k]` at column
        col_rows[i, k] (no entry where that is -1).  Every entry is +-1 and
        p <= 2^31, so clearing a row's at most 7 pivot entries keeps its
        values below 7p < 2^63.

        Rows are fed in batches of `batch`, and a later call continues from
        the basis of the earlier ones.  No further batch is fed once the
        rank reaches `stop_rank`, so the result is exactly the rank of all
        rows given whenever `stop_rank` is a proven upper bound for it (the
        column count plus `peeled` always is).  Returns `rank`, peeled
        columns included.
        """
        full = self.peeled + self.ncols
        cap = full if stop_rank is None else min(stop_rank, full)
        for start in range(0, len(col_rows), batch):
            if self.rank >= cap:
                break
            chunk = np.asarray(col_rows[start : start + batch], dtype=np.int64)
            self.rows_seen += len(chunk)
            self._pivots, self._x = self._stack(self._pivots, self._x, self._reduce_batch(chunk))
            self.rank = self.peeled + len(self._pivots)
        return self.rank


def _free_col_rows(blocks: np.ndarray, free_index: np.ndarray) -> np.ndarray:
    """Per curve, the reduced-coordinate column of each of its 7 pairing
    keys (-1 where the key is a pivot and the entry is dropped).  The table
    is indexed by every subset mask, `free_index` followed by its reverse,
    as in `pairing_values`."""
    cols = np.concatenate([free_index, free_index[::-1]])
    b0, b1, b2, b3 = blocks[:, 0], blocks[:, 1], blocks[:, 2], blocks[:, 3]
    keys = (b0 | b1, b0 | b2, b0 | b3, b0, b1, b2, b3)
    return np.stack([cols[k] for k in keys], axis=1)


def _structural_peel(col_rows: np.ndarray, ncols: int) -> tuple[int, np.ndarray, int]:
    """Singleton propagation to a fixpoint over F-curve rows: row i has
    `_ROW_PATTERN[k]` at column col_rows[i, k] (no entry where that is -1).

    The columns of a row are pairwise distinct, because its seven keys
    b0|b1, b0|b2, b0|b3, b0, b1, b2, b3 are and no two of them are
    complements.  The blocks are nonempty and disjoint, so no block equals
    another block or a union of two, and no two of the unions are equal.
    The complement of a block is a union of three blocks, and that of
    b0|bi the union of the two blocks other than b0; neither is among the
    seven.  So the seven canonical keys differ, and `free_index` maps them
    to distinct columns or to -1.  Each entry is therefore the row's
    coefficient at its column, +-1.

    A column is covered once some row has it as its only uncovered column;
    where several rows compete for one column, one of them takes it.  Each
    taking row touches only columns covered before it, so these rows, in
    the order they took their columns, are triangular with a unit diagonal.
    Over the integers, and hence modulo every prime, they span exactly the
    unit vectors of the covered columns.  Every other row therefore reduces
    to its restriction to the columns left, again an F-curve row with
    fewer entries, and the rank of all rows is the covered count plus the
    rank of the restricted rows.

    Returns the covered count, the restricted rows with an entry left
    (columns renumbered in increasing order, -1 where an entry was
    dropped), and the number of columns left.
    """
    # one extra column, always covered, where the -1 entries read
    covered = np.zeros(ncols + 1, dtype=bool)
    covered[-1] = True
    while True:
        uncovered = ~covered[col_rows]
        single = np.flatnonzero(np.count_nonzero(uncovered, axis=1) == 1)
        new = col_rows[single, uncovered[single].argmax(axis=1)]
        if not new.size:
            break
        covered[new] = True
    left = np.flatnonzero(~covered[:ncols])
    index = np.full(ncols + 1, -1, dtype=np.int64)
    index[left] = np.arange(len(left))
    keep = (~covered[col_rows]).any(axis=1)
    return ncols - len(left), index[col_rows[keep]], len(left)


#: Fixed seed for the row feed order.  Rank does not depend on row order,
#: but a decorrelated order saturates the pivot basis far sooner than the
#: enumeration order, whose neighboring partitions share most blocks.
_FEED_SEED = 0x5E7C0DE


def _feed_order(nrows: int) -> np.ndarray:
    return np.random.default_rng(_FEED_SEED).permutation(nrows)


def _check_orthogonal(
    col_rows: np.ndarray, reduced: dict[int, int], free_index: np.ndarray, ncols: int
) -> None:
    """Exact int64 dot product of every row with the reduced coordinates;
    raises unless all vanish."""
    check_int64_sums(reduced.values(), len(_ROW_PATTERN), "orthogonality check")
    # one extra zero entry, so the -1 of a dropped pivot key reads 0
    coords = np.zeros(ncols + 1, dtype=np.int64)
    coords[free_index[list(reduced)]] = list(reduced.values())
    dots = np.zeros(len(col_rows), dtype=np.int64)
    for k in range(len(_ROW_PATTERN)):
        dots += _ROW_PATTERN[k] * coords[col_rows[:, k]]
    if dots.any():
        raise AssertionError("zero-pairing row not orthogonal to the class")


def extremality_rank(
    d: DivisorClass, primes: Iterable[int] = DEFAULT_PRIMES
) -> ExtremalityReport:
    """Rank certificate for extremality of an F-nef divisor.

    Scans the curves once (`fnef_check`), collects every curve pairing to
    zero, maps each to its reduced coordinate row, and computes the modular
    rank per distinct prime; reaching ambient-1 for any prime certifies the
    extremal ray.  A divisor that is not F-nef is not in the cone: it is
    ranked modulo no prime and not certified.

    The rows are peeled once (`_structural_peel`): the rows that take a
    column are triangular with a unit diagonal over the integers, so they
    span the unit vectors of the covered columns modulo every prime, and
    the rank is the covered count plus the rank of the other rows
    restricted to the columns left.  Only those restricted rows reach
    `ModpEliminator`, once per prime, on a basis of the columns left.  At
    n=12 the biplane divisor's 124366 zero rows cover 1331 of the 1981
    columns, and 76296 of them touch the 650 left; every curve together
    covers all 1981, so the full matrix feeds no row.
    """
    primes = tuple(dict.fromkeys(primes))
    for p in primes:
        check_modulus(p)
    # a positive multiple spans the same ray, so the primitive part stands
    # in for d; its reduction fits int64 for the most coefficients
    reduced = reduce_canonical(d.primitive())
    fnef = fnef_check(d)
    rs = relation_system(d.n)
    if not fnef.nonnegative:
        return ExtremalityReport(rs.ambient_dim, fnef, {}, False)
    zero_blocks = fcurve_block_arrays(d.n)[fnef.zero_mask()]
    col_rows = _free_col_rows(zero_blocks, rs.free_index)

    # Every zero row is an integer vector orthogonal to the reduced
    # coordinates of d, so when those are nonzero the rational rank is at
    # most ambient-1 and the modular rank (never larger) may stop there
    # exactly.  Check the orthogonality on every row.
    stop_rank = None
    if reduced:
        _check_orthogonal(col_rows, reduced, rs.free_index, rs.ambient_dim)
        stop_rank = rs.ambient_dim - 1

    # the peel is integer-exact, so one peel serves every prime, and so does
    # one permutation of the rows left into the fixed decorrelated order
    peeled, rest_rows, rest_cols = _structural_peel(col_rows, rs.ambient_dim)
    rest_rows = rest_rows[_feed_order(len(rest_rows))]
    ranks: dict[int, int] = {}
    for p in primes:
        elim = ModpEliminator(rest_cols, p, peeled=peeled)
        ranks[int(p)] = elim.add_pattern_rows(rest_rows, stop_rank=stop_rank)
    certified = any(r == rs.ambient_dim - 1 for r in ranks.values())
    return ExtremalityReport(
        ambient_dim=rs.ambient_dim,
        fnef=fnef,
        rank_mod_p=ranks,
        certified_extremal=certified,
    )


#: Fixed seed for the sampled partitions of `projection_formula_report`.
_SAMPLE_SEED = 20260810


def projection_formula_report(
    d: DivisorClass, samples: Optional[int] = None
) -> ProjectionFormulaReport:
    """Compare pairings of the pulled-back class at n+1 with pairings of the
    class against pushed-forward curves (contracted curves must pair 0).

    With samples=None the check is exhaustive over all curves at n+1;
    otherwise that many random 4-block partitions are drawn, at least one.
    """
    if samples is not None and samples < 1:
        raise InvalidInputError(f"sample count must be positive, got {samples}")
    n = d.n
    lifted = pullback_forgetful(d)
    m = n + 1
    if samples is None:
        up_blocks = fcurve_block_arrays(m)
    else:
        # the first draw is the largest: its int64 labels, their int64
        # product with the bits and the boolean comparison (17 bytes per
        # label), then 64 bytes per row for the four masks and their stack
        draw = int(samples * 1.25) + 16
        check_memory(draw * (17 * m + 64), f"sampling {samples} partitions")
        rng = np.random.default_rng(_SAMPLE_SEED)
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

    lhs = pairing_values(lifted, up_blocks)

    last = 1 << n
    contracted = (up_blocks == last).any(axis=1)
    down_blocks = (up_blocks & ~last)[~contracted]
    rhs = pairing_values(d, down_blocks)

    mismatches = int(np.count_nonzero(lhs[contracted] != 0)) + int(
        np.count_nonzero(lhs[~contracted] != rhs)
    )
    return ProjectionFormulaReport(
        total=int(len(up_blocks)),
        contracted=int(np.count_nonzero(contracted)),
        mismatches=mismatches,
    )
