"""F-nefness scans, the counterexample verification, and extremality rank.

A divisor is F-nef when it pairs nonnegatively with every 4-block
partition class.  Extremality of an F-nef divisor inside the F-nef cone
is certified by the rank of its zero-pairing curves in reduced
coordinates: modular rank never exceeds rational rank, and the rational
rank is at most ambient-1 because the divisor itself annihilates every
row, so hitting ambient-1 modulo a single prime is already a proof.

The rank is computed in two stages.  A structural peel settles every
column the rows touch: singleton propagation, as in the first pass of
Faugere and Lachartre (PASCO 2010) and of SpaSM (Bouillaguet and
Delaplace, CASC 2016), and where it stalls a column is set aside and the
cascade resumes, the "heavy column" step of structured Gaussian
elimination (LaMacchia and Odlyzko, CRYPTO 1990; Pomerance and Smith,
Experimental Math. 1, 1992).  The peel is integer-exact and the same for
every prime, and so is the Schur map it builds once, in int64, from the
columns to the few set-aside ones; an input whose map would leave int64 is
refused.  The kernel `ModpEliminator` then ranks, modulo each prime, the
rows' images through that map, one pivot at a time in int64, which is
exact: residues are below p <= 2^31, so every product of two is below
2^62.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, Iterator, Optional

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
    ROW_PATTERN,
    _SCAN_ROWS,
    CurveFunctional,
    biplane_curve_functional,
    check_relations,
    full_width,
    pair_divisor_functional,
    pairing_values,
    row_keys,
    scan_dtype,
    scan_fcurves,
)
from .subsets import (
    FCurve,
    check_memory,
    count_fcurves,
    exact_int,
    fcurve_at,
    fcurve_block_arrays,
    slot_heads,
    slot_layout,
)

#: Fixed moduli for extremality certification, both just below the 2^31
#: cap that keeps the rank kernel's arithmetic exact: residue products stay
#: below 2^62 in int64 (see ModpEliminator).
DEFAULT_PRIMES = (2147483629, 2147483647)


@dataclass(frozen=True)
class FNefReport:
    """One scan of every F-curve (`fnef_check`).  `argmin` is the first
    curve in enumeration order at `min_value`.  `zero_bits` marks the curves
    pairing to zero over the scan's padded slots (`scan_fcurves`), in slot
    order, packed 8 to a byte; it is the only per-curve array the report
    keeps."""

    n: int
    min_value: int
    argmin: FCurve
    zero_count: int
    nonnegative: bool
    zero_bits: np.ndarray = field(repr=False, compare=False)

    def zero_mask(self) -> np.ndarray:
        """Boolean mask of the zero-pairing curves, indexed like the rows of
        fcurve_block_arrays(n): on each call, `zero_bits` unpacked at the
        valid slots of every prefix (`subsets.slot_heads`), in slot order,
        a byte per slot twice.  No library path reads it: the rank path
        builds its zero rows from `zero_bits` (`fcurve_block_arrays`)."""
        s, _, opened, _, _ = slot_layout(self.n)
        valid = np.concatenate([slot_heads(s)[u][1] for u in opened.tolist()])
        return np.unpackbits(self.zero_bits).view(bool)[valid]


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
    identity divisor = symmetric - block star, as coefficients; equal
    coefficients pair equally with every F-curve."""

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


def fnef_check(d: DivisorClass, threads: int = 1) -> FNefReport:
    """Scan every F-curve once; report the exact minimum pairing, the first
    curve attaining it, and the number of zero pairings.  The scan runs on
    one thread; `threads` accepts only 1.

    The scan (`scan_fcurves`) reduces its chunks as they come and keeps one
    bit per slot, refused before any scan when it would not fit in
    physical memory (InvalidInputError).  The argmin is unranked from its
    enumeration index (`fcurve_at`), so no partition array is built.
    """
    if exact_int(threads, "threads") != 1:
        raise InvalidInputError(f"the scan runs on one thread, got threads={threads}")
    low, index, zeros, bits = scan_fcurves(d)
    return FNefReport(d.n, low, fcurve_at(d.n, index), zeros, low >= 0, bits)


def verify_counterexample(bp: Biplane) -> CounterexampleReport:
    """Run the four-part check on the biplane divisor and its witness
    functional; the verdict requires F-nefness, nonnegative boundary
    values, nonnegative canonical pairing, and a negative divisor pairing.
    Also checks the decomposition identity.  The curves are scanned once."""
    div = biplane_divisor(bp)
    fnef = fnef_check(div)
    cert = certify_not_boundary(div, biplane_curve_functional(bp))
    decomposition = symmetric_divisor() - biplane_block_star_divisor(bp)
    return CounterexampleReport(
        fnef=fnef,
        certificate=cert,
        decomposition_equal=div == decomposition,
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


def check_modulus(p: int) -> int:
    """`p` as a Python int (`exact_int`); raises InvalidInputError unless
    it is a prime no larger than 2^31.

    Below the cap, trial division by every odd number up to sqrt(p)
    (at most 23170 of them) is exact; p <= 2^31 fits the uint32 divisors.
    """
    p = exact_int(p, "modulus")
    if p > MAX_MODULUS:
        raise InvalidInputError(f"modulus {p} exceeds the cap 2^31")
    odd = np.arange(3, isqrt(max(p, 0)) + 1, 2, dtype=np.uint32)
    if p != 2 and (p < 3 or p % 2 == 0 or not np.all(p % odd)):
        raise InvalidInputError(f"modulus {p} is not prime")
    return p


@dataclass(frozen=True, eq=False)
class Peel:
    """The structural peel of F-curve rows (`_structural_peel`): every column
    some row touches is either taken by one row or set aside.

    `taken` counts the taken columns, `singletons` those covered before the
    first set-aside, and `aside` lists the set-aside columns in the order
    they were set aside.  `schur` is the Schur map over the integers, a
    read-only int64 array of (columns + 1) rows and one column per set-aside
    column: modulo the rows that took a column, which are triangular with a
    +-1 diagonal and so invertible over the integers, every unit vector is
    an integer combination of those of the set-aside columns, and row c of
    `schur` gives it for column c.

    - schur[a] = e_j for the j-th set-aside column a;
    - schur[c] = -s * sum(other entries * schur[col]) for a column c taken
      after the first set-aside by a row with coefficient s at c, filled in
      peel order, so every schur[col] read is already final;
    - a column covered before the first set-aside, a column no row touches
      and the -1 entries (the last row) map to 0.

    A row's Schur row is its image through `schur`, the same integer vector
    for every prime, so the rank of the rows over the rationals or modulo
    any prime is `taken` plus the rank of their Schur rows.
    """

    taken: int
    singletons: int
    aside: np.ndarray
    schur: np.ndarray


def _pattern_sum(x: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """sum_k ROW_PATTERN[k] * x[keys[k]] for the seven key columns of some
    F-curve rows, one array per key (-1 reads the last row of x): the one
    signed seven-key sum, for the Schur map's fill, the Schur rows and the
    orthogonality dots.  Every entry and partial sum is at most 7 max|x| in
    size, which each caller keeps below 2^63."""
    out = np.zeros((keys.shape[1], x.shape[1]), dtype=np.int64)
    for sign, cols in zip(ROW_PATTERN.tolist(), keys):
        (np.add if sign > 0 else np.subtract)(out, x.take(cols, axis=0), out=out)
    return out


#: Rows per batch of `ModpEliminator.add_pattern_rows`.  At n=12 the first
#: batch already reaches rank 1980.
_BATCH = 512


class ModpEliminator:
    """Incremental Gaussian elimination over a prime field of the Schur
    complement that a structural peel leaves.

    A row's Schur row is its image through the peel's integer Schur map
    (`Peel.schur`), read as residues modulo p; the map is the peel's own,
    not a copy, so every prime reads the one map.  The rank of the rows
    modulo p is `taken` plus the rank of their Schur rows, on k columns
    (`ncols`).

    The basis is a list of (pivot column, row) pairs in the order the
    pivots were found: each row is 1 at its pivot and 0 at every earlier
    pivot.  A batch's Schur rows are reduced by the basis rows in that
    order, which clears every pivot column; then each column still nonzero
    in some row takes the first such row, scaled to 1 there, as a new pivot
    and is cleared from the batch.  Every entry is a residue below
    p <= 2^31, so every product of two is below 2^62 and the int64
    arithmetic is exact.  The basis takes at most 8 k^2 bytes.
    """

    def __init__(self, peel: Peel, p: int):
        check_modulus(p)
        self.ncols = len(peel.aside)
        self.p = p
        self.taken = peel.taken
        self.rank = peel.taken
        self.rows_seen = 0
        self._schur = peel.schur
        self._basis: list[tuple[int, np.ndarray]] = []

    def add_pattern_rows(self, col_rows: np.ndarray, stop_rank: Optional[int] = None) -> int:
        """Feed F-curve rows: row i has `ROW_PATTERN[k]` at column
        col_rows[i, k] of the peel's columns (no entry where that is -1).

        Rows are fed in batches of `_BATCH`, and a later call continues from
        the basis of the earlier ones.  No further batch is fed once the
        rank reaches `stop_rank`, so the result is exactly the rank of all
        rows given (the taking rows among them) whenever `stop_rank` is a
        proven upper bound for it (`taken` plus k always is).  Returns
        `rank`, taken columns included.
        """
        p = self.p
        cap = self.taken + self.ncols
        if stop_rank is not None:
            cap = min(stop_rank, cap)
        for start in range(0, len(col_rows), _BATCH):
            if self.rank >= cap:
                break
            chunk = np.asarray(col_rows[start : start + _BATCH], dtype=np.int64)
            self.rows_seen += len(chunk)
            rows = _pattern_sum(self._schur, chunk.T) % p
            for j, row in self._basis:
                rows -= np.outer(rows[:, j], row)
                rows %= p
            for j in range(self.ncols):
                hit = np.flatnonzero(rows[:, j])
                if hit.size:
                    row = rows[hit[0]] * pow(int(rows[hit[0], j]), -1, p) % p
                    self._basis.append((j, row))
                    rows -= np.outer(rows[:, j], row)
                    rows %= p
            self.rank = self.taken + len(self._basis)
        return self.rank


def _free_col_rows(blocks: np.ndarray, free_index: np.ndarray) -> np.ndarray:
    """Per curve, the reduced-coordinate column of each of its 7 pairing
    keys (-1 where the key is a pivot and the entry is dropped), read by
    `row_keys` from `free_index` at full width.  The rows are stored key by
    key: the result is the transpose of a C-contiguous (7, N) int64 array,
    so each key's columns are contiguous for the peel's gathers."""
    out = np.empty((len(ROW_PATTERN), len(blocks)), dtype=np.int64)
    return row_keys(full_width(free_index), blocks, out).T


def _structural_peel(col_rows: np.ndarray, ncols: int) -> Peel:
    """Singleton propagation with set-asides, over F-curve rows: row i has
    `ROW_PATTERN[k]` at column col_rows[i, k] (no entry where that is -1).

    The columns of a row are pairwise distinct: its seven keys name seven
    distinct generators (`row_keys`), which `free_index` maps to distinct
    columns or to -1.  Each entry is therefore the row's coefficient at its
    column, +-1.

    A column is covered once some row has it as its only uncovered column;
    where several rows compete for one column, the first takes it.  When no
    row has exactly one uncovered column, one column is set aside (it
    counts as covered from then on) and the cascade resumes: the uncovered
    column that occurs most often among the rows with the fewest uncovered
    entries, the lowest such column on ties.  The peel ends when no row has
    an uncovered column; the columns still uncovered then occur in no row.

    Each taking row's other entries lie in columns covered before its round
    or set aside, so the taking rows, in the order they took their columns,
    restricted to the taken columns, are triangular with a +-1 diagonal:
    invertible over the integers and modulo every prime.  The rank of all
    rows is therefore the taken count plus the rank of their Schur
    complement on the set-aside columns, their images through the Schur
    map (`Peel.schur`).  After the cascade the map is filled once, over the
    integers, round by round.  It is refused before it is allocated when
    its 8 (ncols + 1) k bytes would not fit in physical memory, and once a
    round's fill leaves an entry whose sums of seven could leave int64
    (InvalidInputError); so every Schur row is exact in int64.
    """
    keys = col_rows.T
    # one extra column, never uncovered, where the -1 entries read
    uncovered_col = np.ones(ncols + 1, dtype=bool)
    uncovered_col[-1] = False
    aside: list[int] = []
    rounds = []
    while True:
        uncovered = uncovered_col[keys]
        count = uncovered.sum(axis=0, dtype=np.int8)
        single = np.flatnonzero(count == 1)
        if single.size:
            own = uncovered[:, single].argmax(axis=0)
            new = keys[own, single]
            if aside:
                # one taking row per column, kept for the Schur map
                new, first = np.unique(new, return_index=True)
                single, own = single[first], own[first]
                rounds.append((new, keys[:, single], ROW_PATTERN[own]))
            uncovered_col[new] = False
            continue
        # the fewest uncovered entries of a row that has any: a count c
        # reads c - 1 as uint8 and a dead row's 0 wraps to 255, so the
        # smallest positive count is the minimum plus 1, 256 when none is
        low = int((count - 1).view(np.uint8).min(initial=255)) + 1
        if low == 256:
            break
        fewest = count == low
        heavy = int(np.bincount(keys[uncovered & fewest]).argmax())
        aside.append(heavy)
        uncovered_col[heavy] = False
    covered = ncols - int(np.count_nonzero(uncovered_col[:ncols]))
    k = len(aside)
    check_memory(8 * (ncols + 1) * k, f"a Schur map on {k} columns")  # int64
    schur = np.zeros((ncols + 1, k), dtype=np.int64)
    schur[aside, np.arange(k)] = 1
    for cols, round_keys, signs in rounds:
        # the taking row's own column is still 0 here
        schur[cols] = -signs[:, None] * _pattern_sum(schur, round_keys)
        check_int64_sums(schur[cols].ravel().tolist(), len(ROW_PATTERN), "the Schur map")
    schur.flags.writeable = False
    return Peel(
        taken=covered - k,
        singletons=covered - k - sum(len(cols) for cols, _, _ in rounds),
        aside=np.array(aside, dtype=np.int64),
        schur=schur,
    )


def _check_orthogonal(
    col_rows: np.ndarray, reduced: dict[int, int], free_index: np.ndarray, ncols: int
) -> None:
    """Exact int64 dot product of every row with the reduced coordinates;
    raises unless all vanish."""
    check_int64_sums(reduced.values(), len(ROW_PATTERN), "orthogonality check")
    # one extra zero entry, so the -1 of a dropped pivot key reads 0
    coords = np.zeros(ncols + 1, dtype=np.int64)
    coords[free_index[list(reduced)]] = list(reduced.values())
    if _pattern_sum(coords[:, None], col_rows.T).any():
        raise AssertionError("zero-pairing row not orthogonal to the class")


def extremality_rank(
    d: DivisorClass, primes: Iterable[int] = DEFAULT_PRIMES
) -> ExtremalityReport:
    """Rank certificate for extremality of an F-nef divisor.

    Scans the curves once (`fnef_check`), collects every curve pairing to
    zero, maps each to its reduced coordinate row, and computes the modular
    rank per distinct prime; reaching ambient-1 for any prime certifies the
    extremal ray.  At least one prime is required (InvalidInputError before
    any scan).  A divisor that is not F-nef is not in the cone: it is
    ranked modulo no prime and not certified.

    The rows are peeled once (`_structural_peel`): every column is taken by
    a row or set aside, and the taking rows are triangular with a +-1
    diagonal, so the rank is the taken count plus the rank of the Schur
    complement on the set-aside columns.  The peel builds the one integer
    Schur map (`Peel.schur`) for every prime, and `ModpEliminator` ranks
    the rows' images through it modulo each prime, feeding the zero rows
    in enumeration order.  At n=12 the biplane divisor's 124366 zero rows
    cover 1331 of the 1981 columns before the peel first stalls; 4 columns
    are set aside and 1977 taken, every entry of the map is in -2..2, and
    the first 512 rows reach rank 1980.  Every curve together peels all
    1981 columns with none set aside, so the full matrix feeds no row.

    Only the zero rows are built, straight from the scan's zero bits in
    its slot layout (`fcurve_block_arrays(n, fnef.zero_bits)`), and they
    are refused once the scan has counted them, before any is built, when
    the rank path's largest peak would not fit in physical memory
    (InvalidInputError): 84 bytes per zero curve, the 16 of its block
    masks, the 56 of its seven int64 columns and 12 of per-key
    temporaries while the columns are built.  The orthogonality check
    (about 80) and the peel (about 78) hold less.
    """
    primes = tuple(dict.fromkeys(map(check_modulus, primes)))
    if not primes:
        raise InvalidInputError("extremality is ranked modulo at least one prime, got none")
    # a positive multiple spans the same ray, so the primitive part stands
    # in for d; its reduction fits int64 for the most coefficients
    reduced = reduce_canonical(d.primitive())
    fnef = fnef_check(d)
    rs = relation_system(d.n)
    if not fnef.nonnegative:
        return ExtremalityReport(rs.ambient_dim, fnef, {}, False)
    check_memory(84 * fnef.zero_count, f"ranking {fnef.zero_count} zero curves")
    col_rows = _free_col_rows(fcurve_block_arrays(d.n, fnef.zero_bits), rs.free_index)

    # Every zero row is an integer vector orthogonal to the reduced
    # coordinates of d, so when those are nonzero the rational rank is at
    # most ambient-1 and the modular rank (never larger) may stop there
    # exactly.  Check the orthogonality on every row.
    stop_rank = None
    if reduced:
        _check_orthogonal(col_rows, reduced, rs.free_index, rs.ambient_dim)
        stop_rank = rs.ambient_dim - 1

    # the peel and its Schur map are integer-exact, so they serve every
    # prime; every zero row is fed, in enumeration order, and the taking
    # rows map to 0
    peel = _structural_peel(col_rows, rs.ambient_dim)
    ranks: dict[int, int] = {}
    for p in primes:
        ranks[p] = ModpEliminator(peel, p).add_pattern_rows(col_rows, stop_rank=stop_rank)
    certified = any(r == rs.ambient_dim - 1 for r in ranks.values())
    return ExtremalityReport(
        ambient_dim=rs.ambient_dim,
        fnef=fnef,
        rank_mod_p=ranks,
        certified_extremal=certified,
    )


#: Fixed seed for the sampled partitions of `projection_formula_report`.
_SAMPLE_SEED = 20260810


def _label_masks(k: int) -> np.ndarray:
    """Per base-4 code of k labels, label j at weight 4^j, the masks of the
    markings j labelled 0, 1, 2 and 3: a (4^k, 4) int32 table."""
    table = np.zeros((1, 4), dtype=np.int32)
    for j in reversed(range(k)):
        table = (table[:, None, :] | (np.eye(4, dtype=np.int32) << j)).reshape(-1, 4)
    return table


def _sample_partitions(m: int, samples: int) -> Iterator[np.ndarray]:
    """`samples` seeded random 4-block partitions of {1..m}, as chunks of
    (rows, 4) int32 masks with the blocks in label order.

    Each chunk labels every marking of at most `_SCAN_ROWS` rows 0..3 at
    random, a quarter more rows than are still needed and 16 more, and
    keeps the rows with no empty block, as many as are needed.  A label is
    the top two bits of one 32-bit draw, the low half of each 64-bit word
    of the bit generator first: the label `integers(0, 4, dtype=np.int32)`
    draws, as Lemire's method at range 4 keeps those bits and never
    rejects.  A chunk draws an even number of rows, so whole words, and the
    rows kept are the first `samples` valid rows of the seed's stream
    whatever the chunk sizes.  Each half of a row's labels, read as a
    base-4 code, looks up the set of labels it holds, and a row is kept
    when its two sets hold all four; then each half of a kept row looks up
    its four masks (`_label_masks`).  So every temporary is a chunk's.
    """
    h = m // 2
    # a row's four masks as one 16-byte record, so a take copies them at once
    record = np.dtype((np.void, 16))
    low, high = _label_masks(h), _label_masks(m - h) << h
    # per code, the labels it holds as a 4-bit set, label j at bit j
    present_low, present_high = ((t != 0) @ np.uint8([1, 2, 4, 8]) for t in (low, high))
    low, high = low.view(record).ravel(), high.view(record).ravel()
    # base-4 weights of the high half's labels; the low half has no more
    weights = 4 ** np.arange(m - h, dtype=np.int32)
    rng = np.random.default_rng(_SAMPLE_SEED)
    need = samples
    while need > 0:
        rows = min(_SCAN_ROWS, need * 5 // 4 + 16)
        rows += rows & 1
        labels = rng.bit_generator.random_raw(rows * m // 2).view(np.uint32)
        labels >>= 30
        labels = labels.view(np.int32).reshape(rows, m)
        code_low, code_high = labels[:, :h] @ weights[:h], labels[:, h:] @ weights
        present = present_low.take(code_low) | present_high.take(code_high)
        full = np.flatnonzero(present == 15)[:need]
        masks = low.take(code_low[full]).view(np.int32).reshape(-1, 4)
        masks |= high.take(code_high[full]).view(np.int32).reshape(-1, 4)
        need -= len(masks)
        yield masks


def check_sample_count(samples: Optional[int]) -> Optional[int]:
    """`samples` as a Python int (`exact_int`), or None (exhaustive); raises
    InvalidInputError unless it is None or positive
    (`projection_formula_report`)."""
    if samples is not None:
        samples = exact_int(samples, "sample count")
        if samples < 1:
            raise InvalidInputError(f"sample count must be positive, got {samples}")
    return samples


def projection_formula_report(
    d: DivisorClass, samples: Optional[int] = None
) -> ProjectionFormulaReport:
    """Compare pairings of the pulled-back class at n+1 with pairings of the
    class against pushed-forward curves (contracted curves must pair 0).

    With samples=None the check is exhaustive over all curves at n+1;
    otherwise that many random 4-block partitions are drawn, at least one,
    and each chunk of them is counted as it is drawn (`_sample_partitions`),
    so no array of every sample is built.

    A curve at n+1 is contracted when {n+1} is one of its blocks; its image
    at n drops marking n+1.  The image class, d read at each key of n+1
    markings with marking n+1 dropped (`full_width`), pairs with a curve at
    n+1 as d pairs with the curve's image at n, and pairs 0 with a
    contracted curve (B0, B1, B2, {n+1}): at n the sides B0|B1 and B0|B2
    name the generators B2 and B1, so its four other terms cancel.  So the
    curves that break the formula are exactly those that pair nonzero with
    the difference of the lifted class and the image, one class at n+1
    taken as one int64 table, scanned once.  Each curve at n lifts to four
    curves at n+1, one per block that n+1 joins, and every other curve at
    n+1 is contracted.
    """
    samples = check_sample_count(samples)
    n = d.n
    lifted = pullback_forgetful(d)
    # refuse both classes as their scans would: every coefficient is then
    # below 2^63 / 7, so their int64 tables and their difference are exact
    scan_dtype(lifted), scan_dtype(d)
    table = lifted.dense_table() - full_width(d.dense_table())
    live = np.flatnonzero(table)
    diff = DivisorClass(n + 1, dict(zip(live.tolist(), table[live].tolist())))
    if samples is None:
        total = count_fcurves(n + 1)
        contracted = total - 4 * count_fcurves(n)
        mismatches = total - fnef_check(diff).zero_count
    else:
        total = contracted = mismatches = 0
        for blocks in _sample_partitions(n + 1, samples):
            # the blocks are disjoint and nonempty: at most one is {n+1}
            total += len(blocks)
            contracted += int(np.count_nonzero(blocks == 1 << n))
            mismatches += int(np.count_nonzero(pairing_values(diff, blocks)))
    return ProjectionFormulaReport(total, contracted, mismatches)
