"""Slow exact oracles that the tests compare the library against.

Dense Fraction elimination for ranks over the rationals, the pairing row
of a single F-curve as a curve functional, the pushforward of one F-curve
along the forgetful map, the first, array-based form of the projection
formula over any rows at n+1, the signed seven-key sum of the rank
path as one temporary per key, the values of the enumeration kernel
compacted to one per curve, the partition rows built through a second
prefix cut (the row-order oracle), a divisor's JSON file as the standard
encoder writes it, and the named divisors and the pullback as the
comprehensions that walk one key at a time.  None of this runs outside
the tests.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from fnef import (
    Biplane,
    CurveFunctional,
    DivisorClass,
    FCurve,
    count_fcurves,
    divisor_to_json_dict,
    enumerate_fcurves,
    fcurve_block_arrays,
    pair_divisor_fcurve,
    pair_generator_fcurve,
    pairing_values,
    relation_system,
)
import fnef.pairing
from fnef.pairing import ROW_PATTERN, full_width, scan_dtype
from fnef.errors import InvalidInputError
from fnef.subsets import (
    _assign,
    all_generator_keys,
    canonical_generator,
    is_psi_key,
    mask_from_elements,
    slot_layout,
)


def rank_exact(rows: Iterable[Sequence], ncols: int) -> int:
    """Rank over the rationals by dense fraction-valued elimination.

    Intended for small cross-check instances; rows are any integer or
    Fraction sequences of length ncols.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        pr = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        piv = mat[rank][c]
        prow = [x / piv for x in mat[rank]]
        mat[rank] = prow
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [x - f * y if y else x for x, y in zip(mat[r], prow)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def dense_rows(col_rows: np.ndarray, ncols: int) -> list[list[int]]:
    """Pattern rows (`ROW_PATTERN[k]` at column col_rows[i, k], none where
    that is -1) as dense integer lists."""
    dense = []
    for row in col_rows:
        vec = [0] * ncols
        for c, v in zip(row, ROW_PATTERN):
            if c >= 0:
                vec[int(c)] += int(v)
        dense.append(vec)
    return dense


def reduced_row(curve: FCurve) -> list[int]:
    """The curve's pairing with the generator of every free key, which is
    its row in reduced coordinates: the pivot keys are eliminated and a
    curve pairs to zero with every relation."""
    return [pair_generator_fcurve(f, curve) for f in relation_system(curve.n).free_masks.tolist()]


def fcurve_matrix_rank_exact(n: int) -> int:
    """Exact rational rank of the full pairing matrix; small n only."""
    if n > 7:
        raise InvalidInputError("exact rank oracle is limited to n <= 7")
    rows = [reduced_row(c) for c in enumerate_fcurves(n)]
    return rank_exact(rows, relation_system(n).ambient_dim)


def zero_set_dense_rows(d: DivisorClass) -> list[list[int]]:
    """Reduced-coordinate rows of all zero-pairing curves, densely; the
    exact-arithmetic counterpart of the modular path, for small n."""
    if d.n > 7:
        raise InvalidInputError("dense zero-set rows are limited to n <= 7")
    return [reduced_row(c) for c in enumerate_fcurves(d.n) if pair_divisor_fcurve(d, c) == 0]


def fcurve_functional(curve: FCurve) -> CurveFunctional:
    """The pairing row of a single F-curve, as a curve functional: +1 on
    the sides b0|b1, b0|b2, b0|b3 and -1 on the four blocks."""
    b0, b1, b2, b3 = curve.blocks
    sides = (b0 | b1, b0 | b2, b0 | b3, b0, b1, b2, b3)
    return CurveFunctional(DivisorClass.from_terms(curve.n, zip(sides, (1, 1, 1, -1, -1, -1, -1))))


def pushforward_fcurve(curve: FCurve) -> Optional[FCurve]:
    """Push an F-curve down along the map forgetting the last marking.

    Returns None when the last marking forms its own block (the curve is
    contracted); otherwise drops that marking from its block.
    """
    n = curve.n
    last = 1 << (n - 1)
    if last in curve.blocks:
        return None
    blocks = tuple(b & ~last for b in curve.blocks)
    return FCurve(n - 1, blocks)  # type: ignore[arg-type]


def pattern_sum_oracle(x: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """`cone._pattern_sum` in its first form: each key's rows of x gathered
    by fancy indexing, scaled by the key's sign and added to the sum."""
    out = np.zeros((keys.shape[1], x.shape[1]), dtype=np.int64)
    for sign, cols in zip(ROW_PATTERN, keys):
        out += sign * x[cols]
    return out


def sample_partitions_oracle(m: int, samples: int, seed: int) -> np.ndarray:
    """The seeded partition sampler in its first form: one labels-times-bits
    sum per block, over the same stream of draws."""
    rng = np.random.default_rng(seed)
    need = samples
    rows = []
    bits = (1 << np.arange(m, dtype=np.int64))[None, :]
    while need > 0:
        labels = rng.integers(0, 4, size=(int(need * 1.25) + 16, m))
        masks = np.stack([((labels == k) * bits).sum(axis=1) for k in range(4)], axis=1)
        good = masks.all(axis=1)
        rows.append(masks[good])
        need = samples - sum(len(r) for r in rows)
    return np.concatenate(rows)[:samples]


def enumeration_values(d: DivisorClass) -> np.ndarray:
    """Every value of the enumeration kernel (`pairing._scan_chunks`) in
    `scan_dtype(d)`, with its padded slots dropped: the pairings of every
    F-curve in enumeration order.  Each chunk's values are put prefix by
    prefix at the slots where its prefixes start, and every slot must be
    written exactly once; the slots kept are those where the plan's pad
    (`pairing._slot_pad`) holds the dtype's minimum."""
    dtype = scan_dtype(d)
    table = full_width(d.dense_table().astype(dtype))
    s, _, opened, _, _ = slot_layout(d.n)
    pads = fnef.pairing._slot_pad(s, dtype)
    pad = np.concatenate([pads[u] for u in opened.tolist()])
    values = np.empty(len(pad), dtype=dtype)
    written = np.zeros(len(pad), dtype=np.int64)
    for starts, chunk in fnef.pairing._scan_chunks(table, d.n):
        assert chunk.shape[0] == len(starts)
        for start, prefix in zip(starts.tolist(), chunk):
            values[start : start + len(prefix)] = prefix
            written[start : start + len(prefix)] += 1
    assert (written == 1).all(), "the chunks do not cover every slot once"
    return values[pad == np.iinfo(dtype).min]


def fcurve_block_arrays_oracle(n: int, keep: Optional[np.ndarray] = None) -> np.ndarray:
    """Every 4-block partition of {1..n} as `fcurve_block_arrays(n)` lays
    them out, or with a boolean `keep` over them only the rows it marks, as
    the library built them before it read the scan's slots: the markings
    before the last six (or after marking 1) are assigned first, giving the
    prefixes, and the ways the last six complete a prefix with u blocks
    opened form one table per u; each prefix writes `table | prefix`, or
    the table rows `keep` marks at its positions, into the next slice of
    the result.  Both walks are `subsets._assign`, cut before the last six
    markings rather than the last seven."""
    split = max(1, n - 6)
    one = np.array([[1, 0, 0, 0]], dtype=np.int32)  # marking 1 opens block 0
    prefixes, opened = _assign(one, np.array([1]), range(1, split), n)
    empty = np.zeros((1, 4), dtype=np.int32)
    tables = {u: _assign(empty, np.array([u]), range(split, n), n)[0] for u in range(1, 5)}
    arr = np.empty((count_fcurves(n) if keep is None else np.count_nonzero(keep), 4), np.int32)
    start = 0
    for prefix, u in zip(prefixes, opened.tolist()):
        table = tables[u]
        if keep is not None:  # the table rows kept at this prefix's positions
            table, keep = table[keep[: len(table)]], keep[len(table) :]
        np.bitwise_or(table, prefix, out=arr[start : start + len(table)])
        start += len(table)
    assert start == len(arr)
    return arr


def projection_formula_oracle(
    d: DivisorClass, lifted: DivisorClass, up_blocks: Optional[np.ndarray] = None
) -> tuple[int, int, int]:
    """(total, contracted, mismatches) of the projection formula for the
    class `lifted` at n+1 against d, from the rows at n+1 (by default every
    F-curve): a row is contracted when one of its blocks is {n+1}, and any
    other row is compared with its image at n, scanned row by row.  Both
    scans are widened to int64, so the comparison does not rest on NumPy's
    promotion between their dtypes."""
    if up_blocks is None:
        up_blocks = fcurve_block_arrays(d.n + 1)
    lhs = pairing_values(lifted, up_blocks).astype(np.int64)
    last = 1 << d.n
    contracted = (up_blocks == last).any(axis=1)
    rhs = pairing_values(d, (up_blocks & ~last)[~contracted]).astype(np.int64)
    mismatches = np.count_nonzero(lhs[contracted]) + np.count_nonzero(lhs[~contracted] != rhs)
    return len(up_blocks), int(np.count_nonzero(contracted)), int(mismatches)


def divisor_json_oracle(d: DivisorClass) -> str:
    """The text of `fnef pullback --out` as the standard JSON encoder writes
    it, with sorted keys, an indent of 2 and a final newline."""
    return json.dumps(divisor_to_json_dict(d), sort_keys=True, indent=2) + "\n"


def canonical_divisor_oracle(n: int) -> DivisorClass:
    """The canonical class, one key at a time: -1 on every psi-type key,
    -2 on every boundary key."""
    return DivisorClass(n, {m: (-1 if is_psi_key(m, n) else -2) for m in all_generator_keys(n)})


def _exceptional_key(s_mask: int) -> int:
    """Canonical key at n=12 of the blown-up class indexed by a subset of
    {1..11}: the partition side s together with marking 12."""
    return canonical_generator(s_mask | (1 << 11), 12)


def symmetric_divisor_oracle() -> DivisorClass:
    """The symmetric divisor by a walk over the subsets of {1..11} of size
    k <= 4, each with coefficient k - 5 at its exceptional key."""
    return DivisorClass(12, {
        _exceptional_key(mask_from_elements(s, 11)): len(s) - 5
        for size in range(5)
        for s in combinations(range(1, 12), size)
    })


def biplane_divisor_oracle(bp: Biplane) -> DivisorClass:
    """The biplane divisor by a walk over the subsets of {1..11} of size 5
    or 6, one block at a time: the symmetric divisor less one exceptional
    class per subset that equals or is disjoint from some block."""
    subsets = (
        mask_from_elements(s, 11) for size in (5, 6) for s in combinations(range(1, 12), size)
    )
    return symmetric_divisor_oracle() - DivisorClass(12, {
        _exceptional_key(s): 1 for s in subsets if any(s == b or not s & b for b in bp.blocks)
    })


def pullback_oracle(d: DivisorClass) -> DivisorClass:
    """The pullback along the map forgetting a new last marking, one key at
    a time: each term adds its coefficient at both lifts of its partition,
    the key itself and the canonical key of the key with marking n+1."""
    n = d.n
    coeffs: dict[int, int] = {}
    for mask, c in d.coeffs.items():
        coeffs[mask] = coeffs.get(mask, 0) + c
        key2 = canonical_generator(mask | 1 << n, n + 1)
        coeffs[key2] = coeffs.get(key2, 0) + c
    return DivisorClass(n + 1, coeffs)
