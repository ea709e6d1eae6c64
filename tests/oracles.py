"""Slow exact oracles that the tests compare the library against.

Dense Fraction elimination for ranks over the rationals, the pairing row
of a single F-curve as a curve functional, and the pushforward of one
F-curve along the forgetful map.  None of this runs outside the tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from fnef import (
    CurveFunctional,
    DivisorClass,
    FCurve,
    fcurve_block_arrays,
    pairing_values,
    relation_system,
)
from fnef.cone import _ROW_PATTERN, _free_col_rows
from fnef.errors import InvalidInputError
from fnef.subsets import full_mask, is_psi_key, psi_marking


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
    """Curve rows of reduced coordinates as dense integer lists."""
    dense = []
    for row in col_rows:
        vec = [0] * ncols
        for c, v in zip(row, _ROW_PATTERN):
            if c >= 0:
                vec[int(c)] += int(v)
        dense.append(vec)
    return dense


def fcurve_matrix_rank_exact(n: int) -> int:
    """Exact rational rank of the full pairing matrix; small n only."""
    if n > 7:
        raise InvalidInputError("exact rank oracle is limited to n <= 7")
    rs = relation_system(n)
    col_rows = _free_col_rows(fcurve_block_arrays(n), rs.free_index)
    return rank_exact(dense_rows(col_rows, rs.ambient_dim), rs.ambient_dim)


def zero_set_dense_rows(d: DivisorClass) -> list[list[int]]:
    """Reduced-coordinate rows of all zero-pairing curves, densely; the
    exact-arithmetic counterpart of the modular path, for small n."""
    if d.n > 7:
        raise InvalidInputError("dense zero-set rows are limited to n <= 7")
    rs = relation_system(d.n)
    blocks = fcurve_block_arrays(d.n)
    values = pairing_values(d, blocks)
    col_rows = _free_col_rows(blocks[values == 0], rs.free_index)
    return dense_rows(col_rows, rs.ambient_dim)


def fcurve_functional(curve: FCurve) -> CurveFunctional:
    """The pairing row of a single F-curve, as a curve functional."""
    n = curve.n
    psi = [0] * n
    boundary: dict[int, int] = {}
    half = 1 << (n - 1)
    full = full_mask(n)
    b0, b1, b2, b3 = curve.blocks
    for b in curve.blocks:
        key = b if b < half else b ^ full
        if is_psi_key(key, n):
            psi[psi_marking(key, n) - 1] -= 1
        else:
            boundary[key] = boundary.get(key, 0) - 1
    for u in (b0 | b1, b0 | b2, b0 | b3):
        key = u if u < half else u ^ full
        boundary[key] = boundary.get(key, 0) + 1
    return CurveFunctional(n, tuple(psi), boundary)


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
