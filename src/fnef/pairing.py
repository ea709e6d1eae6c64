"""Intersection pairing between divisor classes and F-curves.

The pairing of a generator with a 4-block partition is +1 when either side
of the generator is a union of two blocks, -1 when either side is a single
block, and 0 otherwise; psi-type keys inherit the singleton case.  A curve
functional assigns a pairing value to every generator and is admissible
when those values vanish on all pair relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .biplane import Biplane
from .divisors import DivisorClass, check_int64_sums, json_int, relation_matrix
from .errors import InvalidInputError, MalformedInputError
from .subsets import (
    FCurve,
    canonical_generator,
    fcurve_block_arrays,
    format_subset,
    full_mask,
    is_psi_key,
    parse_subset,
    psi_marking,
    validate_n,
)


@dataclass(frozen=True)
class CurveFunctional:
    """Integer pairing values on all generators of a fixed marking count.

    psi[i-1] is the value on the psi-type key of marking i; boundary maps
    boundary key masks to values (absent means 0).
    """

    n: int
    psi: tuple[int, ...]
    boundary: Mapping[int, int]

    def __post_init__(self):
        validate_n(self.n)
        if len(self.psi) != self.n:
            raise InvalidInputError(f"need {self.n} psi values, got {len(self.psi)}")
        clean = {}
        for mask, v in self.boundary.items():
            if is_psi_key(mask, self.n) or not 1 <= mask < (1 << (self.n - 1)):
                raise InvalidInputError(
                    f"{format_subset(mask)} is not a boundary key for n={self.n}"
                )
            if v:
                clean[mask] = v
        object.__setattr__(self, "boundary", clean)

    def value(self, mask: int) -> int:
        """Value on the generator with canonical key `mask`."""
        if is_psi_key(mask, self.n):
            return self.psi[psi_marking(mask, self.n) - 1]
        return self.boundary.get(mask, 0)

    def boundary_min(self) -> int:
        """Minimum value over all boundary keys (absent keys count as 0)."""
        n_boundary = (1 << (self.n - 1)) - 1 - self.n
        lowest = min(self.boundary.values(), default=0)
        if len(self.boundary) < n_boundary:
            lowest = min(lowest, 0)
        return lowest

    def dense_table(self) -> np.ndarray:
        table = np.zeros(1 << (self.n - 1), dtype=np.int64)
        for mask, v in self.boundary.items():
            table[mask] = v
        for i in range(1, self.n):
            table[1 << (i - 1)] = self.psi[i - 1]
        table[full_mask(self.n - 1)] = self.psi[self.n - 1]
        return table


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
    return sum(c * f.value(mask) for mask, c in d.coeffs.items())


def biplane_curve_functional(bp: Biplane) -> CurveFunctional:
    """The curve functional attached to the biplane at 12 markings: value 1
    on the eleven block keys, 0 on other boundary keys, -3 on the psi keys
    of markings 1..11 and -2 at marking 12."""
    psi = tuple([-3] * 11 + [-2])
    return CurveFunctional(12, psi, {b: 1 for b in bp.blocks})


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
    check_int64_sums(f.psi + tuple(f.boundary.values()), 1 << (n - 2), "relation check")
    totals = relation_matrix(n) @ f.dense_table()[1:]
    bad = np.flatnonzero(totals)
    if not len(bad):
        return RelationCheck(True)
    i, j = np.triu_indices(n, 1)
    k = bad[0]
    return RelationCheck(False, (int(i[k]) + 1, int(j[k]) + 1), int(totals[k]))


#: Rows per slice of the pairing scan.  At n=12 and 13, slices of 8192 to
#: 32768 rows ran within 15% of each other, and 4096 or 65536 up to a
#: quarter slower; each of the two slice buffers holds 128 KiB.
_SCAN_ROWS = 16384


def pairing_values(d: DivisorClass, blocks: Optional[np.ndarray] = None) -> np.ndarray:
    """Pairings of a divisor with every F-curve, in enumeration order (or
    with the rows of `blocks`): the three unions with block 0 count
    positively, the four blocks negatively.  The sums of 7 coefficients
    must stay exact in int64; larger coefficients raise InvalidInputError.

    The table holds the coefficient of m's canonical key at every subset
    mask m: `d.dense_table()` followed by its reverse, since a mask at or
    above 2^(n-1) reads its complement 2^n - 1 - m.  Rows are 4-block
    partitions as int32 or int64 masks, each below 2^n: np.take's "wrap"
    mode, a third faster than its checked default, does not check it.
    The rows are taken in slices of `_SCAN_ROWS`, each summed in place in
    its part of the result through one index buffer and one value buffer,
    so the temporaries stay two slice-length buffers at every n.
    """
    check_int64_sums(d.coeffs.values(), 7, "F-curve pairing scan")
    if blocks is None:
        blocks = fcurve_block_arrays(d.n)
    table = d.dense_table()
    table = np.concatenate([table, table[::-1]])
    out = np.empty(len(blocks), dtype=np.int64)
    idx = np.empty(_SCAN_ROWS, dtype=np.intp)
    val = np.empty(_SCAN_ROWS, dtype=np.int64)
    for s in range(0, len(blocks), _SCAN_ROWS):
        rows = blocks[s : s + _SCAN_ROWS]
        k = len(rows)
        acc, ix, v = out[s : s + k], idx[:k], val[:k]
        np.bitwise_or(rows[:, 0], rows[:, 1], out=ix)
        np.take(table, ix, out=acc, mode="wrap")
        for j in (2, 3):
            np.bitwise_or(rows[:, 0], rows[:, j], out=ix)
            np.take(table, ix, out=v, mode="wrap")
            acc += v
        for j in range(4):
            ix[...] = rows[:, j]
            np.take(table, ix, out=v, mode="wrap")
            acc -= v
    return out


def functional_to_json_dict(f: CurveFunctional) -> dict:
    return {
        "n": f.n,
        "psi": list(f.psi),
        "boundary": [
            {"subset": format_subset(mask), "value": f.boundary[mask]}
            for mask in sorted(f.boundary)
        ],
    }


def functional_from_json_dict(obj: dict) -> CurveFunctional:
    try:
        n = json_int(obj["n"], "n")
        psi = tuple(json_int(v, "psi") for v in obj["psi"])
        boundary = {
            parse_subset(t["subset"], n): json_int(t["value"], "value")
            for t in obj["boundary"]
        }
        return CurveFunctional(n, psi, boundary)
    except InvalidInputError as exc:
        raise MalformedInputError(str(exc)) from None
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad functional object: {exc!r}") from None

