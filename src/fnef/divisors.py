"""Divisor classes on the moduli space of stable n-pointed rational curves.

A divisor class is a sparse integer combination of the canonical generator
keys from :mod:`fnef.subsets`.  The pair relations (one per marking pair)
span the kernel of the map to numerical classes; reduction against their
reduced row echelon form, which has a closed form, yields canonical
coordinates, so two classes are numerically equivalent iff their
reductions agree.  All arithmetic is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Iterable, Mapping

import numpy as np

from .biplane import Biplane
from .errors import (
    BoundaryFormError,
    InvalidInputError,
    MalformedInputError,
)
from .subsets import (
    MAX_MARKINGS,
    all_generator_keys,
    canonical_generator,
    format_subset,
    full_mask,
    is_psi_key,
    parse_subset,
    psi_marking,
    validate_n,
)


@dataclass(frozen=True)
class DivisorClass:
    """Sparse integer coefficients over canonical generator keys."""

    n: int
    coeffs: Mapping[int, int]

    def __post_init__(self):
        validate_n(self.n)
        clean = {}
        limit = 1 << (self.n - 1)
        for mask, c in self.coeffs.items():
            if not 1 <= mask < limit:
                raise InvalidInputError(
                    f"mask {mask:#x} is not a canonical key for n={self.n}"
                )
            if c:
                clean[mask] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def zero(cls, n: int) -> "DivisorClass":
        return cls(n, {})

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[tuple[int, int]]) -> "DivisorClass":
        """Build from (side mask, coefficient) pairs, canonicalizing sides."""
        acc: dict[int, int] = {}
        for mask, c in terms:
            key = canonical_generator(mask, n)
            acc[key] = acc.get(key, 0) + c
        return cls(n, acc)

    def coeff(self, mask: int) -> int:
        return self.coeffs.get(mask, 0)

    def support_size(self) -> int:
        return len(self.coeffs)

    def psi_part(self) -> dict[int, int]:
        """Coefficients on psi-type keys, indexed by marking number."""
        return {
            psi_marking(m, self.n): c
            for m, c in self.coeffs.items()
            if is_psi_key(m, self.n)
        }

    def primitive(self) -> "DivisorClass":
        """The class divided by the gcd of its coefficients (the zero class
        is its own primitive part); it spans the same ray."""
        g = gcd(*self.coeffs.values())
        if g <= 1:
            return self
        return DivisorClass(self.n, {m: c // g for m, c in self.coeffs.items()})

    def is_boundary_only(self) -> bool:
        return not any(is_psi_key(m, self.n) for m in self.coeffs)

    def dense_table(self) -> np.ndarray:
        """Coefficients as an int64 array indexed by canonical key mask."""
        table = np.zeros(1 << (self.n - 1), dtype=np.int64)
        for mask, c in self.coeffs.items():
            table[mask] = c
        return table

    def _check_same_n(self, other: "DivisorClass") -> None:
        if self.n != other.n:
            raise InvalidInputError(f"marking counts differ: {self.n} vs {other.n}")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_n(other)
        acc = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            acc[mask] = acc.get(mask, 0) + c
        return DivisorClass(self.n, acc)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.n, {m: -c for m, c in self.coeffs.items()})

    def __rmul__(self, scalar: int) -> "DivisorClass":
        if not isinstance(scalar, int):
            return NotImplemented
        return DivisorClass(self.n, {m: scalar * c for m, c in self.coeffs.items()})

    __mul__ = __rmul__


def check_int64_sums(values: Iterable[int], weight: int, what: str) -> None:
    """Refuse integers whose sums, with integer weights of absolute total at
    most `weight`, could leave int64: every such sum and partial sum is then
    exact in int64.  Raises InvalidInputError."""
    top = max(map(abs, values), default=0)
    if top * weight >= 1 << 63:
        raise InvalidInputError(f"{what}: coefficient {top} times {weight} exceeds int64")


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer (a Python int, not a bool); raises
    TypeError for anything else, so that 1.7, 12.0, true or "3" is refused
    rather than truncated or converted."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


@lru_cache(maxsize=None)
def relation_matrix(n: int) -> np.ndarray:
    """The pair relations as a read-only 0/1 matrix: row (i, j), i < j, in
    lexicographic order; column c is the canonical key c+1.  The relation of
    i < j sums every generator with a side holding i and omitting j; a key K
    never holds marking n and either K or its complement is that side, so
    K enters iff bit_i(K) xor bit_j(K)."""
    validate_n(n)
    # keys below 2^15 as little-endian bytes, unpacked to one uint8 bit row
    # per marking, so no temporary is wider than the result
    keys = np.arange(1, 1 << (n - 1), dtype="<u2").view(np.uint8).reshape(-1, 2)
    bits = np.unpackbits(keys, axis=1, bitorder="little")[:, :n].T
    i, j = np.triu_indices(n, 1)
    rows = (bits[i] ^ bits[j]).view(np.int8)
    rows.flags.writeable = False
    return rows


def _pair_index(i: int, j: int, n: int) -> int:
    """Row of the pair i < j in `relation_matrix(n)` (pairs in lex order)."""
    return (i - 1) * (2 * n - i) // 2 + j - i - 1


def relation_row(i: int, j: int, n: int) -> DivisorClass:
    """The pair relation for markings i < j: the sum of all generators whose
    key side contains i and omits j (each with coefficient +1)."""
    validate_n(n)
    if i == j:
        raise InvalidInputError("relation needs two distinct markings")
    if not (1 <= i < j <= n):
        raise InvalidInputError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    row = relation_matrix(n)[_pair_index(i, j, n)]
    return DivisorClass(n, dict.fromkeys((np.flatnonzero(row) + 1).tolist(), 1))


class RelationSystem:
    """The pair relations in reduced row echelon form, from a closed form.

    Columns are the canonical key masks in ascending order.  The pivots are
    the C(n,2) keys of one or two markings, in ascending mask order, each
    with pivot value 1; every other key F (|F| >= 3) is free.  `pivot_masks`
    and `free_masks` are the two key sets as ascending uint16 index arrays.
    `free_rows[k]` is reduced row k at the free keys (`free_masks` order),
    and vanishes at every other pivot:

    - row {i, j}: +1 at every free F holding i and j;
    - row {i}: -(|F| - 2) at every free F holding i.

    Containment: for markings a < b < n, the rows of {a}, {b}, {a, x} and
    {b, x}, x running over the markings below n other than a and b, sum at
    a free F to [a in F](1 - [b in F]) + [b in F](1 - [a in F]), and at the
    pivots to 1 on exactly the keys holding one of a, b; that is the
    relation of a and b.  For b = n the rows of {a} and every {a, x} sum to
    [a in F], the relation of a and n.  Every relation is thus
    `relation_matrix(n)[:, pivots] @ [I | free_rows]`, and each construction
    checks this at the free columns exactly (AssertionError otherwise).  The
    rows are independent (identity on the pivots) and the relations have
    rank C(n,2) (Keel, Trans. AMS 330, 1992: the numerical classes have
    dimension 2^(n-1) - C(n,2) - 1), so the two span the same space, and a
    reduced row echelon form is unique.
    """

    def __init__(self, n: int):
        validate_n(n)
        self.n = n
        keys = np.arange(1, 1 << (n - 1), dtype=np.uint16)
        size = np.bitwise_count(keys).astype(np.int64)
        pivots, free = keys[size <= 2], keys[size >= 3]
        self.rank = len(pivots)
        self.pivot_masks, self.free_masks = pivots, free
        # free_index[mask] = position among free columns, -1 on pivots
        self.free_index = np.full(1 << (n - 1), -1, dtype=np.int64)
        self.free_index[free] = np.arange(len(free))
        # built one free key per row, then transposed, so free_rows is
        # column-major: reduce_canonical reads it column by column, often
        # just after a scan has flushed it from cache, and one sequential
        # stream reads faster than 66 strided ones at n=12
        holds = (free[:, None] & pivots) == pivots
        value = np.where(size[None, size <= 2] == 2, 1, 2 - size[size >= 3, None])
        self.free_rows = np.where(holds, value, 0).T
        # reduce_canonical's absolute weight: the key itself plus its column
        self.reduce_weight = 1 + int(np.abs(self.free_rows).sum(axis=0).max(initial=0))
        # a relation holds at most 2n-4 pivot keys and |free_rows| <= n-3, so
        # every sum is an integer below 2^53 and the float64 product is exact
        relations = relation_matrix(n)
        implied = relations[:, pivots - 1].astype(np.float64) @ self.free_rows.astype(np.float64)
        if not np.array_equal(implied, relations[:, free - 1]):
            raise AssertionError(f"closed-form relation rows do not span the relations at n={n}")

    @property
    def ambient_dim(self) -> int:
        """Dimension of the quotient: generators minus independent relations."""
        return len(self.free_masks)


@lru_cache(maxsize=None)
def relation_system(n: int) -> RelationSystem:
    return RelationSystem(n)


def reduce_canonical(d: DivisorClass) -> dict[int, int]:
    """Canonical coordinates of the class modulo the pair relations.

    Eliminates every pivot key against the reduced relations; the result
    maps non-pivot key masks to integer coordinates (zeros dropped).  Two
    classes are numerically equivalent iff their reductions are equal.
    Every pivot value is 1, so the coordinates are the one integer product
    d[free] - d[pivots] @ free_rows, exact in int64 once the coefficients
    pass check_int64_sums with `reduce_weight`.
    """
    rs = relation_system(d.n)
    check_int64_sums(d.coeffs.values(), rs.reduce_weight, "canonical reduction")
    table = d.dense_table()
    coords = table[rs.free_masks] - table[rs.pivot_masks] @ rs.free_rows
    live = np.flatnonzero(coords)
    return dict(zip(rs.free_masks[live].tolist(), coords[live].tolist()))


def canonical_divisor(n: int) -> DivisorClass:
    """The canonical class: -1 on every psi-type key, -2 on every boundary key."""
    validate_n(n)
    return DivisorClass(
        n, {m: (-1 if is_psi_key(m, n) else -2) for m in all_generator_keys(n)}
    )


def _exceptional_key(s_mask: int, n: int = 12) -> int:
    """Canonical key of the blown-up class indexed by a subset of {1..n-1}:
    the partition side s together with the last marking."""
    return canonical_generator(s_mask | (1 << (n - 1)), n)


def symmetric_divisor(n: int = 12) -> DivisorClass:
    """The fully symmetric nef divisor on the 12-marking space.

    Exceptional classes indexed by subsets of {1..11} of size k <= 4 enter
    with coefficient k-5; its degree on an F-curve with block sizes s_i is
    min(min s_i, 6 - max s_i), cut off at 0 once a block has 6 or more
    markings.
    """
    if n != 12:
        raise InvalidInputError("the symmetric divisor is only defined at n=12")
    coeffs: dict[int, int] = {}
    points = range(11)
    for size in range(5):
        for combo in combinations(points, size):
            coeffs[_exceptional_key(sum(1 << p for p in combo))] = size - 5
    return DivisorClass(12, coeffs)


def biplane_block_star_divisor(bp: Biplane) -> DivisorClass:
    """Sum over biplane blocks of the block divisor plus all of its
    one-marking enlargements (the added marking running over 1..12)."""
    coeffs: dict[int, int] = {}
    for b in bp.blocks:
        coeffs[b] = coeffs.get(b, 0) + 1
        for i in range(12):
            bit = 1 << i
            if b & bit:
                continue
            key = canonical_generator(b | bit, 12)
            coeffs[key] = coeffs.get(key, 0) + 1
    return DivisorClass(12, coeffs)


def biplane_divisor(bp: Biplane) -> DivisorClass:
    """The biplane divisor: the symmetric divisor minus one exceptional
    class for each subset of {1..11} of size 5 or 6 that equals or is
    disjoint from some block."""
    coeffs = dict(symmetric_divisor(12).coeffs)
    blocks = bp.blocks
    points = range(11)
    for size in (5, 6):
        for combo in combinations(points, size):
            s_mask = sum(1 << p for p in combo)
            if any(s_mask == b or s_mask & b == 0 for b in blocks):
                key = _exceptional_key(s_mask)
                coeffs[key] = coeffs.get(key, 0) - 1
    return DivisorClass(12, coeffs)


def eliminate_psi(d: DivisorClass) -> DivisorClass:
    """A numerically equivalent class supported on boundary keys only.

    Adds rational multiples of the pair relations.  The multiples are
    half-integers z_e = y_e/2 on the edges of the complete marking graph,
    where y is an integer weighting whose degree at marking m is minus
    twice the psi coefficient there; every degree of y is even, so every
    cut sum - the amount added to a key - is an integer and the output
    stays integral.  Twice the output is one int64 sum, 2*d plus y_e times
    the relation row of e; the coefficients must pass check_int64_sums
    with weight 2 + 5n, which bounds 2 + sum |y_e| in units of the largest
    coefficient (InvalidInputError).
    """
    n = d.n
    psi = d.psi_part()
    if not psi:
        return d

    target = {m: -2 * psi.get(m, 0) for m in range(1, n + 1)}
    y: dict[tuple[int, int], int] = {}
    for m in range(2, n + 1):
        if target[m]:
            y[(1, m)] = target[m]
    delta = sum(target[m] for m in range(2, n + 1)) - target[1]
    if delta:
        half = delta // 2
        y[(1, 2)] = y.get((1, 2), 0) - half
        y[(1, 3)] = y.get((1, 3), 0) - half
        y[(2, 3)] = y.get((2, 3), 0) + half

    check_int64_sums(d.coeffs.values(), 2 + 5 * n, "psi elimination")
    acc = 2 * d.dense_table()[1:]
    relations = relation_matrix(n)
    for (i, j), w in y.items():
        if w:
            acc += np.int64(w) * relations[_pair_index(i, j, n)]

    odd = np.flatnonzero(acc & 1)
    if len(odd):
        k = int(odd[0])
        raise AssertionError(f"non-integral coefficient {acc[k]}/2 at {format_subset(k + 1)}")
    acc >>= 1
    psi_keys = [1 << (m - 1) for m in range(1, n)] + [full_mask(n - 1)]
    for mask in psi_keys:
        if acc[mask - 1]:
            raise AssertionError(f"psi key {format_subset(mask)} survived elimination")
    live = np.flatnonzero(acc)
    return DivisorClass(n, dict(zip((live + 1).tolist(), acc[live].tolist())))


def pullback_forgetful(d: DivisorClass) -> DivisorClass:
    """Pull a boundary-only class back along the map forgetting a new last
    marking: each term splits into the two lifts of its partition, with the
    same coefficient."""
    n = d.n
    if n + 1 > MAX_MARKINGS:
        raise InvalidInputError(f"pullback target {n + 1} exceeds {MAX_MARKINGS} markings")
    if not d.is_boundary_only():
        raise BoundaryFormError(
            "pullback needs boundary form; run eliminate_psi on the class first"
        )
    new_bit = 1 << n
    coeffs: dict[int, int] = {}
    for mask, c in d.coeffs.items():
        coeffs[mask] = coeffs.get(mask, 0) + c
        key2 = canonical_generator(mask | new_bit, n + 1)
        coeffs[key2] = coeffs.get(key2, 0) + c
    return DivisorClass(n + 1, coeffs)


def divisor_to_text(d: DivisorClass) -> str:
    lines = [
        f"{d.coeffs[mask]} {format_subset(mask)}" for mask in sorted(d.coeffs)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def divisor_from_text(text: str, n: int) -> DivisorClass:
    validate_n(n)
    terms: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise MalformedInputError(f"line {lineno}: expected '<coeff> <subset>'")
        try:
            coeff = int(parts[0])
            mask = parse_subset(parts[1], n)
        except InvalidInputError as exc:
            raise MalformedInputError(f"line {lineno}: {exc}") from None
        except ValueError as exc:
            raise MalformedInputError(f"line {lineno}: {exc}") from None
        terms.append((mask, coeff))
    try:
        return DivisorClass.from_terms(n, terms)
    except InvalidInputError as exc:
        raise MalformedInputError(str(exc)) from None


def divisor_to_json_dict(d: DivisorClass) -> dict:
    return {
        "n": d.n,
        "terms": [
            {"coeff": d.coeffs[mask], "subset": format_subset(mask)}
            for mask in sorted(d.coeffs)
        ],
    }


def divisor_from_json_dict(obj: dict) -> DivisorClass:
    try:
        n = json_int(obj["n"], "n")
        items = obj["terms"]
        terms = [(parse_subset(t["subset"], n), json_int(t["coeff"], "coeff")) for t in items]
        return DivisorClass.from_terms(n, terms)
    except InvalidInputError as exc:
        raise MalformedInputError(str(exc)) from None
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad divisor object: {exc!r}") from None


def is_json_text(text: str) -> bool:
    """Whether a divisor file's text is JSON: its first non-space is '{'."""
    return text.lstrip().startswith("{")


def load_divisor(path: str, n: int | None = None) -> DivisorClass:
    """Load a divisor from a JSON or text file (see `is_json_text`)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if is_json_text(text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(f"bad JSON in {path}: {exc}") from None
        d = divisor_from_json_dict(obj)
        if n is not None and d.n != n:
            raise MalformedInputError(
                f"{path} declares n={d.n}, expected n={n}"
            )
        return d
    if n is None:
        raise MalformedInputError(
            f"{path} is in text format, which carries no marking count; pass n"
        )
    return divisor_from_text(text, n)
