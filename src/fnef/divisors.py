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
from functools import cached_property, lru_cache
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
    canonical_generator,
    exact_int,
    format_subset,
    full_mask,
    integer,
    parse_subset,
    psi_key,
    validate_n,
)


@dataclass(frozen=True)
class DivisorClass:
    """Sparse integer coefficients over canonical generator keys.  Keys and
    coefficients must be integers (`exact_int`); they are stored as Python
    ints, and zero coefficients are dropped.  The dense table and the
    largest |coefficient| are computed once each, when first asked for."""

    n: int
    coeffs: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "n", validate_n(self.n))
        clean = {}
        limit = 1 << (self.n - 1)
        for mask, c in self.coeffs.items():
            # exact_int returns an int as it is: skip its two calls a key
            if type(mask) is not int or type(c) is not int:
                mask, c = exact_int(mask, "key"), exact_int(c, "coefficient")
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

    def primitive(self) -> "DivisorClass":
        """The class divided by the gcd of its coefficients (the zero class
        is its own primitive part); it spans the same ray."""
        g = gcd(*self.coeffs.values())
        if g <= 1:
            return self
        return DivisorClass(self.n, {m: c // g for m, c in self.coeffs.items()})

    def is_boundary_only(self) -> bool:
        """No psi-type key carries a coefficient: n lookups (`psi_key`)."""
        return not any(psi_key(i, self.n) in self.coeffs for i in range(1, self.n + 1))

    @cached_property
    def max_abs(self) -> int:
        """The largest |coefficient|, 0 for the zero class."""
        return max(map(abs, self.coeffs.values()), default=0)

    def dense_table(self) -> np.ndarray:
        """Coefficients as a read-only int64 array indexed by canonical key
        mask, the same array on every call.  A coefficient beyond int64
        raises OverflowError: callers refuse it first (`check_int64_sums`)."""
        return self._dense_table

    @cached_property
    def _dense_table(self) -> np.ndarray:
        table = np.zeros(1 << (self.n - 1), dtype=np.int64)
        count = len(self.coeffs)
        keys = np.fromiter(self.coeffs, np.intp, count)
        table[keys] = np.fromiter(self.coeffs.values(), np.int64, count)
        table.setflags(write=False)
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
        scalar = exact_int(scalar, "scalar")
        return DivisorClass(self.n, {m: scalar * c for m, c in self.coeffs.items()})

    __mul__ = __rmul__


def check_int64_sums(values: Iterable[int], weight: int, what: str) -> None:
    """Refuse integers whose sums, with integer weights of absolute total at
    most `weight`, could leave int64: every such sum and partial sum is then
    exact in int64.  Raises InvalidInputError."""
    top = max(map(abs, values), default=0)
    if top * weight >= 1 << 63:
        raise InvalidInputError(f"{what}: coefficient {top} times {weight} exceeds int64")


@lru_cache(maxsize=None)
def relation_matrix(n: int) -> np.ndarray:
    """The pair relations as a read-only 0/1 matrix: row (i, j), i < j, in
    lexicographic order; column c is the canonical key c+1.  The relation of
    i < j sums every generator with a side holding i and omitting j; a key K
    never holds marking n and either K or its complement is that side, so
    K enters iff bit_i(K) xor bit_j(K)."""
    n = validate_n(n)
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
    n, i, j = validate_n(n), exact_int(i, "marking"), exact_int(j, "marking")
    if i == j:
        raise InvalidInputError("relation needs two distinct markings")
    if not (1 <= i < j <= n):
        raise InvalidInputError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    row = relation_matrix(n)[_pair_index(i, j, n)]
    return DivisorClass(n, dict.fromkeys((np.flatnonzero(row) + 1).tolist(), 1))


class RelationSystem:
    """The key sets of the pair relations' reduced row echelon form, which
    has a closed form (`reduce_canonical`).

    Columns are the canonical key masks in ascending order.  The pivots are
    the C(n,2) keys of one or two markings, each with pivot value 1; every
    other key F (|F| >= 3) is free.  `pivot_masks` and `free_masks` are the
    two key sets as ascending uint16 arrays, and `free_index[mask]` is the
    position of a free key among them (-1 on pivots).
    """

    def __init__(self, n: int):
        self.n = n = validate_n(n)
        keys = np.arange(1, 1 << (n - 1), dtype=np.uint16)
        size = np.bitwise_count(keys)
        self.pivot_masks, self.free_masks = keys[size <= 2], keys[size >= 3]
        self.rank = len(self.pivot_masks)
        self.free_index = np.full(1 << (n - 1), -1, dtype=np.int64)
        self.free_index[self.free_masks] = np.arange(self.ambient_dim)
        # reduce_canonical's absolute weight at the largest free key, of
        # n - 1 markings: the key, its C(n-1, 2) pairs and n - 1 singletons
        # of weight n - 3
        self.reduce_weight = 1 + (n - 1) * (n - 2) // 2 + (n - 1) * (n - 3)

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
    maps free key masks to integer coordinates (zeros dropped).  Two
    classes are numerically equivalent iff their reductions are equal.

    The reduced row of a pivot is 1 there, 0 at every other pivot, and at
    a free key F:

    - row {i, j}: +1 when F holds i and j;
    - row {i}: -(|F| - 2) when F holds i.

    So the coordinate at F is d[F] - sum over i < j in F of d[{i, j}]
    + (|F| - 2) * sum over i in F of d[{i}].  The two sums are subset sums
    over the n - 1 key bits, taken separately on the singleton and the pair
    coefficients, so every partial sum stays within `reduce_weight` times
    the largest coefficient (the weight of F = {1..n-1}), which
    `check_int64_sums` keeps inside int64.

    Containment: for markings a < b < n, the rows of {a}, {b}, {a, x} and
    {b, x}, x running over the markings below n other than a and b, sum at
    a free F to [a in F](1 - [b in F]) + [b in F](1 - [a in F]), and at the
    pivots to 1 on exactly the keys holding one of a, b; that is the
    relation of a and b.  For b = n the rows of {a} and every {a, x} sum to
    [a in F], the relation of a and n.  The rows are independent (identity
    on the pivots) and the relations have rank C(n,2) (Keel, Trans. AMS
    330, 1992: the numerical classes have dimension 2^(n-1) - C(n,2) - 1),
    so the two span the same space, and a reduced row echelon form is
    unique.
    """
    rs = relation_system(d.n)
    check_int64_sums((d.max_abs,), rs.reduce_weight, "canonical reduction")
    table = d.dense_table()
    size = np.bitwise_count(np.arange(len(table))).astype(np.int64)
    # row 0 sums the singleton coefficients, row 1 the pair ones
    sums = np.where(size == [[1], [2]], table, 0)
    # the low key bits pass over a transposed copy: in place, their runs
    # are 1 to 8 values long, and a pass over short runs is slow
    low = (d.n - 1) // 2
    _add_halves(sums, range(low, d.n - 1))
    flip = sums.reshape(2, -1, 1 << low).transpose(0, 2, 1).copy()
    _add_halves(flip, range(d.n - 1 - low, d.n - 1))
    sums = flip.transpose(0, 2, 1).reshape(2, -1)
    # 0 at every pivot key, whose own coefficient is its one singleton or pair
    coords = table - sums[1] + (size - 2) * sums[0]
    live = np.flatnonzero(coords)
    return dict(zip(live.tolist(), coords[live].tolist()))


def _add_halves(x: np.ndarray, bits: range) -> None:
    """Subset sums, in place, over the given bits of x's flat index: per
    bit, each entry with the bit set gains the entry without it."""
    for bit in bits:
        halves = x.reshape(-1, 2, 1 << bit)
        np.add(halves[:, 1], halves[:, 0], out=halves[:, 1])


def canonical_divisor(n: int) -> DivisorClass:
    """The canonical class: -1 on every psi-type key (`is_psi_key`: one
    marking, or all of 1..n-1), -2 on every boundary key."""
    n = validate_n(n)
    keys = np.arange(1, 1 << (n - 1))
    psi = (np.bitwise_count(keys) == 1) | (keys == full_mask(n - 1))
    return DivisorClass(n, dict(zip(keys.tolist(), np.where(psi, -1, -2).tolist())))


def _exceptional_class(coeffs: np.ndarray) -> DivisorClass:
    """The class at n=12 with coefficient coeffs[s] on the exceptional class
    of each subset s of {1..11}, indexed by mask: the side s together with
    marking 12, whose canonical key is the complement 2047 ^ s."""
    s = np.flatnonzero(coeffs)
    return DivisorClass(12, dict(zip((2047 ^ s).tolist(), coeffs[s].tolist())))


def _symmetric_coeffs() -> tuple[np.ndarray, np.ndarray]:
    """Per subset of {1..11}, indexed by mask: its size k, and its
    coefficient in `symmetric_divisor`, k - 5 for k <= 4 and 0 above."""
    size = np.bitwise_count(np.arange(1 << 11)).astype(np.int64)
    return size, np.where(size <= 4, size - 5, 0)


def symmetric_divisor() -> DivisorClass:
    """The fully symmetric nef divisor on the 12-marking space.

    Exceptional classes indexed by subsets of {1..11} of size k <= 4 enter
    with coefficient k-5; its degree on an F-curve with block sizes s_i is
    min(min s_i, 6 - max s_i), cut off at 0 once a block has 6 or more
    markings.
    """
    return _exceptional_class(_symmetric_coeffs()[1])


def biplane_block_star_divisor(bp: Biplane) -> DivisorClass:
    """Sum over biplane blocks of the block divisor plus all of its
    one-marking enlargements (the added marking running over 1..12)."""
    return DivisorClass.from_terms(12, (
        (b | bit, 1)
        for b in bp.blocks
        for bit in (0, *(1 << i for i in range(12)))
        if not b & bit
    ))


def biplane_divisor(bp: Biplane) -> DivisorClass:
    """The biplane divisor: the symmetric divisor minus one exceptional
    class for each subset of {1..11} of size 5 or 6 that equals or is
    disjoint from some block."""
    size, coeffs = _symmetric_coeffs()
    s, blocks = np.arange(1 << 11)[:, None], np.array(bp.blocks)
    hit = ((s == blocks) | (s & blocks == 0)).any(axis=1)
    return _exceptional_class(coeffs - (hit & (size >= 5) & (size <= 6)))


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
    target = {m: -2 * d.coeff(psi_key(m, n)) for m in range(1, n + 1)}
    if not any(target.values()):
        return d

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

    check_int64_sums((d.max_abs,), 2 + 5 * n, "psi elimination")
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
    for mask in (psi_key(m, n) for m in range(1, n + 1)):
        if acc[mask - 1]:
            raise AssertionError(f"psi key {format_subset(mask)} survived elimination")
    live = np.flatnonzero(acc)
    return DivisorClass(n, dict(zip((live + 1).tolist(), acc[live].tolist())))


def pullback_forgetful(d: DivisorClass) -> DivisorClass:
    """Pull a boundary-only class back along the map forgetting a new last
    marking: each term splits into the two lifts of its partition, with the
    same coefficient.  One lift is the key itself; the other, the key with
    marking n+1, has the complement key ^ (2^n - 1), which holds marking n
    where no key at n does, so no two lifts meet."""
    n = d.n
    if n + 1 > MAX_MARKINGS:
        raise InvalidInputError(f"pullback target {n + 1} exceeds {MAX_MARKINGS} markings")
    if not d.is_boundary_only():
        raise BoundaryFormError(
            "pullback needs boundary form; run eliminate_psi on the class first"
        )
    keys = np.fromiter(d.coeffs, np.int64, len(d.coeffs)) ^ full_mask(n)
    return DivisorClass(n + 1, {**d.coeffs, **dict(zip(keys.tolist(), d.coeffs.values()))})


def divisor_to_text(d: DivisorClass) -> str:
    lines = [
        f"{d.coeffs[mask]} {format_subset(mask)}" for mask in sorted(d.coeffs)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def divisor_from_text(text: str, n: int) -> DivisorClass:
    n = validate_n(n)
    terms: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise MalformedInputError(f"line {lineno}: expected '<coeff> <subset>'")
        try:
            coeff = integer(parts[0])
            mask = parse_subset(parts[1], n)
        except InvalidInputError as exc:
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


def divisor_to_json_text(d: DivisorClass) -> str:
    """`divisor_to_json_dict(d)` as `json.dumps` writes it with
    sort_keys=True and indent=2, and a newline, formatted in one pass: a
    subset (`format_subset`) is digits and commas and a coefficient a Python
    int, so nothing needs escaping."""
    terms = ",\n".join(
        f'    {{\n      "coeff": {d.coeffs[mask]},\n      "subset": "{format_subset(mask)}"\n    }}'
        for mask in sorted(d.coeffs)
    )
    body = f"\n{terms}\n  " if terms else ""
    return f'{{\n  "n": {d.n},\n  "terms": [{body}]\n}}\n'


def json_array(obj: dict, key: str) -> list:
    """`obj[key]`, which the file format requires to be a JSON array;
    raises InvalidInputError for anything else, such as {} or "", which
    would iterate as no entries."""
    items = obj[key]
    if not isinstance(items, list):
        raise InvalidInputError(f"{key} must be a JSON array, got {items!r}")
    return items


def divisor_from_json_dict(obj: dict) -> DivisorClass:
    try:
        n = validate_n(exact_int(obj["n"], "n"))
        items = json_array(obj, "terms")
        terms = [(parse_subset(t["subset"], n), exact_int(t["coeff"], "coeff")) for t in items]
        return DivisorClass.from_terms(n, terms)
    except InvalidInputError as exc:
        raise MalformedInputError(str(exc)) from None
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad divisor object: {exc!r}") from None


def parse_divisor(text: str, n: int | None = None) -> DivisorClass:
    """A divisor from the text of a divisor file.

    JSON (first non-space '{') declares its own marking count, which must
    equal `n` if given; '<coeff> <subset>' lines are at `n` markings, 12 if
    `n` is None.
    """
    if not text.lstrip().startswith("{"):
        return divisor_from_text(text, 12 if n is None else n)
    try:
        d = divisor_from_json_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"bad JSON: {exc}") from None
    if n is not None and d.n != n:
        raise MalformedInputError(f"divisor declares n={d.n}, expected n={n}")
    return d
