"""Subset masks, canonical generator keys, and 4-block partition enumeration.

Markings are named 1..n and stored as bits 0..n-1 of an integer mask.
A generator key is the side of a marking partition that does not contain
marking n; singleton keys stand for the negated cotangent classes.
All higher modules iterate partitions in the fixed order produced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidInputError

MIN_MARKINGS = 4
MAX_MARKINGS = 16  # subsets must fit a 16-bit mask


def validate_n(n: int) -> int:
    if not isinstance(n, int) or not MIN_MARKINGS <= n <= MAX_MARKINGS:
        raise InvalidInputError(
            f"marking count must be an integer in [{MIN_MARKINGS}, {MAX_MARKINGS}], got {n!r}"
        )
    return n


def full_mask(n: int) -> int:
    """Mask of the whole marking set {1..n}."""
    return (1 << n) - 1


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    m = 0
    for e in elements:
        if not 1 <= e <= n:
            raise InvalidInputError(f"marking {e} out of range 1..{n}")
        m |= 1 << (e - 1)
    return m


def elements_from_mask(mask: int) -> tuple[int, ...]:
    """Ascending marking numbers of a mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def format_subset(mask: int) -> str:
    """Serialize a subset as comma-separated ascending integers."""
    return ",".join(str(e) for e in elements_from_mask(mask))


def parse_subset(text: str, n: int) -> int:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if not parts:
        raise InvalidInputError(f"empty subset in {text!r}")
    try:
        elems = [int(p) for p in parts]
    except ValueError as exc:
        raise InvalidInputError(f"bad subset {text!r}: {exc}") from None
    mask = mask_from_elements(elems, n)
    if mask.bit_count() != len(elems):
        raise InvalidInputError(f"repeated marking in subset {text!r}")
    return mask


def canonical_generator(mask: int, n: int) -> int:
    """Canonical key of the generator with side `mask`: the side omitting n.

    Idempotent, and identical on a subset and its complement.  Empty and
    full subsets do not name a generator.
    """
    validate_n(n)
    full = full_mask(n)
    if mask & ~full:
        raise InvalidInputError(f"mask {mask:#x} has bits outside 1..{n}")
    if mask == 0 or mask == full:
        raise InvalidInputError("empty or full subset does not define a generator")
    if mask >> (n - 1):
        return mask ^ full
    return mask


def is_psi_key(mask: int, n: int) -> bool:
    """True for the n canonical keys that stand for -psi classes."""
    return mask.bit_count() == 1 or mask == full_mask(n - 1)


def psi_marking(mask: int, n: int) -> int:
    """Marking number of a psi-type key ({i} -> i, {1..n-1} -> n)."""
    if mask == full_mask(n - 1):
        return n
    if mask.bit_count() == 1:
        return mask.bit_length()
    raise InvalidInputError(f"{format_subset(mask)} is not a psi-type key")


def all_generator_keys(n: int) -> range:
    """All canonical key masks for n markings: the nonzero masks on bits 0..n-2."""
    validate_n(n)
    return range(1, 1 << (n - 1))


@lru_cache(maxsize=None)
def stirling2(m: int, k: int) -> int:
    """Number of partitions of an m-set into k nonempty blocks."""
    if k == 0:
        return 1 if m == 0 else 0
    if m < k:
        return 0
    if m == k:
        return 1
    return stirling2(m - 1, k - 1) + k * stirling2(m - 1, k)


def count_fcurves(n: int) -> int:
    """Number of 4-block partitions of {1..n}, via the Stirling recurrence."""
    validate_n(n)
    return stirling2(n, 4)


@dataclass(frozen=True, slots=True)
class FCurve:
    """A partition of {1..n} into 4 nonempty blocks, as bit masks.

    Blocks are kept in canonical order, sorted by smallest element, so the
    value depends only on the underlying partition.
    """

    n: int
    blocks: tuple[int, int, int, int]

    def __post_init__(self):
        n = validate_n(self.n)
        blocks = self.blocks
        if len(blocks) != 4:
            raise InvalidInputError("an F-curve needs exactly 4 blocks")
        b0, b1, b2, b3 = blocks
        if b0 == 0 or b1 == 0 or b2 == 0 or b3 == 0:
            raise InvalidInputError("F-curve blocks must be nonempty")
        size = b0.bit_count() + b1.bit_count() + b2.bit_count() + b3.bit_count()
        if b0 | b1 | b2 | b3 != full_mask(n) or size != n:
            raise InvalidInputError(f"blocks must partition 1..{n} (disjoint, covering)")
        if not (b0 & -b0) < (b1 & -b1) < (b2 & -b2) < (b3 & -b3):
            object.__setattr__(self, "blocks", tuple(sorted(blocks, key=lambda b: b & -b)))

    @classmethod
    def _trusted(cls, n: int, blocks: tuple[int, int, int, int]) -> "FCurve":
        """Blocks known to be a canonical partition of 1..n; skips the checks."""
        curve = object.__new__(cls)
        object.__setattr__(curve, "n", n)
        object.__setattr__(curve, "blocks", blocks)
        return curve

    def __str__(self) -> str:
        return "|".join(format_subset(b) for b in self.blocks)


def parse_fcurve(text: str, n: int) -> FCurve:
    parts = text.split("|")
    if len(parts) != 4:
        raise InvalidInputError(f"an F-curve has 4 blocks, got {len(parts)} in {text!r}")
    return FCurve(n, tuple(parse_subset(p, n) for p in parts))  # type: ignore[arg-type]


_BLOCK_CACHE: dict[int, np.ndarray] = {}

#: Markings in the suffix tables of `fcurve_block_arrays`.  Six builds as fast
#: as 5, 7 or 8, and no temporary reaches 128 KiB up to n=13: freeing larger
#: ones raises glibc's mmap threshold and the later scans stay MBs larger.
_SUFFIX = 6


def _assign(blocks: np.ndarray, used: np.ndarray, bits: range, n: int):
    """Assign the markings at `bits` to partial partitions with `used` blocks
    opened: each joins an opened block, by index, or opens the next one, and
    branches that cannot reach 4 blocks by marking n are cut.  Children follow
    their parent in that order, so lexicographic rows stay lexicographic."""
    slots = np.arange(4)
    for i in bits:
        opened = used[:, None]
        ok = (slots == opened) | ((slots < opened) & (n - i > 4 - opened))
        parent, slot = np.nonzero(ok)
        blocks = blocks[parent]
        blocks[np.arange(len(parent)), slot] |= 1 << i
        used = np.maximum(used[parent], slot + 1)
    return blocks, used


def fcurve_block_arrays(n: int) -> np.ndarray:
    """All 4-block partitions of {1..n} as an (S(n,4), 4) int32 mask array.

    Row order is restricted-growth-string lexicographic: markings are
    assigned in increasing order, trying existing blocks by index before
    opening a new one.  Blocks within a row are ordered by smallest element.
    The array is cached per n and must not be mutated by callers.

    Built as prefixes times suffix tables: the prefixes assign the markings
    before the last 6, and for each count u of blocks a prefix opened, one
    table holds every completion of u blocks to 4 by the last markings, in
    the same order.  Each prefix in turn writes `table | prefix` into the
    next slice of the result, which keeps exactly the row order above.
    """
    validate_n(n)
    cached = _BLOCK_CACHE.get(n)
    if cached is not None:
        return cached

    split = max(1, n - _SUFFIX)
    one = np.array([[1, 0, 0, 0]], dtype=np.int32)  # marking 1 opens block 0
    prefixes, opened = _assign(one, np.array([1]), range(1, split), n)
    tables = {u: _assign(np.zeros_like(one), np.array([u]), range(split, n), n)[0]
              for u in set(opened.tolist())}
    arr = np.empty((stirling2(n, 4), 4), dtype=np.int32)
    start = 0
    for prefix, u in zip(prefixes, opened.tolist()):
        table = tables[u]
        np.bitwise_or(table, prefix, out=arr[start : start + len(table)])
        start += len(table)
    arr.setflags(write=False)
    _BLOCK_CACHE[n] = arr
    return arr


#: Rows converted to Python ints per `tolist` call: one call per row view
#: costs more than the FCurve checks themselves, one call for all rows
#: holds every row as Python ints at once.
_ENUM_CHUNK = 16384


def _check_partitions(arr: np.ndarray, n: int) -> None:
    """`FCurve`'s checks on every row at once: nonempty blocks in increasing
    order of their lowest markings, covering 1..n, disjoint (the masks sum to
    their union)."""
    low = arr & -arr
    ok = (arr != 0).all(axis=1) & (low[:, :-1] < low[:, 1:]).all(axis=1)
    ok &= np.bitwise_or.reduce(arr, axis=1) == full_mask(n)
    ok &= arr.sum(axis=1) == full_mask(n)
    if not ok.all():
        raise InvalidInputError(f"row {ok.argmin()} is not a canonical partition of 1..{n}")


def enumerate_fcurves(n: int) -> Iterator[FCurve]:
    """Yield every 4-block partition of {1..n} exactly once, in the fixed order.

    A pure, restartable stream; the length equals count_fcurves(n).  The
    rows are checked once, all together, before the first curve is made.
    """
    arr = fcurve_block_arrays(n)
    _check_partitions(arr, n)
    for start in range(0, len(arr), _ENUM_CHUNK):
        for blocks in map(tuple, arr[start : start + _ENUM_CHUNK].tolist()):
            yield FCurve._trusted(n, blocks)
