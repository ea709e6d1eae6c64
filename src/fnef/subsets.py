"""Subset masks, canonical generator keys, and 4-block partition enumeration.

Markings are named 1..n and stored as bits 0..n-1 of an integer mask.
A generator key is the side of a marking partition that does not contain
marking n; singleton keys stand for the negated cotangent classes.
All higher modules iterate partitions in the fixed order produced here.
"""

from __future__ import annotations

import operator
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import InvalidInputError

MIN_MARKINGS = 4
#: Block masks are int32; the cap is the uint16 key arrays of
#: `divisors.relation_matrix` and `divisors.RelationSystem`.
MAX_MARKINGS = 16


def exact_int(value, what: str) -> int:
    """`value` as a Python int when `operator.index` accepts it and it is not
    a bool (ints and numpy integers); raises InvalidInputError for anything
    else, so that 0.5, 1.0, Fraction(1, 2), "3" or True is refused rather
    than truncated or converted."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInputError(f"{what} must be an integer, got {value!r}")


def integer(text: str) -> int:
    """The integer that `text` writes as an optional sign and ASCII digits;
    raises InvalidInputError for anything else, such as "1_0", " 7" or a
    non-ASCII digit, which `int` would read."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise InvalidInputError(f"invalid integer {text!r}")
    return int(text)


def validate_n(n: int) -> int:
    """The marking count `n` as a Python int (`exact_int`) in
    [MIN_MARKINGS, MAX_MARKINGS]; raises InvalidInputError otherwise."""
    n = exact_int(n, "marking count")
    if not MIN_MARKINGS <= n <= MAX_MARKINGS:
        raise InvalidInputError(
            f"marking count must be an integer in [{MIN_MARKINGS}, {MAX_MARKINGS}], got {n}"
        )
    return n


def physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(need: int, what: str) -> None:
    """Refuse, before allocating, `what` needing more than the physical
    memory: raises InvalidInputError."""
    have = physical_memory()
    if need > have:
        raise InvalidInputError(
            f"{what} needs {need} bytes, more than the {have} bytes of physical memory"
        )


def full_mask(n: int) -> int:
    """Mask of the whole marking set {1..n}."""
    return (1 << n) - 1


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    """The mask of markings `elements`, each an integer (`exact_int`) in
    1..n; raises InvalidInputError otherwise."""
    m = 0
    for e in elements:
        e = exact_int(e, "marking")
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


@lru_cache(maxsize=None)
def _subset_text() -> tuple[tuple[str, ...], ...]:
    """Per byte value, the text of its set bits read as markings 1-8 and as
    markings 9-16; built on first use, not at import.  Each marking doubles
    a table: the bytes with its bit are those without it, its marking last."""
    tables = []
    for offset in (0, 8):
        text = [""]
        for e in range(offset + 1, offset + 9):
            text += [f"{t},{e}" if t else str(e) for t in text]
        tables.append(tuple(text))
    return tuple(tables)


def format_subset(mask: int) -> str:
    """Serialize a subset of 1..16 (`MAX_MARKINGS`) as comma-separated
    ascending integers, the text of its low and its high byte joined."""
    low, high = _subset_text()
    low, high = low[mask & 255], high[mask >> 8]
    return f"{low},{high}" if low and high else low or high


def parse_subset(text: str, n: int) -> int:
    """The mask of a subset written as comma-separated markings of 1..n;
    raises InvalidInputError for anything else, a non-string included."""
    if not isinstance(text, str):
        raise InvalidInputError(f"subset must be a string, got {text!r}")
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if not parts:
        raise InvalidInputError(f"empty subset in {text!r}")
    try:
        elems = [integer(p) for p in parts]
    except InvalidInputError as exc:
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
    n, mask = validate_n(n), exact_int(mask, "mask")
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


def psi_key(i: int, n: int) -> int:
    """The psi-type key of marking i: {i} for i < n, {1..n-1} for i = n.
    The keys of markings 1..n are exactly those of `is_psi_key`."""
    return full_mask(n - 1) if i == n else 1 << (i - 1)


def all_generator_keys(n: int) -> range:
    """All canonical key masks for n markings: the nonzero masks on bits 0..n-2."""
    return range(1, 1 << (validate_n(n) - 1))


@lru_cache(maxsize=None)
def _completions(r: int, u: int) -> int:
    """Ways to place r more markings, u blocks open, ending with 4 open:
    each joins one of the u blocks or opens the next."""
    if r == 0 or u > 4:
        return int(u == 4)
    return u * _completions(r - 1, u) + _completions(r - 1, u + 1)


def count_fcurves(n: int) -> int:
    """Number of 4-block partitions of {1..n}: the ways to place markings
    2..n once marking 1 has opened block 0 (`_completions`)."""
    return _completions(validate_n(n) - 1, 1)


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
        blocks = tuple(exact_int(b, "block") for b in self.blocks)
        if len(blocks) != 4:
            raise InvalidInputError("an F-curve needs exactly 4 blocks")
        b0, b1, b2, b3 = blocks
        if b0 == 0 or b1 == 0 or b2 == 0 or b3 == 0:
            raise InvalidInputError("F-curve blocks must be nonempty")
        size = b0.bit_count() + b1.bit_count() + b2.bit_count() + b3.bit_count()
        if b0 | b1 | b2 | b3 != full_mask(n) or size != n:
            raise InvalidInputError(f"blocks must partition 1..{n} (disjoint, covering)")
        object.__setattr__(self, "n", n)
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


#: Markings in the completion tables of `fcurve_block_arrays`.  Six builds
#: as fast as 5, 7 or 8, and no temporary reaches 128 KiB up to n=13: freeing
#: larger ones raises glibc's mmap threshold and the later scans stay MBs larger.
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


def fcurve_prefixes(n: int, suffix: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The enumeration cut before its last `suffix` markings, or after
    marking 1 when n is smaller: returns the number `split` of markings
    before the cut, every way they start a 4-block partition of {1..n} as a
    (k, 4) int32 mask array in enumeration order, and the number of blocks
    each one opened."""
    n = validate_n(n)
    split = max(1, n - suffix)
    one = np.array([[1, 0, 0, 0]], dtype=np.int32)  # marking 1 opens block 0
    prefixes, opened = _assign(one, np.array([1]), range(1, split), n)
    return split, prefixes, opened


def completion_tables(n: int, split: int) -> dict[int, np.ndarray]:
    """Per count u = 1..4 of blocks markings 1..split opened, the ways the
    markings after them complete a 4-block partition of {1..n}, as a (k, 4)
    int32 mask array in enumeration order."""
    empty = np.zeros((1, 4), dtype=np.int32)
    return {u: _assign(empty, np.array([u]), range(split, n), n)[0] for u in range(1, 5)}


def fcurve_block_arrays(n: int, keep: Optional[np.ndarray] = None) -> np.ndarray:
    """All 4-block partitions of {1..n} as an (S(n,4), 4) int32 mask array,
    or with a boolean `keep` over them only the rows it marks, without
    building the others.

    Row order is restricted-growth-string lexicographic: markings are
    assigned in increasing order, trying existing blocks by index before
    opening a new one.  Blocks within a row are ordered by smallest element.
    Each call builds a fresh read-only array and nothing keeps it: a caller
    that reads it once per job frees it when done (9.8 MB at n=12, 38.6 MiB
    at n=13).  An array that would not fit in physical memory, 16 bytes a
    row, is refused before it is allocated (InvalidInputError; 2.6 GiB at
    n=16).  `fcurve_at` gives one row without building it.

    Built as prefixes times completion tables: the prefixes
    (`fcurve_prefixes`) assign the markings before the last 6, and each
    prefix that opened u blocks writes its table (`completion_tables`), or
    the rows of it `keep` marks at its positions, `| prefix` into the next
    slice of the result, which keeps exactly the row order above.
    """
    rows = count_fcurves(n)
    if keep is not None:
        if not (isinstance(keep, np.ndarray) and keep.dtype == bool and keep.shape == (rows,)):
            raise InvalidInputError(f"keep must be a 1-D boolean array of length {rows} for n={n}")
        rows = int(np.count_nonzero(keep))
    check_memory(16 * rows, f"the {rows} x 4 int32 partition array")

    split, prefixes, opened = fcurve_prefixes(n, _SUFFIX)
    tables = completion_tables(n, split)
    arr = np.empty((rows, 4), dtype=np.int32)
    start = 0
    for prefix, u in zip(prefixes, opened.tolist()):
        table = tables[u]
        if keep is not None:  # the table rows kept at this prefix's positions
            table, keep = table[keep[: len(table)]], keep[len(table) :]
        np.bitwise_or(table, prefix, out=arr[start : start + len(table)])
        start += len(table)
    arr.setflags(write=False)
    return arr


def fcurve_at(n: int, index: int) -> FCurve:
    """The curve at `index` in the enumeration order, row `index` of
    `fcurve_block_arrays(n)`, without building the array.

    The order assigns markings in turn, joining an open block by index
    before opening the next one, so the rows where a marking joins one of
    u open blocks come in u runs of `_completions(r, u)` rows each, and the
    rows where it opens the next block after them.  Each marking's choice
    is read off the index with plain integers.
    """
    n, index = validate_n(n), exact_int(index, "F-curve index")
    rows = count_fcurves(n)
    if not 0 <= index < rows:
        raise InvalidInputError(f"F-curve index {index} is outside [0, {rows})")
    blocks = [1, 0, 0, 0]  # marking 1 opens block 0
    u = 1
    for i in range(1, n):
        run = _completions(n - 1 - i, u)
        if index < u * run:
            slot, index = divmod(index, run)
        else:  # past the u runs: the marking opens block u
            index -= u * run
            slot = u
            u += 1
        blocks[slot] |= 1 << i
    return FCurve._trusted(n, tuple(blocks))  # type: ignore[arg-type]


def _check_partitions(arr: np.ndarray, n: int, start: int) -> None:
    """`FCurve`'s checks on every row at once: nonempty blocks in increasing
    order of their lowest markings, covering 1..n, disjoint (the masks sum to
    their union).  A refusal names the row's enumeration position, with the
    first row at `start`."""
    low = arr & -arr
    ok = (arr != 0).all(axis=1) & (low[:, :-1] < low[:, 1:]).all(axis=1)
    ok &= np.bitwise_or.reduce(arr, axis=1) == full_mask(n)
    ok &= arr.sum(axis=1) == full_mask(n)
    if not ok.all():
        raise InvalidInputError(f"row {start + ok.argmin()} is not a canonical partition of 1..{n}")


def enumerate_fcurves(n: int) -> Iterator[FCurve]:
    """Yield every 4-block partition of {1..n} exactly once, in the fixed order.

    A pure, restartable stream; the length equals count_fcurves(n).  It walks
    the prefixes of `fcurve_block_arrays` without building the array: each
    prefix's rows, its completion table `| prefix`, are checked together
    before the first of them is yielded.
    """
    split, prefixes, opened = fcurve_prefixes(n, _SUFFIX)
    tables = completion_tables(n, split)
    start = 0
    for prefix, u in zip(prefixes, opened.tolist()):
        rows = tables[u] | prefix
        _check_partitions(rows, n, start)
        yield from (FCurve._trusted(n, tuple(blocks)) for blocks in rows.tolist())
        start += len(rows)
