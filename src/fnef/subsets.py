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


def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, marked read-only."""
    a.setflags(write=False)
    return a


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


#: Markings after the enumeration's one prefix cut; the scan and the rows
#: both read its layout (`slot_layout`).  Its scan plan takes 0.27 MiB at 7
#: and serves every n >= 8.  Warm `fnef_check` (median of 9 interleaved
#: rounds of 10 scans, one pinned vCPU, 64 KiB chunks) took 1.19 ms in int8
#: at n=12, 3.66 ms at n=13 and 4.18 ms in int64 at n=12; 6 (187 prefixes
#: at n=12, not 51) took 1.43, 4.77 and 5.76 ms, and 8 took 1.10, 3.98 and
#: 5.13 ms, its int8 within the rounds' interquartile spread of 7 (0.23 ms
#: at n=12, 0.49 at n=13), with a 1.06 MiB plan and an int64 traced peak
#: at n=12 of the zero bits plus 2.0 MiB, against 0.59.
_CUT = 7


@lru_cache(maxsize=None)
def slot_heads(s: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The slots of an s-marking suffix, per count u = 1..4 of blocks open
    before it, all read-only.  Its first s-2 markings form a head, and its
    last two the head's slot j = 4 b + b' of 16 when they join blocks b and
    b'.  Per u: the heads that some slot completes to 4 blocks, as (h, 4)
    int32 masks on bits 0..s-3 in enumeration order, and which slots of
    their grids of 16, head i's slot j at 16 i + j, complete one.  Both
    come from the walk that defines the order, `_assign`: the heads are its
    walk over the first s-2 markings, cut at s, and a head's valid slots
    its walk over the last two after the head's v open blocks."""
    empty = np.zeros((1, 4), dtype=np.int32)
    # ok[v, 4 b + b']: blocks b, b' of the last two markings complete v open
    # blocks; block k adds k times 4, 1 or 5 to the slot when it holds the
    # first of them, the second or both
    ok = np.zeros((5, 16), dtype=bool)
    for v in range(2, 5):
        last, _ = _assign(empty, np.array([v]), range(2), 2)
        ok[v, np.array([0, 4, 1, 5])[last] @ np.arange(4)] = True
    walks = {u: _assign(empty, np.array([u]), range(s - 2), s) for u in range(1, 5)}
    return {u: (read_only(head), read_only(ok[used].ravel())) for u, (head, used) in walks.items()}


@lru_cache(maxsize=None)
def slot_layout(n: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The enumeration's layout at n, from one walk of its prefixes, all
    read-only: the suffix length s, the markings after the cut (`_CUT`, or
    all after marking 1 when n is smaller); the prefixes, every way the
    markings before it start a 4-block partition of {1..n}, as (k, 4) int32
    masks in enumeration order; the blocks each one opened; and the k + 1
    bounds of their slots and of their curves, running totals from 0 of 16
    slots per head and of the valid ones (`slot_heads`)."""
    split = max(1, n - _CUT)
    one = np.array([[1, 0, 0, 0]], dtype=np.int32)  # marking 1 opens block 0
    prefixes, opened = _assign(one, np.array([1]), range(1, split), n)
    # size[u]: the slots and the curves of a prefix that opened u blocks
    valid = [v for _, v in slot_heads(n - split).values()]
    size = np.array([(0, 0)] + [(len(v), np.count_nonzero(v)) for v in valid])
    slots, curves = np.vstack([[0, 0], size[opened].cumsum(axis=0)]).T.copy()
    return n - split, *map(read_only, (prefixes, opened, slots, curves))


def _slot_rows(n: int) -> dict[int, np.ndarray]:
    """Per count u of blocks a prefix of the layout at n opened
    (`slot_layout`), its completions: the blocks of its valid slots in slot
    order, as (c, 4) int32 masks of the suffix markings.  A slot's blocks
    are its head's with those of the last two markings, slot j = 4 b + b'
    putting marking n-1 in block b and marking n in b'.  Built on each
    call, 0.6 MiB for every n >= 8, so no table outlives its caller.  Its
    temporaries reach 256 KiB, and freeing them raises glibc's mmap
    threshold; pinning the threshold at 128 KiB moved the fresh-process
    peaks of the whole array, of `extremality_rank` and of one scan by at
    most 0.45 MB at n=12 and 13 (`BENCH_slot_rows.json`)."""
    s = slot_layout(n)[0]
    eye, slot = np.eye(4, dtype=np.int32), np.arange(16)
    last = eye[slot // 4] << n - 2 | eye[slot % 4] << n - 1
    rows = {}
    for u, (head, valid) in slot_heads(s).items():
        i, j = np.nonzero(valid.reshape(-1, 16))  # head i's slot j
        rows[u] = (head << n - s).take(i, axis=0)
        rows[u] |= last.take(j, axis=0)
    return rows


def fcurve_block_arrays(n: int, bits: Optional[np.ndarray] = None) -> np.ndarray:
    """All 4-block partitions of {1..n} as an (S(n,4), 4) int32 mask array,
    or the flagged ones alone: `bits` flags slots of the enumeration's
    layout (`slot_layout`), packed 8 to a byte in slot order, as the zero
    bits of a scan do (`pairing.scan_fcurves`); None flags every curve.

    Row order is restricted-growth-string lexicographic: markings are
    assigned in increasing order, trying existing blocks by index before
    opening a new one.  Blocks within a row are ordered by smallest element.
    Each call builds a fresh read-only array and nothing keeps it: a caller
    that reads it once per job frees it when done (9.8 MB at n=12, 38.6 MiB
    at n=13).  An array that would not fit in physical memory, 16 bytes a
    row, is refused before it is allocated (InvalidInputError; 2.6 GiB at
    n=16).  `fcurve_at` gives one row without building it.

    Built one prefix at a time: each prefix writes its completions
    (`_slot_rows`) `| prefix`, or those of the slots `bits` flags, into the
    next slice of one preallocated result, which keeps exactly the row
    order above.  `bits` must be a 1-D uint8 array of one bit per slot
    (`pairing.slot_count`) that flags no slot completing no curve; anything
    else, a boolean mask over the curves included, raises
    InvalidInputError.
    """
    n = validate_n(n)
    s, prefixes, opened, slots, curves = slot_layout(n)
    rows = int(curves[-1])
    if bits is not None:
        size = int(slots[-1]) // 8
        if not (isinstance(bits, np.ndarray) and bits.dtype == np.uint8 and bits.shape == (size,)):
            raise InvalidInputError(f"bits must be a 1-D uint8 array of {size} bytes for n={n}")
        rows = int(np.bitwise_count(bits).sum())
    check_memory(16 * rows, f"the {rows} x 4 int32 partition array")
    heads, tables = slot_heads(s), _slot_rows(n)
    arr = np.empty((rows, 4), dtype=np.int32)
    start = 0
    for prefix, u, low, high in zip(prefixes, opened.tolist(), slots[:-1] // 8, slots[1:] // 8):
        table = tables[u]
        if bits is not None:  # the completions of the flagged slots
            flags = np.unpackbits(bits[low:high]).view(bool)[heads[u][1]]
            table = table.compress(flags, axis=0)
        # the prefix ORed in column by column, over its u open blocks: a
        # broadcast `table | prefix` steps 4 values at a time, 5.1 ms at
        # n=12 against 2.3 (one pinned vCPU)
        out = arr[start : start + len(table)]
        out[...] = table
        for k, mask in enumerate(prefix[:u].tolist()):
            out[:, k] |= mask
        start += len(table)
    if start != rows:
        raise InvalidInputError(f"bits flag {rows - start} slots that complete no curve")
    return read_only(arr)


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
    prefix's rows, its completions `| prefix` (`_slot_rows`), are checked
    together before the first of them is yielded.
    """
    n = validate_n(n)
    _, prefixes, opened, _, _ = slot_layout(n)
    tables = _slot_rows(n)
    start = 0
    for prefix, u in zip(prefixes, opened.tolist()):
        rows = tables[u] | prefix
        _check_partitions(rows, n, start)
        yield from (FCurve._trusted(n, tuple(blocks)) for blocks in rows.tolist())
        start += len(rows)
