"""The (11,5,2) biplane: construction, design-axiom verification, automorphisms.

Blocks live on the ground set {1..11} and are stored as bit masks
(bit i-1 = point i), sorted by ascending element lists for deterministic
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import MalformedDesignError, VerificationFailedError
from .subsets import elements_from_mask, format_subset

POINTS = 11
BLOCK_SIZE = 5
GROUND_MASK = (1 << POINTS) - 1

#: Base block for the quadratic-residue construction: the nonzero squares mod 11.
QR_BASE_BLOCK = (1, 3, 4, 5, 9)


def _sort_blocks(masks: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(masks, key=elements_from_mask))


@dataclass(frozen=True)
class Biplane:
    """Eleven 5-element blocks over {1..11} satisfying the 2-design axioms."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        if len(self.blocks) != POINTS:
            raise MalformedDesignError(
                f"a biplane has {POINTS} blocks, got {len(self.blocks)}"
            )
        for b in self.blocks:
            if b & ~GROUND_MASK:
                raise MalformedDesignError("block contains a point outside 1..11")
            if b.bit_count() != BLOCK_SIZE:
                raise MalformedDesignError(
                    f"block {format_subset(b)} does not have {BLOCK_SIZE} points"
                )
        ordered = _sort_blocks(self.blocks)
        if ordered != self.blocks:
            object.__setattr__(self, "blocks", ordered)

    def block_elements(self) -> list[tuple[int, ...]]:
        return [elements_from_mask(b) for b in self.blocks]


@dataclass(frozen=True)
class DesignReport:
    """Observed design constants after a successful verification."""

    pair_replication: int
    block_intersections_ok: bool
    point_replication: int


def build_biplane_qr() -> Biplane:
    """The biplane whose blocks are the mod-11 translates of {1,3,4,5,9}."""
    blocks = []
    for t in range(POINTS):
        mask = 0
        for x in QR_BASE_BLOCK:
            mask |= 1 << ((x - 1 + t) % POINTS)
        blocks.append(mask)
    return Biplane(tuple(blocks))


def verify_biplane(bp: Biplane) -> DesignReport:
    """Check the 2-design axioms and return the observed constants.

    Raises VerificationFailedError with the first offending witness when an
    axiom fails.  Structural problems (block count/size) are rejected by the
    Biplane constructor itself.
    """
    blocks = bp.blocks
    for i, j in combinations(range(POINTS), 2):
        pair = (1 << i) | (1 << j)
        hits = sum(1 for b in blocks if b & pair == pair)
        if hits != 2:
            raise VerificationFailedError(
                f"pair {{{i + 1},{j + 1}}} lies in {hits} blocks, expected 2",
                witness=(i + 1, j + 1),
            )
    for a, b in combinations(blocks, 2):
        common = (a & b).bit_count()
        if common != 2:
            raise VerificationFailedError(
                f"blocks {format_subset(a)} and {format_subset(b)} "
                f"meet in {common} points, expected 2",
                witness=(format_subset(a), format_subset(b)),
            )
    for p in range(POINTS):
        reps = sum(1 for b in blocks if b >> p & 1)
        if reps != 5:
            raise VerificationFailedError(
                f"point {p + 1} lies in {reps} blocks, expected 5", witness=p + 1
            )
    return DesignReport(pair_replication=2, block_intersections_ok=True, point_replication=5)


def _automorphism_search(blocks: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Backtracking over point images, pruning on block compatibility.

    A partial map is viable only while the partial image of every block is
    still contained in some block.
    """
    blocks_containing = [
        [b for b in blocks if b >> p & 1] for p in range(POINTS)
    ]
    image = [-1] * POINTS
    used = 0
    partial = {b: 0 for b in blocks}

    def extend(p: int) -> Iterator[tuple[int, ...]]:
        nonlocal used
        if p == POINTS:
            yield tuple(image)
            return
        for q in range(POINTS):
            bit = 1 << q
            if used & bit:
                continue
            image[p] = q
            used |= bit
            touched = blocks_containing[p]
            for b in touched:
                partial[b] |= bit
            if all(
                any(partial[b] & ~c == 0 for c in blocks) for b in touched
            ):
                yield from extend(p + 1)
            for b in touched:
                partial[b] ^= bit
            used ^= bit
            image[p] = -1

    yield from extend(0)


def automorphisms(bp: Biplane) -> Iterator[tuple[int, ...]]:
    """All permutations of {1..11} mapping the block set to itself.

    Each is yielded as a tuple im with im[p-1] + 1 the image of point p.
    """
    block_set = set(bp.blocks)
    for image in _automorphism_search(bp.blocks):
        mapped = set()
        for b in bp.blocks:
            m = 0
            for e in elements_from_mask(b):
                m |= 1 << image[e - 1]
            mapped.add(m)
        if mapped == block_set:
            yield image


def automorphism_group_order(bp: Biplane) -> int:
    """Order of the symmetry group, by exhaustive pruned backtracking."""
    return sum(1 for _ in automorphisms(bp))


def format_biplane(bp: Biplane) -> str:
    return "\n".join(" ".join(str(e) for e in row) for row in bp.block_elements()) + "\n"


def parse_biplane(text: str) -> Biplane:
    """Parse the 11-line block format (5 ascending integers per line)."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if len(rows) != POINTS:
        raise MalformedDesignError(f"expected {POINTS} block lines, got {len(rows)}")
    blocks = []
    for row in rows:
        try:
            elems = [int(tok) for tok in row]
        except ValueError as exc:
            raise MalformedDesignError(f"bad block line {' '.join(row)!r}: {exc}") from None
        mask = 0
        for e in elems:
            if not 1 <= e <= POINTS:
                raise MalformedDesignError(f"point {e} out of range 1..{POINTS}")
            mask |= 1 << (e - 1)
        if mask.bit_count() != len(elems):
            raise MalformedDesignError(f"repeated point in block {' '.join(row)!r}")
        blocks.append(mask)
    return Biplane(tuple(blocks))


def load_biplane(path: str) -> Biplane:
    """Parse a block file and check the design axioms (verify_biplane)."""
    with open(path, "r", encoding="utf-8") as fh:
        bp = parse_biplane(fh.read())
    verify_biplane(bp)
    return bp
