"""Divisor classes, pair relations, canonical reduction, named divisors."""

import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fnef import (
    Biplane,
    DivisorClass,
    biplane_block_star_divisor,
    biplane_divisor,
    canonical_divisor,
    divisor_from_json_dict,
    divisor_from_text,
    divisor_to_json_dict,
    divisor_to_text,
    eliminate_psi,
    enumerate_fcurves,
    fnef_check,
    pair_divisor_fcurve,
    parse_divisor,
    pairing_values,
    pullback_forgetful,
    reduce_canonical,
    relation_row,
    relation_system,
    symmetric_divisor,
)
import fnef.divisors
from fnef.divisors import divisor_to_json_text, relation_matrix
from fnef.errors import BoundaryFormError, InvalidInputError, MalformedInputError
from fnef.subsets import (
    MAX_MARKINGS,
    MIN_MARKINGS,
    all_generator_keys,
    canonical_generator,
    elements_from_mask,
    full_mask,
    mask_from_elements,
)
from oracles import (
    biplane_divisor_oracle,
    canonical_divisor_oracle,
    divisor_json_oracle,
    pullback_oracle,
    rank_exact,
    symmetric_divisor_oracle,
)


def add_reduced(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if not out[k]:
            del out[k]
    return out


def random_divisor(n, rng, terms=10, bound=5):
    coeffs = {}
    for _ in range(terms):
        mask = rng.randrange(1, full_mask(n))
        key = canonical_generator(mask, n)
        coeffs[key] = coeffs.get(key, 0) + rng.randrange(-bound, bound + 1)
    return DivisorClass(n, {k: v for k, v in coeffs.items() if v})


def test_relation_row_term_count():
    # oracle: sides containing 1 and omitting 2 inside {1..5} are {1} union
    # any subset of {3,4,5}
    row = relation_row(1, 2, 5)
    assert row.support_size() == 8
    assert all(c == 1 for c in row.coeffs.values())
    expected = set()
    for sub in range(8):
        side = {1} | {e for i, e in enumerate([3, 4, 5]) if sub >> i & 1}
        expected.add(canonical_generator(mask_from_elements(side, 5), 5))
    assert set(row.coeffs) == expected


def test_relation_row_rejects_bad_pairs():
    with pytest.raises(InvalidInputError):
        relation_row(2, 2, 6)
    with pytest.raises(InvalidInputError):
        relation_row(3, 1, 6)
    with pytest.raises(InvalidInputError):
        relation_row(1, 7, 6)


# The list-based elimination the closed form replaced, kept as its oracle:
# relation rows by walking every side that holds i and omits j, then
# Gauss-Jordan on Python integers with a gcd per entry.


def oracle_relation_rows(n):
    full = full_mask(n)
    rows = []
    for i, j in combinations(range(1, n + 1), 2):
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        rest = full & ~bi & ~bj
        row = [0] * ((1 << (n - 1)) - 1)
        sub = rest
        while True:
            row[canonical_generator(sub | bi, n) - 1] += 1
            if sub == 0:
                break
            sub = (sub - 1) & rest
        rows.append(row)
    return rows


def oracle_normalize(row):
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
    if g == 0:
        return
    lead = next(x for x in row if x)
    if lead < 0:
        g = -g
    if g != 1:
        for c, x in enumerate(row):
            row[c] = x // g


def oracle_row_reduce(rows):
    """Rows and pivot columns of the reduced row echelon form, each row
    normalized to gcd 1 with a positive leading entry."""
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, nrows) if rows[k][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        oracle_normalize(rows[r])
        piv = rows[r][c]
        for k in range(nrows):
            if k == r or not rows[k][c]:
                continue
            a = rows[k][c]
            g = gcd(piv, a)
            ms, mo = piv // g, a // g
            rows[k] = [x * ms - y * mo for x, y in zip(rows[k], rows[r])]
            oracle_normalize(rows[k])
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivot_cols


@lru_cache(maxsize=None)
def oracle_system(n):
    return oracle_row_reduce(oracle_relation_rows(n))


def oracle_reduce(d):
    """Eliminate each pivot key with Fraction updates along its row."""
    rows, pivot_cols = oracle_system(d.n)
    pivots = set(pivot_cols)
    out = {}
    for mask, c in d.coeffs.items():
        if mask - 1 not in pivots:
            out[mask] = out.get(mask, Fraction(0)) + Fraction(c)
    for k, pc in enumerate(pivot_cols):
        delta = d.coeffs.get(pc + 1, 0)
        if not delta:
            continue
        lam = Fraction(delta, rows[k][pc])
        for c, v in enumerate(rows[k]):
            if v and c != pc:
                out[c + 1] = out.get(c + 1, Fraction(0)) - lam * v
    return {m: v for m, v in out.items() if v}


@lru_cache(maxsize=None)
def reduced_rows(n):
    """The reduced relation rows at the free keys, a (pivots, free keys)
    int64 array in `pivot_masks` and `free_masks` order: the row of pivot P
    is minus the reduction of the unit class at P."""
    rs = relation_system(n)
    rows = np.zeros((rs.rank, rs.ambient_dim), dtype=np.int64)
    for k, pivot in enumerate(rs.pivot_masks.tolist()):
        reduced = reduce_canonical(DivisorClass(n, {pivot: 1}))
        keys = np.fromiter(reduced, np.int64, len(reduced))
        rows[k, rs.free_index[keys]] = np.fromiter(reduced.values(), np.int64, len(reduced))
    return -rows


def test_relation_matrix_matches_the_int64_build():
    # the uint8 build against the former int64 one, which cast at the end
    for n in range(4, 14):
        bits = (np.arange(1, 1 << (n - 1)) >> np.arange(n)[:, None]) & 1
        i, j = np.triu_indices(n, 1)
        expected = (bits[i] ^ bits[j]).astype(np.int8)
        got = relation_matrix(n)
        assert got.dtype == np.int8 and np.array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", range(4, 11))
def test_relation_system_matches_list_oracle(n):
    relations = oracle_relation_rows(n)
    assert relation_matrix(n).tolist() == relations
    for (i, j), row in zip(combinations(range(1, n + 1), 2), relations):
        assert relation_row(i, j, n).coeffs == {c + 1: 1 for c, v in enumerate(row) if v}
    rows, pivot_cols = oracle_system(n)
    free_cols = [c for c in range(len(rows[0])) if c not in set(pivot_cols)]
    free_index = [-1] * (1 << (n - 1))
    for pos, c in enumerate(free_cols):
        free_index[c + 1] = pos
    rs = relation_system(n)
    assert rs.rank == len(pivot_cols)
    assert rs.pivot_masks.tolist() == [c + 1 for c in pivot_cols]
    assert rs.free_masks.tolist() == [c + 1 for c in free_cols]
    assert rs.free_index.tolist() == free_index
    assert all(rows[k][c] == 1 for k, c in enumerate(pivot_cols))
    assert reduced_rows(n).tolist() == [[row[c] for c in free_cols] for row in rows[: rs.rank]]
    # the free keys hold all of a row: it vanishes at every other pivot key
    assert all(rows[k][c] == 0 for k in range(rs.rank) for c in pivot_cols if c != pivot_cols[k])


@pytest.mark.parametrize("n", range(4, 14))
def test_relation_rank_is_pair_count(n):
    # and the pivots are exactly the keys of one or two markings
    rs = relation_system(n)
    assert rs.rank == comb(n, 2)
    assert rs.ambient_dim == (1 << (n - 1)) - 1 - rs.rank
    assert rs.pivot_masks.tolist() == [m for m in all_generator_keys(n) if bin(m).count("1") <= 2]


@pytest.mark.parametrize("n", range(MIN_MARKINGS, MAX_MARKINGS + 1))
def test_relation_system_spans_the_relations(n):
    # containment, in int64: relation (a, b) is the sum of the reduced rows
    # at the pivot keys it holds, namely {a}, {b} and the pairs with exactly
    # one of a, b (a 0/1 row of relation_matrix); at the pivots each reduced
    # row is its unit vector, so the sum matches there by construction
    rs = relation_system(n)
    relations = relation_matrix(n)
    pivots = np.array(rs.pivot_masks) - 1
    free = np.array(rs.free_masks) - 1
    rows = reduced_rows(n)
    for row in relations:
        assert np.array_equal(rows[row[pivots] == 1].sum(axis=0), row[free])
    # independence: the relations have rank C(n,2), so they span exactly
    # the reduced rows
    assert rank_exact(relations[:, pivots].tolist(), rs.rank) == rs.rank == comb(n, 2)


#: sha256 of the reduced rows at the free keys (`reduced_rows`) as
#: little-endian int64 bytes and of the pivot masks as int64 bytes, and
#: `reduce_weight`, as the former Gauss-Jordan elimination produced them.
PINNED_SYSTEMS = {
    11: ("a92311c3d8914facd7010f57db8b82e03dc9fe896fdc91c3595a423b3ca2fa1a",
         "a018cdaf9baeb886221f5dd0b0f40a7b9455a6b7d465001101f260b2ada2aafb", 126),
    12: ("22d058a3b0483c153f6eb80f22c98d2aaa3a5fe4228fcd836c028c183b93a4e1",
         "513e96658ba7d9693038434d1099acd8f4ae20f2ca0020003193f0932800bfc9", 155),
    13: ("bb5741333e3d50e6f02b6a7344269235f4089f6f107df2961b5c376a50d39092",
         "af0c6f51606fe4ea073a094a28df7e7e94c8b12503878edcfafe285c8b5b9bd5", 187),
    14: ("e004994ca528b2937ce38bd2b3bc3b72572a80137a529a3117354364f334aba5",
         "d8b75211a5fe80b200d6da4f9ebd93c1aa552cc95a360fdd97047fd71880b15b", 222),
    15: ("800a8d2b224eee3395cac29111e892921f939c06cd76b2038b5a3ec1f0da9c72",
         "5777930072aafb105116c2c5b34a91e3a01c48857f9667ad705fe2e049ea27c7", 260),
    16: ("97d9770f2fe720fd01358f87b7284210aadb5a5647c6292ca51e1c3945902c1c",
         "76e7f3bc86f57f130c7d8f7fbba0592a95ec7ab2443e9ee1d5a447e8ab4e97d2", 301),
}


@pytest.mark.parametrize("n", sorted(PINNED_SYSTEMS))
def test_relation_system_matches_pinned_elimination(n):
    rs = relation_system(n)
    rows_sha, pivots_sha, weight = PINNED_SYSTEMS[n]
    rows = reduced_rows(n)
    assert rows.shape == (comb(n, 2), (1 << (n - 1)) - 1 - comb(n, 2))
    assert hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest() == rows_sha
    pivots = np.array(rs.pivot_masks, dtype="<i8").tobytes()
    assert hashlib.sha256(pivots).hexdigest() == pivots_sha
    assert rs.reduce_weight == weight


def test_dimension_at_five_and_twelve():
    assert relation_system(5).ambient_dim == 5
    assert relation_system(12).rank == 66
    assert relation_system(12).ambient_dim == 1981


@pytest.mark.parametrize("n", [5, 6])
def test_every_relation_row_reduces_to_zero(n):
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assert reduce_canonical(relation_row(i, j, n)) == {}


def test_reduce_is_linear_and_relation_invariant():
    rng = random.Random(11)
    for _ in range(15):
        a = random_divisor(6, rng)
        b = random_divisor(6, rng)
        assert reduce_canonical(a + b) == add_reduced(reduce_canonical(a), reduce_canonical(b))
        assert reduce_canonical(a + 3 * relation_row(2, 5, 6)) == reduce_canonical(a)


@given(st.integers(min_value=0, max_value=2**60))
@settings(max_examples=30, deadline=None)
def test_reduce_invariance_under_random_relation_combos(seed):
    rng = random.Random(seed)
    n = 5
    d = random_divisor(n, rng)
    shifted = d
    for _ in range(3):
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)
        shifted = shifted + rng.randrange(-4, 5) * relation_row(i, j, n)
    assert reduce_canonical(shifted) == reduce_canonical(d)


def reduce_limit(n):
    """Largest coefficient magnitude reduce_canonical accepts at n."""
    return ((1 << 63) - 1) // relation_system(n).reduce_weight


@given(st.integers(min_value=5, max_value=8), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_reduce_canonical_matches_fraction_oracle(n, pivots_only, data):
    rs = relation_system(n)
    limit = reduce_limit(n)
    keys = rs.pivot_masks.tolist() if pivots_only else list(all_generator_keys(n))
    coeff = st.one_of(
        st.integers(-5, 5),
        st.integers(limit - 2, limit + 2),
        st.integers(-limit - 2, -limit + 2),
    )
    d = DivisorClass(n, data.draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=12)))
    if max(map(abs, d.coeffs.values()), default=0) > limit:
        with pytest.raises(InvalidInputError):
            reduce_canonical(d)
    else:
        reduced = reduce_canonical(d)
        assert reduced == oracle_reduce(d)
        assert all(type(x) is int for x in reduced.values())


@pytest.mark.parametrize("n", [5, 8])
def test_reduce_canonical_worst_case_at_the_bound(n):
    # signs chosen so that one coordinate reaches limit * reduce_weight; the
    # oracle's pivot entries are all 1, so the reduced rows are the weights
    rs = relation_system(n)
    rows, pivot_cols = oracle_system(n)
    assert all(rows[k][c] == 1 for k, c in enumerate(pivot_cols))
    weights = reduced_rows(n)
    f = int(np.abs(weights).sum(axis=0).argmax())
    key = int(rs.free_masks[f])
    signs = np.sign(weights[:, f]).tolist()

    def worst(c):
        coeffs = {key: c}
        coeffs.update({m: -s * c for m, s in zip(rs.pivot_masks.tolist(), signs) if s})
        return DivisorClass(n, coeffs)

    limit = reduce_limit(n)
    reduced = reduce_canonical(worst(limit))
    assert reduced[key] == limit * rs.reduce_weight
    assert limit * rs.reduce_weight < 1 << 63
    assert reduced == oracle_reduce(worst(limit))
    with pytest.raises(InvalidInputError):
        reduce_canonical(worst(limit + 1))


def test_canonical_divisor_coefficients():
    k = canonical_divisor(12)
    assert k.coeff(mask_from_elements([1], 12)) == -1
    assert k.coeff(mask_from_elements([1, 2], 12)) == -2
    assert k.coeff(full_mask(11)) == -1  # the psi key of marking 12
    assert k.support_size() == 2047


def test_symmetric_divisor_coefficients():
    d0 = symmetric_divisor()
    assert d0.coeff(full_mask(11)) == -5
    assert d0.coeff(mask_from_elements(range(1, 11), 12)) == -4
    assert d0.coeff(mask_from_elements([1, 2], 12)) == 0
    assert d0.support_size() == 562  # sizes 7..11 over an 11-point set


def test_block_star_divisor(qr_biplane):
    star = biplane_block_star_divisor(qr_biplane)
    assert star.coeff(mask_from_elements([1, 3, 4, 5, 9], 12)) == 1
    assert star.support_size() == 88
    assert star.coeff(mask_from_elements([1, 2], 12)) == 0
    assert all(c == 1 for c in star.coeffs.values())


def test_biplane_divisor_coefficients(qr_biplane):
    div = biplane_divisor(qr_biplane)
    assert div.coeff(full_mask(11)) == -5
    # a block key arises from the size-6 complement subset, disjoint from the block
    assert div.coeff(mask_from_elements([1, 3, 4, 5, 9], 12)) == -1
    assert div.support_size() == 650


#: sha256 of each named divisor's sorted (key, coefficient) pairs as JSON,
#: taken when each was still built by a loop over its own coefficient dict.
NAMED_DIVISOR_SHA256 = {
    "symmetric": "e45e61f8de17d75031d0bda51de0120e1a05430673a29734689b304b1a58e687",
    "block_star": "fcbb552a2350124540717b3cbbf21dfd2bf8fd941ec7dba0634dad9ab6d55898",
    "biplane": "778d3e4f7b633b1861863696018eae3e545b3cacefd062c1a8e3fa128b1aa21c",
}


def test_named_divisor_coefficients_are_pinned(qr_biplane):
    named = {
        "symmetric": symmetric_divisor(),
        "block_star": biplane_block_star_divisor(qr_biplane),
        "biplane": biplane_divisor(qr_biplane),
    }
    for name, d in named.items():
        pairs = json.dumps(sorted(d.coeffs.items())).encode()
        assert hashlib.sha256(pairs).hexdigest() == NAMED_DIVISOR_SHA256[name], name


@pytest.mark.parametrize("n", range(MIN_MARKINGS, MAX_MARKINGS + 1))
def test_canonical_divisor_matches_the_per_key_oracle(n):
    assert canonical_divisor(n) == canonical_divisor_oracle(n)


def test_named_divisors_match_the_subset_walks(qr_biplane):
    # the biplane, relabelled copies of it, and designs of 11 random
    # 5-subsets, whose blocks may repeat and meet in any way
    assert symmetric_divisor() == symmetric_divisor_oracle()
    rng = random.Random(12)
    designs = [qr_biplane]
    for _ in range(4):
        image = rng.sample(range(11), 11)
        designs.append(Biplane(tuple(
            sum(1 << image[e - 1] for e in elements_from_mask(b)) for b in qr_biplane.blocks
        )))
        designs.append(Biplane(tuple(
            mask_from_elements(rng.sample(range(1, 12), 5), 11) for _ in range(11)
        )))
    for bp in designs:
        assert biplane_divisor(bp) == biplane_divisor_oracle(bp)


def test_pullback_matches_the_per_key_oracle():
    # seeded boundary classes at every n, the canonical class in boundary
    # form (every key), coefficients beyond int64, and numpy integers
    rng = random.Random(14)
    classes = []
    for n in range(MIN_MARKINGS, MAX_MARKINGS):
        classes += [eliminate_psi(random_divisor(n, rng, terms=40)) for _ in range(3)]
        classes.append(eliminate_psi(canonical_divisor(n)))
    classes.append(DivisorClass(9, {0b11: 1 << 70, 0b110: -(1 << 70) - 1, 0b11110000: 3}))
    numpy_terms = {np.int64(0b11): np.int8(-2), np.uint16(0b101): np.int64(5)}
    classes.append(DivisorClass(np.int64(7), numpy_terms))
    for d in classes:
        lifted = pullback_forgetful(d)
        assert lifted == pullback_oracle(d)
        assert all(type(x) is int for x in (*lifted.coeffs, *lifted.coeffs.values()))


def test_decomposition_identity(qr_biplane):
    div = biplane_divisor(qr_biplane)
    other = symmetric_divisor() - biplane_block_star_divisor(qr_biplane)
    assert div == other
    assert reduce_canonical(div) == reduce_canonical(other)


def test_eliminate_psi_leaves_boundary_classes_alone():
    d = DivisorClass(6, {mask_from_elements([1, 2], 6): 3, mask_from_elements([2, 4], 6): -1})
    assert eliminate_psi(d) is d


def test_eliminate_psi_preserves_class_of_symmetric_divisor():
    d0 = symmetric_divisor()
    flat = eliminate_psi(d0)
    assert flat.is_boundary_only()
    assert reduce_canonical(flat) == reduce_canonical(d0)


def test_eliminate_psi_pairing_invariance_full_scan(qr_divisor):
    import numpy as np
    from fnef import fcurve_block_arrays, pairing_values

    flat = eliminate_psi(qr_divisor)
    assert flat.is_boundary_only()
    blocks = fcurve_block_arrays(12)
    assert np.array_equal(pairing_values(flat, blocks), pairing_values(qr_divisor, blocks))


def test_eliminate_psi_pairing_invariance_exhaustive_n6():
    d = DivisorClass(6, {mask_from_elements([1], 6): 1})
    flat = eliminate_psi(d)
    assert flat.is_boundary_only()
    for c in enumerate_fcurves(6):
        assert pair_divisor_fcurve(flat, c) == pair_divisor_fcurve(d, c)


@given(st.integers(min_value=0, max_value=2**60))
@settings(max_examples=25, deadline=None)
def test_eliminate_psi_random_classes(seed):
    rng = random.Random(seed)
    d = random_divisor(6, rng, terms=8)
    flat = eliminate_psi(d)
    assert flat.is_boundary_only()
    assert reduce_canonical(flat) == reduce_canonical(d)


# The subset walk the relation-matrix elimination replaced, kept as its
# oracle: the same half-integer edge weights, each added along its relation
# by walking every side that holds i and omits j, with a Fraction per key.


def oracle_eliminate_psi(d):
    n = d.n
    target = {m: -2 * d.coeff(1 << (m - 1)) for m in range(1, n)}
    target[n] = -2 * d.coeff(full_mask(n - 1))
    if not any(target.values()):
        return d
    y = {}
    for m in range(2, n + 1):
        if target[m]:
            y[(1, m)] = target[m]
    delta = sum(target[m] for m in range(2, n + 1)) - target[1]
    if delta:
        half = delta // 2
        y[(1, 2)] = y.get((1, 2), 0) - half
        y[(1, 3)] = y.get((1, 3), 0) - half
        y[(2, 3)] = y.get((2, 3), 0) + half
    acc = {m: Fraction(c) for m, c in d.coeffs.items()}
    full = full_mask(n)
    for (i, j), w in y.items():
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        rest = full & ~bi & ~bj
        sub = rest
        while True:
            key = canonical_generator(sub | bi, n)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(w, 2)
            if sub == 0:
                break
            sub = (sub - 1) & rest
    assert all(v.denominator == 1 for v in acc.values())
    return DivisorClass(n, {m: int(v) for m, v in acc.items()})


def psi_key(m, n):
    return full_mask(n - 1) if m == n else 1 << (m - 1)


def psi_limit(n):
    """Largest coefficient magnitude eliminate_psi accepts at n."""
    return ((1 << 63) - 1) // (2 + 5 * n)


@given(st.integers(4, 10), st.sampled_from(["zero", "even", "odd"]), st.data())
@settings(max_examples=150, deadline=None)
def test_eliminate_psi_matches_subset_walk(n, half_kind, data):
    # half = psi_1 - (psi_2 + ... + psi_n) is the weight moved onto the
    # triangle 1, 2, 3; it is drawn zero, even or odd
    psi = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n), label="psi")
    half = psi[0] - sum(psi[1:])
    if half_kind == "zero":
        psi[0] -= half
    elif half % 2 != (half_kind == "odd"):
        psi[0] += 1
    boundary = [m for m in all_generator_keys(n) if 2 <= m.bit_count() <= n - 2]
    coeffs = data.draw(
        st.dictionaries(st.sampled_from(boundary), st.integers(-9, 9), max_size=10),
        label="boundary",
    )
    coeffs.update({psi_key(m, n): c for m, c in enumerate(psi, start=1)})
    d = DivisorClass(n, coeffs)
    flat = eliminate_psi(d)
    assert flat.is_boundary_only()
    assert flat == oracle_eliminate_psi(d)


@pytest.mark.parametrize("n", [4, 7, 12])
def test_eliminate_psi_at_the_int64_bound(n):
    # the largest coefficients the bound accepts, with psi of marking 1
    # against all the others so that the weights on its edges add up
    def worst(c):
        coeffs = {psi_key(m, n): c for m in range(2, n + 1)}
        coeffs[psi_key(1, n)] = -c
        coeffs[0b011] = c
        return DivisorClass(n, coeffs)

    limit = psi_limit(n)
    assert eliminate_psi(worst(limit)) == oracle_eliminate_psi(worst(limit))
    assert eliminate_psi(worst(-limit)) == oracle_eliminate_psi(worst(-limit))
    with pytest.raises(InvalidInputError):
        eliminate_psi(worst(limit + 1))
    with pytest.raises(InvalidInputError):
        eliminate_psi(DivisorClass(n, {psi_key(1, n): 1, 0b011: -limit - 1}))


def test_eliminate_psi_refuses_an_odd_sum(monkeypatch):
    # the edge (1, 2) carries weight -1 here; a relation row with one entry
    # off makes that entry a half-integer, which must not be rounded away
    n = 5
    d = DivisorClass(n, {psi_key(2, n): 1})
    broken = relation_matrix(n).copy()
    broken[0, 0b1100 - 1] ^= 1
    monkeypatch.setattr(fnef.divisors, "relation_matrix", lambda m: broken)
    with pytest.raises(AssertionError, match="non-integral"):
        eliminate_psi(d)


def test_pullback_of_single_boundary_term():
    d = DivisorClass(12, {mask_from_elements([1, 2], 12): 1})
    lifted = pullback_forgetful(d)
    assert lifted.n == 13
    assert lifted.coeff(mask_from_elements([1, 2], 13)) == 1
    # the side {1,2,13} is keyed by its complement {3..12}
    assert lifted.coeff(mask_from_elements(range(3, 13), 13)) == 1
    assert lifted.support_size() == 2


def test_pullback_zero_and_psi_rejection():
    assert pullback_forgetful(DivisorClass.zero(6)).coeffs == {}
    # the psi keys of markings 1, 5 and 6 among boundary terms
    for psi in ([1], [5], [1, 2, 3, 4, 5]):
        with pytest.raises(BoundaryFormError):
            pullback_forgetful(DivisorClass(6, {0b11: 1, mask_from_elements(psi, 6): 1}))


def test_pullback_refuses_a_target_beyond_the_marking_cap():
    with pytest.raises(InvalidInputError, match="^pullback target 17 exceeds 16 markings$"):
        pullback_forgetful(DivisorClass(16, {3: 1}))


def test_pullback_pairs_zero_with_contracted_curves():
    rng = random.Random(5)
    d = eliminate_psi(random_divisor(6, rng))
    lifted = pullback_forgetful(d)
    for c in enumerate_fcurves(7):
        if (1 << 6) in c.blocks:  # marking 7 alone in a block
            assert pair_divisor_fcurve(lifted, c) == 0


def test_text_round_trip_and_canonicalization():
    text = "2 3,4,5,6,7,8,9,10,11,12\n-1 1,2\n3 1,2\n"
    d = divisor_from_text(text, 12)
    # both lines name the same generator: the complement side of {1,2} and {1,2} itself
    assert d.coeff(mask_from_elements([1, 2], 12)) == 4
    assert d.support_size() == 1
    again = divisor_from_text(divisor_to_text(d), 12)
    assert again == d


def test_json_round_trip(qr_biplane):
    div = biplane_divisor(qr_biplane)
    obj = divisor_to_json_dict(div)
    assert obj["n"] == 12
    assert divisor_from_json_dict(json.loads(json.dumps(obj))) == div


def test_divisor_json_text_is_what_the_json_encoder_writes(qr_divisor):
    # the pullback13 class, the zero class, and negative and 2^62-sized
    # coefficients at the smallest and largest marking counts
    lifted = pullback_forgetful(eliminate_psi(qr_divisor))
    big = 1 << 62
    top = mask_from_elements(range(2, 16), 16)
    classes = {
        "pullback13": lifted,
        "zero": DivisorClass.zero(13),
        "n=4": DivisorClass(4, {0b011: -big, 0b101: big + 1, 0b001: -3}),
        "n=16": DivisorClass(16, {0b11: big - 1, top: -big, mask_from_elements([9, 10, 12], 16): -7}),
    }
    assert lifted.support_size() == 2368
    for name, d in classes.items():
        assert divisor_to_json_text(d) == divisor_json_oracle(d), name


@pytest.mark.parametrize("value", [1.7, 12.0, True, "12"])
@pytest.mark.parametrize("field", ["n", "coeff"])
def test_divisor_json_refuses_non_integers(field, value):
    # a float, bool or string was truncated or converted: 1.7 loaded as 1
    obj = divisor_to_json_dict(DivisorClass(12, {mask_from_elements([1, 2], 12): 1}))
    target = obj if field == "n" else obj["terms"][0]
    target[field] = value
    with pytest.raises(MalformedInputError, match=f"{field} must be an integer"):
        divisor_from_json_dict(json.loads(json.dumps(obj)))


@pytest.mark.parametrize("n", [3, 99])
def test_divisor_json_checks_n_before_any_subset(n):
    # n=3 was refused as "marking 4 out of range 1..3", at the first subset
    obj = {"n": n, "terms": [{"coeff": 1, "subset": "1,2,3,4"}]}
    message = rf"^marking count must be an integer in \[4, 16\], got {n}$"
    with pytest.raises(MalformedInputError, match=message):
        divisor_from_json_dict(obj)
    with pytest.raises(MalformedInputError, match="^n must be an integer, got 1.7$"):
        divisor_from_json_dict({**obj, "n": 1.7})


def test_divisor_json_refuses_a_subset_that_is_not_a_string():
    # a subset that was no string failed with AttributeError on str.replace
    obj = {"n": 12, "terms": [{"coeff": 1, "subset": [1, 2]}]}
    with pytest.raises(MalformedInputError, match=r"^subset must be a string, got \[1, 2\]$"):
        parse_divisor(json.dumps(obj))
    obj["terms"] = [{"subset": "1,2"}]
    with pytest.raises(MalformedInputError, match=r"^bad divisor object: KeyError\('coeff'\)$"):
        parse_divisor(json.dumps(obj))


@pytest.mark.parametrize("value", [{}, "", 0, None], ids=repr)
def test_divisor_json_refuses_terms_that_are_not_an_array(value):
    # {} and "" iterate as no terms: they were read as the zero class
    with pytest.raises(MalformedInputError, match=r"^terms must be a JSON array, got "):
        divisor_from_json_dict({"n": 12, "terms": value})
    with pytest.raises(MalformedInputError, match=r"^terms must be a JSON array, got "):
        parse_divisor(json.dumps({"n": 12, "terms": value}))


@pytest.mark.parametrize("value", [0.5, 1.0, Fraction(1, 2), "3"], ids=repr)
def test_divisor_class_refuses_non_integers(value):
    # 0.5 was kept: fnef_check scanned it, the int64 table truncated it
    with pytest.raises(InvalidInputError, match="coefficient must be an integer"):
        DivisorClass(5, {1: value, 3: 1})
    with pytest.raises(InvalidInputError, match="key must be an integer"):
        DivisorClass(5, {value: 1})


def test_divisor_class_stores_python_ints():
    d = DivisorClass(np.int64(5), {np.int64(3): np.int64(2)})
    assert (d.n, d.coeffs) == (5, {3: 2})
    assert all(type(x) is int for x in (d.n, *d.coeffs, *d.coeffs.values()))


@pytest.mark.parametrize("value", [1.0, True, "1"], ids=repr)
def test_divisor_entry_points_refuse_non_integers(value):
    # 1.5 and 3.0 failed with IndexError and TypeError; True was read as 1
    d = DivisorClass(5, {3: 1})
    refusals = {
        "marking count": lambda: DivisorClass(value, {}),
        "coefficient": lambda: DivisorClass(5, {3: value}),
        "scalar": lambda: value * d,
        "marking": lambda: relation_row(value, 3, 5),
    }
    for what, call in refusals.items():
        with pytest.raises(InvalidInputError, match=f"^{what} must be an integer, got {value!r}$"):
            call()


def test_load_divisor_formats(qr_biplane):
    div = biplane_divisor(qr_biplane)
    json_text = json.dumps(divisor_to_json_dict(div))
    assert parse_divisor(json_text) == div
    text = divisor_to_text(div)
    assert parse_divisor(text, n=12) == div
    assert parse_divisor(text) == div  # text lines default to 12 markings
    with pytest.raises(MalformedInputError, match="declares n=12, expected n=11"):
        parse_divisor(json_text, n=11)
    # a JSON file declares its own count; text lines take the given one
    small = DivisorClass(6, {mask_from_elements([1, 2], 6): 3})
    assert parse_divisor(json.dumps(divisor_to_json_dict(small))) == small
    assert parse_divisor(divisor_to_text(small), n=6) == small
    with pytest.raises(MalformedInputError, match="bad JSON"):
        parse_divisor(json_text[:-1])


def test_malformed_divisor_text():
    with pytest.raises(MalformedInputError):
        divisor_from_text("1\n", 12)
    with pytest.raises(MalformedInputError):
        divisor_from_text("x 1,2\n", 12)
    with pytest.raises(MalformedInputError):
        divisor_from_text("1 0,2\n", 12)


@pytest.mark.parametrize("coeff", ["1_0", "\uff11", "0x1", "1.0"])
def test_divisor_text_coefficient_is_sign_and_ascii_digits(coeff):
    # int() read "1_0" as 10 and the fullwidth one as 1
    with pytest.raises(MalformedInputError, match=f"^line 2: invalid integer {coeff!r}$"):
        divisor_from_text(f"1 1,2\n{coeff} 1,3\n", 12)
    assert divisor_from_text("+2 1,2\n-3 1,3\n", 12).coeffs == {0b11: 2, 0b101: -3}


def test_divisor_files_refuse_a_term_that_names_no_generator():
    full = ",".join(map(str, range(1, 13)))
    message = "^empty or full subset does not define a generator$"
    with pytest.raises(MalformedInputError, match=message):
        divisor_from_text(f"1 1,2\n1 {full}\n", 12)
    with pytest.raises(MalformedInputError, match=message):
        divisor_from_json_dict({"n": 12, "terms": [{"coeff": 1, "subset": full}]})


def test_divisor_arithmetic_and_validation():
    a = DivisorClass(6, {0b00011: 2})
    b = DivisorClass(6, {0b00011: -2, 0b00101: 1})
    assert (a + b).coeffs == {0b00101: 1}
    assert (a - a).coeffs == {}
    assert (3 * b).coeff(0b00101) == 3
    with pytest.raises(InvalidInputError):
        DivisorClass(6, {0: 1})
    with pytest.raises(InvalidInputError):
        DivisorClass(6, {1 << 5: 1})  # side containing marking 6 is not canonical
    with pytest.raises(InvalidInputError):
        a + DivisorClass(5, {0b00011: 1})


def test_dense_table_is_built_once_and_read_only():
    d = DivisorClass(7, {3: 2, 9: -1})
    table = d.dense_table()
    assert d.dense_table() is table
    assert table.dtype == np.int64 and table.tolist() == [0, 0, 0, 2] + [0] * 5 + [-1] + [0] * 54
    with pytest.raises(ValueError, match="read-only"):
        table[3] = 5
    assert d.max_abs == 2 and DivisorClass.zero(7).max_abs == 0


def test_int64_refusals_come_before_the_dense_table():
    # 2^63 has no int64 form: both refuse it by its size, not by an
    # OverflowError from building the table
    d = DivisorClass(9, {3: 1 << 63})
    with pytest.raises(InvalidInputError, match="F-curve pairing scan"):
        fnef_check(d)
    with pytest.raises(InvalidInputError, match="canonical reduction"):
        reduce_canonical(d)
