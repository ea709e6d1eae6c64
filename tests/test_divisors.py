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
    load_divisor,
    pair_divisor_fcurve,
    pairing_values,
    pullback_forgetful,
    reduce_canonical,
    relation_row,
    relation_system,
    symmetric_divisor,
)
import fnef.divisors
from fnef.divisors import relation_matrix
from fnef.errors import BoundaryFormError, InvalidInputError, MalformedInputError
from fnef.subsets import all_generator_keys, canonical_generator, full_mask, mask_from_elements
from oracles import rank_exact


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
    assert rs.free_rows.tolist() == [[row[c] for c in free_cols] for row in rows[: rs.rank]]
    # free_rows drops nothing: a pivot row vanishes at every other pivot key
    assert all(rows[k][c] == 0 for k in range(rs.rank) for c in pivot_cols if c != pivot_cols[k])


@pytest.mark.parametrize("n", range(4, 14))
def test_relation_rank_is_pair_count(n):
    # and the pivots are exactly the keys of one or two markings
    rs = relation_system(n)
    assert rs.rank == comb(n, 2)
    assert rs.ambient_dim == (1 << (n - 1)) - 1 - rs.rank
    assert rs.pivot_masks.tolist() == [m for m in all_generator_keys(n) if bin(m).count("1") <= 2]


@pytest.mark.parametrize("n", range(4, 17))
def test_relation_system_spans_the_relations(n):
    # containment, in int64 and over every column: relation (a, b) is the sum
    # of the reduced rows at the pivot keys it holds, namely {a}, {b} and the
    # pairs with exactly one of a, b (a 0/1 row of relation_matrix)
    rs = relation_system(n)
    relations = relation_matrix(n)
    pivots = np.array(rs.pivot_masks) - 1
    reduced = np.zeros(relations.shape, dtype=np.int64)
    reduced[np.arange(rs.rank), pivots] = 1
    reduced[:, np.array(rs.free_masks) - 1] = rs.free_rows
    for row in relations:
        assert np.array_equal(reduced[row[pivots] == 1].sum(axis=0), row)
    # independence: the relations have rank C(n,2), so they span exactly
    # the reduced rows
    assert rank_exact(relations[:, pivots].tolist(), rs.rank) == rs.rank == comb(n, 2)


#: sha256 of `free_rows.tobytes()` and of the pivot masks as int64 bytes,
#: and `reduce_weight`, as the former Gauss-Jordan elimination produced them.
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
    assert rs.free_rows.dtype == np.int64
    assert rs.free_rows.shape == (comb(n, 2), (1 << (n - 1)) - 1 - comb(n, 2))
    assert hashlib.sha256(rs.free_rows.astype("<i8").tobytes()).hexdigest() == rows_sha
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
    # oracle's pivot entries are all 1, so free_rows are the weights
    rs = relation_system(n)
    rows, pivot_cols = oracle_system(n)
    assert all(rows[k][c] == 1 for k, c in enumerate(pivot_cols))
    f = int(np.abs(rs.free_rows).sum(axis=0).argmax())
    key = int(rs.free_masks[f])
    signs = np.sign(rs.free_rows[:, f]).tolist()

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
    d0 = symmetric_divisor(12)
    assert d0.coeff(full_mask(11)) == -5
    assert d0.coeff(mask_from_elements(range(1, 11), 12)) == -4
    assert d0.coeff(mask_from_elements([1, 2], 12)) == 0
    assert d0.support_size() == 562  # sizes 7..11 over an 11-point set
    with pytest.raises(InvalidInputError):
        symmetric_divisor(11)


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


def test_decomposition_identity(qr_biplane):
    div = biplane_divisor(qr_biplane)
    other = symmetric_divisor(12) - biplane_block_star_divisor(qr_biplane)
    assert div == other
    assert reduce_canonical(div) == reduce_canonical(other)


def test_eliminate_psi_leaves_boundary_classes_alone():
    d = DivisorClass(6, {mask_from_elements([1, 2], 6): 3, mask_from_elements([2, 4], 6): -1})
    assert eliminate_psi(d) is d


def test_eliminate_psi_preserves_class_of_symmetric_divisor():
    d0 = symmetric_divisor(12)
    flat = eliminate_psi(d0)
    assert flat.is_boundary_only()
    assert reduce_canonical(flat) == reduce_canonical(d0)


def test_eliminate_psi_pairing_invariance_full_scan(qr_divisor):
    import numpy as np
    from fnef import pairing_values

    flat = eliminate_psi(qr_divisor)
    assert flat.is_boundary_only()
    assert np.array_equal(pairing_values(flat), pairing_values(qr_divisor))


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
    psi = d.psi_part()
    if not psi:
        return d
    target = {m: -2 * psi.get(m, 0) for m in range(1, n + 1)}
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
    with pytest.raises(BoundaryFormError):
        pullback_forgetful(DivisorClass(6, {mask_from_elements([1], 6): 1}))


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


@pytest.mark.parametrize("value", [1.7, 12.0, True, "12"])
@pytest.mark.parametrize("field", ["n", "coeff"])
def test_divisor_json_refuses_non_integers(field, value):
    # a float, bool or string was truncated or converted: 1.7 loaded as 1
    obj = divisor_to_json_dict(DivisorClass(12, {mask_from_elements([1, 2], 12): 1}))
    target = obj if field == "n" else obj["terms"][0]
    target[field] = value
    with pytest.raises(MalformedInputError, match=f"{field} must be an integer"):
        divisor_from_json_dict(json.loads(json.dumps(obj)))


def test_load_divisor_formats(tmp_path, qr_biplane):
    div = biplane_divisor(qr_biplane)
    jpath = tmp_path / "d.json"
    jpath.write_text(json.dumps(divisor_to_json_dict(div)))
    assert load_divisor(str(jpath)) == div
    tpath = tmp_path / "d.txt"
    tpath.write_text(divisor_to_text(div))
    assert load_divisor(str(tpath), n=12) == div
    with pytest.raises(MalformedInputError):
        load_divisor(str(tpath))  # text needs the marking count
    with pytest.raises(MalformedInputError):
        load_divisor(str(jpath), n=11)


def test_malformed_divisor_text():
    with pytest.raises(MalformedInputError):
        divisor_from_text("1\n", 12)
    with pytest.raises(MalformedInputError):
        divisor_from_text("x 1,2\n", 12)
    with pytest.raises(MalformedInputError):
        divisor_from_text("1 0,2\n", 12)


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
