"""F-nef scans, the counterexample checks, and rank certificates."""

import functools
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import islice
from math import isqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from fnef import (
    CurveFunctional,
    DivisorClass,
    FCurve,
    automorphisms,
    canonical_divisor,
    certify_not_boundary,
    check_relations,
    eliminate_psi,
    enumerate_fcurves,
    extremality_rank,
    fcurve_block_arrays,
    fnef_check,
    pair_divisor_fcurve,
    pairing_values,
    projection_formula_report,
    pullback_forgetful,
    reduce_canonical,
    relation_row,
    relation_system,
    symmetric_divisor,
    verify_counterexample,
)
import fnef.cone
import fnef.pairing
import fnef.subsets
from fnef.cone import (
    DEFAULT_PRIMES,
    ExtremalityReport,
    ModpEliminator,
    Peel,
    _check_orthogonal,
    _free_col_rows,
    _structural_peel,
    check_modulus,
)
from fnef.errors import InvalidInputError
from fnef.pairing import ROW_PATTERN, scan_dtype, slot_count
from fnef.subsets import all_generator_keys, count_fcurves, mask_from_elements, psi_key
from oracles import (
    dense_rows,
    fcurve_matrix_rank_exact,
    projection_formula_oracle,
    pushforward_fcurve,
    rank_exact,
    sample_partitions_oracle,
    zero_set_dense_rows,
)

P1, P2 = DEFAULT_PRIMES


def fnef_divisor_n6():
    """Double pullback of a boundary class that is F-nef at 4 markings."""
    d4 = DivisorClass(4, {0b011: 1})
    return pullback_forgetful(pullback_forgetful(d4))


def test_single_boundary_term_is_not_fnef():
    d = DivisorClass(12, {mask_from_elements([1, 2], 12): 1})
    rep = fnef_check(d)
    assert rep.min_value == -1
    assert not rep.nonnegative
    assert mask_from_elements([1, 2], 12) in rep.argmin.blocks


def test_fnef_relation_invariance_n6():
    d = fnef_divisor_n6()
    rep = fnef_check(d)
    shifted = fnef_check(d + 3 * relation_row(1, 4, 6))
    assert (rep.min_value, rep.zero_count) == (shifted.min_value, shifted.zero_count)
    # a seeded integer combination of every pair relation changes no
    # pairing value at all
    rng = random.Random(6)
    for n in range(5, 10):
        d = DivisorClass(n, {k: rng.randint(-3, 3) for k in all_generator_keys(n)})
        shift = DivisorClass.zero(n)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                shift += rng.randint(-4, 4) * relation_row(i, j, n)
        assert shift.support_size() > 0
        blocks = fcurve_block_arrays(n)
        assert np.array_equal(pairing_values(d + shift, blocks), pairing_values(d, blocks))


def test_argmin_is_first_minimizer_in_enumeration_order():
    rep = fnef_check(DivisorClass.zero(6))
    assert rep.min_value == 0 and rep.zero_count == 65
    assert rep.argmin == next(enumerate_fcurves(6))


def mask_images(image, n):
    """The image of every subset mask of {1..n}, as a 2^n-entry table, under
    the relabelling that sends marking i + 1 to image[i] + 1."""
    masks = np.arange(1 << n)
    out = np.zeros_like(masks)
    for i, j in enumerate(image):
        out |= ((masks >> i) & 1) << j
    return out


def curve_keys(rows):
    """The curves of 4-block mask rows as sorted integers, each its four
    masks sorted and packed 16 bits apart: equal keys, equal curve sets."""
    rows = np.sort(rows.astype(np.int64), axis=1)
    return np.sort(rows[:, 0] << 48 | rows[:, 1] << 32 | rows[:, 2] << 16 | rows[:, 3])


def test_biplane_zero_set_is_invariant_under_automorphisms(qr_biplane, qr_divisor):
    # the automorphisms fix D_PP and marking 12, so they permute its zero
    # curves whatever code computed the pairings
    zero = fcurve_block_arrays(12)[fnef_check(qr_divisor).zero_mask()]
    expected = curve_keys(zero)
    identity = tuple(range(11))
    images = [im for im in islice(automorphisms(qr_biplane), 6) if im != identity]
    images.append(identity[1:] + (0,))  # the cyclic shift
    assert len(images) >= 5
    for image in images:
        moved = mask_images(image + (11,), 12)[zero]
        assert np.array_equal(curve_keys(moved), expected)


def cycle_type(image):
    """The cycle lengths of a permutation of range(len(image)), longest
    first."""
    seen, lengths = set(), []
    for start in range(len(image)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i, length = image[i], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_biplane_zero_set_has_276_orbits(qr_biplane, qr_divisor):
    # Burnside: the orbits of the 660 automorphisms (marking 12 fixed) on
    # the zero curves number the mean count of curves an element fixes.  A
    # curve is fixed when its image blocks are its own blocks.  Elements of
    # one cycle type on {1..11} fix as many curves here, so one element per
    # type is counted, and two more of the type must agree with it.
    zero = fcurve_block_arrays(12, fnef_check(qr_divisor).zero_mask())
    own = np.sort(zero, axis=1)

    def fixed(image):
        moved = np.sort(mask_images(image + (11,), 12)[zero], axis=1)
        return int(np.count_nonzero((moved == own).all(axis=1)))

    by_type = {}
    for image in automorphisms(qr_biplane):
        by_type.setdefault(cycle_type(image), []).append(image)
    expected = {
        (1,) * 11: (1, 124366),
        (2, 2, 2, 2, 1, 1, 1): (55, 942),
        (3, 3, 3, 1, 1): (110, 43),
        (5, 5, 1): (264, 1),
        (6, 3, 2): (110, 9),
        (11,): (120, 0),
    }
    assert {t: len(images) for t, images in by_type.items()} == {
        t: size for t, (size, _) in expected.items()
    }
    total = 0
    for t, images in by_type.items():
        size, count = expected[t]
        assert {fixed(im) for im in (images[0], images[size // 2], images[-1])} == {count}
        total += size * count
    assert total == 182160 == 276 * 660


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_scan_is_equivariant_under_relabelling(data):
    n = data.draw(st.integers(4, 9), label="n")
    image = data.draw(st.permutations(range(n)), label="image")
    keys = all_generator_keys(n)
    coeffs = data.draw(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=len(keys), max_size=len(keys)),
        label="coeffs",
    )
    d = DivisorClass(n, dict(zip(keys, coeffs)))
    table = mask_images(image, n)
    moved = DivisorClass.from_terms(n, ((int(table[m]), c) for m, c in d.coeffs.items()))
    rep, rep_moved = fnef_check(d), fnef_check(moved)
    assert (rep_moved.min_value, rep_moved.zero_count) == (rep.min_value, rep.zero_count)
    blocks = fcurve_block_arrays(n)
    for div, r in ((d, rep), (moved, rep_moved)):
        row = blocks[pairing_values(div, blocks).argmin()]
        assert r.argmin == FCurve(n, tuple(int(b) for b in row))
    assert np.array_equal(
        curve_keys(table[blocks[rep.zero_mask()]]), curve_keys(blocks[rep_moved.zero_mask()])
    )


def count_scans(monkeypatch):
    """The arguments of every `scan_fcurves` call from fnef.cone, as a list
    that grows as they are made."""
    scans = []
    scan = fnef.cone.scan_fcurves

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(fnef.cone, "scan_fcurves", counted)
    return scans


@pytest.mark.parametrize("n", [6, 12, 13])
def test_fnef_check_builds_no_partition_array(n, qr_divisor, monkeypatch):
    d = {
        6: fnef_divisor_n6(),
        12: qr_divisor,
        13: pullback_forgetful(eliminate_psi(qr_divisor)),
    }[n]
    scans = count_scans(monkeypatch)

    def no_array(n):
        raise AssertionError(f"built the partition array at n={n}")

    for module in (fnef.cone, fnef.subsets):
        monkeypatch.setattr(module, "fcurve_block_arrays", no_array)
    rep = fnef_check(d)
    assert len(scans) == 1 and rep.nonnegative and rep.min_value == 0
    assert rep.zero_count == {6: 49, 12: 124366, 13: 583990}[n]


def test_fnef_check_refuses_a_scan_beyond_physical_memory(monkeypatch):
    # one zero bit per padded slot, whatever the scan's dtype: one byte less
    # is refused before the scan, and exactly that much is enough; the
    # canonical class scans in int8, a coefficient of 2^40 in int64; the
    # guard sits in `scan_fcurves`, so the scans counted are the kernel's
    kernel, scans = fnef.pairing._scan_chunks, []

    def counted(table, n):
        scans.append(n)
        return kernel(table, n)

    monkeypatch.setattr(fnef.pairing, "_scan_chunks", counted)
    need = slot_count(9) // 8
    for d in (canonical_divisor(9), DivisorClass(9, {3: 1 << 40})):
        monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: need - 1)
        with pytest.raises(InvalidInputError, match=f"F-nef scan of 11424 slots needs {need} bytes"):
            fnef_check(d)
        assert scans == []
        monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: need)
        assert fnef_check(d).n == 9 and len(scans) == 1
        scans.clear()
    assert need == 1428


def test_scan_accepts_one_thread_only(qr_divisor):
    assert fnef_check(qr_divisor, threads=1) == fnef_check(qr_divisor)
    for threads in (0, -2, 3, True, 1.0):
        with pytest.raises(InvalidInputError):
            fnef_check(qr_divisor, threads=threads)


def test_counterexample_report(qr_biplane):
    rep = verify_counterexample(qr_biplane)
    assert rep.fnef.nonnegative and rep.fnef.min_value == 0
    assert rep.certificate.boundary_min == 0
    assert rep.certificate.canonical_pairing == 13
    assert rep.certificate.pairing == -1
    assert rep.certificate.certified_with_canonical
    assert rep.decomposition_equal
    assert rep.verdict and rep.verified


def test_certificates(qr_biplane, qr_divisor, qr_witness):
    cert = certify_not_boundary(qr_divisor, qr_witness)
    assert cert.certified and cert.certified_with_canonical

    single = DivisorClass(12, {mask_from_elements([1, 2], 12): 1})
    assert not certify_not_boundary(single, qr_witness).certified

    d0_cert = certify_not_boundary(symmetric_divisor(), qr_witness)
    assert d0_cert.pairing == 10
    assert not d0_cert.certified


def test_witness_off_the_relations_is_not_certified(qr_biplane, qr_divisor, qr_witness):
    # value 2 on one block key: still nonnegative on the boundary and negative
    # on the divisor, but no longer a functional on numerical classes
    broken = CurveFunctional(qr_witness.values + DivisorClass(12, {qr_biplane.blocks[0]: 1}))
    assert check_relations(broken).first_violation == (1, 4)
    cert = certify_not_boundary(qr_divisor, broken)
    assert (cert.boundary_min, cert.pairing) == (0, -2)
    assert not cert.certified and not cert.certified_with_canonical


@st.composite
def pattern_matrices(draw):
    """Rows of the curve pattern on at most 8 columns, with distinct columns
    in each row as in an F-curve row, -1 gaps and duplicated rows; columns
    at or past `used` stay empty, so the rank is often below the column
    count.  A row has at most 7 entries +-1, so its Euclidean norm is at
    most sqrt(7) and, by Hadamard's bound, every minor is below 7^4 < p:
    the rank mod p equals the rational rank."""
    ncols = draw(st.integers(1, 8))
    used = draw(st.integers(1, ncols))
    cols = st.lists(st.integers(0, used - 1), max_size=min(7, used), unique=True)
    row = cols.map(lambda c: c + [-1] * (7 - len(c))).flatmap(st.permutations)
    rows = draw(st.lists(row, min_size=1, max_size=40))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))]
    return ncols, np.array(rows, dtype=np.int64)


def batches_of(rows):
    """A context in which `add_pattern_rows` feeds batches of `rows` rows."""
    return mock.patch.object(fnef.cone, "_BATCH", rows)


def dense_kernel(ncols, p):
    """The kernel under the identity map: nothing taken, every column set
    aside, so it ranks the rows themselves."""
    identity = np.eye(ncols + 1, ncols, dtype=np.int64)
    return ModpEliminator(Peel(0, 0, np.arange(ncols), identity), p)


@given(pattern_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_add_pattern_rows_matches_exact_rank(matrix, data):
    ncols, col_rows = matrix
    expected = rank_exact(dense_rows(col_rows, ncols), ncols)
    nrows = len(col_rows)
    batch = data.draw(st.integers(1, nrows + 1), label="batch")
    split = data.draw(st.integers(0, nrows), label="split")
    for p in DEFAULT_PRIMES:
        with batches_of(batch):
            one = dense_kernel(ncols, p)
            assert one.add_pattern_rows(col_rows) == expected
            assert one.rows_seen == nrows or one.rank == ncols
            two = dense_kernel(ncols, p)
            two.add_pattern_rows(col_rows[:split])
            assert two.add_pattern_rows(col_rows[split:]) == expected


def check_peel(peel, col_rows, ncols):
    """Every column a row touches is taken by one row or set aside, once,
    and the Schur map sends each set-aside column to its unit vector and
    the columns covered before the first set-aside to 0."""
    touched = np.unique(col_rows[col_rows >= 0])
    k = len(peel.aside)
    assert len(np.unique(peel.aside)) == k
    assert set(peel.aside.tolist()) <= set(touched.tolist())
    assert peel.taken + k == len(touched)
    assert 0 <= peel.singletons <= peel.taken
    schur = peel.schur
    assert schur.dtype == np.int64 and schur.shape == (ncols + 1, k)
    assert not schur.flags.writeable
    assert np.array_equal(schur[peel.aside], np.eye(k, dtype=np.int64))
    assert not schur[-1].any()
    assert np.count_nonzero(schur.any(axis=1)) <= peel.taken - peel.singletons + k


def peeled_rank(col_rows, ncols, p, batch=512):
    """The rank of pattern rows as extremality_rank computes it: the
    structural peel, then the kernel on the Schur complement of every row,
    fed in batches of `batch` rows."""
    peel = _structural_peel(col_rows, ncols)
    check_peel(peel, col_rows, ncols)
    elim = ModpEliminator(peel, p)
    assert elim.ncols == len(peel.aside)
    with batches_of(batch):
        return elim.add_pattern_rows(col_rows)


@given(pattern_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_peeled_rank_matches_exact_rank(matrix, data):
    ncols, col_rows = matrix
    expected = rank_exact(dense_rows(col_rows, ncols), ncols)
    batch = data.draw(st.integers(1, len(col_rows) + 1), label="batch")
    for p in DEFAULT_PRIMES:
        assert peeled_rank(col_rows, ncols, p, batch) == expected
    # the taking rows have a +-1 diagonal, so the peel agrees with the
    # kernel under the identity map modulo the smallest primes too
    for p in (2, 3):
        dense = dense_kernel(ncols, p).add_pattern_rows(col_rows)
        assert peeled_rank(col_rows, ncols, p, batch) == dense


def _rows(*entries):
    """Pattern rows from {position: column} dicts, -1 elsewhere."""
    col_rows = np.full((len(entries), len(ROW_PATTERN)), -1, dtype=np.int64)
    for i, row in enumerate(entries):
        for k, c in row.items():
            col_rows[i, k] = c
    return col_rows


def test_peel_competing_singletons_take_one_column():
    # e0, -e0 and e0 + e1: two rows compete for column 0, one takes it
    col_rows = _rows({0: 0}, {3: 0}, {0: 0, 1: 1})
    peel = _structural_peel(col_rows, 3)
    assert (peel.singletons, peel.taken, len(peel.aside)) == (2, 2, 0)
    for p in DEFAULT_PRIMES:
        assert peeled_rank(col_rows, 3, p) == 2 == rank_exact(dense_rows(col_rows, 3), 3)


def test_peel_sets_aside_one_column_of_a_triangle():
    # e0 + e1, e1 + e2, e2 + e0: rank 3 over the rationals, 2 modulo 2
    col_rows = _rows({0: 0, 1: 1}, {0: 1, 1: 2}, {0: 2, 1: 0}, {})
    peel = _structural_peel(col_rows, 3)
    # no singleton: column 0, the lowest of three tied, is set aside, and
    # the cascade takes the other two
    assert (peel.singletons, peel.taken, peel.aside.tolist()) == (0, 2, [0])
    # e0 + e1 takes column 1 and e2 + e0 column 2, both in the round after
    # the set-aside, so both map to -e0
    assert peel.schur.tolist() == [[1], [-1], [-1], [0]]
    # the Schur complement is one column, where e1 + e2, which takes no
    # column, reads -2 e0
    for p in DEFAULT_PRIMES:
        assert peeled_rank(col_rows, 3, p) == 3 == rank_exact(dense_rows(col_rows, 3), 3)
    assert peeled_rank(col_rows, 3, 2) == 2 == dense_kernel(3, 2).add_pattern_rows(col_rows)


def test_fully_peeled_matrix_feeds_no_row():
    # e0, e0 - e1, e1 + e2, e1 + e2 - e3: triangular with a unit diagonal
    col_rows = _rows({0: 0}, {0: 0, 3: 1}, {0: 1, 1: 2}, {0: 1, 1: 2, 4: 3})
    peel = _structural_peel(col_rows, 4)
    assert (peel.taken, len(peel.aside), peel.schur.shape) == (4, 0, (5, 0))
    for p in DEFAULT_PRIMES:
        elim = ModpEliminator(peel, p)
        assert elim.ncols == 0
        assert elim.add_pattern_rows(col_rows) == 4
        assert elim.rows_seen == 0


def test_peel_counts_at_n12(qr_divisor):
    rs = relation_system(12)
    blocks = fcurve_block_arrays(12)
    zero = _free_col_rows(blocks[fnef_check(qr_divisor).zero_mask()], rs.free_index)
    peel = _structural_peel(zero, rs.ambient_dim)
    assert (peel.singletons, peel.taken) == (1331, 1977)
    assert peel.aside.tolist() == [196, 242, 420, 1980]
    assert (peel.schur.min(), peel.schur.max()) == (-2, 2)
    # the full matrix peels completely, so no row reaches the kernel
    peel = _structural_peel(_free_col_rows(blocks, rs.free_index), rs.ambient_dim)
    assert (peel.taken, len(peel.aside)) == (rs.ambient_dim, 0)


def stacked_col_rows(blocks, free_index):
    """The column rows as `_free_col_rows` built them with seven
    temporaries stacked into one array."""
    cols = np.concatenate([free_index, free_index[::-1]])
    b0, b1, b2, b3 = blocks[:, 0], blocks[:, 1], blocks[:, 2], blocks[:, 3]
    keys = (b0 | b1, b0 | b2, b0 | b3, b0, b1, b2, b3)
    return np.stack([cols[k] for k in keys]).T


@pytest.mark.parametrize("n", [*range(4, 11), 12])
def test_col_rows_built_in_place_match_the_stacked_rows(n, qr_divisor):
    rs = relation_system(n)
    blocks = fcurve_block_arrays(n)
    if n == 12:
        blocks = blocks[fnef_check(qr_divisor).zero_mask()]
    rows, expected = _free_col_rows(blocks, rs.free_index), stacked_col_rows(blocks, rs.free_index)
    assert rows.dtype == expected.dtype == np.int64 and rows.shape == (len(blocks), 7)
    assert np.array_equal(rows, expected)
    # key-major: each key's columns are contiguous
    assert rows.T.flags.c_contiguous and expected.T.flags.c_contiguous


@pytest.mark.parametrize("n", range(4, 14))
def test_fcurve_rows_have_distinct_columns(n):
    # the peel reads each entry of a row as its coefficient at that column
    rs = relation_system(n)
    blocks = fcurve_block_arrays(n)
    step = 1 << 18
    for s in range(0, len(blocks), step):
        cols = np.sort(_free_col_rows(blocks[s : s + step], rs.free_index), axis=1)
        assert not ((cols[:, 1:] == cols[:, :-1]) & (cols[:, 1:] >= 0)).any()


def test_add_pattern_rows_stops_at_stop_rank():
    rng = np.random.default_rng(23)
    ncols, used, nrows = 40, 30, 160
    col_rows = np.stack([rng.permutation(used)[:7] for _ in range(nrows)])
    col_rows[rng.random(col_rows.shape) < 0.1] = -1
    expected = rank_exact(dense_rows(col_rows, ncols), ncols)
    assert expected <= used < ncols
    with batches_of(16):
        fed_all = dense_kernel(ncols, P1)
        assert fed_all.add_pattern_rows(col_rows) == expected
        assert fed_all.rows_seen == nrows
        stopped = dense_kernel(ncols, P1)
        assert stopped.add_pattern_rows(col_rows, stop_rank=expected) == expected
        seen = stopped.rows_seen
        assert seen < nrows
        # once the bound is reached a further call feeds nothing
        assert stopped.add_pattern_rows(col_rows, stop_rank=expected) == expected
        assert stopped.rows_seen == seen


def test_kernel_reduces_by_the_basis_rows_in_the_order_they_were_added():
    # batch 1, e1 + e2, takes pivot 1; in batch 2, e0 takes pivot 0, left of
    # it, and e2 takes pivot 2, where the first basis row is nonzero; in
    # batch 3, e1 = (e1 + e2) - e2 is cleared at column 1 by the first basis
    # row and at column 2, which that reintroduces, by the third
    col_rows = _rows({0: 1, 1: 2}, {0: 0}, {0: 2}, {0: 1})
    expected = rank_exact(dense_rows(col_rows, 4), 4)
    assert expected == 3
    for p in (*DEFAULT_PRIMES, 2):
        elim = dense_kernel(4, p)
        for rows in (col_rows[:1], col_rows[1:3], col_rows[3:]):
            elim.add_pattern_rows(rows)
        assert [j for j, _ in elim._basis] == [1, 0, 2]
        assert (elim.rank, elim.rows_seen) == (expected, 4)
        # the same basis rows in the reverse order leave the last row nonzero
        last = np.array(dense_rows(col_rows[3:], 4)[0]) % p
        for j, row in reversed(elim._basis):
            last = (last - last[j] * row) % p
        assert last.any()


def test_modp_eliminator_rejects_bad_modulus():
    with pytest.raises(InvalidInputError):
        dense_kernel(4, 91)  # 7 x 13
    with pytest.raises(InvalidInputError):
        dense_kernel(4, (1 << 31) + 11)


def test_check_modulus_agrees_with_a_sieve():
    limit = 200_000
    prime = np.ones(limit + 1, dtype=bool)
    prime[:2] = False
    for q in range(2, isqrt(limit) + 1):
        if prime[q]:
            prime[q * q :: q] = False

    def accepted(p):
        try:
            check_modulus(p)
        except InvalidInputError:
            return False
        return True

    assert [p for p in range(limit + 1) if accepted(p)] == np.flatnonzero(prime).tolist()


def test_check_modulus_at_the_cap(monkeypatch):
    for p, message in (
        (-7, "modulus -7 is not prime"),
        (91, "modulus 91 is not prime"),
        (46337 * 46337, "is not prime"),  # composite, just under the cap
        (1 << 31, "is not prime"),
    ):
        with pytest.raises(InvalidInputError, match=message):
            check_modulus(p)
    check_modulus((1 << 31) - 1)
    check_modulus(46337)

    # beyond the cap a modulus is refused before any divisor is tried
    def no_trial_division(p):
        raise AssertionError("trial division beyond the cap")

    monkeypatch.setattr(fnef.cone, "isqrt", no_trial_division)
    for p in ((1 << 31) + 11, 10**30 + 57):
        with pytest.raises(InvalidInputError, match=f"modulus {p} exceeds the cap 2"):
            check_modulus(p)


def disjoint_rows(count):
    """`count` rows on seven columns each, no column shared: no singleton,
    so the peel sets aside six columns of each row and the row takes its
    seventh, leaving 7 * count touched columns."""
    return _rows(*({k: 7 * i + k for k in range(7)} for i in range(count)))


def test_modp_eliminator_refuses_a_basis_beyond_physical_memory():
    # 171 disjoint rows set aside 1026 columns; on their own 1197 columns
    # they rank 171 modulo p, but among 2^24 columns the Schur map every
    # prime's kernel reads is (2^24 + 1) x 1026 int64 entries, about 138 GB,
    # more than the physical memory of any machine this suite targets:
    # refused before it is allocated
    col_rows = disjoint_rows(171)
    assert len(_structural_peel(col_rows, 1197).aside) == 1026
    assert peeled_rank(col_rows, 1197, P1) == 171
    with pytest.raises(InvalidInputError, match="a Schur map on 1026 columns needs .* physical memory"):
        peeled_rank(col_rows, 1 << 24, P1)


def test_modp_eliminator_memory_guard_reads_physical_memory(monkeypatch):
    # the n=6 zero rows set aside k columns, and their Schur map spans every
    # column of the peel and the -1 entries: 8 (16 + 1) k bytes; one byte
    # less is refused before the map is allocated, and exactly that much is
    # enough to rank the rows modulo p: no other allocation of the peel or
    # the kernel is guarded
    d = fnef_divisor_n6()
    rs = relation_system(6)
    col_rows = _free_col_rows(fcurve_block_arrays(6, fnef_check(d).zero_mask()), rs.free_index)
    k = len(_structural_peel(col_rows, rs.ambient_dim).aside)
    assert k == 2
    need = 8 * (rs.ambient_dim + 1) * k
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: need - 1)
    with pytest.raises(InvalidInputError, match=f"a Schur map on 2 columns needs {need} bytes"):
        peeled_rank(col_rows, rs.ambient_dim, P1)
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: need)
    assert _structural_peel(col_rows, rs.ambient_dim).schur.shape == (17, 2)
    assert peeled_rank(col_rows, rs.ambient_dim, P1) == 15


def fibonacci_chain(length):
    """e0 - e1, then e(i-1) + e(i-2) - e(i) for i = 2..length: no singleton,
    so column 0, the lowest of the shortest row, is set aside, and then each
    round takes the next column, whose Schur map entry is the sum of the
    two before it: the Fibonacci number F(i+1)."""
    rows = [{0: 0, 3: 1}] + [{0: i - 1, 1: i - 2, 3: i} for i in range(2, length + 1)]
    return _rows(*rows), length + 1


def test_schur_map_beyond_int64_is_refused():
    # F(88) * 7 < 2^63 <= F(89) * 7: the chain to column 87 ranks, and one
    # round more is refused by the peel, before any prime is ranked
    col_rows, ncols = fibonacci_chain(87)
    peel = _structural_peel(col_rows, ncols)
    assert (peel.singletons, peel.taken, peel.aside.tolist()) == (0, 87, [0])
    assert peel.schur[87, 0] == 1100087778366101931 == peel.schur.max()
    for p in (2, 3, P1):
        assert peeled_rank(col_rows, ncols, p) == 87
    col_rows, ncols = fibonacci_chain(88)
    with pytest.raises(InvalidInputError, match="the Schur map: coefficient 1779979416004714189"):
        _structural_peel(col_rows, ncols)


def full_matrix_rank_modp(n, p):
    # every curve pairs to zero with the zero class, whose reduction is
    # empty, so its extremality rank runs over all of them with no stop rank
    return extremality_rank(DivisorClass.zero(n), (p,)).rank_mod_p[p]


def test_small_n_full_matrix_ranks():
    assert relation_system(5).rank == 10
    assert relation_system(5).ambient_dim == 5
    assert fcurve_matrix_rank_exact(5) == 5
    assert full_matrix_rank_modp(5, P1) == 5
    assert fcurve_matrix_rank_exact(6) == full_matrix_rank_modp(6, P1) == 16


def test_extremality_small_n_matches_exact_oracle():
    d = fnef_divisor_n6()
    rep = extremality_rank(d, primes=(P1, P2))
    dense = zero_set_dense_rows(d)
    exact = rank_exact(dense, relation_system(6).ambient_dim)
    assert rep.zero_set_size == len(dense)
    assert set(rep.rank_mod_p.values()) == {exact}


@functools.cache
def pulled_back_n6(n):
    """fnef_divisor_n6 pulled back to n markings."""
    d = fnef_divisor_n6()
    while d.n < n:
        d = pullback_forgetful(d)
    return d


@functools.cache
def pulled_back_n6_rank(n):
    """fnef_divisor_n6 pulled back to n markings, and its extremality
    report."""
    return pulled_back_n6(n), extremality_rank(pulled_back_n6(n))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_extremality_rank_is_invariant_under_relabelling(data):
    # a relabelled divisor has the relabelled zero curves, whose rows peel
    # and reach the kernel differently, but the same ranks
    n = data.draw(st.sampled_from([6, 7, 8]), label="n")
    image = data.draw(st.permutations(range(n)), label="image")
    d, rep = pulled_back_n6_rank(n)
    assert rep.fnef.nonnegative and len(rep.rank_mod_p) == len(DEFAULT_PRIMES)
    table = mask_images(image, n)
    moved = DivisorClass.from_terms(n, ((int(table[m]), c) for m, c in d.coeffs.items()))
    rep_moved = extremality_rank(moved)
    assert rep_moved.rank_mod_p == rep.rank_mod_p
    assert rep_moved.zero_set_size == rep.zero_set_size
    assert rep_moved.certified_extremal == rep.certified_extremal


def psi_sum(n, *markings):
    """The sum of psi_i over `markings`: -1 on each `psi_key(i, n)`."""
    return DivisorClass(n, {psi_key(i, n): -1 for i in markings})


@st.composite
def psi_sums(draw):
    """A nonnegative sum of psi classes and of copies of fnef_divisor_n6
    pulled back, at n = 5..7, relabelled: F-nef classes whose zero sets
    fall short of ambient-1 by various deficits, and whose pivot
    coefficients (the psi keys of markings 1..n-1) are nonzero."""
    n = draw(st.integers(5, 7), label="n")
    weights = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n), label="psi")
    d = DivisorClass(n, {psi_key(i, n): -w for i, w in enumerate(weights, 1)})
    if n >= 6:
        d += draw(st.integers(0, 2), label="copies") * pulled_back_n6(n)
    table = mask_images(draw(st.permutations(range(n)), label="image"), n)
    return DivisorClass.from_terms(n, ((int(table[m]), c) for m, c in d.coeffs.items()))


@given(psi_sums())
@settings(max_examples=120, deadline=None)
def test_psi_sums_match_the_exact_oracles(d):
    rep = extremality_rank(d)
    curves = list(enumerate_fcurves(d.n))
    values = [pair_divisor_fcurve(d, c) for c in curves]
    low = min(values)
    assert (rep.fnef.min_value, rep.fnef.argmin) == (low, curves[values.index(low)])
    assert rep.fnef.nonnegative and rep.zero_set_size == values.count(0)
    exact = rank_exact(zero_set_dense_rows(d), rep.ambient_dim)
    assert set(rep.rank_mod_p.values()) == {exact}
    assert rep.certified_extremal == (rep.ambient_dim - exact == 1)


def test_psi_sum_pins():
    rep = extremality_rank(psi_sum(7, 7))
    assert (rep.zero_set_size, set(rep.rank_mod_p.values())) == (260, {41})
    assert rep.certified_extremal
    # psi_1 has the same zero count and rank, but its zero rows peel only
    # once two columns are set aside
    rep = extremality_rank(psi_sum(7, 1))
    rs = relation_system(7)
    col_rows = _free_col_rows(fcurve_block_arrays(7, rep.fnef.zero_mask()), rs.free_index)
    assert len(_structural_peel(col_rows, rs.ambient_dim).aside) == 2
    assert set(rep.rank_mod_p.values()) == {41} and rep.certified_extremal
    rep = extremality_rank(psi_sum(5, 1, 2))
    assert set(rep.rank_mod_p.values()) == {rep.ambient_dim - 4}
    assert not rep.certified_extremal
    rep = extremality_rank(psi_sum(7, 1, 2, 3, 4))
    assert (rep.zero_set_size, set(rep.rank_mod_p.values())) == (76, {rep.ambient_dim - 5})
    assert not rep.certified_extremal


@pytest.mark.parametrize("batch", [1, 5, 64])
def test_add_pattern_rows_zero_set_n6_in_batches(batch):
    # unlike the random matrices, the zero set has rank below the number of
    # columns its rows touch, so a basis left stale across batches shows
    d = fnef_divisor_n6()
    rs = relation_system(6)
    blocks = fcurve_block_arrays(6)
    col_rows = _free_col_rows(blocks[pairing_values(d, blocks) == 0], rs.free_index)
    expected = rank_exact(zero_set_dense_rows(d), rs.ambient_dim)
    assert expected == rs.ambient_dim - 1
    peel = _structural_peel(col_rows, rs.ambient_dim)
    # 6 columns peel as singletons, then the set-asides settle the other 10
    assert peel.singletons == 6
    assert peel.taken + len(peel.aside) == rs.ambient_dim
    for p in DEFAULT_PRIMES:
        elim = dense_kernel(rs.ambient_dim, p)
        with batches_of(batch):
            assert elim.add_pattern_rows(col_rows) == expected
        assert peeled_rank(col_rows, rs.ambient_dim, p, batch) == expected


def test_orthogonality_check_covers_every_row():
    d = fnef_divisor_n6()
    rs = relation_system(6)
    blocks = fcurve_block_arrays(6)
    values = pairing_values(d, blocks)
    rows = _free_col_rows(blocks, rs.free_index)
    zero, nonzero = rows[values == 0], rows[values != 0]
    # a row's dot product with the reduced coordinates is the curve's pairing
    reduced = reduce_canonical(d)
    _check_orthogonal(zero, reduced, rs.free_index, rs.ambient_dim)
    # a bad row off any every-k-th sample (here at index 1), or the last, is
    # still caught
    for bad in (
        np.concatenate([zero[:1], nonzero[:1], zero[1:]]),
        np.concatenate([zero, nonzero[:1]]),
    ):
        with pytest.raises(AssertionError):
            _check_orthogonal(bad, reduced, rs.free_index, rs.ambient_dim)
    huge = {m: v * 2**62 for m, v in reduced.items()}
    with pytest.raises(InvalidInputError):
        _check_orthogonal(zero, huge, rs.free_index, rs.ambient_dim)


def test_extremality_rank_scans_once(monkeypatch):
    d = fnef_divisor_n6()
    scan = fnef_check(d)
    assert np.array_equal(scan.zero_mask(), pairing_values(d, fcurve_block_arrays(6)) == 0)
    assert scan.zero_count == int(scan.zero_mask().sum())
    calls = []
    kernel = fnef.cone.scan_fcurves

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(fnef.cone, "scan_fcurves", counting)
    rep = extremality_rank(d, primes=(P1,))
    assert calls == [6]
    assert rep.fnef == scan and rep.zero_set_size == scan.zero_count
    # `==` leaves out the packed zero set
    assert np.array_equal(rep.fnef.zero_mask(), scan.zero_mask())


def test_extremality_rank_leaves_numpy_random_unloaded():
    # rows are fed in enumeration order, so the rank path draws nothing
    code = (
        "import sys\n"
        "from fnef import DivisorClass, extremality_rank, pullback_forgetful\n"
        "d = pullback_forgetful(pullback_forgetful(DivisorClass(4, {0b011: 1})))\n"
        "assert extremality_rank(d).certified_extremal\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = Path(fnef.cone.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False"]


def test_extremality_rank_refuses_zero_rows_beyond_physical_memory(monkeypatch):
    # 49 zero curves at 84 bytes each, the largest peak of the rank path:
    # one byte less is refused before any row is built, exactly that much
    # is enough for every allocation of the run
    d = fnef_divisor_n6()
    need = 84 * 49
    build = fnef.cone.fcurve_block_arrays

    def no_array(n, keep=None):
        raise AssertionError("built partition rows")

    monkeypatch.setattr(fnef.cone, "fcurve_block_arrays", no_array)
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: need - 1)
    with pytest.raises(InvalidInputError, match="ranking 49 zero curves needs 4116 bytes"):
        extremality_rank(d)
    monkeypatch.setattr(fnef.cone, "fcurve_block_arrays", build)
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: need)
    assert extremality_rank(d).certified_extremal


def test_extremality_rank_refuses_the_zero_mask_with_few_zero_rows(monkeypatch):
    # the sum of all psi_i at n=6 pairs positively with all 65 curves: no
    # zero row, but the gather's zero mask takes a byte per curve; one byte
    # less is refused, exactly that much is enough
    d = psi_sum(6, *range(1, 7))
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: 64)
    with pytest.raises(InvalidInputError, match="zero mask of 65 curves needs 65 bytes"):
        extremality_rank(d)
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: 65)
    rep = extremality_rank(d)
    assert rep.fnef.min_value == 2 and rep.zero_set_size == 0 and not rep.certified_extremal


def test_extremality_rank_refuses_the_gather_peak_at_n12(qr_divisor, monkeypatch):
    # only the 124366 zero rows are built, from the prefix walk: their
    # blocks, seven int64 columns and the temporaries that build those,
    # 84 bytes each, are the one peak counted; one byte less is refused
    # before any row is built
    need = 84 * 124366
    assert need == 10446744
    build = fnef.cone.fcurve_block_arrays
    built = []

    def no_array(n, keep=None):
        raise AssertionError("built partition rows")

    def kept_rows(n, keep=None):
        assert keep is not None
        rows = build(n, keep)
        built.append(len(rows))
        return rows

    monkeypatch.setattr(fnef.cone, "fcurve_block_arrays", no_array)
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: need - 1)
    with pytest.raises(InvalidInputError, match="ranking 124366 zero curves needs 10446744 bytes"):
        extremality_rank(qr_divisor)
    monkeypatch.setattr(fnef.cone, "fcurve_block_arrays", kept_rows)
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: need)
    assert extremality_rank(qr_divisor).certified_extremal
    assert built == [124366]


def test_zero_row_guard_counts_the_peak_of_every_phase(qr_divisor, monkeypatch):
    # traced from the moment the zero rows are built, no phase of the rank
    # path holds more than the guard's 84 bytes per zero curve, besides the
    # 8-byte-per-mask column table of `_free_col_rows` and a page of small
    # objects; the column build needs more than 83 of the 84
    peaks = {}

    def traced(name, original):
        def phase(*args, **kwargs):
            if name == "fcurve_block_arrays":
                tracemalloc.start()
            tracemalloc.reset_peak()
            result = original(*args, **kwargs)
            peaks[name] = tracemalloc.get_traced_memory()[1]
            return result

        return phase

    for name in ("fcurve_block_arrays", "_free_col_rows", "_check_orthogonal", "_structural_peel"):
        monkeypatch.setattr(fnef.cone, name, traced(name, getattr(fnef.cone, name)))
    monkeypatch.setattr(
        ModpEliminator,
        "add_pattern_rows",
        traced("add_pattern_rows", ModpEliminator.add_pattern_rows),
    )
    try:
        rep = extremality_rank(qr_divisor)
    finally:
        tracemalloc.stop()
    assert rep.certified_extremal and len(peaks) == 5
    guard = 84 * rep.zero_set_size
    assert max(peaks.values()) <= guard + 8 * (1 << 12) + 4096
    assert peaks["_free_col_rows"] > 83 * rep.zero_set_size


def test_extremality_rank_builds_no_row_without_zero_curves(monkeypatch):
    # every generator at -1 pairs positively with every curve at n=9: an
    # F-nef class with no zero curve, ranked 0 and not certified
    d = DivisorClass(9, dict.fromkeys(all_generator_keys(9), -1))
    build = fnef.cone.fcurve_block_arrays
    built = []

    def kept_rows(n, keep=None):
        rows = build(n, keep)
        built.append(rows.shape)
        return rows

    monkeypatch.setattr(fnef.cone, "fcurve_block_arrays", kept_rows)
    rep = extremality_rank(d)
    assert rep.fnef.nonnegative and rep.fnef.zero_count == 0
    assert rep.rank_mod_p == {P1: 0, P2: 0} and not rep.certified_extremal
    assert built == [(0, 4)]


def test_extremality_ranks_each_prime_once(monkeypatch):
    # one peel, and so one Schur map, whatever the number of primes; each
    # kernel reads the peel's map itself, not a copy of it
    built, peels = [], []

    class Counting(ModpEliminator):
        def __init__(self, peel, p):
            super().__init__(peel, p)
            built.append(p)
            assert self._schur is peel.schur

    def recording(*args):
        peels.append(_structural_peel(*args))
        return peels[-1]

    monkeypatch.setattr(fnef.cone, "ModpEliminator", Counting)
    monkeypatch.setattr(fnef.cone, "_structural_peel", recording)
    rep = extremality_rank(fnef_divisor_n6(), primes=(P1, P1, P2, 3, P1))
    assert built == [P1, P2, 3] and len(peels) == 1
    assert list(rep.rank_mod_p) == [P1, P2, 3]
    assert set(rep.rank_mod_p.values()) == {15}


def test_extremality_rank_refuses_no_prime_before_any_scan(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned with no prime to rank modulo")

    monkeypatch.setattr(fnef.cone, "pairing_values", no_scan)
    with pytest.raises(InvalidInputError, match="at least one prime"):
        extremality_rank(fnef_divisor_n6(), ())


def test_scaled_extremal_divisor_is_still_certified():
    d = fnef_divisor_n6()
    big = (1 << 59) * d
    # the scan's sums of 7 fit int64; the reduction of `big` itself does not
    assert fnef_check(big).nonnegative
    with pytest.raises(InvalidInputError):
        reduce_canonical(big)
    expected = extremality_rank(d)
    assert expected.certified_extremal
    assert extremality_rank(big) == extremality_rank(3 * d) == expected
    assert big.primitive() == d and DivisorClass.zero(6).primitive() == DivisorClass.zero(6)


def test_pulled_back_biplane_divisor_is_extremal_at_n13(qr_divisor, monkeypatch):
    # the kernel runs here on the 5 set-aside columns over 7 batches per prime
    peels = []

    def recording(*args):
        peels.append(_structural_peel(*args))
        return peels[-1]

    monkeypatch.setattr(fnef.cone, "_structural_peel", recording)
    lifted = pullback_forgetful(eliminate_psi(qr_divisor))
    rep = extremality_rank(lifted)
    [peel] = peels
    assert (peel.singletons, peel.taken) == (2266, 4012)
    assert peel.aside.tolist() == [196, 242, 420, 2993, 4016]
    assert (peel.schur.min(), peel.schur.max()) == (-2, 2)
    assert (rep.ambient_dim, rep.zero_set_size) == (4017, 583990)
    assert rep.rank_mod_p == {P1: 4016, P2: 4016}
    assert rep.certified_extremal


def test_extremality_of_zero_divisor_not_certified():
    rep = extremality_rank(DivisorClass.zero(5), primes=(P1,))
    assert rep.zero_set_size == 10
    assert rep.rank_mod_p[P1] == 5  # all rows, full rank
    assert not rep.certified_extremal


def test_extremality_of_a_divisor_not_fnef_is_not_certified(monkeypatch):
    d = DivisorClass(6, {mask_from_elements([1, 2], 6): 1})
    scan = fnef_check(d)
    assert not scan.nonnegative

    def no_rank(*args, **kwargs):
        raise AssertionError("ranked a divisor that is not F-nef")

    monkeypatch.setattr(fnef.cone, "ModpEliminator", no_rank)
    rep = extremality_rank(d, primes=(P1,))
    assert rep == ExtremalityReport(relation_system(6).ambient_dim, scan, {}, False)


def test_projection_formula_exhaustive_6_to_7():
    rng = random.Random(31)
    for _ in range(5):
        coeffs = {}
        for _ in range(6):
            mask = rng.randrange(1, 1 << 5)
            if 2 <= bin(mask).count("1") <= 4:
                coeffs[mask] = coeffs.get(mask, 0) + rng.randrange(-3, 4)
        d = DivisorClass(6, {k: v for k, v in coeffs.items() if v})
        rep = projection_formula_report(d)
        assert rep.total == 350 == rep.contracted + (rep.total - rep.contracted)
        assert rep.mismatches == 0


def sampled_rows(m, samples):
    """The sampler's chunks, each at most one slice of draws, joined."""
    chunks = list(fnef.cone._sample_partitions(m, samples))
    assert all(len(c) <= fnef.pairing._SCAN_ROWS for c in chunks)
    return np.concatenate(chunks)


@pytest.mark.parametrize("m", range(5, 14))
def test_sampler_matches_the_labels_times_bits_oracle(m):
    # the oracle draws the int64 default in a quarter more rows than needed;
    # the sampler takes the labels from raw 64-bit words a slice at a time,
    # so the counts around slice boundaries check that neither moves the
    # stream
    rows_per_slice = fnef.pairing._SCAN_ROWS
    edges = (rows_per_slice - 1, rows_per_slice, rows_per_slice + 1, 3 * rows_per_slice + 1)
    # below a slice the sampler draws a quarter more rows than needed, 6268
    # for 5001 (6267 rounded up to whole words at odd m); that falls short
    # where fewer than 4 rows in 5 are valid, m <= 10, and a second, shorter
    # slice must follow
    short = 5001
    assert (len(list(fnef.cone._sample_partitions(m, short))) > 1) == (m <= 10)
    for samples in (1, 2, 17, 1000, 4099, short, *edges):
        rows = sampled_rows(m, samples)
        expected = sample_partitions_oracle(m, samples, fnef.cone._SAMPLE_SEED)
        assert rows.shape == (samples, 4) and np.array_equal(rows, expected)


def test_sampler_keeps_pullback13s_spot_check(qr_divisor):
    rep = projection_formula_report(eliminate_psi(qr_divisor), samples=100000)
    assert (rep.total, rep.contracted, rep.mismatches) == (100000, 3492, 0)


def projection_divisors(n):
    """Two seeded small classes at n, the canonical class, and the pullback
    of an F-nef boundary class at 4 markings, all in boundary form."""
    rng = random.Random(n)
    keys = all_generator_keys(n)
    out = [DivisorClass(n, {m: rng.randint(-3, 3) for m in keys}) for _ in range(2)]
    out.append(canonical_divisor(n))
    d = fnef_divisor_n6()
    for _ in range(6, n):
        d = pullback_forgetful(d)
    if n >= 6:
        out.append(d)
    return [eliminate_psi(d) for d in out]


def wrong_lifts(n):
    """Per class of `projection_divisors(n)`, its pullback and three wrong
    lifts, each with one extra term: the two formulas must agree on every
    count, not only on zero.  An extra 2^20 scans the lift in int32 against
    d's int8, so a comparison that wrapped to int8 or int16 would miss
    every one of its mismatches."""
    keys = all_generator_keys(n + 1)
    for d in projection_divisors(n):
        for extra, c in ((None, 0), (keys[len(keys) // 3], 1), (1 << (n - 1), 1), (keys[-2], 1 << 20)):
            lifted = pullback_forgetful(d)
            if extra is not None:
                lifted = lifted + DivisorClass(n + 1, {extra: c})
            assert (scan_dtype(lifted), scan_dtype(d)) == ((np.int32, np.int8) if c > 1 else (np.int8,) * 2)
            yield d, lifted, extra is None


@pytest.mark.parametrize("n", range(5, 11))
def test_exhaustive_projection_formula_matches_the_row_oracle(n, monkeypatch):
    for d, lifted, right in wrong_lifts(n):
        monkeypatch.setattr(fnef.cone, "pullback_forgetful", lambda _, lifted=lifted: lifted)
        rep = projection_formula_report(d)
        expected = projection_formula_oracle(d, lifted)
        assert (rep.total, rep.contracted, rep.mismatches) == expected
        assert (rep.mismatches == 0) == right


@pytest.mark.parametrize("n", range(5, 11))
def test_sampled_projection_formula_matches_the_row_oracle(n, monkeypatch):
    # the same wrong lifts, on the sampled rows at n+1
    samples = 3000
    rows = sampled_rows(n + 1, samples)
    for d, lifted, right in wrong_lifts(n):
        monkeypatch.setattr(fnef.cone, "pullback_forgetful", lambda _, lifted=lifted: lifted)
        rep = projection_formula_report(d, samples=samples)
        expected = projection_formula_oracle(d, lifted, rows)
        assert (rep.total, rep.contracted, rep.mismatches) == expected
        assert (rep.mismatches == 0) == right


@pytest.mark.parametrize("n", range(4, 14))
def test_exhaustive_contracted_count_is_the_arrays_last_block(n):
    # {n} alone leaves a 3-block partition of {1..n-1}: S(n-1, 3) of them,
    # and the exhaustive projection formula from n-1 counts them as the
    # curves that are not among the four lifts of a curve at n-1
    contracted = np.count_nonzero(fcurve_block_arrays(n)[:, 3] == 1 << (n - 1))
    assert contracted == (3 ** (n - 1) - 3 * 2 ** (n - 1) + 3) // 6
    if n > 4:
        rep = projection_formula_report(DivisorClass(n - 1, {3: 1}))
        assert (rep.total, rep.contracted, rep.mismatches) == (count_fcurves(n), contracted, 0)


def test_exhaustive_projection_formula_12_to_13_builds_no_partition_array(
    qr_divisor, monkeypatch
):
    def no_array(n):
        raise AssertionError(f"built the partition array at n={n}")

    for module in (fnef.cone, fnef.subsets):
        monkeypatch.setattr(module, "fcurve_block_arrays", no_array)
    rep = projection_formula_report(eliminate_psi(qr_divisor))
    assert (rep.total, rep.contracted, rep.mismatches) == (2532530, 86526, 0)


def test_exhaustive_projection_formula_13_to_14(qr_divisor):
    # the biplane class pulled back once, pulled back again
    d = pullback_forgetful(eliminate_psi(qr_divisor))
    rep = projection_formula_report(d)
    assert (rep.total, rep.contracted, rep.mismatches) == (10391745, 261625, 0)


@pytest.mark.parametrize("samples", [None, 1000], ids=["exhaustive", "sampled"])
def test_projection_formula_refuses_scans_beyond_int64(samples):
    # both classes are read as the scans would read them, before the image
    # of d is built: 7c fits int64 at c = 2^63 // 7 and not one above, and
    # 2^63 fits no int64 at all
    top = (1 << 63) // 7
    rep = projection_formula_report(DivisorClass(6, {3: top, 5: -1}), samples=samples)
    assert rep.mismatches == 0 and rep.total == (1000 if samples else 350)
    for c in (top + 1, 1 << 63):
        message = f"^F-curve pairing scan: coefficient {c} times 7 exceeds int64$"
        with pytest.raises(InvalidInputError, match=message):
            projection_formula_report(DivisorClass(6, {3: c, 5: -1}), samples=samples)


def test_exhaustive_projection_formula_refuses_a_scan_beyond_physical_memory(monkeypatch):
    # the scan at n+1 keeps one zero bit per padded slot, and is refused
    # before any chunk is scanned
    def no_scan(*args):
        raise AssertionError("scanned a chunk")

    need = slot_count(10) // 8
    monkeypatch.setattr(fnef.pairing, "_scan_chunks", no_scan)
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: need - 1)
    with pytest.raises(InvalidInputError, match=f"F-nef scan of {8 * need} slots needs {need} bytes"):
        projection_formula_report(DivisorClass(9, {3: 1}))


def test_projection_formula_refuses_no_samples():
    # samples=None is the exhaustive check; a sample count must be positive
    for samples in (0, -3):
        with pytest.raises(InvalidInputError):
            projection_formula_report(fnef_divisor_n6(), samples=samples)


@pytest.mark.parametrize("value", [7.0, True, "7"], ids=repr)
def test_cone_entry_points_refuse_non_integers(value, monkeypatch):
    # 7.0 and 2.5 failed with TypeError; samples=True drew one sample
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the integers were checked")

    monkeypatch.setattr(fnef.cone, "pairing_values", no_scan)
    d = fnef_divisor_n6()
    refusals = (
        ("modulus", lambda: check_modulus(value)),
        ("modulus", lambda: extremality_rank(d, primes=[P1, value])),
        ("sample count", lambda: projection_formula_report(d, samples=value)),
    )
    for what, call in refusals:
        with pytest.raises(InvalidInputError, match=f"^{what} must be an integer, got {value!r}$"):
            call()
    assert check_modulus(np.int64(7)) == 7 and type(check_modulus(np.int64(7))) is int


def test_projection_formula_via_pushforward_pairing():
    # independent statement of the same identity, via explicit pushforward
    d = fnef_divisor_n6()
    lifted = pullback_forgetful(d)
    for c in enumerate_fcurves(7):
        down = pushforward_fcurve(c)
        expected = 0 if down is None else pair_divisor_fcurve(d, down)
        assert pair_divisor_fcurve(lifted, c) == expected
