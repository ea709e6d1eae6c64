"""F-nef scans, the counterexample checks, and rank certificates."""

import random

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from fnef import (
    CurveFunctional,
    DivisorClass,
    certify_not_boundary,
    check_relations,
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
from fnef.cone import (
    DEFAULT_PRIMES,
    ModpEliminator,
    _ROW_PATTERN,
    _check_orthogonal,
    _free_col_rows,
)
from fnef.errors import InvalidInputError
from fnef.subsets import mask_from_elements
from oracles import (
    dense_rows,
    fcurve_matrix_rank_exact,
    fcurve_matrix_rank_modp,
    pushforward_fcurve,
    rank_exact,
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


def test_argmin_is_first_minimizer_in_enumeration_order():
    rep = fnef_check(DivisorClass.zero(6))
    assert rep.min_value == 0 and rep.zero_count == 65
    assert rep.argmin == next(enumerate_fcurves(6))


def test_scan_reports_match_across_threads(qr_divisor):
    a = fnef_check(qr_divisor, threads=1)
    b = fnef_check(qr_divisor, threads=3)
    assert a == b


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

    d0_cert = certify_not_boundary(symmetric_divisor(12), qr_witness)
    assert d0_cert.pairing == 10
    assert not d0_cert.certified


def test_witness_off_the_relations_is_not_certified(qr_biplane, qr_divisor, qr_witness):
    # value 2 on one block key: still nonnegative on the boundary and negative
    # on the divisor, but no longer a functional on numerical classes
    boundary = dict(qr_witness.boundary)
    boundary[qr_biplane.blocks[0]] = 2
    broken = CurveFunctional(12, qr_witness.psi, boundary)
    assert check_relations(broken).first_violation == (1, 4)
    cert = certify_not_boundary(qr_divisor, broken)
    assert (cert.boundary_min, cert.pairing) == (0, -2)
    assert not cert.certified and not cert.certified_with_canonical


@st.composite
def pattern_matrices(draw):
    """Rows of the curve pattern on at most 8 columns, with -1 gaps, repeated
    columns and duplicated rows; columns at or past `used` stay empty, so
    the rank is often below the column count.  A row has at most 7 unit
    entries, so its Euclidean norm is at most 7 and, by Hadamard's bound,
    every minor is below 7^8 < p: the rank mod p equals the rational rank."""
    ncols = draw(st.integers(1, 8))
    used = draw(st.integers(1, ncols))
    key = st.integers(-1, used - 1)
    rows = draw(st.lists(st.lists(key, min_size=7, max_size=7), min_size=1, max_size=40))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))]
    return ncols, np.array(rows, dtype=np.int64)


@given(pattern_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_add_pattern_rows_matches_exact_rank(matrix, data):
    ncols, col_rows = matrix
    expected = rank_exact(dense_rows(col_rows, ncols), ncols)
    nrows = len(col_rows)
    batch = data.draw(st.integers(1, nrows + 1), label="batch")
    split = data.draw(st.integers(0, nrows), label="split")
    # small recursion base and product blocks, so the blocked paths run
    base = data.draw(st.integers(1, 4), label="base rows")
    block = data.draw(st.integers(1, 4), label="block rows")
    for p in DEFAULT_PRIMES:
        one = ModpEliminator(ncols, p)
        one.BASE_ROWS, one.BLOCK_ROWS = base, block
        assert one.add_pattern_rows(col_rows, _ROW_PATTERN, batch=batch) == expected
        assert one.rows_seen == nrows or one.rank == ncols
        two = ModpEliminator(ncols, p)
        two.BASE_ROWS, two.BLOCK_ROWS = base, block
        two.add_pattern_rows(col_rows[:split], _ROW_PATTERN, batch=batch)
        assert two.add_pattern_rows(col_rows[split:], _ROW_PATTERN, batch=batch) == expected


def test_add_pattern_rows_stops_at_stop_rank():
    rng = np.random.default_rng(23)
    ncols, used, nrows = 40, 30, 160
    col_rows = np.stack([rng.permutation(used)[:7] for _ in range(nrows)])
    col_rows[rng.random(col_rows.shape) < 0.1] = -1
    expected = rank_exact(dense_rows(col_rows, ncols), ncols)
    assert expected <= used < ncols
    fed_all = ModpEliminator(ncols, P1)
    assert fed_all.add_pattern_rows(col_rows, _ROW_PATTERN, batch=16) == expected
    assert fed_all.rows_seen == nrows
    stopped = ModpEliminator(ncols, P1)
    assert stopped.add_pattern_rows(col_rows, _ROW_PATTERN, 16, stop_rank=expected) == expected
    seen = stopped.rows_seen
    assert seen < nrows
    # once the bound is reached a further call feeds nothing
    assert stopped.add_pattern_rows(col_rows, _ROW_PATTERN, 16, stop_rank=expected) == expected
    assert stopped.rows_seen == seen


@pytest.mark.parametrize("p", DEFAULT_PRIMES)
@pytest.mark.parametrize("inner", [2048, ModpEliminator.MAX_COLUMNS - 1])
def test_split_product_exact_at_extremes(p, inner):
    rng = np.random.default_rng(inner)
    a = np.full((5, inner), p - 1, dtype=np.int64)
    b = np.full((inner, 3), p - 1, dtype=np.int64)
    a[1] = rng.integers(0, p, size=inner)
    b[:, 1] = rng.integers(0, p, size=inner)
    c = rng.integers(0, p, size=(5, 3))
    c[0, 0] = p - 1
    expected = (c.astype(object) - a.astype(object) @ b.astype(object)) % p
    elim = ModpEliminator(1, p)
    elim.BLOCK_ROWS = 2
    assert (elim._mulsub(c.copy(), a, b) == expected).all()


def test_modp_eliminator_rejects_bad_modulus():
    with pytest.raises(InvalidInputError):
        ModpEliminator(4, 91)  # 7 x 13
    with pytest.raises(InvalidInputError):
        ModpEliminator(4, (1 << 31) + 11)


def test_modp_eliminator_refuses_inexact_sizes():
    # refused before the ncols^2 basis is allocated
    with pytest.raises(InvalidInputError):
        ModpEliminator(ModpEliminator.MAX_COLUMNS, P1)
    elim = ModpEliminator(4, P1)
    with pytest.raises(InvalidInputError):
        elim.add_pattern_rows(np.array([[0, 1]]), np.array([1, 1 << 32]))


def test_small_n_full_matrix_ranks():
    assert relation_system(5).rank == 10
    assert relation_system(5).ambient_dim == 5
    assert fcurve_matrix_rank_exact(5) == 5
    assert fcurve_matrix_rank_modp(5, P1) == 5
    assert fcurve_matrix_rank_exact(6) == fcurve_matrix_rank_modp(6, P1) == 16


def test_extremality_small_n_matches_exact_oracle():
    d = fnef_divisor_n6()
    rep = extremality_rank(d, primes=(P1, P2))
    dense = zero_set_dense_rows(d)
    exact = rank_exact(dense, relation_system(6).ambient_dim)
    assert rep.zero_set_size == len(dense)
    assert set(rep.rank_mod_p.values()) == {exact}


@pytest.mark.parametrize("batch", [1, 5, 64])
def test_add_pattern_rows_zero_set_n6_in_batches(batch):
    # unlike the random matrices, the zero set has rank below the number of
    # columns its rows touch, so a basis left stale across batches shows
    d = fnef_divisor_n6()
    rs = relation_system(6)
    blocks = fcurve_block_arrays(6)
    col_rows = _free_col_rows(blocks[pairing_values(d, blocks) == 0], rs.free_index, 6)
    expected = rank_exact(zero_set_dense_rows(d), rs.ambient_dim)
    assert expected == rs.ambient_dim - 1
    for p in DEFAULT_PRIMES:
        elim = ModpEliminator(rs.ambient_dim, p)
        elim.BASE_ROWS, elim.BLOCK_ROWS = 2, 3
        assert elim.add_pattern_rows(col_rows, _ROW_PATTERN, batch=batch) == expected


def test_orthogonality_check_covers_every_row():
    d = fnef_divisor_n6()
    rs = relation_system(6)
    blocks = fcurve_block_arrays(6)
    values = pairing_values(d, blocks)
    rows = _free_col_rows(blocks, rs.free_index, 6)
    zero, nonzero = rows[values == 0], rows[values != 0]
    # a row's dot product with the reduced coordinates is the curve's pairing
    thirds = {m: v / 3 for m, v in reduce_canonical(d).items()}
    _check_orthogonal(zero, thirds, rs.free_index, rs.ambient_dim)
    # a bad row off any every-k-th sample (here at index 1) is still caught
    bad = np.concatenate([zero[:1], nonzero[:1], zero[1:]])
    with pytest.raises(AssertionError):
        _check_orthogonal(bad, thirds, rs.free_index, rs.ambient_dim)
    huge = {m: v * 2**62 for m, v in thirds.items()}
    with pytest.raises(InvalidInputError):
        _check_orthogonal(zero, huge, rs.free_index, rs.ambient_dim)


def test_extremality_rank_reuses_the_callers_scan(monkeypatch):
    d = fnef_divisor_n6()
    expected = extremality_rank(d, primes=(P1,))
    scan = fnef_check(d)
    assert np.array_equal(scan.zero_mask(), pairing_values(d) == 0)
    assert scan.zero_count == int(scan.zero_mask().sum())
    other = fnef_check(DivisorClass.zero(5))

    def no_scan(*args, **kwargs):
        raise AssertionError("scanned the curves again")

    monkeypatch.setattr(fnef.cone, "pairing_values", no_scan)
    assert extremality_rank(d, primes=(P1,), scan=scan) == expected
    with pytest.raises(InvalidInputError):
        extremality_rank(d, primes=(P1,), scan=other)  # a scan at n=5


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


def test_extremality_of_zero_divisor_not_certified():
    rep = extremality_rank(DivisorClass.zero(5), primes=(P1,))
    assert rep.zero_set_size == 10
    assert rep.rank_mod_p[P1] == 5  # all rows, full rank
    assert not rep.certified_extremal


def test_extremality_requires_fnef_input():
    d = DivisorClass(6, {mask_from_elements([1, 2], 6): 1})
    with pytest.raises(InvalidInputError):
        extremality_rank(d, primes=(P1,))


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


def test_projection_formula_via_pushforward_pairing():
    # independent statement of the same identity, via explicit pushforward
    d = fnef_divisor_n6()
    lifted = pullback_forgetful(d)
    for c in enumerate_fcurves(7):
        down = pushforward_fcurve(c)
        expected = 0 if down is None else pair_divisor_fcurve(d, down)
        assert pair_divisor_fcurve(lifted, c) == expected
