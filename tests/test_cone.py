"""F-nef scans, the counterexample checks, and rank certificates."""

import random

import numpy as np
import pytest

from fnef import (
    DivisorClass,
    ModpEliminator,
    certify_not_boundary,
    enumerate_fcurves,
    extremality_rank,
    fcurve_matrix_rank_exact,
    fcurve_matrix_rank_modp,
    fcurve_block_arrays,
    fnef_check,
    pair_divisor_fcurve,
    pairing_values,
    projection_formula_report,
    pullback_forgetful,
    rank_exact,
    reduce_canonical,
    relation_row,
    relation_system,
    symmetric_divisor,
    verify_counterexample,
    zero_set_dense_rows,
)
from fnef.cone import DEFAULT_PRIMES, _check_orthogonal, _free_col_rows
from fnef.errors import InvalidInputError
from fnef.subsets import mask_from_elements

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


def test_modp_eliminator_against_exact_rank():
    rng = random.Random(17)
    for _ in range(20):
        nrows = rng.randrange(1, 12)
        ncols = rng.randrange(1, 10)
        rows = [[rng.randrange(-6, 7) for _ in range(ncols)] for _ in range(nrows)]
        expected = rank_exact(rows, ncols)
        elim = ModpEliminator(ncols, P1)
        for row in rows:
            cols = [c for c, v in enumerate(row) if v]
            if cols:
                elim.add_row(cols, [row[c] for c in cols])
        assert elim.rank == expected


def test_modp_eliminator_batched_matches_sequential():
    rng = np.random.default_rng(23)
    nrows, ncols, width = 600, 40, 7
    col_rows = rng.integers(-1, ncols, size=(nrows, width))
    pattern = np.array([1, 1, 1, -1, -1, -1, -1], dtype=np.int64)
    # drop duplicate columns inside a row (the eliminator expects them distinct)
    for row in col_rows:
        seen = set()
        for k in range(width):
            if row[k] in seen:
                row[k] = -1
            elif row[k] >= 0:
                seen.add(int(row[k]))

    seq = ModpEliminator(ncols, P1)
    for row in col_rows:
        sel = row >= 0
        if sel.any():
            seq.add_row(row[sel], pattern[sel])
    bat = ModpEliminator(ncols, P1)
    bat.add_pattern_rows(col_rows, pattern, batch=64)
    assert bat.rank == seq.rank


def test_modp_eliminator_rejects_bad_modulus():
    with pytest.raises(InvalidInputError):
        ModpEliminator(4, 91)  # 7 x 13
    with pytest.raises(InvalidInputError):
        ModpEliminator(4, (1 << 31) + 11)


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
    from fnef import pushforward_fcurve

    d = fnef_divisor_n6()
    lifted = pullback_forgetful(d)
    for c in enumerate_fcurves(7):
        down = pushforward_fcurve(c)
        expected = 0 if down is None else pair_divisor_fcurve(d, down)
        assert pair_divisor_fcurve(lifted, c) == expected
