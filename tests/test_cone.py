"""F-nef scans, the counterexample checks, and rank certificates."""

import random
from math import isqrt

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from fnef import (
    CurveFunctional,
    DivisorClass,
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
import fnef.subsets
from fnef.cone import (
    DEFAULT_PRIMES,
    ExtremalityReport,
    ModpEliminator,
    _ROW_PATTERN,
    _check_orthogonal,
    _free_col_rows,
    _structural_peel,
    check_modulus,
)
from fnef.errors import InvalidInputError
from fnef.subsets import mask_from_elements
from oracles import (
    dense_rows,
    fcurve_matrix_rank_exact,
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


def test_scan_accepts_one_thread_only(qr_divisor):
    assert fnef_check(qr_divisor, threads=1) == fnef_check(qr_divisor)
    for threads in (0, -2, 3):
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
        assert one.add_pattern_rows(col_rows, batch=batch) == expected
        assert one.rows_seen == nrows or one.rank == ncols
        two = ModpEliminator(ncols, p)
        two.BASE_ROWS, two.BLOCK_ROWS = base, block
        two.add_pattern_rows(col_rows[:split], batch=batch)
        assert two.add_pattern_rows(col_rows[split:], batch=batch) == expected


def peeled_rank(col_rows, ncols, p, batch=512, base=None, block=None):
    """The rank of pattern rows as extremality_rank computes it: the
    structural peel, then the dense kernel on the columns left."""
    peeled, rows, left = _structural_peel(col_rows, ncols)
    assert peeled + left == ncols
    assert ((rows >= -1) & (rows < left)).all()
    elim = ModpEliminator(left, p, peeled=peeled)
    if base is not None:
        elim.BASE_ROWS, elim.BLOCK_ROWS = base, block
    return elim.add_pattern_rows(rows, batch=batch)


@given(pattern_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_peeled_rank_matches_exact_rank(matrix, data):
    ncols, col_rows = matrix
    expected = rank_exact(dense_rows(col_rows, ncols), ncols)
    batch = data.draw(st.integers(1, len(col_rows) + 1), label="batch")
    base = data.draw(st.integers(1, 4), label="base rows")
    block = data.draw(st.integers(1, 4), label="block rows")
    for p in DEFAULT_PRIMES:
        assert peeled_rank(col_rows, ncols, p, batch, base, block) == expected
    # the taking rows have a unit diagonal, so the peel agrees with the
    # dense kernel alone modulo the smallest primes too
    for p in (2, 3):
        dense = ModpEliminator(ncols, p).add_pattern_rows(col_rows)
        assert peeled_rank(col_rows, ncols, p, batch) == dense


def _rows(*entries):
    """Pattern rows from {position: column} dicts, -1 elsewhere."""
    col_rows = np.full((len(entries), len(_ROW_PATTERN)), -1, dtype=np.int64)
    for i, row in enumerate(entries):
        for k, c in row.items():
            col_rows[i, k] = c
    return col_rows


def test_peel_competing_singletons_take_one_column():
    # e0, -e0 and e0 + e1: two rows compete for column 0, one takes it
    col_rows = _rows({0: 0}, {3: 0}, {0: 0, 1: 1})
    peeled, rows, left = _structural_peel(col_rows, 3)
    assert (peeled, len(rows), left) == (2, 0, 1)
    for p in DEFAULT_PRIMES:
        assert peeled_rank(col_rows, 3, p) == 2 == rank_exact(dense_rows(col_rows, 3), 3)


def test_peel_without_singletons_is_all_dense():
    # e0 + e1, e1 + e2, e2 + e0: rank 3 over the rationals, 2 modulo 2
    col_rows = _rows({0: 0, 1: 1}, {0: 1, 1: 2}, {0: 2, 1: 0}, {})
    peeled, rows, left = _structural_peel(col_rows, 3)
    assert (peeled, left) == (0, 3)
    assert np.array_equal(rows, col_rows[:3])  # the row with no free column is dropped
    for p in DEFAULT_PRIMES:
        assert peeled_rank(col_rows, 3, p) == 3 == rank_exact(dense_rows(col_rows, 3), 3)
    assert peeled_rank(col_rows, 3, 2) == 2


def test_fully_peeled_matrix_feeds_no_row():
    # e0, e0 - e1, e1 + e2, e1 + e2 - e3: triangular with a unit diagonal
    col_rows = _rows({0: 0}, {0: 0, 3: 1}, {0: 1, 1: 2}, {0: 1, 1: 2, 4: 3})
    peeled, rows, left = _structural_peel(col_rows, 4)
    assert (peeled, len(rows), left) == (4, 0, 0)
    for p in DEFAULT_PRIMES:
        elim = ModpEliminator(left, p, peeled=peeled)
        assert elim.add_pattern_rows(rows) == 4
        assert elim.rows_seen == 0


def test_peel_counts_at_n12(qr_divisor):
    rs = relation_system(12)
    blocks = fcurve_block_arrays(12)
    zero = _free_col_rows(blocks[fnef_check(qr_divisor).zero_mask()], rs.free_index)
    peeled, rows, left = _structural_peel(zero, rs.ambient_dim)
    assert (peeled, left, len(rows)) == (1331, 650, 76296)
    # the full matrix peels completely, so no row reaches the dense kernel
    peeled, rows, left = _structural_peel(
        _free_col_rows(blocks, rs.free_index), rs.ambient_dim
    )
    assert (peeled, len(rows), left) == (rs.ambient_dim, 0, 0)


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
    fed_all = ModpEliminator(ncols, P1)
    assert fed_all.add_pattern_rows(col_rows, batch=16) == expected
    assert fed_all.rows_seen == nrows
    stopped = ModpEliminator(ncols, P1)
    assert stopped.add_pattern_rows(col_rows, 16, stop_rank=expected) == expected
    seen = stopped.rows_seen
    assert seen < nrows
    # once the bound is reached a further call feeds nothing
    assert stopped.add_pattern_rows(col_rows, 16, stop_rank=expected) == expected
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


def test_modp_eliminator_refuses_inexact_sizes():
    # refused before any basis is allocated
    with pytest.raises(InvalidInputError):
        ModpEliminator(ModpEliminator.MAX_COLUMNS, P1)


def test_modp_eliminator_refuses_a_basis_beyond_physical_memory():
    # (2^17 - 1)^2 int64 entries are about 137 GB, more than the physical
    # memory of any machine this suite targets; refused before allocating
    with pytest.raises(InvalidInputError, match="physical memory"):
        ModpEliminator(ModpEliminator.MAX_COLUMNS - 1, P1)


def test_modp_eliminator_memory_guard_reads_physical_memory(monkeypatch):
    # the guard shared with the partition array: 8 * 10^2 bytes for 10 columns
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: 799)
    with pytest.raises(InvalidInputError, match="physical memory"):
        ModpEliminator(10, P1)
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: 800)
    assert ModpEliminator(10, P1).rank == 0


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
    for p in DEFAULT_PRIMES:
        elim = ModpEliminator(rs.ambient_dim, p)
        elim.BASE_ROWS, elim.BLOCK_ROWS = 2, 3
        assert elim.add_pattern_rows(col_rows, batch=batch) == expected
        # 6 columns peel, and 43 rows reach the dense kernel on the other 10
        assert _structural_peel(col_rows, rs.ambient_dim)[0] == 6
        assert peeled_rank(col_rows, rs.ambient_dim, p, batch, 2, 3) == expected


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
    # a bad row off any every-k-th sample (here at index 1) is still caught
    bad = np.concatenate([zero[:1], nonzero[:1], zero[1:]])
    with pytest.raises(AssertionError):
        _check_orthogonal(bad, reduced, rs.free_index, rs.ambient_dim)
    huge = {m: v * 2**62 for m, v in reduced.items()}
    with pytest.raises(InvalidInputError):
        _check_orthogonal(zero, huge, rs.free_index, rs.ambient_dim)


def test_extremality_rank_scans_once(monkeypatch):
    d = fnef_divisor_n6()
    scan = fnef_check(d)
    assert np.array_equal(scan.zero_mask(), pairing_values(d) == 0)
    assert scan.zero_count == int(scan.zero_mask().sum())
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return pairing_values(*args, **kwargs)

    monkeypatch.setattr(fnef.cone, "pairing_values", counting)
    rep = extremality_rank(d, primes=(P1,))
    assert calls == [6]
    assert rep.fnef == scan and rep.zero_set_size == scan.zero_count
    # `==` leaves out the packed zero set
    assert np.array_equal(rep.fnef.zero_mask(), scan.zero_mask())


def test_extremality_ranks_each_prime_once(monkeypatch):
    built = []

    class Counting(ModpEliminator):
        def __init__(self, ncols, p, peeled=0):
            built.append(p)
            super().__init__(ncols, p, peeled)

    monkeypatch.setattr(fnef.cone, "ModpEliminator", Counting)
    rep = extremality_rank(fnef_divisor_n6(), primes=(P1, P1, P2, P1))
    assert built == [P1, P2]
    assert list(rep.rank_mod_p) == [P1, P2]


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


def test_pulled_back_biplane_divisor_is_extremal_at_n13(qr_divisor):
    # the dense stage runs here on 1751 columns over many batches per prime
    lifted = pullback_forgetful(eliminate_psi(qr_divisor))
    rep = extremality_rank(lifted)
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


def test_projection_formula_refuses_no_samples():
    # samples=None is the exhaustive check; a sample count must be positive
    for samples in (0, -3):
        with pytest.raises(InvalidInputError):
            projection_formula_report(fnef_divisor_n6(), samples=samples)


def test_projection_formula_via_pushforward_pairing():
    # independent statement of the same identity, via explicit pushforward
    d = fnef_divisor_n6()
    lifted = pullback_forgetful(d)
    for c in enumerate_fcurves(7):
        down = pushforward_fcurve(c)
        expected = 0 if down is None else pair_divisor_fcurve(d, down)
        assert pair_divisor_fcurve(lifted, c) == expected
