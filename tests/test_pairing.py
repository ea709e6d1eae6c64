"""The generator/F-curve pairing, curve functionals, and pushforward."""

import hashlib
import json
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fnef import (
    CurveFunctional,
    DivisorClass,
    FCurve,
    canonical_divisor,
    check_relations,
    enumerate_fcurves,
    fcurve_block_arrays,
    fnef_check,
    functional_from_json_dict,
    functional_to_json_dict,
    pair_divisor_fcurve,
    pair_divisor_functional,
    pair_generator_fcurve,
    pairing_values,
    parse_fcurve,
    relation_row,
    symmetric_divisor,
)
from fnef.pairing import scan_dtype, slot_count
import fnef.pairing
from fnef.errors import InvalidInputError, MalformedInputError
from fnef.subsets import (
    all_generator_keys,
    canonical_generator,
    count_fcurves,
    elements_from_mask,
    fcurve_at,
    full_mask,
    is_psi_key,
    mask_from_elements,
    psi_key,
    slot_heads,
    slot_layout,
)
from oracles import enumeration_values, fcurve_functional, pushforward_fcurve


def eq2_oracle(key, n, curve):
    """Literal intersection rule: either side a union of two blocks gives +1,
    either side a single block gives -1, else 0."""
    sides = ({frozenset(elements_from_mask(key)),
              frozenset(elements_from_mask(key ^ full_mask(n)))})
    blocks = [frozenset(elements_from_mask(b)) for b in curve.blocks]
    unions = {blocks[i] | blocks[j] for i in range(4) for j in range(i + 1, 4)}
    if sides & set(blocks):
        return -1
    if sides & unions:
        return 1
    return 0


def test_pair_generator_examples():
    c = parse_fcurve("1|2|3|4,5,6,7,8,9,10,11,12", 12)
    g = mask_from_elements([1, 2], 12)
    assert pair_generator_fcurve(g, c) == 1
    c2 = parse_fcurve("1,2|3|4|5,6,7,8,9,10,11,12", 12)
    assert pair_generator_fcurve(g, c2) == -1
    c3 = parse_fcurve("1|3|4|2,5,6,7,8,9,10,11,12", 12)
    assert pair_generator_fcurve(g, c3) == 0


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_pairing_matches_oracle_exhaustively(n):
    curves = list(enumerate_fcurves(n))
    for key in all_generator_keys(n):
        for c in curves:
            assert pair_generator_fcurve(key, c) == eq2_oracle(key, n, c)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_case_exclusivity_exhaustive(n):
    full = full_mask(n)
    for c in enumerate_fcurves(n):
        blocks = set(c.blocks)
        b0, b1, b2, b3 = c.blocks
        unions = {b0 | b1, b0 | b2, b0 | b3, b1 | b2, b1 | b3, b2 | b3}
        for key in all_generator_keys(n):
            single = key in blocks or (key ^ full) in blocks
            double = key in unions or (key ^ full) in unions
            assert not (single and double)


def test_divisor_pairing_on_block_size_profiles():
    d0 = symmetric_divisor()
    balanced = parse_fcurve("1,2,3|4,5,6|7,8,9|10,11,12", 12)
    assert pair_divisor_fcurve(d0, balanced) == 3
    skewed = parse_fcurve("1|2|3|4,5,6,7,8,9,10,11,12", 12)
    assert pair_divisor_fcurve(d0, skewed) == 0


def test_relation_rows_pair_zero_with_all_curves_n6():
    rows = [relation_row(i, j, 6) for i in range(1, 7) for j in range(i + 1, 7)]
    for c in enumerate_fcurves(6):
        for row in rows:
            assert pair_divisor_fcurve(row, c) == 0


def test_witness_functional_values(qr_biplane, qr_witness):
    values = qr_witness.values
    assert values.coeff(mask_from_elements([1, 3, 4, 5, 9], 12)) == 1
    assert values.coeff(mask_from_elements([1, 2], 12)) == 0
    assert values.coeff(full_mask(11)) == -2  # psi key of marking 12
    assert values.coeff(mask_from_elements([3], 12)) == -3
    assert {v for m, v in values.coeffs.items() if not is_psi_key(m, 12)} == {1}
    assert qr_witness.boundary_min() == 0


def test_witness_respects_relations(qr_witness):
    assert check_relations(qr_witness).ok


def test_flipped_value_breaks_relations(qr_witness):
    extra = DivisorClass(12, {mask_from_elements([1, 2], 12): 1})  # not a block
    broken = CurveFunctional(qr_witness.values + extra)
    report = check_relations(broken)
    assert not report.ok
    assert report.first_violation is not None
    assert report.violation_value != 0


def subset_walk_check(f):
    """First pair (i, j) whose relation sum, over every side holding i and
    omitting j, is nonzero, with that sum; None when all vanish."""
    n, full = f.n, full_mask(f.n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            bi, bj = 1 << (i - 1), 1 << (j - 1)
            rest = full & ~bi & ~bj
            total, sub = 0, rest
            while True:
                total += f.values.coeff(canonical_generator(sub | bi, n))
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            if total:
                return (i, j), total
    return None


@given(st.integers(min_value=0, max_value=2**60))
@settings(max_examples=40, deadline=None)
def test_check_relations_matches_subset_walk(seed):
    # an admissible functional (a curve row) with one value moved, so the
    # first violation falls anywhere in the pair order
    rng = random.Random(seed)
    n = rng.choice([4, 5, 6, 7])
    f = fcurve_functional(rng.choice(list(enumerate_fcurves(n))))
    key = rng.randrange(1, 1 << (n - 1))
    shift = rng.choice([-2, -1, 1, 3]) * rng.randrange(2)
    g = CurveFunctional(f.values + DivisorClass(n, {key: shift}))
    report = check_relations(g)
    expected = subset_walk_check(g)
    if expected is None:
        assert report.ok and report.first_violation is None
    else:
        assert not report.ok
        assert (report.first_violation, report.violation_value) == expected


def test_check_relations_refuses_values_beyond_int64():
    # a relation at n=6 sums 16 values
    def constant(c):
        return CurveFunctional(DivisorClass(6, dict.fromkeys(all_generator_keys(6), c)))

    top = ((1 << 63) - 1) // 16
    report = check_relations(constant(top))
    assert (report.first_violation, report.violation_value) == ((1, 2), 16 * top)
    with pytest.raises(InvalidInputError):
        check_relations(constant(top + 1))


def extreme_divisor(n, c):
    """Coefficient c on every boundary key and -c on every psi key."""
    return DivisorClass(n, {m: -c if is_psi_key(m, n) else c for m in all_generator_keys(n)})


def test_scan_refuses_coefficients_whose_sums_leave_int64():
    d = extreme_divisor(6, 1 << 62)
    exact = min(pair_divisor_fcurve(d, c) for c in enumerate_fcurves(6))
    assert exact == 13835058055282163712  # the int64 scan used to report -2^62
    with pytest.raises(InvalidInputError):
        fnef_check(d)
    with pytest.raises(InvalidInputError):
        pairing_values(DivisorClass(6, {3: 1 << 63}), fcurve_block_arrays(6))


@pytest.mark.parametrize("rows", [1, 5, 7])
@pytest.mark.parametrize("n", [7, 8])
def test_sliced_scan_matches_per_curve_oracle(n, rows, monkeypatch):
    monkeypatch.setattr(fnef.pairing, "_SCAN_ROWS", rows)
    rng = random.Random(100 * n + rows)
    top = ((1 << 63) - 1) // 7
    keys = all_generator_keys(n)
    # each with the dtype that 7 times its largest |coefficient| selects
    divisors = [
        (extreme_divisor(n, top), np.int64),
        (extreme_divisor(n, -top), np.int64),
        (DivisorClass(n, {m: rng.randint(-5, 5) for m in keys}), np.int8),
        (DivisorClass(n, {m: rng.randint(-top, top) for m in keys if rng.random() < 0.3}), np.int64),
    ]
    blocks = fcurve_block_arrays(n)
    curves = list(enumerate_fcurves(n))
    # 5 and 7 divide S(7, 4) = 350 and 7 divides S(8, 4) = 1701; two rows
    # fewer leave slices of 5 and 7 rows a ragged last slice at both n
    cut = len(blocks) - 2
    for d, scan_type in divisors:
        expected = np.array([pair_divisor_fcurve(d, c) for c in curves])
        for dtype in (np.int32, np.int64):
            arr = blocks.astype(dtype)
            assert np.array_equal(pairing_values(d, arr), expected)
            assert np.array_equal(pairing_values(d, arr[:cut]), expected[:cut])
            empty = pairing_values(d, arr[:0])
            assert empty.dtype == scan_type and empty.shape == (0,)


def tight_divisor(n, c):
    """-c on the keys of one and three markings, c on all others: the curve
    1|2|3|4..n pairs to 7c, every term of its sum at the same sign."""
    return DivisorClass(n, {m: -c if m.bit_count() in (1, 3) else c for m in all_generator_keys(n)})


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64], ids=lambda t: t.__name__)
def test_scan_runs_in_the_narrowest_dtype_that_holds_seven_coefficients(dtype, monkeypatch):
    """At n=6, c = max // 7, the largest c with 7c within the dtype, scans
    in it, and c + 1 in the next wider dtype (refused past int64), at both
    signs; every value matches the per-curve oracle on both scan paths, and
    so do fnef_check's minimum, zero count and argmin; fnef_check's
    enumeration kernel reads its table in that dtype too."""
    kernel, tables = fnef.pairing._scan_chunks, []

    def recording(table, n):
        tables.append(table.dtype)
        return kernel(table, n)

    monkeypatch.setattr(fnef.pairing, "_scan_chunks", recording)
    curves = list(enumerate_fcurves(6))
    blocks = fcurve_block_arrays(6)
    wider = {np.int8: np.int16, np.int16: np.int32, np.int32: np.int64, np.int64: None}
    top = np.iinfo(dtype).max // 7
    assert pair_divisor_fcurve(tight_divisor(6, top), parse_fcurve("1|2|3|4,5,6", 6)) == 7 * top
    for c, expect in ((top, dtype), (top + 1, wider[dtype])):
        for d in (extreme_divisor(6, c), extreme_divisor(6, -c), tight_divisor(6, c), tight_divisor(6, -c)):
            if expect is None:
                for scan in (fnef_check, lambda d: pairing_values(d, blocks)):
                    with pytest.raises(InvalidInputError, match="exceeds int64"):
                        scan(d)
                continue
            expected = [pair_divisor_fcurve(d, curve) for curve in curves]
            for values in (enumeration_values(d), pairing_values(d, blocks)):
                assert values.dtype == expect
                assert values.tolist() == expected
            tables.clear()
            report = fnef_check(d)
            assert tables == [expect]
            assert report.min_value == min(expected)
            assert report.zero_count == expected.count(0)
            assert report.argmin == curves[expected.index(min(expected))]


def traced_peak(scan):
    """The result of `scan()` and the peak traced memory while it ran."""
    tracemalloc.start()
    try:
        values = scan()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return values, peak


def test_scan_temporaries_stay_bounded(qr_divisor):
    blocks = fcurve_block_arrays(12)
    values, peak = traced_peak(lambda: pairing_values(qr_divisor, blocks))
    assert peak < values.nbytes + (1 << 20)


def scan_divisors(n, seed):
    """Both int64 extremes, small coefficients on every key, coefficients
    of int16 and int32 size on every key, and coefficients up to the bound
    on a sparse support: a scan in each dtype, so records of 16, 32, 64 and
    128 bytes.  Then the zero divisor, the block keys of the first and of
    the last curve (a unique minimum -4 there), and the int16 class that
    reaches 7 x 4681 = 32767, the padded slots' value, at the last curve,
    and its negative."""
    rng = random.Random(seed)
    top = ((1 << 63) - 1) // 7
    keys = all_generator_keys(n)
    first, last = fcurve_at(n, 0), fcurve_at(n, count_fcurves(n) - 1)
    divisors = [
        extreme_divisor(n, top),
        extreme_divisor(n, -top),
        DivisorClass(n, {m: rng.randint(-5, 5) for m in keys}),
        DivisorClass(n, {m: rng.randint(-4681, 4681) for m in keys} | {keys[0]: 4681}),
        DivisorClass(n, {m: rng.randint(-(1 << 28), 1 << 28) for m in keys} | {keys[0]: 1 << 28}),
        DivisorClass(n, {m: rng.randint(-top, top) for m in keys if rng.random() < 0.3}),
        DivisorClass(n, {}),
        DivisorClass.from_terms(n, ((b, 1) for b in first.blocks)),
        DivisorClass.from_terms(n, ((b, 1) for b in last.blocks)),
        tight_divisor(n, 4681),
        tight_divisor(n, -4681),
    ]
    assert [scan_dtype(d) for d in divisors[2:5]] == [np.int8, np.int16, np.int32]
    assert [scan_dtype(d) for d in divisors[-2:]] == [np.int16, np.int16]
    return divisors


def check_scan(d, expected):
    """The enumeration scan against `expected`, the pairings of every curve
    in enumeration order: its values with the padded slots dropped
    (`enumeration_values`) are exactly them, and `fnef_check` reports their
    minimum, its first curve, their zero count and their zeros."""
    values = enumeration_values(d)
    assert values.dtype == scan_dtype(d)
    assert np.array_equal(values, expected)
    report = fnef_check(d)
    low = expected.min()
    assert report.min_value == low
    assert report.argmin == fcurve_at(d.n, int(np.argmax(expected == low)))
    assert report.zero_count == np.count_nonzero(expected == 0)
    assert np.array_equal(report.zero_mask(), expected == 0)


@pytest.mark.parametrize("n", range(4, 10))
def test_enumeration_scan_matches_per_curve_oracle(n):
    curves = list(enumerate_fcurves(n))
    for d in scan_divisors(n, n):
        check_scan(d, np.array([pair_divisor_fcurve(d, c) for c in curves]))


@pytest.mark.parametrize("n", [10, 11, 12, 13])
def test_enumeration_scan_matches_row_scan(n):
    blocks = fcurve_block_arrays(n)
    for d in scan_divisors(n, n):
        check_scan(d, pairing_values(d, blocks))


def test_scan_minimum_sits_where_the_divisors_put_it():
    # the premises of `scan_divisors`: a unique minimum -4 at the first and
    # at the last curve, and 32767 reached at the last curve
    for n in (4, 9, 12):
        last = fcurve_at(n, count_fcurves(n) - 1)
        divisors = scan_divisors(n, n)
        blocks = fcurve_block_arrays(n)
        for d, index in zip(divisors[-4:-2], (0, count_fcurves(n) - 1)):
            values = pairing_values(d, blocks)
            assert np.flatnonzero(values == values.min()).tolist() == [index]
            assert values[index] == -4
        assert pair_divisor_fcurve(divisors[-2], last) == np.iinfo(np.int16).max


@pytest.mark.parametrize("chunk", [1, 1 << 30])
def test_enumeration_scan_does_not_depend_on_the_chunk(chunk, monkeypatch):
    """One prefix per chunk, or each open-block group of n=11 (1, 7, 6
    and 1 prefixes) in one chunk, give the row scan's values in every
    dtype."""
    monkeypatch.setattr(fnef.pairing, "_SCAN_CHUNK", chunk)
    blocks = fcurve_block_arrays(11)
    for d in scan_divisors(11, 111):
        assert np.array_equal(enumeration_values(d), pairing_values(d, blocks))


@pytest.mark.parametrize("n", [4, 7, 10, 13])
def test_fnef_check_argmin_is_the_scan_argmin_row(n):
    blocks = fcurve_block_arrays(n)
    for d in scan_divisors(n, n):
        row = blocks[pairing_values(d, blocks).argmin()]
        assert fnef_check(d).argmin == FCurve(n, tuple(int(b) for b in row))


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_fnef_check_argmin_is_the_first_minimum_across_open_block_groups(n):
    """The scan takes its prefixes one open-block group at a time (a curve's
    group: the blocks its first `split` markings open), and the groups
    interleave in enumeration order, so the argmin is the lowest (value,
    slot) pair over the chunks.  Premises: with coefficients in {-1, 0, 1}
    on every key, at least two divisors reach their minimum in two or more
    groups, and for at least one the first curve at it is not in the first
    of those groups the scan takes, so a scan that kept the first chunk's
    minimum would report another curve."""
    blocks = fcurve_block_arrays(n)
    s = slot_layout(n)[0]
    group = np.count_nonzero(blocks & ((1 << (n - s)) - 1), axis=1)
    order = list(fnef.pairing._scan_groups(n))
    rng = random.Random(n)
    ties = misses = 0
    for _ in range(4):
        d = DivisorClass(n, {m: rng.choice((-1, 0, 1)) for m in all_generator_keys(n)})
        values = pairing_values(d, blocks)
        first = int(values.argmin())
        reached = set(group[values == values[first]].tolist())
        ties += len(reached) >= 2
        misses += group[first] != next(u for u in order if u in reached)
        report = fnef_check(d)
        assert report.min_value == values[first]
        assert report.argmin == FCurve(n, tuple(int(b) for b in blocks[first]))
        assert np.array_equal(report.zero_mask(), values == 0)
    assert ties >= 2 and misses >= 1


def test_both_scans_refuse_sums_beyond_int64():
    top = ((1 << 63) - 1) // 7
    blocks = fcurve_block_arrays(9)
    for scan in (fnef_check, lambda d: pairing_values(d, blocks)):
        for c in (top + 1, -top - 1):
            with pytest.raises(InvalidInputError, match="exceeds int64"):
                scan(extreme_divisor(9, c))
        with pytest.raises(InvalidInputError, match="exceeds int64"):
            scan(DivisorClass(9, {3: 1 << 63}))


@pytest.mark.parametrize("c", [1, ((1 << 63) - 1) // 7], ids=["int8", "int64"])
def test_fnef_check_temporaries_stay_bounded(c):
    # each chunk is reduced as it comes: besides the packed zero bits of
    # the 703136 padded slots, one chunk's arrays are held at a time
    d = extreme_divisor(12, c)
    fnef_check(d)  # builds the plan and the prefix side
    report, peak = traced_peak(lambda: fnef_check(d))
    assert report.zero_bits.nbytes == 703136 // 8
    assert peak < report.zero_bits.nbytes + (1 << 20)


def test_scan_plan_is_small_and_shared_across_n(qr_divisor, monkeypatch):
    plan = fnef.pairing._scan_plan
    asked = []

    def recording(s):
        asked.append(s)
        return plan(s)

    divisors = (DivisorClass(8, {3: 1}), qr_divisor, DivisorClass(13, {3: 1}))
    for d in divisors:
        fnef_check(d)  # fills the caches built from the plan
    monkeypatch.setattr(fnef.pairing, "_scan_plan", recording)
    for d in divisors:
        fnef_check(d)
    # once per scan, for the kernel; the argmin slot is mapped through the
    # layout's valid slots (`subsets.slot_heads`)
    assert asked == [7] * 3
    spread, gather, codes = plan(7)
    assert plan(7)[0] is spread and plan(7)[2] is codes
    arrays = [spread, gather, *codes.values(), *(a for h in slot_heads(7).values() for a in h)]
    assert sum(a.nbytes for a in arrays) < 1 << 20
    assert not any(a.flags.writeable for a in arrays)
    # only a prefix that opened 4 blocks completes every slot of its heads
    assert [valid.all() for _, valid in slot_heads(7).values()] == [False, False, False, True]


#: sha256 over every `_scan_plan(s)` array (dtype, shape and bytes, in the
#: order spread, gather, then each u's codes and selection: the indices of
#: its valid slots in `subsets.slot_heads`, "-" when all are valid), pinned
#: from the plan built by the scan's earlier, independent slot arithmetic
SCAN_PLAN_SHA256 = {
    3: "333c8d0e486589c3201a3d3c60ecbd87193863ac806eb99e2f992c4270e4f5d6",
    4: "844e37f7885d5d0e70e501f44b6ad3358cf5ea35f14b86df97b4c90fd7a90dd3",
    5: "21062230fcc6289872e7e7c3fcd6ce627894e6b74785489383e9c4d12a16b5b8",
    6: "8a9571b0f5920932f2c9671e06238561e922026c8b2c9426267116a44da764f4",
    7: "610bf9cd4fcc4c30049b7c6e196f8f27d687f82b03093750a5e6a6e1c6a8f6a3",
    8: "6bb90a22e85e00d6f0f56cba09e9cc9e437d52c85f8002b3b6694eec57df97ee",
    9: "5402cbe34e3490a3f8d03631a2682057b45982cd9395a9ab120f80041474c03c",
}


@pytest.mark.parametrize("s", sorted(SCAN_PLAN_SHA256))
def test_scan_plan_arrays_are_pinned(s):
    spread, gather, codes = fnef.pairing._scan_plan(s)
    heads = slot_heads(s)
    select = {u: None if v.all() else np.flatnonzero(v) for u, (_, v) in heads.items()}
    arrays = [spread, gather, *(a for u in range(1, 5) for a in (codes[u], select[u]))]

    def digest(a):
        if a is None:
            return "-"
        h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    joined = "".join(map(digest, arrays)).encode()
    assert hashlib.sha256(joined).hexdigest() == SCAN_PLAN_SHA256[s]


@pytest.mark.parametrize("n", range(4, 14))
def test_scan_prefix_side_is_cached_and_read_only(n):
    # the scan reads the enumeration's layout (`subsets.slot_layout`) and
    # groups its prefixes (`_scan_groups`), both cached per n
    layout, groups = slot_layout(n), fnef.pairing._scan_groups(n)
    assert slot_layout(n) is layout and fnef.pairing._scan_groups(n) is groups
    s, prefixes, opened, slots, curves = layout
    assert s == min(7, n - 1)
    assert curves[0] == 0 and curves[-1] == count_fcurves(n)
    assert slots[0] == 0 and slots[-1] == slot_count(n) and slots[-1] % 16 == 0
    assert len(prefixes) == len(opened) == len(slots) - 1 == len(curves) - 1
    # the groups split the prefixes by open-block count, from 4 down, each
    # in enumeration order, with the slot where each prefix starts
    assert list(groups) == sorted(set(opened.tolist()), reverse=True)
    starts = slots[:-1]
    for u, (masks, at) in groups.items():
        assert np.array_equal(at, starts[opened == u])
        assert masks.shape == (len(at), 7)
    assert sorted(np.concatenate([at for _, at in groups.values()])) == starts.tolist()
    arrays = [*layout[1:], *(a for g in groups.values() for a in g)]
    assert not any(a.flags.writeable for a in arrays)
    if n == 12:
        assert (s, len(opened), slots[-1]) == (7, 51, 703136)
        assert {u: len(masks) for u, (masks, _) in groups.items()} == {1: 1, 2: 15, 3: 25, 4: 10}
    if n == 13:
        assert slots[-1] == 2804384


@pytest.mark.parametrize("n", range(5, 9))
def test_functional_pairing_is_the_dense_sum_over_every_key(n):
    """The pairing walks the functional's keys; the oracle sums over every
    generator key.  Each support holds keys the other lacks."""
    rng = random.Random(n)
    keys = all_generator_keys(n)
    values = (-3, -2, -1, 1, 2, 3)
    for _ in range(4):
        inside = rng.sample(keys, len(keys) // 2)
        outside = sorted(set(keys) - set(inside))
        d = DivisorClass(n, {k: rng.choice(values) for k in inside})
        support = rng.sample(inside, 3) + rng.sample(outside, 3)
        f = CurveFunctional(DivisorClass(n, {k: rng.choice(values) for k in support}))
        dense = sum(d.coeff(k) * f.values.coeff(k) for k in keys)
        assert pair_divisor_functional(d, f) == dense


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_fcurve_pairing_rows_respect_relations(n):
    for c in enumerate_fcurves(n):
        assert check_relations(fcurve_functional(c)).ok


def test_fcurve_functional_agrees_with_pairing():
    rng = random.Random(2)
    curves = list(enumerate_fcurves(6))
    for c in rng.sample(curves, 20):
        f = fcurve_functional(c)
        for key in all_generator_keys(6):
            assert f.values.coeff(key) == pair_generator_fcurve(key, c)


def test_functional_pairing_relation_invariance(qr_witness):
    d = symmetric_divisor()
    base = pair_divisor_functional(d, qr_witness)
    assert base == 10  # only the top exceptional key pairs: (-5) x (-2)
    shifted = d + 2 * relation_row(3, 9, 12)
    assert pair_divisor_functional(shifted, qr_witness) == base


def test_canonical_pairing_value_via_expansion(qr_witness):
    # independent expansion: -sum of psi values - 2 * sum of boundary values
    values = qr_witness.values
    psi_total = sum(values.coeff(psi_key(i, 12)) for i in range(1, 13))
    boundary_total = sum(v for m, v in values.coeffs.items() if not is_psi_key(m, 12))
    expected = -psi_total - 2 * boundary_total
    assert expected == 13
    assert pair_divisor_functional(canonical_divisor(12), qr_witness) == 13


def test_divisor_witness_pairing_term_by_term(qr_biplane, qr_divisor, qr_witness):
    # independent oracle: evaluate the witness rules on each support key
    blocks = set(qr_biplane.blocks)
    total = 0
    for mask, coeff in qr_divisor.coeffs.items():
        bits = mask.bit_count()
        if bits == 1:
            value = -3
        elif mask == full_mask(11):
            value = -2
        else:
            value = 1 if mask in blocks else 0
        total += coeff * value
    assert total == -1
    assert pair_divisor_functional(qr_divisor, qr_witness) == -1


def test_single_block_key_pairs_one(qr_biplane, qr_witness):
    for b in qr_biplane.blocks:
        d = DivisorClass(12, {b: 1})
        assert pair_divisor_functional(d, qr_witness) == 1


def test_pushforward_examples():
    kept = parse_fcurve("1|2|3|4,5,6,7,8,9,10,11,12,13", 13)
    down = pushforward_fcurve(kept)
    assert down is not None and down.n == 12
    assert str(down) == "1|2|3|4,5,6,7,8,9,10,11,12"
    contracted = parse_fcurve("1,2,3,4|5,6,7,8|9,10,11,12|13", 13)
    assert pushforward_fcurve(contracted) is None
    moved = parse_fcurve("1,13|2|3|4,5,6,7,8,9,10,11,12", 13)
    assert str(pushforward_fcurve(moved)) == "1|2|3|4,5,6,7,8,9,10,11,12"


def test_vectorized_scan_matches_per_curve(qr_divisor):
    blocks = fcurve_block_arrays(12)
    values = pairing_values(qr_divisor, blocks)
    rng = random.Random(9)
    for idx in rng.sample(range(len(blocks)), 400):
        row = blocks[idx]
        c = FCurve(12, tuple(int(x) for x in row))
        assert values[idx] == pair_divisor_fcurve(qr_divisor, c)


def test_mismatched_marking_counts_rejected(qr_witness):
    d5 = DivisorClass(5, {0b00011: 1})
    with pytest.raises(InvalidInputError):
        pair_divisor_functional(d5, qr_witness)
    c = parse_fcurve("1|2|3|4,5", 5)
    d12 = symmetric_divisor()
    with pytest.raises(InvalidInputError):
        pair_divisor_fcurve(d12, c)


def test_functional_json_round_trip(qr_witness):
    obj = functional_to_json_dict(qr_witness)
    assert obj["psi"] == [-3] * 11 + [-2]
    again = functional_from_json_dict(json.loads(json.dumps(obj)))
    assert again == qr_witness


@pytest.mark.parametrize("value", [1.5, -3.0, True, "1"])
@pytest.mark.parametrize("field", ["n", "psi", "value"])
def test_functional_json_refuses_non_integers(qr_witness, field, value):
    # a float, bool or string was truncated or converted: psi 1.5 loaded as 1
    obj = functional_to_json_dict(qr_witness)
    if field == "n":
        obj["n"] = value
    elif field == "psi":
        obj["psi"][0] = value
    else:
        obj["boundary"][0]["value"] = value
    with pytest.raises(MalformedInputError, match=f"{field} must be an integer"):
        functional_from_json_dict(json.loads(json.dumps(obj)))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_functional_json_round_trips_every_fcurve_row(n):
    # the rows hold psi values and negative boundary values, so both halves
    # of the format carry them
    for c in enumerate_fcurves(n):
        f = fcurve_functional(c)
        assert functional_from_json_dict(functional_to_json_dict(f)) == f


@pytest.mark.parametrize("value", [0.5, 1.0, Fraction(1, 2), "3"], ids=repr)
def test_functional_refuses_non_integers(qr_witness, value):
    # a psi value 0.5 passed check_relations, yet paired with a divisor as 0.5
    for field in ("psi", "value"):
        obj = functional_to_json_dict(qr_witness)
        if field == "psi":
            obj["psi"][0] = value
        else:
            obj["boundary"][0]["value"] = value
        with pytest.raises(MalformedInputError, match=f"^{field} must be an integer"):
            functional_from_json_dict(obj)


def test_functional_stores_python_ints(qr_witness):
    obj = functional_to_json_dict(qr_witness)
    obj["n"] = np.int64(12)
    obj["psi"] = [np.int64(v) for v in obj["psi"]]
    for t in obj["boundary"]:
        t["value"] = np.int64(t["value"])
    f = functional_from_json_dict(obj)
    assert f == qr_witness
    assert all(type(x) is int for x in (f.n, *f.values.coeffs, *f.values.coeffs.values()))


def test_functional_validation(qr_witness):
    for length in (0, 11, 13):
        obj = {**functional_to_json_dict(qr_witness), "psi": [-3] * length}
        with pytest.raises(MalformedInputError, match=f"^need 12 psi values, got {length}$"):
            functional_from_json_dict(obj)
    obj = {"n": 5, "psi": [0] * 5, "boundary": [{"subset": "1", "value": 1}]}
    with pytest.raises(MalformedInputError, match="^1 is not a boundary key for n=5$"):
        functional_from_json_dict(obj)


@pytest.mark.parametrize("n", [3, 99])
def test_functional_json_checks_n_before_any_subset(qr_witness, n):
    # n=3 was refused as "marking 4 out of range 1..3", at the first subset
    obj = {**functional_to_json_dict(qr_witness), "n": n}
    message = rf"^marking count must be an integer in \[4, 16\], got {n}$"
    with pytest.raises(MalformedInputError, match=message):
        functional_from_json_dict(obj)
    with pytest.raises(MalformedInputError, match="^n must be an integer, got 1.7$"):
        functional_from_json_dict({**obj, "n": 1.7})


@pytest.mark.parametrize("value", [{}, "", 0, None], ids=repr)
@pytest.mark.parametrize("field", ["psi", "boundary"])
def test_functional_json_refuses_a_field_that_is_not_an_array(qr_witness, field, value):
    # {} and "" iterate as no entries: a boundary of {} was read as no values
    obj = {**functional_to_json_dict(qr_witness), field: value}
    message = re.escape(f"{field} must be a JSON array, got {value!r}")
    with pytest.raises(MalformedInputError, match=f"^{message}$"):
        functional_from_json_dict(obj)


def test_functional_json_refuses_a_repeated_subset(qr_witness):
    # the last value was kept: 1 then 2 for {1,2} loaded as 2, where a
    # divisor file sums its repeated terms to 3
    obj = functional_to_json_dict(qr_witness)
    obj["boundary"] += [{"subset": "1,2", "value": 1}, {"subset": "2, 1", "value": 2}]
    with pytest.raises(MalformedInputError, match="^boundary subset 1,2 is repeated$"):
        functional_from_json_dict(obj)
    obj["boundary"].pop()
    assert functional_from_json_dict(obj).values.coeff(0b11) == 1


@pytest.mark.parametrize("subset", ["3", "1,2,3,4,5,6,7,8,9,10,11", "1,12"])
def test_functional_json_refuses_a_subset_that_is_no_boundary_key(qr_witness, subset):
    # a psi key, the psi key of marking 12, and a side that holds marking 12
    obj = functional_to_json_dict(qr_witness)
    obj["boundary"].append({"subset": subset, "value": 1})
    with pytest.raises(MalformedInputError, match=f"^{subset} is not a boundary key for n=12$"):
        functional_from_json_dict(obj)
