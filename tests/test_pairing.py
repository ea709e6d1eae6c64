"""The generator/F-curve pairing, curve functionals, and pushforward."""

import json
import random
import tracemalloc

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
import fnef.pairing
from fnef.errors import InvalidInputError, MalformedInputError
from fnef.subsets import (
    all_generator_keys,
    canonical_generator,
    elements_from_mask,
    full_mask,
    is_psi_key,
    mask_from_elements,
    psi_marking,
)
from oracles import fcurve_functional, pushforward_fcurve


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
    d0 = symmetric_divisor(12)
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
    assert qr_witness.value(mask_from_elements([1, 3, 4, 5, 9], 12)) == 1
    assert qr_witness.value(mask_from_elements([1, 2], 12)) == 0
    assert qr_witness.value(full_mask(11)) == -2  # psi key of marking 12
    assert qr_witness.value(mask_from_elements([3], 12)) == -3
    assert set(qr_witness.boundary.values()) == {1}
    assert qr_witness.boundary_min() == 0


def test_witness_respects_relations(qr_witness):
    assert check_relations(qr_witness).ok


def test_flipped_value_breaks_relations(qr_witness):
    extra = dict(qr_witness.boundary)
    extra[mask_from_elements([1, 2], 12)] = 1  # not a block
    broken = CurveFunctional(12, qr_witness.psi, extra)
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
                total += f.value(canonical_generator(sub | bi, n))
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
    psi, boundary = list(f.psi), dict(f.boundary)
    if is_psi_key(key, n):
        psi[psi_marking(key, n) - 1] += shift
    else:
        boundary[key] = boundary.get(key, 0) + shift
    g = CurveFunctional(n, tuple(psi), boundary)
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
        boundary = {m: c for m in all_generator_keys(6) if not is_psi_key(m, 6)}
        return CurveFunctional(6, (c,) * 6, boundary)

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
        pairing_values(DivisorClass(6, {3: 1 << 63}))


def test_scan_is_exact_at_the_bound():
    top = ((1 << 63) - 1) // 7
    d = extreme_divisor(6, top)
    values = pairing_values(d)
    assert values.tolist() == [pair_divisor_fcurve(d, c) for c in enumerate_fcurves(6)]
    with pytest.raises(InvalidInputError):
        pairing_values(extreme_divisor(6, top + 1))


@pytest.mark.parametrize("rows", [1, 5, 7])
@pytest.mark.parametrize("n", [7, 8])
def test_sliced_scan_matches_per_curve_oracle(n, rows, monkeypatch):
    monkeypatch.setattr(fnef.pairing, "_SCAN_ROWS", rows)
    rng = random.Random(100 * n + rows)
    top = ((1 << 63) - 1) // 7
    keys = all_generator_keys(n)
    divisors = [
        extreme_divisor(n, top),
        extreme_divisor(n, -top),
        DivisorClass(n, {m: rng.randint(-5, 5) for m in keys}),
        DivisorClass(n, {m: rng.randint(-top, top) for m in keys if rng.random() < 0.3}),
    ]
    blocks = fcurve_block_arrays(n)
    curves = list(enumerate_fcurves(n))
    # 5 and 7 divide S(7, 4) = 350 and 7 divides S(8, 4) = 1701; two rows
    # fewer leave slices of 5 and 7 rows a ragged last slice at both n
    cut = len(blocks) - 2
    for d in divisors:
        expected = np.array([pair_divisor_fcurve(d, c) for c in curves])
        for dtype in (np.int32, np.int64):
            arr = blocks.astype(dtype)
            assert np.array_equal(pairing_values(d, arr), expected)
            assert np.array_equal(pairing_values(d, arr[:cut]), expected[:cut])
            empty = pairing_values(d, arr[:0])
            assert empty.dtype == np.int64 and empty.shape == (0,)


def test_scan_temporaries_stay_bounded(qr_divisor):
    blocks = fcurve_block_arrays(12)
    tracemalloc.start()
    try:
        values = pairing_values(qr_divisor, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes + (1 << 20)


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
            assert f.value(key) == pair_generator_fcurve(key, c)


def test_functional_pairing_relation_invariance(qr_witness):
    d = symmetric_divisor(12)
    base = pair_divisor_functional(d, qr_witness)
    assert base == 10  # only the top exceptional key pairs: (-5) x (-2)
    shifted = d + 2 * relation_row(3, 9, 12)
    assert pair_divisor_functional(shifted, qr_witness) == base


def test_canonical_pairing_value_via_expansion(qr_witness):
    # independent expansion: -sum of psi values - 2 * sum of boundary values
    psi_total = sum(qr_witness.psi)
    boundary_total = sum(qr_witness.boundary.values())
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
    d12 = symmetric_divisor(12)
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


def test_functional_validation():
    with pytest.raises(InvalidInputError):
        CurveFunctional(5, (0, 0, 0), {})  # wrong psi length
    with pytest.raises(InvalidInputError):
        CurveFunctional(5, (0,) * 5, {0b00001: 1})  # psi key in boundary map
