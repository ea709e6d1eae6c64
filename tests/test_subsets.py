"""Mask canonicalization and 4-block partition enumeration."""

import itertools
import random
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fnef import (
    FCurve,
    canonical_generator,
    count_fcurves,
    enumerate_fcurves,
    fcurve_at,
    fcurve_block_arrays,
    parse_fcurve,
)
import fnef.subsets
from fnef.errors import InvalidInputError
from fnef.subsets import (
    all_generator_keys,
    completion_tables,
    elements_from_mask,
    exact_int,
    format_subset,
    full_mask,
    integer,
    is_psi_key,
    mask_from_elements,
    parse_subset,
    psi_key,
    validate_n,
)


def brute_force_partitions(n, k):
    """Oracle: distinct partitions of {1..n} into k nonempty blocks, found by
    trying every labeling of elements with k labels."""
    seen = set()
    for code in range(k ** n):
        labels = []
        c = code
        for _ in range(n):
            labels.append(c % k)
            c //= k
        blocks = [frozenset(i + 1 for i, l in enumerate(labels) if l == b) for b in range(k)]
        if all(blocks):
            seen.add(frozenset(blocks))
    return seen


def restricted_growth_rows(n):
    """Oracle that does not read fcurve_block_arrays: every labelling of
    markings 2..n by 0..3 after a leading 0, in lexicographic order, kept
    when it is a restricted-growth string with maximum 3, as mask rows."""
    rows = []
    for tail in itertools.product(range(4), repeat=n - 1):
        labels = (0, *tail)
        if any(label > max(labels[:i]) + 1 for i, label in enumerate(labels) if i):
            continue
        if max(labels) != 3:
            continue
        masks = [0, 0, 0, 0]
        for i, label in enumerate(labels):
            masks[label] |= 1 << i
        rows.append(masks)
    return np.array(rows, dtype=np.int32).reshape(-1, 4)


def test_canonical_examples():
    assert canonical_generator(mask_from_elements([1, 2], 12), 12) == 0b11
    assert canonical_generator(mask_from_elements(range(3, 13), 12), 12) == 0b11
    assert canonical_generator(mask_from_elements([12], 12), 12) == full_mask(11)


def test_canonical_rejects_empty_and_full():
    with pytest.raises(InvalidInputError):
        canonical_generator(0, 6)
    with pytest.raises(InvalidInputError):
        canonical_generator(full_mask(6), 6)
    with pytest.raises(InvalidInputError):
        canonical_generator(1 << 7, 6)  # bit outside 1..6


@given(st.integers(min_value=4, max_value=16), st.data())
def test_canonical_collapses_complements(n, data):
    mask = data.draw(st.integers(min_value=1, max_value=full_mask(n) - 1))
    key = canonical_generator(mask, n)
    assert key == canonical_generator(mask ^ full_mask(n), n)
    assert key == canonical_generator(key, n)  # idempotent
    assert not (key >> (n - 1)) and key != 0


@pytest.mark.parametrize("n", range(4, 9))
def test_canonical_collapse_exhaustive(n):
    full = full_mask(n)
    for mask in range(1, full):
        assert canonical_generator(mask, n) == canonical_generator(mask ^ full, n)


def test_n4_single_curve():
    curves = list(enumerate_fcurves(4))
    assert len(curves) == 1
    assert curves[0].blocks == (0b0001, 0b0010, 0b0100, 0b1000)


def test_n5_against_brute_force():
    oracle = brute_force_partitions(5, 4)
    assert len(oracle) == 10
    got = {frozenset(frozenset(elements_from_mask(b)) for b in c.blocks)
           for c in enumerate_fcurves(5)}
    assert got == oracle
    assert count_fcurves(5) == 10


def test_n5_restricted_growth_order():
    # lexicographic restricted-growth strings with 4 classes, as blocks
    expected = [
        ({1, 2}, {3}, {4}, {5}),
        ({1, 3}, {2}, {4}, {5}),
        ({1}, {2, 3}, {4}, {5}),
        ({1, 4}, {2}, {3}, {5}),
        ({1}, {2, 4}, {3}, {5}),
        ({1}, {2}, {3, 4}, {5}),
        ({1, 5}, {2}, {3}, {4}),
        ({1}, {2, 5}, {3}, {4}),
        ({1}, {2}, {3, 5}, {4}),
        ({1}, {2}, {3}, {4, 5}),
    ]
    got = [tuple(set(elements_from_mask(b)) for b in c.blocks) for c in enumerate_fcurves(5)]
    assert got == expected


@pytest.mark.parametrize("n", range(4, 10))
def test_block_arrays_match_restricted_growth_oracle(n):
    arr = fcurve_block_arrays(n)
    assert arr.dtype == np.int32 and arr.shape == (count_fcurves(n), 4)
    assert not arr.flags.writeable
    assert np.array_equal(arr, restricted_growth_rows(n))  # row order too


@pytest.mark.parametrize("n", range(4, 14))
def test_count_matches_enumeration_and_no_duplicates(n):
    arr = fcurve_block_arrays(n)
    assert len(arr) == count_fcurves(n)
    packed = (
        arr[:, 0].astype(np.int64)
        | arr[:, 1].astype(np.int64) << 16
        | arr[:, 2].astype(np.int64) << 32
        | arr[:, 3].astype(np.int64) << 48
    )
    assert len(np.unique(packed)) == len(arr)


@pytest.mark.parametrize("n", range(4, 11))
def test_every_curve_partitions_markings(n):
    full = full_mask(n)
    for c in enumerate_fcurves(n):
        union = 0
        total = 0
        for b in c.blocks:
            assert b != 0
            union |= b
            total += bin(b).count("1")
        assert union == full and total == n


def test_enumerate_matches_checked_construction():
    curves = list(enumerate_fcurves(7))
    checked = [FCurve(7, tuple(int(b) for b in row)) for row in fcurve_block_arrays(7)]
    assert curves == checked
    assert [hash(c) for c in curves] == [hash(c) for c in checked]


@pytest.mark.parametrize("n", range(4, 12))
def test_stream_is_the_block_arrays_rows(n):
    rows = [tuple(r) for r in fcurve_block_arrays(n).tolist()]
    assert [c.blocks for c in enumerate_fcurves(n)] == rows


# Completions of the n=8 prefix {1}, {2} that each break exactly one
# condition the FCurve checks make once joined with it; the walk's row 40
# of that completion table is curve 390, 1,3,4,7|2,8|5|6
BAD_COMPLETIONS_N8 = [
    (0b01001100, 0b10000000, 0b00110000, 0b00000000),  # empty last block
    (0b11001100, 0b10000000, 0b00010000, 0b00100000),  # marking 8 twice
    (0b01001100, 0b00000000, 0b00010000, 0b00100000),  # marking 8 missing
    (0b01001100, 0b10000000, 0b00100000, 0b00010000),  # blocks out of order
]


@pytest.mark.parametrize("bad", BAD_COMPLETIONS_N8)
def test_enumerate_checks_every_row(monkeypatch, bad):
    # n=8 has two prefixes: {1,2} with 350 completions, then {1}, {2}, the
    # only one with 2 blocks open, so its table's row 40 is curve 390
    tables = completion_tables(8, 2)
    tables[2] = tables[2].copy()
    tables[2][40] = bad
    monkeypatch.setattr(fnef.subsets, "completion_tables", lambda n, split: tables)
    curves = enumerate_fcurves(8)
    first = [tuple(r) for r in fcurve_block_arrays(8)[:350].tolist()]
    assert [c.blocks for c in itertools.islice(curves, 350)] == first
    # the refusal comes before the prefix's first curve and names the row's
    # enumeration position, not its position in the table
    with pytest.raises(InvalidInputError, match="row 390 is not"):
        next(curves)
    row = tuple(b | p for b, p in zip(bad, (0b01, 0b10, 0, 0)))
    try:  # the per-curve checks refuse the row or reorder its blocks
        checked = FCurve(8, row).blocks
    except InvalidInputError:
        checked = None
    assert checked != row


def test_count_matches_the_closed_form():
    # the Stirling number S(n, 4) by inclusion-exclusion over empty blocks
    for n in range(4, 17):
        assert count_fcurves(n) == (4**n - 4 * 3**n + 6 * 2**n - 4) // 24
    assert (count_fcurves(4), count_fcurves(12), count_fcurves(13)) == (1, 611501, 2532530)


def test_count_rejects_small_n():
    with pytest.raises(InvalidInputError):
        count_fcurves(3)
    with pytest.raises(InvalidInputError):
        list(enumerate_fcurves(3))


def test_fcurve_validation():
    with pytest.raises(InvalidInputError):
        FCurve(5, (0b00011, 0b00100, 0b01000, 0b01000))  # repeated block
    with pytest.raises(InvalidInputError):
        FCurve(5, (0b00011, 0b00100, 0b01000, 0))  # empty block
    with pytest.raises(InvalidInputError):
        FCurve(5, (0b00011, 0b00111, 0b01000, 0b10000))  # overlap
    for blocks in ((0b00011, 0b00100, 0b11000), (1, 2, 4, 8, 16)):
        with pytest.raises(InvalidInputError, match="^an F-curve needs exactly 4 blocks$"):
            FCurve(5, blocks)


def test_fcurve_canonical_block_order():
    c = FCurve(5, (0b10000, 0b01000, 0b00100, 0b00011))
    assert c.blocks == (0b00011, 0b00100, 0b01000, 0b10000)
    assert str(c) == "1,2|3|4|5"


def test_fcurve_string_round_trip():
    text = "1|2|3|4,5,6,7,8,9,10,11,12"
    c = parse_fcurve(text, 12)
    assert str(c) == text
    with pytest.raises(InvalidInputError):
        parse_fcurve("1|2|3", 12)
    with pytest.raises(InvalidInputError):
        parse_fcurve("1|2|3|4,4", 5)


def test_format_subset_matches_the_join_of_its_markings():
    # every subset of 1..16, the marking cap, through both byte tables
    for mask in range(1 << 16):
        assert format_subset(mask) == ",".join(str(e) for e in elements_from_mask(mask))


def test_subset_round_trip():
    assert format_subset(parse_subset("1,3,4,5,9", 11)) == "1,3,4,5,9"
    with pytest.raises(InvalidInputError):
        parse_subset("0,1", 11)
    with pytest.raises(InvalidInputError):
        parse_subset("", 11)
    with pytest.raises(InvalidInputError, match="^bad subset '1,x': invalid integer 'x'$"):
        parse_subset("1,x", 11)


@pytest.mark.parametrize("text", ["1_1", "\uff11,2", "1,+-2", "0x1", "1.0"])
def test_subset_markings_are_sign_and_ascii_digits(text):
    # int() read "1_1" as marking 11 and the fullwidth one as marking 1
    with pytest.raises(InvalidInputError, match="^bad subset .*: invalid integer"):
        parse_subset(text, 12)


def test_text_integers_are_sign_and_ascii_digits():
    assert [integer(t) for t in ("0", "+7", "-12", "007")] == [0, 7, -12, 7]
    for text in ("", "+", "1_0", " 7", "7 ", "\uff17", "\u0667", "7.0", "0x7", "1e3"):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'invalid integer {text!r}')}$"):
            integer(text)


def test_exact_int_is_operator_index_without_bools():
    assert [exact_int(v, "v") for v in (3, -2, np.int64(5), np.uint8(7))] == [3, -2, 5, 7]
    assert all(type(exact_int(v, "v")) is int for v in (np.int64(5), np.uint8(7)))
    for value in (True, False, np.True_, 1.0, 0.5, "3", None):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'v must be an integer, got {value!r}')}$"):
            exact_int(value, "v")


def test_marking_counts_are_read_through_exact_int():
    assert type(validate_n(np.int64(12))) is int
    curve = FCurve(np.int64(5), (np.int64(1), 2, 4, 24))
    assert curve == FCurve(5, (1, 2, 4, 24))
    assert all(type(x) is int for x in (curve.n, *curve.blocks))
    with pytest.raises(InvalidInputError, match="^marking count must be an integer, got 12.0$"):
        validate_n(12.0)
    with pytest.raises(InvalidInputError, match=r"^marking count must be an integer in \[4, 16\], got 3$"):
        validate_n(np.int64(3))


@pytest.mark.parametrize("value", [1.0, True, "1"], ids=repr)
def test_subset_entry_points_refuse_non_integers(value):
    # 2.5 and 1.0 failed with TypeError or AttributeError; True was read as 1
    refusals = {
        "F-curve index": lambda: fcurve_at(6, value),
        "mask": lambda: canonical_generator(value, 5),
        "block": lambda: FCurve(5, (value, 2, 4, 24)),
        # [True, 2] was read as markings 1 and 2, [1.0, 2] failed with TypeError
        "marking": lambda: mask_from_elements([value, 2], 5),
    }
    for what, call in refusals.items():
        with pytest.raises(InvalidInputError, match=f"^{what} must be an integer, got {value!r}$"):
            call()


def test_psi_key_names_the_psi_keys():
    for n in range(4, 9):
        keys = [psi_key(i, n) for i in range(1, n + 1)]
        assert [elements_from_mask(k) for k in keys[:-1]] == [(i,) for i in range(1, n)]
        assert keys[-1] == full_mask(n - 1)
        assert sorted(keys) == [m for m in all_generator_keys(n) if is_psi_key(m, n)]


@given(st.integers(min_value=4, max_value=9))
@settings(max_examples=20, deadline=None)
def test_stream_is_restartable(n):
    first = [c.blocks for c in enumerate_fcurves(n)]
    second = [c.blocks for c in enumerate_fcurves(n)]
    assert first == second


def test_block_array_refused_beyond_physical_memory(monkeypatch):
    # S(9,4) rows of 4 int32 need 16 * 7770 bytes; one byte less is refused
    # before the array is allocated, and exactly that much is enough
    need = 16 * count_fcurves(9)
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match="physical memory"):
            fcurve_block_arrays(9)
        assert tracemalloc.get_traced_memory()[1] < need // 4
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: need)
    assert len(fcurve_block_arrays(9)) == count_fcurves(9)


def test_block_array_is_fresh_on_every_call():
    # nothing keeps the array: it dies with its last reference
    first = fcurve_block_arrays(9)
    ref = weakref.ref(first)
    second = fcurve_block_arrays(9)
    assert np.array_equal(first, second) and not np.shares_memory(first, second)
    assert not first.flags.writeable and not second.flags.writeable
    del first
    assert ref() is None


@pytest.mark.parametrize("n", range(4, 12))
def test_kept_rows_are_the_arrays_rows_at_the_mask(n):
    arr = fcurve_block_arrays(n)
    rng = np.random.default_rng(n)
    masks = [rng.random(len(arr)) < share for share in (0.01, 0.2, 0.5, 0.9)]
    masks += [np.zeros(len(arr), dtype=bool), np.ones(len(arr), dtype=bool)]
    for keep in masks:
        kept = fcurve_block_arrays(n, keep)
        assert kept.dtype == np.int32 and not kept.flags.writeable
        assert np.array_equal(kept, arr[keep])
    assert fcurve_block_arrays(n, masks[-2]).shape == (0, 4)


@pytest.mark.parametrize(
    "keep",
    [
        [True] * count_fcurves(9),  # not an array
        np.ones(count_fcurves(9), dtype=np.int8),  # not boolean
        np.ones(count_fcurves(9) - 1, dtype=bool),
        np.ones(count_fcurves(9) + 1, dtype=bool),
        np.ones((count_fcurves(9), 1), dtype=bool),  # not 1-D
        np.True_,
    ],
)
def test_kept_rows_refuse_a_mask_that_is_not_one_per_curve(keep):
    with pytest.raises(InvalidInputError, match="1-D boolean array of length 7770"):
        fcurve_block_arrays(9, keep)


def test_kept_rows_refused_beyond_physical_memory(monkeypatch):
    # 16 bytes per kept row, not per curve: one byte less is refused,
    # exactly that much is enough
    keep = np.random.default_rng(9).random(count_fcurves(9)) < 0.25
    need = 16 * int(keep.sum())
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: need - 1)
    with pytest.raises(InvalidInputError, match=f"needs {need} bytes"):
        fcurve_block_arrays(9, keep)
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: need)
    assert len(fcurve_block_arrays(9, keep)) == need // 16


def row_curve(n, row):
    return FCurve(n, tuple(int(b) for b in row))


@pytest.mark.parametrize("n", range(4, 11))
def test_fcurve_at_is_every_row_of_the_array(n):
    arr = fcurve_block_arrays(n)
    assert [fcurve_at(n, i) for i in range(len(arr))] == [row_curve(n, r) for r in arr]


@pytest.mark.parametrize("n", [11, 12, 13])
def test_fcurve_at_matches_sampled_rows(n):
    arr = fcurve_block_arrays(n)
    rng = random.Random(n)
    for i in [0, len(arr) - 1] + [rng.randrange(len(arr)) for _ in range(1000)]:
        assert fcurve_at(n, i) == row_curve(n, arr[i])


@pytest.mark.parametrize("n", [4, 9, 16])
def test_fcurve_at_refuses_positions_outside_the_enumeration(n):
    rows = count_fcurves(n)
    for index in (-1, rows):
        with pytest.raises(InvalidInputError, match="outside"):
            fcurve_at(n, index)
    # the last curve: markings 1, 2, 3 open blocks 0, 1, 2 and the rest block 3
    assert fcurve_at(n, rows - 1).blocks == (1, 2, 4, full_mask(n) ^ 7)
