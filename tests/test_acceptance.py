"""Acceptance criteria, one test per criterion, exact values, stated budgets.

This file is the only definition of the gates.  Run with
`pytest tests/test_acceptance.py -v -s` to see one line per criterion;
scripts/run_acceptance.py runs this file the same way and exits 0 iff
every gate passes.
"""

import time

import numpy as np

from fnef import (
    DEFAULT_PRIMES,
    DivisorClass,
    automorphism_group_order,
    biplane_block_star_divisor,
    canonical_divisor,
    check_relations,
    count_fcurves,
    enumerate_fcurves,
    eliminate_psi,
    extremality_rank,
    fcurve_block_arrays,
    fnef_check,
    pair_divisor_functional,
    pairing_values,
    projection_formula_report,
    pullback_forgetful,
    reduce_canonical,
    relation_row,
    relation_system,
    symmetric_divisor,
    verify_biplane,
)
from fnef.divisors import relation_matrix
from fnef.subsets import all_generator_keys, full_mask, is_psi_key
from oracles import fcurve_functional, fcurve_matrix_rank_exact, rank_exact

FCURVE_COUNT_12 = 611501
RELATION_RANK_12 = 66
AMBIENT_DIM_12 = 1981
CANONICAL_WITNESS_PAIRING = 13
DIVISOR_WITNESS_PAIRING = -1


def report(num, ok, elapsed, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_fcurve_count():
    # every enumeration builds its partition array afresh, so this times a
    # cold one
    t0 = time.perf_counter()
    total = count_fcurves(12)
    seen = set()
    for curve in enumerate_fcurves(12):
        seen.add(curve.blocks)
    elapsed = time.perf_counter() - t0
    ok = total == FCURVE_COUNT_12 and len(seen) == FCURVE_COUNT_12 and elapsed < 5.0
    report(1, ok, elapsed, f"count={total} distinct={len(seen)} (budget 5s)")


def test_criterion_2_biplane(qr_biplane):
    t0 = time.perf_counter()
    design = verify_biplane(qr_biplane)
    order = automorphism_group_order(qr_biplane)
    elapsed = time.perf_counter() - t0
    ok = (
        design.pair_replication == 2
        and design.point_replication == 5
        and design.block_intersections_ok
        and order == 660
        and elapsed < 60.0
    )
    report(2, ok, elapsed, f"(lambda, r)=({design.pair_replication}, "
                           f"{design.point_replication}) order={order} (budget 60s)")


def test_criterion_3_counterexample(qr_divisor, qr_witness):
    t0 = time.perf_counter()
    values = pairing_values(qr_divisor, fcurve_block_arrays(12))
    negatives = int(np.count_nonzero(values < 0))
    minimum = int(values.min())
    boundary = [v for m, v in qr_witness.values.coeffs.items() if not is_psi_key(m, 12)]
    boundary_ok = set(boundary) <= {0, 1}
    k_pairing = pair_divisor_functional(canonical_divisor(12), qr_witness)
    d_pairing = pair_divisor_functional(qr_divisor, qr_witness)
    elapsed = time.perf_counter() - t0
    ok = (
        len(values) == FCURVE_COUNT_12
        and minimum == 0
        and negatives == 0
        and boundary_ok
        and k_pairing == CANONICAL_WITNESS_PAIRING
        and k_pairing >= 0
        and d_pairing == DIVISOR_WITNESS_PAIRING
        and d_pairing < 0
        and elapsed < 30.0
    )
    report(3, ok, elapsed,
           f"min={minimum} negatives={negatives} boundary01={boundary_ok} "
           f"K.w={k_pairing} D.w={d_pairing} (budget 30s)")


def test_criterion_4_decomposition(qr_biplane, qr_divisor):
    t0 = time.perf_counter()
    other = symmetric_divisor() - biplane_block_star_divisor(qr_biplane)
    reduced_equal = reduce_canonical(qr_divisor) == reduce_canonical(other)
    blocks = fcurve_block_arrays(12)
    pair_equal = bool(np.array_equal(pairing_values(qr_divisor, blocks), pairing_values(other, blocks)))
    elapsed = time.perf_counter() - t0
    ok = reduced_equal and pair_equal
    report(4, ok, elapsed, f"reduced_equal={reduced_equal} pairings_equal={pair_equal}")


def test_criterion_5_symmetric_degree_formula():
    t0 = time.perf_counter()
    blocks = fcurve_block_arrays(12)
    popcount = np.array([bin(i).count("1") for i in range(1 << 12)], dtype=np.int64)
    sizes = popcount[blocks]
    smallest = sizes.min(axis=1)
    largest = sizes.max(axis=1)
    closed_form = np.where(largest >= 6, 0, np.minimum(smallest, 6 - largest))
    scanned = pairing_values(symmetric_divisor(), blocks)
    mismatches = int(np.count_nonzero(scanned != closed_form))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and len(scanned) == FCURVE_COUNT_12
    report(5, ok, elapsed, f"mismatches={mismatches} of {len(scanned)}")


def test_criterion_6_linear_algebra_dimensions():
    t0 = time.perf_counter()
    rs12 = relation_system(12)
    # the relation rank on its own: rs12.rank counts the pivot keys, and the
    # relations have that rank iff their block on those keys is invertible
    pivot_block = relation_matrix(12)[:, np.array(rs12.pivot_masks) - 1]
    relation_rank12 = rank_exact(pivot_block.tolist(), rs12.rank)
    # the zero class pairs to zero with every curve and reduces to nothing,
    # so its extremality rank is the full-matrix rank, per prime, one scan
    full = extremality_rank(DivisorClass.zero(12), DEFAULT_PRIMES).rank_mod_p
    ranks12 = [full[p] for p in DEFAULT_PRIMES]
    rs5 = relation_system(5)
    rank5_exact = fcurve_matrix_rank_exact(5)
    elapsed = time.perf_counter() - t0
    ok = (
        rs12.rank == RELATION_RANK_12
        and relation_rank12 == RELATION_RANK_12
        and rs12.ambient_dim == AMBIENT_DIM_12
        and ranks12 == [AMBIENT_DIM_12, AMBIENT_DIM_12]
        and rs5.rank == 10
        and rs5.ambient_dim == 5
        and rank5_exact == 5
    )
    report(6, ok, elapsed,
           f"relations12={rs12.rank} relation_rank12={relation_rank12} "
           f"ambient12={rs12.ambient_dim} "
           f"full_rank12={ranks12} n5=({rs5.rank}, {rs5.ambient_dim}, {rank5_exact})")


def test_criterion_7_extremality(qr_divisor):
    t0 = time.perf_counter()
    rep = extremality_rank(qr_divisor, primes=DEFAULT_PRIMES)
    elapsed = time.perf_counter() - t0
    ranks = sorted(rep.rank_mod_p.values())
    ok = (
        rep.ambient_dim == AMBIENT_DIM_12
        and ranks == [AMBIENT_DIM_12 - 1, AMBIENT_DIM_12 - 1]
        and rep.certified_extremal
        and elapsed < 600.0
    )
    report(7, ok, elapsed,
           f"zero_set={rep.zero_set_size} ranks={rep.rank_mod_p} "
           f"certified={rep.certified_extremal} (budget 600s)")


def test_criterion_8_pullback(qr_divisor):
    t0 = time.perf_counter()
    expected_13 = 2532530
    enumerated_13 = len(fcurve_block_arrays(13))
    lifted = pullback_forgetful(eliminate_psi(qr_divisor))
    scan = fnef_check(lifted)
    exhaustive = projection_formula_report(
        eliminate_psi(DivisorClass(6, dict(_sample_n6_coeffs())))
    )
    sampled = projection_formula_report(eliminate_psi(qr_divisor), samples=100000)
    elapsed = time.perf_counter() - t0
    ok = (
        enumerated_13 == expected_13
        and scan.nonnegative
        and exhaustive.mismatches == 0
        and sampled.mismatches == 0
        and sampled.total >= 100000
    )
    report(8, ok, elapsed,
           f"S(13,4)={enumerated_13}/{expected_13} pullback_min={scan.min_value} "
           f"proj6to7={exhaustive.mismatches} proj12to13={sampled.mismatches}"
           f" on {sampled.total}")


def _sample_n6_coeffs():
    # a fixed boundary divisor at 6 markings for the exhaustive check
    yield 0b000011, 2
    yield 0b000101, -1
    yield 0b011100, 3
    yield 0b001111, 1


def test_criterion_9_property_suites(qr_divisor, qr_witness):
    t0 = time.perf_counter()

    # relation invariance of both pairing flavors at n = 12
    shifted = qr_divisor + 2 * relation_row(4, 9, 12)
    functional_invariant = pair_divisor_functional(
        shifted, qr_witness
    ) == pair_divisor_functional(qr_divisor, qr_witness)
    base = fnef_check(qr_divisor)
    moved = fnef_check(shifted)
    scan_invariant = (base.min_value, base.zero_count) == (moved.min_value, moved.zero_count)

    # every pairing row is a relation-compatible functional, n <= 7 exhaustive
    rows_ok = all(
        check_relations(fcurve_functional(c)).ok
        for n in range(4, 8)
        for c in enumerate_fcurves(n)
    )

    # the +1/-1 pairing cases never overlap, n <= 7 exhaustive
    exclusivity = True
    for n in range(4, 8):
        full = full_mask(n)
        for c in enumerate_fcurves(n):
            blocks = set(c.blocks)
            b0, b1, b2, b3 = c.blocks
            unions = {b0 | b1, b0 | b2, b0 | b3, b1 | b2, b1 | b3, b2 | b3}
            for key in all_generator_keys(n):
                single = key in blocks or (key ^ full) in blocks
                double = key in unions or (key ^ full) in unions
                if single and double:
                    exclusivity = False

    elapsed = time.perf_counter() - t0
    ok = functional_invariant and scan_invariant and rows_ok and exclusivity
    report(9, ok, elapsed,
           f"relation_invariance={functional_invariant and scan_invariant} "
           f"functional_rows={rows_ok} exclusivity={exclusivity}")
