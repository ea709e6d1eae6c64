#!/usr/bin/env python3
"""Mutation gate: apply each of a fixed list of one-line mutants to a
temporary copy of the package, run the Tier-1 tests named for it, and
print a JSON kill matrix.

Run from the repository root (stdlib only; about 20 s on two cores)::

    python3 scripts/mutants.py > mutants.json

A mutant is killed when its tests fail (pytest exit 1, or 2 for an error
while collecting).  An unmutated copy runs every named test first and must
pass.  Each pattern must occur in its file exactly once, which a Tier-1 test
checks, so a refactor that moves the code must update the list.  A mutant
that survives is either shown equivalent here or gets a test.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    #: the file, relative to the repository root
    path: str
    #: the text replaced; it occurs in the file exactly once
    pattern: str
    replacement: str
    #: pytest node ids, relative to the repository root
    tests: tuple[str, ...]


_NARROWEST = "tests/test_pairing.py::test_scan_runs_in_the_narrowest_dtype_that_holds_seven_coefficients"
_SLICED = "tests/test_pairing.py::test_sliced_scan_matches_per_curve_oracle"
_COL_ROWS = "tests/test_cone.py::test_col_rows_built_in_place_match_the_stacked_rows"
_SAMPLER = "tests/test_cone.py::test_sampler_matches_the_labels_times_bits_oracle"
_TIES = "tests/test_pairing.py::test_fnef_check_argmin_is_the_first_minimum_across_open_block_groups"
_ENUMERATION = (
    "tests/test_pairing.py::test_enumeration_scan_matches_per_curve_oracle",
    "tests/test_pairing.py::test_enumeration_scan_matches_row_scan",
)
_PEEL = (
    "tests/test_cone.py::test_peel_competing_singletons_take_one_column",
    "tests/test_cone.py::test_peel_sets_aside_one_column_of_a_triangle",
    "tests/test_cone.py::test_peeled_rank_matches_exact_rank",
    "tests/test_cone.py::test_peel_counts_at_n12",
)

MUTANTS = (
    Mutant(
        "scan-bound-without-7",
        "src/fnef/pairing.py",
        "if 7 * top <= most)",
        "if top <= most)",
        (_NARROWEST, _SLICED),
    ),
    Mutant(
        "scan-bound-strict",
        "src/fnef/pairing.py",
        "if 7 * top <= most)",
        "if 7 * top < most)",
        (_NARROWEST,),
    ),
    Mutant(
        "enumeration-scan-int64-table",
        "src/fnef/pairing.py",
        'slots")\n    dtype = scan_dtype(d)',
        # the kernel of every F-curve reads a table in int64, whatever d is
        'slots")\n    dtype = np.dtype(np.int64)',
        (_NARROWEST,),
    ),
    Mutant(
        "record-map-swapped-digit",
        "src/fnef/pairing.py",
        "bits = _PAIR_BITS[_TERM_PART[:, None], _KEY_DIGITS[_TERM_KIND]]",
        # F's digits of blocks 1 and 3 swapped in the records, not in the heads
        "bits = _PAIR_BITS[_TERM_PART[:, None],"
        " np.array([[0, 1, 2, 0], [1, 2, 0, 0], [0, 1, 0, 2]])[_TERM_KIND]]",
        _ENUMERATION,
    ),
    Mutant(
        "selection-first-slots",
        "src/fnef/subsets.py",
        "read_only(ok[used].ravel())",
        # as many valid slots per u, but the first ones
        "read_only(np.sort(ok[used].ravel())[::-1].copy())",
        (*_ENUMERATION, "tests/test_pairing.py::test_scan_plan_arrays_are_pinned"),
    ),
    Mutant(
        "slot-map-swapped-blocks",
        "src/fnef/subsets.py",
        "eye[slot // 4] << n - 2 | eye[slot % 4] << n - 1",
        # slot j = 4 b + b' read as marking n-1 in block b' and n in b
        "eye[slot % 4] << n - 2 | eye[slot // 4] << n - 1",
        ("tests/test_subsets.py::test_rows_match_the_second_cut_oracle",),
    ),
    Mutant(
        "table-without-reverse",
        "src/fnef/pairing.py",
        "return np.concatenate([table, table[::-1]])",
        "return np.concatenate([table, table])",
        (*_ENUMERATION, _SLICED, _COL_ROWS),
    ),
    Mutant(
        "row-keys-unions-from-block-1",
        "src/fnef/pairing.py",
        "b0 = blocks[:, 0]",
        "b0 = blocks[:, 1]",
        (_SLICED, _COL_ROWS),
    ),
    Mutant(
        "chunk-drops-last-prefix",
        "src/fnef/pairing.py",
        "rows = by_suffix.take(masks[lo : lo + chunk], axis=0)",
        "rows = by_suffix.take(masks[lo : lo + chunk - 1], axis=0)",
        _ENUMERATION,
    ),
    Mutant(
        "prefix-starts-at-curve-totals",
        "src/fnef/pairing.py",
        "starts = slots[:-1]",
        # each prefix starts where its curves start in the enumeration,
        # not where its padded slots start
        "starts = slot_layout(n)[4][:-1]",
        _ENUMERATION,
    ),
    Mutant(
        "slots-left-unpadded",
        "src/fnef/pairing.py",
        "return np.maximum(values, pad, out=values)",
        # the slots that complete no curve keep the sums their heads give
        "return values",
        _ENUMERATION,
    ),
    Mutant(
        "argmin-slot-as-curve-index",
        "src/fnef/pairing.py",
        "return low[0], curve_index(d.n, low[1]), zeros, bits",
        "return low[0], low[1], zeros, bits",
        _ENUMERATION,
    ),
    Mutant(
        "argmin-tie-reversed",
        "src/fnef/pairing.py",
        "low = first if low is None else min(low, first)",
        # of two chunks at the same minimum, the later slot wins
        "low = first if low is None else min(low, first, key=lambda p: (p[0], -p[1]))",
        (_TIES,),
    ),
    Mutant(
        "argmin-tie-dropped",
        "src/fnef/pairing.py",
        "low = first if low is None else min(low, first)",
        # the first chunk to reach the minimum keeps it
        "low = first if low is None or first[0] < low[0] else low",
        (_TIES,),
    ),
    Mutant(
        "prefix-bits-at-group-position",
        "src/fnef/pairing.py",
        "for p, start in enumerate((starts // 8).tolist()):",
        # a chunk's prefixes written one after another from its first
        # prefix's slot, as if the group's prefixes were contiguous
        "for p, start in enumerate(range(int(starts[0]) // 8, len(bits), step)):",
        _ENUMERATION,
    ),
    Mutant(
        "row-scan-int64-out",
        "src/fnef/pairing.py",
        "out = np.empty(len(blocks), dtype=dtype)",
        "out = np.empty(len(blocks), dtype=np.int64)",
        (_NARROWEST, _SLICED),
    ),
    Mutant(
        "stream-skips-row-check",
        "src/fnef/subsets.py",
        "_check_partitions(rows, n, start)",
        "None",
        ("tests/test_subsets.py::test_enumerate_checks_every_row",),
    ),
    Mutant(
        "completions-count-past-4-blocks",
        "src/fnef/subsets.py",
        "return int(u == 4)",
        "return int(u >= 4)",
        (
            "tests/test_subsets.py::test_fcurve_at_is_every_row_of_the_array",
            "tests/test_subsets.py::test_fcurve_at_matches_sampled_rows",
        ),
    ),
    Mutant(
        "constructors-skip-integer-check",
        "src/fnef/subsets.py",
        "return operator.index(value)",
        "return value",
        (
            "tests/test_divisors.py::test_divisor_class_refuses_non_integers",
            "tests/test_divisors.py::test_divisor_class_stores_python_ints",
            "tests/test_pairing.py::test_functional_refuses_non_integers",
            "tests/test_pairing.py::test_functional_stores_python_ints",
        ),
    ),
    Mutant(
        "integer-check-admits-bools",
        "src/fnef/subsets.py",
        "if not isinstance(value, bool):",
        "if True:",
        (
            "tests/test_subsets.py::test_exact_int_is_operator_index_without_bools",
            "tests/test_subsets.py::test_subset_entry_points_refuse_non_integers",
            "tests/test_divisors.py::test_divisor_entry_points_refuse_non_integers",
            "tests/test_cone.py::test_cone_entry_points_refuse_non_integers",
        ),
    ),
    Mutant(
        "text-integer-falls-back-to-int",
        "src/fnef/subsets.py",
        'if not re.fullmatch(r"[+-]?[0-9]+", text):',
        "if False:",
        (
            "tests/test_subsets.py::test_text_integers_are_sign_and_ascii_digits",
            "tests/test_subsets.py::test_subset_markings_are_sign_and_ascii_digits",
            "tests/test_divisors.py::test_divisor_text_coefficient_is_sign_and_ascii_digits",
            "tests/test_biplane.py::test_parse_refuses_a_token_that_is_not_an_integer",
            "tests/test_cli.py::test_integer_options_are_sign_and_ascii_digits",
        ),
    ),
    Mutant(
        "subset-accepts-non-text",
        "src/fnef/subsets.py",
        "if not isinstance(text, str):",
        "if False:",
        (
            "tests/test_divisors.py::test_divisor_json_refuses_a_subset_that_is_not_a_string",
            "tests/test_cli.py::test_json_subset_that_is_not_a_string_exits_2",
        ),
    ),
    Mutant(
        "functional-keeps-repeated-subsets",
        "src/fnef/pairing.py",
        "if mask in values:",
        "if False:",
        (
            "tests/test_pairing.py::test_functional_json_refuses_a_repeated_subset",
            "tests/test_cli.py::test_pair_refuses_a_functional_that_repeats_a_subset",
        ),
    ),
    Mutant(
        "psi-key-off-by-one",
        "src/fnef/subsets.py",
        "1 << (i - 1)",
        "1 << i",
        (
            "tests/test_subsets.py::test_psi_key_names_the_psi_keys",
            "tests/test_acceptance.py::test_criterion_3_counterexample",
        ),
    ),
    Mutant(
        "json-accepts-non-array",
        "src/fnef/divisors.py",
        "if not isinstance(items, list):",
        "if False:",
        (
            "tests/test_divisors.py::test_divisor_json_refuses_terms_that_are_not_an_array",
            "tests/test_pairing.py::test_functional_json_refuses_a_field_that_is_not_an_array",
            "tests/test_cli.py::test_json_field_that_is_not_an_array_exits_2",
        ),
    ),
    Mutant(
        "spot-check-admits-zero",
        "src/fnef/cone.py",
        "if samples < 1:",
        "if samples < 0:",
        (
            "tests/test_cli.py::test_pullback_refuses_a_bad_spot_check_before_any_work",
            "tests/test_cli.py::test_pullback_refuses_a_negative_spot_check",
        ),
    ),
    Mutant(
        "projection-image-half-width",
        "src/fnef/cone.py",
        "full_width(d.dense_table())",
        # the image reads no key that holds marking n
        "d.dense_table()",
        ("tests/test_cone.py::test_exhaustive_projection_formula_matches_the_row_oracle",),
    ),
    Mutant(
        "projection-three-lifts",
        "src/fnef/cone.py",
        "4 * count_fcurves(n)",
        "3 * count_fcurves(n)",
        ("tests/test_cone.py::test_exhaustive_projection_formula_matches_the_row_oracle",),
    ),
    Mutant(
        "sample-chunk-overshoots",
        "src/fnef/cone.py",
        "np.flatnonzero(present == 15)[:need]",
        # the last chunk keeps every valid row it drew, not only those needed
        "np.flatnonzero(present == 15)",
        (_SAMPLER, "tests/test_cone.py::test_sampler_keeps_pullback13s_spot_check"),
    ),
    Mutant(
        "sample-label-shift-29",
        "src/fnef/cone.py",
        "labels >>= 30",
        # three bits of each draw, labels 0..7
        "labels >>= 29",
        (_SAMPLER,),
    ),
    Mutant(
        "sample-keeps-three-labels",
        "src/fnef/cone.py",
        "np.flatnonzero(present == 15)",
        # a row with one empty block passes the presence filter
        "np.flatnonzero(np.bitwise_count(present) >= 3)",
        (_SAMPLER,),
    ),
    Mutant(
        "subset-text-high-offset-7",
        "src/fnef/subsets.py",
        "for offset in (0, 8)",
        # the high byte read as markings 8-15
        "for offset in (0, 7)",
        ("tests/test_subsets.py::test_format_subset_matches_the_join_of_its_markings",),
    ),
    Mutant(
        "pullback-complement-on-n-minus-1-bits",
        "src/fnef/divisors.py",
        "len(d.coeffs)) ^ full_mask(n)",
        # the lift with marking n+1 keyed by the complement within 1..n-1
        "len(d.coeffs)) ^ full_mask(n - 1)",
        ("tests/test_divisors.py::test_pullback_matches_the_per_key_oracle",),
    ),
    Mutant(
        "json-text-terms-on-one-line",
        "src/fnef/divisors.py",
        'terms = ",\\n".join(',
        'terms = ", ".join(',
        (
            "tests/test_divisors.py::test_divisor_json_text_is_what_the_json_encoder_writes",
            "tests/test_cli.py::test_pullback_out_writes_what_the_json_encoder_writes",
        ),
    ),
    Mutant(
        "scan-guard-half-the-bits",
        "src/fnef/pairing.py",
        "check_memory(slots // 8,",
        "check_memory(slots // 16,",
        (
            "tests/test_cone.py::test_fnef_check_refuses_a_scan_beyond_physical_memory",
            "tests/test_cli.py::test_extremal_refuses_a_scan_beyond_physical_memory",
        ),
    ),
    Mutant(
        "row-pattern-sign",
        "src/fnef/pairing.py",
        "ROW_PATTERN = np.array([1, 1, 1, -1, -1, -1, -1],",
        "ROW_PATTERN = np.array([1, 1, -1, -1, -1, -1, -1],",
        (
            "tests/test_cone.py::test_peel_sets_aside_one_column_of_a_triangle",
            "tests/test_cone.py::test_peeled_rank_matches_exact_rank",
            "tests/test_cone.py::test_orthogonality_check_covers_every_row",
            "tests/test_cone.py::test_extremality_small_n_matches_exact_oracle",
        ),
    ),
    Mutant(
        "peel-takes-any-uncovered",
        "src/fnef/cone.py",
        "single = np.flatnonzero(count == 1)",
        "single = np.flatnonzero(count >= 1)",
        _PEEL,
    ),
    Mutant(
        "peel-aside-highest-on-ties",
        "src/fnef/cone.py",
        "heavy = int(np.bincount(keys[uncovered & fewest]).argmax())",
        # the last of the most frequent columns, not the first
        "heavy = int((lambda c: len(c) - 1 - c[::-1].argmax())"
        "(np.bincount(keys[uncovered & fewest])))",
        ("tests/test_cone.py::test_peel_sets_aside_one_column_of_a_triangle",),
    ),
    Mutant(
        "kernel-basis-reversed",
        "src/fnef/cone.py",
        "for j, row in self._basis:",
        "for j, row in reversed(self._basis):",
        ("tests/test_cone.py::test_kernel_reduces_by_the_basis_rows_in_the_order_they_were_added",),
    ),
    Mutant(
        "relation-value-3-minus-size",
        "src/fnef/divisors.py",
        "(size - 2) * sums[0]",
        "(size - 3) * sums[0]",
        (
            "tests/test_divisors.py::test_relation_system_matches_list_oracle",
            "tests/test_divisors.py::test_relation_system_spans_the_relations",
        ),
    ),
    Mutant(
        "reduction-drops-top-key-bit",
        "src/fnef/divisors.py",
        "_add_halves(sums, range(low, d.n - 1))",
        "_add_halves(sums, range(low, d.n - 2))",
        (
            "tests/test_divisors.py::test_relation_system_spans_the_relations",
            "tests/test_divisors.py::test_reduce_canonical_matches_fraction_oracle",
        ),
    ),
    Mutant(
        "entry-without-freeze",
        "src/fnef/cli.py",
        "gc.freeze()",
        "None",
        ("tests/test_cli.py::test_the_process_entry_freezes_the_import_heap_before_main",),
    ),
    Mutant(
        "gather-guard-72",
        "src/fnef/cone.py",
        "check_memory(84 * fnef.zero_count,",
        "check_memory(72 * fnef.zero_count,",
        (
            "tests/test_cone.py::test_extremality_rank_refuses_zero_rows_beyond_physical_memory",
            "tests/test_cone.py::test_extremality_rank_refuses_the_gather_peak_at_n12",
            "tests/test_cli.py::test_extremal_refuses_zero_rows_beyond_physical_memory",
        ),
    ),
)


def pattern_counts(root: Path = ROOT) -> dict[str, int]:
    """How often each mutant's pattern occurs in its file under `root`."""
    return {m.name: (root / m.path).read_text().count(m.pattern) for m in MUTANTS}


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(tree: Path, tests: tuple[str, ...]) -> int:
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=tree, capture_output=True).returncode


def run_mutant(m: Mutant | None, tests: tuple[str, ...]) -> dict:
    """Run `tests` on a fresh copy of the tree, with `m` applied if given."""
    with tempfile.TemporaryDirectory(prefix="fnef-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if m is not None:
            target = tree / m.path
            text = target.read_text()
            if text.count(m.pattern) != 1:
                raise SystemExit(f"{m.name}: pattern does not occur exactly once in {m.path}")
            target.write_text(text.replace(m.pattern, m.replacement))
        t0 = time.perf_counter()
        code = _run_tests(tree, tests)
        seconds = round(time.perf_counter() - t0, 1)
    status = {0: "survived", 1: "killed", 2: "killed"}.get(code, "error")
    return {"status": status, "exit": code, "seconds": seconds}


def main() -> int:
    every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    baseline = run_mutant(None, every_test)
    if baseline["status"] != "survived":
        print(f"the unmutated tree fails its tests (pytest exit {baseline['exit']})", file=sys.stderr)
        return 2
    rows = []
    for m in MUTANTS:
        result = run_mutant(m, m.tests)
        print(f"{m.name}: {result['status']} ({result['seconds']} s)", file=sys.stderr)
        rows.append({**asdict(m), **result})
    killed = sum(r["status"] == "killed" for r in rows)
    json.dump({"killed": killed, "total": len(rows), "mutants": rows}, sys.stdout, indent=1)
    print()
    return 0 if killed == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
