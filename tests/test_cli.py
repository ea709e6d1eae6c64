"""Exit codes, JSON output, and determinism of the command-line front-end."""

import json

import pytest

import fnef.cone
import fnef.pairing
import fnef.subsets
from fnef import __version__, biplane_divisor, build_biplane_qr, divisor_to_json_dict, DivisorClass
from fnef.biplane import format_biplane
from fnef.cli import main
from fnef.divisors import divisor_to_text, pullback_forgetful
from fnef.pairing import biplane_curve_functional, functional_to_json_dict, pair_divisor_fcurve
from fnef.subsets import (
    all_generator_keys,
    format_subset,
    is_psi_key,
    mask_from_elements,
    parse_fcurve,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_biplane_default(capsys):
    code, out, _ = run(capsys, "biplane")
    assert code == 0
    assert "automorphism group order: 660" in out


def test_biplane_json_schema(capsys):
    code, out, _ = run(capsys, "biplane", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pair_replication"] == 2
    assert payload["point_replication"] == 5
    assert payload["automorphism_order"] == 660
    assert payload["manifest"]["version"]


def test_biplane_axiom_failure_exit_1(tmp_path, capsys):
    rows = build_biplane_qr().block_elements()
    rows = [(1, 2, 3, 4, 5)] + [tuple(r) for r in rows[1:]]
    path = tmp_path / "broken.txt"
    path.write_text("\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    code, _, err = run(capsys, "biplane", "--biplane", str(path))
    assert code == 1
    assert "expected 2" in err


def test_biplane_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "garbage.txt"
    path.write_text("this is not a design\n")
    code, _, err = run(capsys, "biplane", "--biplane", str(path))
    assert code == 2


def test_verify_refuses_a_broken_block_file(tmp_path, capsys):
    # every loaded block file is checked, so the verdict never sees it
    rows = build_biplane_qr().block_elements()
    rows = [(1, 2, 3, 4, 5)] + [tuple(r) for r in rows[1:]]
    path = tmp_path / "broken.txt"
    path.write_text("\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    code, out, err = run(capsys, "verify", "--biplane", str(path))
    assert (code, out) == (1, "")
    assert "expected 2" in err


def test_removed_options_are_refused(capsys):
    for argv in (
        ["verify", "--no-verify"],
        ["biplane", "--file", "blocks.txt"],
        # options that these subcommands would never read
        ["fcurves", "count", "--n", "12", "--threads", "4"],
        ["fcurves", "count", "--n", "12", "--biplane", "/nonexistent"],
        ["biplane", "--threads", "2"],
        ["pair", "--curve", "1,2,3|4,5,6|7,8,9|10,11,12", "--threads", "2"],
        # the scan runs on one thread; --threads accepts only 1
        *(
            [cmd, "--threads", count]
            for cmd in ("verify", "extremal", "pullback")
            for count in ("0", "-2", "2")
        ),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "biplane", "--biplane", "/nonexistent/blocks.txt")
    assert code == 2


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    payload = json.loads(out)
    manifest = payload.pop("manifest")
    assert set(manifest) == {"command", "version", "inputs", "primes", "timings"}
    assert (manifest["version"], manifest["inputs"], manifest["primes"]) == (__version__, {}, [])
    assert payload == {
        "fnef": {
            "n": 12,
            "min_value": 0,
            "argmin": "1,2,3,4,5,6,7,8,9|10|11|12",
            "zero_count": 124366,
            "nonnegative": True,
        },
        "functional_boundary_min": 0,
        "canonical_pairing": 13,
        "divisor_pairing": -1,
        "verdict": True,
        "certificate": {
            "boundary_min": 0,
            "pairing": -1,
            "canonical_pairing": 13,
            "certified": True,
            "certified_with_canonical": True,
        },
        "decomposition_equal": True,
    }


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines() == [
        "(a) F-nef scan: min 0 over 611501 curves, 124366 zeros -> ok",
        "(b) witness boundary minimum: 0 -> ok",
        "(c) canonical pairing: 13 -> ok",
        "(d) divisor pairing: -1 -> ok",
        "not-boundary certificate: ok",
        "decomposition identity: ok",
        "verdict: VERIFIED",
    ]


def test_verify_reports_are_reproducible(capsys):
    def stripped():
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        payload = json.loads(out)
        payload["manifest"].pop("timings")
        return payload

    first = stripped()
    second = stripped()
    assert first == second


def test_manifest_records_the_argv_main_was_given(monkeypatch, capsys):
    argv = ["fcurves", "count", "--n", "5", "--json"]
    monkeypatch.setattr("sys.argv", ["driver", "--unrelated", "x"])
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["manifest"]["command"] == argv
    # without an argv, main reads the process's own
    monkeypatch.setattr("sys.argv", ["fnef", *argv])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["manifest"]["command"] == argv


def test_fcurves_count_and_enumerate(capsys):
    code, out, _ = run(capsys, "fcurves", "count", "--n", "12")
    assert code == 0 and out.strip() == "611501"
    code, out, _ = run(capsys, "fcurves", "enumerate", "--n", "5", "--limit", "3")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines == ["1,2|3|4|5", "1,3|2|4|5", "1|2,3|4|5"]


def test_fcurves_enumerate_limit_zero_prints_nothing(capsys):
    code, out, err = run(capsys, "fcurves", "enumerate", "--n", "5", "--limit", "0")
    assert (code, out, err) == (0, "", "")


def test_fcurves_enumerate_refuses_negative_limit(capsys):
    code, out, err = run(capsys, "fcurves", "enumerate", "--n", "5", "--limit", "-3")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "-3" in err


def test_pullback_refuses_a_negative_spot_check(capsys):
    code, out, err = run(capsys, "pullback", "--spot-check", "-3")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "-3" in err


def test_pair_with_curve_and_named_divisor(capsys):
    code, out, _ = run(
        capsys, "pair", "--named", "symmetric",
        "--curve", "1,2,3|4,5,6|7,8,9|10,11,12",
    )
    assert code == 0 and out.strip() == "3"


def test_pair_divisor_file_with_witness(tmp_path, capsys):
    path = tmp_path / "dp.json"
    path.write_text(json.dumps(divisor_to_json_dict(biplane_divisor(build_biplane_qr()))))
    code, out, _ = run(capsys, "pair", "--divisor", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == -1
    assert str(path) in payload["manifest"]["inputs"]


def test_json_divisor_files_carry_their_own_marking_count(tmp_path, capsys):
    d = pullback_forgetful(DivisorClass(5, {0b00011: 1}))
    jpath = tmp_path / "d6.json"
    jpath.write_text(json.dumps(divisor_to_json_dict(d)))
    curve = ["--curve", "1,2|3|4|5,6"]
    value = f"{pair_divisor_fcurve(d, parse_fcurve(curve[1], 6))}\n"
    code, out, _ = run(capsys, "pair", "--divisor", str(jpath), *curve)
    assert (code, out) == (0, value)
    code, out, _ = run(capsys, "pair", "--divisor", str(jpath), "--n", "6", *curve)
    assert (code, out) == (0, value)
    # an explicit --n must agree with the file's declared count
    code, out, err = run(capsys, "pair", "--divisor", str(jpath), "--n", "7", *curve)
    assert (code, out) == (2, "")
    assert "declares n=6, expected n=7" in err
    # a text file carries no count: --n, or 12 by default
    tpath = tmp_path / "d6.txt"
    tpath.write_text(divisor_to_text(d))
    code, out, _ = run(capsys, "pair", "--divisor", str(tpath), "--n", "6", *curve)
    assert (code, out) == (0, value)
    code, out, err = run(capsys, "pair", "--divisor", str(tpath), *curve)
    assert (code, out) == (2, "")
    assert "must partition 1..12" in err


def test_pair_refuses_a_fractional_divisor_coefficient(tmp_path, capsys):
    obj = divisor_to_json_dict(biplane_divisor(build_biplane_qr()))
    obj["terms"][0]["coeff"] = 1.7
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "pair", "--divisor", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "coeff must be an integer, got 1.7" in err


def test_pair_refuses_a_fractional_functional_value(tmp_path, capsys):
    obj = functional_to_json_dict(biplane_curve_functional(build_biplane_qr()))
    obj["psi"][0] = 1.5
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "pair", "--named", "symmetric", "--functional", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "psi must be an integer, got 1.5" in err


def test_extremal_rejects_non_fnef_divisor(tmp_path, capsys):
    d = DivisorClass(12, {mask_from_elements([1, 2], 12): 1})
    path = tmp_path / "single.txt"
    path.write_text(divisor_to_text(d))
    code, out, _ = run(capsys, "extremal", "--divisor", str(path), "--n", "12")
    assert code == 1
    assert "not F-nef" in out


def test_extremal_scans_the_curves_once(tmp_path, monkeypatch, capsys):
    calls = []
    scan = fnef.cone.pairing_values

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return scan(*args, **kwargs)

    monkeypatch.setattr(fnef.cone, "pairing_values", counting)
    # F-nef at n=6: a boundary class F-nef at 4 markings, pulled back twice
    d = pullback_forgetful(pullback_forgetful(DivisorClass(4, {0b011: 1})))
    path = tmp_path / "d6.txt"
    path.write_text(divisor_to_text(d))
    code, out, _ = run(capsys, "extremal", "--divisor", str(path), "--n", "6", "--json")
    payload = json.loads(out)
    assert code == (0 if payload["certified_extremal"] else 1)
    assert payload["zero_set_size"] > 0
    assert calls == [6]
    # the exit-1 path of a divisor that is not F-nef scans once too
    calls.clear()
    path.write_text(divisor_to_text(DivisorClass(6, {mask_from_elements([1, 2], 6): 1})))
    code, out, _ = run(capsys, "extremal", "--divisor", str(path), "--n", "6")
    assert code == 1 and "not F-nef" in out
    assert calls == [6]


def test_extremal_refuses_coefficients_beyond_int64(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text(f"{1 << 63} 1,2\n")
    code, out, err = run(capsys, "extremal", "--divisor", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "int64" in err
    # every sum of 7 such coefficients fits no int64, though the exact minimum
    # pairing, 3 * 2^62, is positive
    lines = [
        f"{-(1 << 62) if is_psi_key(m, 6) else 1 << 62} {format_subset(m)}"
        for m in all_generator_keys(6)
    ]
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "extremal", "--divisor", str(path), "--n", "6")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "int64" in err


def test_extremal_reduces_the_primitive_part(tmp_path, monkeypatch, capsys):
    calls = []
    scan = fnef.cone.pairing_values

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return scan(*args, **kwargs)

    monkeypatch.setattr(fnef.cone, "pairing_values", counting)
    # 2^59 times an extremal divisor at n=6: its own reduction (weight 26)
    # leaves int64, that of its primitive part does not
    d = pullback_forgetful(pullback_forgetful(DivisorClass(4, {0b011: 1})))
    path = tmp_path / "d6.txt"
    path.write_text(divisor_to_text((1 << 59) * d))
    code, out, err = run(capsys, "extremal", "--divisor", str(path), "--n", "6", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["certified_extremal"] and calls == [6]
    # a primitive class beyond that bound is refused before any scan, though
    # the scan's sums of 7 would fit
    calls.clear()
    path.write_text(f"{(1 << 63) // 26 + 1} 1,2\n1 1,3\n")
    code, out, err = run(capsys, "extremal", "--divisor", str(path), "--n", "6")
    assert (code, out) == (2, "")
    assert err.startswith("error: canonical reduction") and calls == []


def test_extremal_refuses_bad_prime_before_any_scan(monkeypatch, capsys):
    def no_scan(n):
        raise AssertionError("scanned before the moduli were checked")

    monkeypatch.setattr(fnef.cone, "fcurve_block_arrays", no_scan)
    monkeypatch.setattr(fnef.pairing, "fcurve_block_arrays", no_scan)
    code, out, err = run(capsys, "extremal", "--prime", "2147483629", "--prime", "91")
    assert (code, out) == (2, "")
    assert "modulus 91 is not prime" in err
    code, out, err = run(capsys, "extremal", "--prime", "91")
    assert (code, out) == (2, "")
    assert "warning" not in err


def test_pullback_writes_divisor_and_spot_checks(tmp_path, capsys):
    out_path = tmp_path / "lifted.json"
    code, out, _ = run(
        capsys, "pullback", "--named", "symmetric",
        "--out", str(out_path), "--spot-check", "5000", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 13
    assert payload["projection_formula"]["mismatches"] == 0
    lifted = json.loads(out_path.read_text())
    assert lifted["n"] == 13


def test_pullback_of_relation_row_is_zero_class(tmp_path, capsys):
    from fnef import relation_row

    path = tmp_path / "rel.json"
    path.write_text(json.dumps(divisor_to_json_dict(relation_row(1, 2, 12))))
    out_path = tmp_path / "lifted.json"
    code, out, _ = run(capsys, "pullback", "--divisor", str(path), "--out", str(out_path))
    assert code == 0
    lifted = json.loads(out_path.read_text())
    # a relation row is numerically zero; its boundary form is the zero class
    assert lifted["terms"] == []


def test_biplane_file_via_global_flag(tmp_path, capsys):
    path = tmp_path / "blocks.txt"
    path.write_text(format_biplane(build_biplane_qr()))
    code, out, _ = run(capsys, "pair", "--biplane", str(path))
    assert code == 0 and out.strip() == "-1"


def test_block_array_beyond_physical_memory_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(fnef.subsets, "_BLOCK_CACHE", {})
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: 1 << 10)
    code, out, err = run(capsys, "fcurves", "enumerate", "--n", "9", "--limit", "1")
    assert code == 2 and not out
    assert "partition array needs" in err and "physical memory" in err
