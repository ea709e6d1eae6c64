"""Exit codes, JSON output, and determinism of the command-line front-end."""

import builtins
import hashlib
import json

import pytest

import fnef.cone
import fnef.pairing
import fnef.subsets
from fnef import __version__, biplane_divisor, build_biplane_qr, divisor_to_json_dict, DivisorClass
from fnef.biplane import format_biplane
from fnef.cli import main
from fnef.cone import DEFAULT_PRIMES, extremality_rank, fnef_check
from fnef.divisors import (
    biplane_block_star_divisor,
    canonical_divisor,
    divisor_to_text,
    eliminate_psi,
    pullback_forgetful,
)
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
        # one divisor source and one curve source per run
        ["pair", "--divisor", "d.txt", "--named", "symmetric"],
        ["extremal", "--named", "canonical", "--divisor", "d.txt"],
        ["pullback", "--divisor", "d.txt", "--named", "biplane"],
        ["pair", "--curve", "1,2,3|4,5,6|7,8,9|10,11,12", "--functional", "f.json"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_named_divisors_at_12_markings_refuse_another_n(capsys):
    # only the canonical divisor takes a marking count; the others, the
    # default biplane divisor among them, have 12
    curve = "1,2,3|4,5,6|7,8,9|10,11,12"
    for named in (["--named", "biplane"], ["--named", "symmetric"],
                  ["--named", "block-star"], []):
        code, out, err = run(capsys, "pair", *named, "--n", "7", "--curve", curve)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "12 markings, got --n 7" in err
        code, _, err = run(capsys, "pair", *named, "--n", "12", "--curve", curve)
        assert (code, err) == (0, "")
    for cmd in ("extremal", "pullback"):
        code, out, err = run(capsys, cmd, "--named", "symmetric", "--n", "13")
        assert (code, out) == (2, "") and err.startswith("error:")


def test_named_block_star_and_canonical(capsys):
    curve = "1,2,3|4,5,6|7,8,9|10,11,12"
    star = biplane_block_star_divisor(build_biplane_qr())
    code, out, _ = run(capsys, "pair", "--named", "block-star", "--curve", curve)
    assert (code, out) == (0, f"{pair_divisor_fcurve(star, parse_fcurve(curve, 12))}\n")
    small = "1,2|3|4|5,6,7"
    value = pair_divisor_fcurve(canonical_divisor(7), parse_fcurve(small, 7))
    code, out, _ = run(capsys, "pair", "--named", "canonical", "--n", "7", "--curve", small)
    assert (code, out) == (0, f"{value}\n")


def test_each_input_file_is_read_once(tmp_path, monkeypatch, capsys):
    bp = build_biplane_qr()
    paths = {
        "--biplane": tmp_path / "blocks.txt",
        "--divisor": tmp_path / "d.json",
        "--functional": tmp_path / "f.json",
    }
    paths["--biplane"].write_text(format_biplane(bp))
    paths["--divisor"].write_text(json.dumps(divisor_to_json_dict(biplane_divisor(bp))))
    paths["--functional"].write_text(
        json.dumps(functional_to_json_dict(biplane_curve_functional(bp)))
    )
    names = {str(path) for path in paths.values()}
    opened = []
    real_open = builtins.open

    def counting(file, *args, **kwargs):
        if str(file) in names:
            opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    argv = [arg for flag, path in paths.items() for arg in (flag, str(path))]
    code, out, _ = run(capsys, "pair", "--json", *argv)
    assert code == 0
    assert sorted(opened) == sorted(names)
    # the biplane divisor and the witness come from one read of the blocks
    opened.clear()
    code, biplane_out, _ = run(capsys, "pair", "--biplane", str(paths["--biplane"]))
    monkeypatch.setattr(builtins, "open", real_open)
    assert (code, biplane_out, opened) == (0, "-1\n", [str(paths["--biplane"])])
    payload = json.loads(out)
    assert payload["value"] == -1
    assert payload["manifest"]["inputs"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in paths.values()
    }
    # a file that is not UTF-8 is refused on each flag, naming the file
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe1 1,2\n")
    for flag in paths:
        code, out, err = run(capsys, "pair", flag, str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and str(bad) in err and "UTF-8" in err


def test_malformed_divisor_and_functional_files(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text('{"n": 12, "terms": [')
    code, out, err = run(capsys, "pair", "--divisor", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: bad JSON")
    code, out, err = run(capsys, "pair", "--named", "symmetric", "--functional", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: bad JSON")
    # blank lines in a text divisor file are skipped; a bad line is named
    d = DivisorClass(6, {mask_from_elements([1, 2], 6): 2, mask_from_elements([1, 3], 6): -1})
    path = tmp_path / "d.txt"
    path.write_text("\n" + divisor_to_text(d).replace("\n", "\n\n", 1))
    curve = ["--curve", "1,2|3|4|5,6"]
    value = pair_divisor_fcurve(d, parse_fcurve(curve[1], 6))
    code, out, _ = run(capsys, "pair", "--divisor", str(path), "--n", "6", *curve)
    assert (code, out) == (0, f"{value}\n")
    path.write_text("2 1,2\n\nx 1,3\n")
    code, out, err = run(capsys, "pair", "--divisor", str(path), "--n", "6", *curve)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: line 3:")


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


def fnef_at_6():
    """An F-nef class at n=6: a boundary class F-nef at 4 markings, pulled back twice."""
    return pullback_forgetful(pullback_forgetful(DivisorClass(4, {0b011: 1})))


def test_extremal_text_report(tmp_path, capsys):
    d = fnef_at_6()
    path = tmp_path / "d6.txt"
    path.write_text(divisor_to_text(d))
    rep = extremality_rank(d, primes=DEFAULT_PRIMES)
    ranks = ", ".join(f"rank {r} mod {p}" for p, r in rep.rank_mod_p.items())
    code, out, err = run(capsys, "extremal", "--divisor", str(path), "--n", "6")
    assert (code, err) == (0 if rep.certified_extremal else 1, "")
    assert out.splitlines() == [
        f"zero-pairing curves: {rep.zero_set_size}",
        f"{ranks} (ambient dimension {rep.ambient_dim})",
        "extremal ray certified" if rep.certified_extremal else "NOT certified",
    ]
    # a small prime is warned about on stderr, and still used
    code, out, err = run(capsys, "extremal", "--divisor", str(path), "--n", "6",
                         "--prime", "101")
    assert err.startswith("warning: prime 101 is small")
    assert "mod 101 (ambient dimension" in out


def test_extremal_json_on_a_divisor_that_is_not_fnef(tmp_path, capsys):
    d = DivisorClass(6, {mask_from_elements([1, 2], 6): 1})
    path = tmp_path / "single.txt"
    path.write_text(divisor_to_text(d))
    scan = fnef_check(d)
    code, out, _ = run(capsys, "extremal", "--divisor", str(path), "--n", "6", "--json")
    assert code == 1
    payload = json.loads(out)
    payload.pop("manifest")
    assert payload == {
        "fnef": {
            "n": 6,
            "min_value": scan.min_value,
            "argmin": str(scan.argmin),
            "zero_count": scan.zero_count,
            "nonnegative": False,
        },
        "certified_extremal": False,
    }


def test_pullback_scan_text_and_json(tmp_path, capsys):
    d = pullback_forgetful(DivisorClass(4, {0b011: 1}))
    path = tmp_path / "d5.txt"
    path.write_text(divisor_to_text(d))
    lifted = pullback_forgetful(eliminate_psi(d))
    scan = fnef_check(lifted)
    assert scan.nonnegative and lifted.n == 6
    argv = ["pullback", "--divisor", str(path), "--n", "5", "--scan"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == divisor_to_text(lifted) + (
        f"pullback F-nef scan at n=6: min {scan.min_value}, {scan.zero_count} zeros -> ok\n"
    )
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    payload.pop("manifest")
    assert payload == {
        "n": 6,
        "support_size": lifted.support_size(),
        "fnef": {
            "n": 6,
            "min_value": scan.min_value,
            "argmin": str(scan.argmin),
            "zero_count": scan.zero_count,
            "nonnegative": True,
        },
        "divisor": divisor_to_json_dict(lifted),
    }


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


def test_extremal_refuses_a_repeated_prime_before_any_scan(monkeypatch, capsys):
    def no_scan(n):
        raise AssertionError("scanned before the moduli were checked")

    monkeypatch.setattr(fnef.cone, "fcurve_block_arrays", no_scan)
    monkeypatch.setattr(fnef.pairing, "fcurve_block_arrays", no_scan)
    code, out, err = run(capsys, "extremal", "--prime", "3", "--prime", "101", "--prime", "3")
    assert (code, out, err) == (2, "", "error: --prime 3 is given twice\n")


def test_verify_scans_once_and_fails_on_a_decomposition_mismatch(
    qr_biplane, monkeypatch, capsys
):
    calls = []
    scan = fnef.cone.pairing_values

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return scan(*args, **kwargs)

    monkeypatch.setattr(fnef.cone, "pairing_values", counting)
    code, out, _ = run(capsys, "verify")
    assert code == 0 and calls == [12]
    # the block-star decomposition with one extra boundary term
    calls.clear()
    symmetric = fnef.cone.symmetric_divisor
    monkeypatch.setattr(
        fnef.cone, "symmetric_divisor",
        lambda n: symmetric(n) + DivisorClass(n, {mask_from_elements([1, 2], n): 1}),
    )
    code, out, _ = run(capsys, "verify")
    assert code == 1 and calls == [12]
    assert out.splitlines()[-2:] == ["decomposition identity: FAIL", "verdict: FAILED"]
    rep = fnef.cone.verify_counterexample(qr_biplane)
    assert rep.verdict and not rep.decomposition_equal and not rep.verified


def test_pullback_refuses_a_spot_check_beyond_physical_memory(monkeypatch, capsys):
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: 1 << 30)
    argv = ["pullback", "--named", "canonical", "--n", "5", "--json"]
    code, out, err = run(capsys, *argv, "--spot-check", "100000000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: sampling 100000000000 partitions needs")
    assert "physical memory" in err
    code, out, _ = run(capsys, *argv, "--spot-check", "100000")
    assert code == 0
    assert json.loads(out)["projection_formula"]["total"] == 100000


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
