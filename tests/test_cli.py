"""Exit codes, JSON output, and determinism of the command-line front-end."""

import ast
import builtins
import gc
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tomllib
import tracemalloc
from pathlib import Path

import pytest

import fnef.cli
import fnef.cone
import fnef.pairing
import fnef.subsets
from fnef import __version__, biplane_divisor, build_biplane_qr, divisor_to_json_dict, DivisorClass
from fnef.biplane import format_biplane
from fnef.cli import build_parser, main
from fnef.cone import DEFAULT_PRIMES, extremality_rank, fnef_check, projection_formula_report
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
    fcurve_at,
    format_subset,
    is_psi_key,
    mask_from_elements,
    parse_fcurve,
)

from oracles import divisor_json_oracle

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def python(*args, **kwargs):
    """A fresh interpreter on this tree's package, run to exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, **kwargs
    )


def test_importing_the_cli_builds_no_subset_table():
    # `fnef --version` pays the import alone: the subset text tables that
    # `format_subset` reads are built on its first call
    code = (
        "import fnef.cli, fnef.subsets\n"
        "tables = fnef.subsets._subset_text.cache_info\n"
        "print(tables().currsize)\n"
        "fnef.subsets.format_subset(0b101)\n"
        "print(tables().currsize)\n"
    )
    assert python("-c", code, check=True).stdout.split() == ["0", "1"]


def test_importing_the_cli_loads_no_hashlib():
    # only an input file is hashed, so only a run that reads one imports it
    code = "import sys, fnef.cli\nprint('hashlib' in sys.modules)\n"
    assert python("-c", code, check=True).stdout.split() == ["False"]


def test_the_process_entry_freezes_the_import_heap_before_main():
    code = (
        "import gc, fnef.cli\n"
        "print(gc.get_freeze_count())\n"
        "def stub():\n"
        "    print(gc.get_freeze_count())\n"
        "    return 3\n"
        "fnef.cli.main = stub\n"
        "fnef.cli.entry()\n"
        "print('not reached')\n"
    )
    out = python("-c", code)
    before, during = map(int, out.stdout.split())
    assert (out.returncode, out.stderr, before) == (3, "", 0)
    assert during > 0


def test_main_leaves_the_collector_unfrozen(capsys):
    frozen = gc.get_freeze_count()
    code, _, _ = run(capsys, "verify", "--json")
    assert (code, gc.get_freeze_count()) == (0, frozen)


def test_the_fnef_script_is_the_entry_that_main_module_runs():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    tree = ast.parse(Path(fnef.cli.__file__).read_text())
    (guard,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    (call,) = guard.body
    assert ast.unparse(call) == "entry()"
    assert scripts == {"fnef": "fnef.cli:entry"}


def test_python_m_fnef_cli_reports_as_main_does(tmp_path, capsys):
    def blanked(text):
        payload = json.loads(text)
        payload["manifest"]["timings"] = {}
        return payload

    out = python("-m", "fnef.cli", "verify", "--json")
    code, expected, _ = run(capsys, "verify", "--json")
    assert (out.returncode, out.stderr, blanked(out.stdout)) == (code, "", blanked(expected))
    assert code == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    out = python("-m", "fnef.cli", "pair", "--divisor", str(bad))
    expected = run(capsys, "pair", "--divisor", str(bad))
    assert (out.returncode, out.stdout, out.stderr) == expected
    assert expected[0] == 2 and out.stderr.startswith(f"error: {bad}: bad JSON")

    out = python("-m", "fnef.cli", "--version")
    with pytest.raises(SystemExit) as exit_:
        main(["--version"])
    assert (out.returncode, out.stdout, out.stderr) == (exit_.value.code, f"{__version__}\n", "")
    assert capsys.readouterr().out == out.stdout


def test_biplane_default(capsys):
    code, out, _ = run(capsys, "biplane")
    assert code == 0
    assert "automorphism group order: 660" in out


def test_biplane_json_schema(capsys):
    code, out, _ = run(capsys, "biplane", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload.pop("manifest")["version"] == __version__
    assert payload == {
        "automorphism_order": 660,
        "block_intersections_ok": True,
        "blocks": [
            "1 2 3 7 10",
            "1 2 6 9 11",
            "1 3 4 5 9",
            "1 4 6 7 8",
            "1 5 8 10 11",
            "2 3 4 8 11",
            "2 4 5 6 10",
            "2 5 7 8 9",
            "3 5 6 7 11",
            "3 6 8 9 10",
            "4 7 9 10 11",
        ],
        "pair_replication": 2,
        "point_replication": 5,
    }


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


@pytest.mark.parametrize("value", ["7.0", "1_2", "\uff17", "true", " 7"])
def test_integer_options_are_sign_and_ascii_digits(capsys, value):
    # int() read "1_2" as 12 and the fullwidth digit as 7
    for argv in (
        ["fcurves", "count", "--n", value],
        ["fcurves", "enumerate", "--n", "5", "--limit", value],
        ["pair", "--named", "canonical", "--n", value],
        ["extremal", "--prime", value],
        ["pullback", "--spot-check", value],
        ["verify", "--threads", value],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"invalid integer value: {value!r}" in err
    code, out, _ = run(capsys, "fcurves", "count", "--n", "+12")
    assert (code, out) == (0, "611501\n")


def test_every_quick_start_line_parses():
    # the README's Quick start commands, so a renamed flag cannot leave them stale
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```")[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "fnef"]
    assert len(commands) >= 7
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"fnef refuses the README line {argv}")


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


#: `fnef verify --json` apart from its manifest, and `fnef verify`'s lines
VERIFY_PAYLOAD = {
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
VERIFY_LINES = [
    "(a) F-nef scan: min 0 over 611501 curves, 124366 zeros -> ok",
    "(b) witness boundary minimum: 0 -> ok",
    "(c) canonical pairing: 13 -> ok",
    "(d) divisor pairing: -1 -> ok",
    "not-boundary certificate: ok",
    "decomposition identity: ok",
    "verdict: VERIFIED",
]


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    payload = json.loads(out)
    manifest = payload.pop("manifest")
    assert set(manifest) == {"command", "version", "inputs", "primes", "timings"}
    assert (manifest["version"], manifest["inputs"], manifest["primes"]) == (__version__, {}, [])
    assert payload == VERIFY_PAYLOAD


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines() == VERIFY_LINES


def test_verify_reduces_nothing(monkeypatch, capsys):
    # the decomposition identity is settled by equal coefficients alone
    def no_reduce(*args):
        raise AssertionError("verify reduced a class")

    monkeypatch.setattr(fnef.cone, "reduce_canonical", no_reduce)
    code, out, _ = run(capsys, "verify")
    assert (code, out.splitlines()) == (0, VERIFY_LINES)
    code, out, _ = run(capsys, "verify", "--json")
    payload = json.loads(out)
    payload.pop("manifest")
    assert (code, payload) == (0, VERIFY_PAYLOAD)


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


def test_fcurves_enumerate_refuses_json(capsys):
    code, out, err = run(capsys, "fcurves", "enumerate", "--n", "5", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--json" in err
    code, out, _ = run(capsys, "fcurves", "count", "--n", "5", "--json")
    assert code == 0 and json.loads(out)["count"] == 10


def test_pullback_refuses_a_negative_spot_check(capsys):
    for k in ("-3", "0"):
        code, out, err = run(capsys, "pullback", "--spot-check", k)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and f"got {k}" in err


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


@pytest.mark.parametrize("n", [3, 99])
def test_json_marking_count_out_of_range_exits_2(tmp_path, capsys, n):
    # n=3 was refused as "marking 4 out of range 1..3", at the first subset
    bp = build_biplane_qr()
    cases = [
        (("pair", "--divisor"), divisor_to_json_dict(biplane_divisor(bp))),
        (("pair", "--named", "symmetric", "--functional"),
         functional_to_json_dict(biplane_curve_functional(bp))),
    ]
    for args, obj in cases:
        path = tmp_path / "n.json"
        path.write_text(json.dumps({**obj, "n": n}))
        code, out, err = run(capsys, *args, str(path))
        message = f"marking count must be an integer in [4, 16], got {n}"
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


def test_pair_refuses_a_functional_that_repeats_a_subset(tmp_path, capsys):
    obj = functional_to_json_dict(biplane_curve_functional(build_biplane_qr()))
    obj["boundary"] += [{"subset": "1,2", "value": 1}, {"subset": "1,2", "value": 2}]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "pair", "--named", "symmetric", "--functional", str(path))
    assert (code, out, err) == (2, "", f"error: {path}: boundary subset 1,2 is repeated\n")


def test_json_subset_that_is_not_a_string_exits_2(tmp_path, capsys):
    # a subset that was no string failed with AttributeError and exit 1; a
    # missing coeff or value reaches the readers' KeyError branch
    functional = functional_to_json_dict(biplane_curve_functional(build_biplane_qr()))
    with_functional = ("pair", "--named", "symmetric", "--functional")
    cases = [
        (("pair", "--divisor"), {"n": 12, "terms": [{"coeff": 1, "subset": 5}]}, "subset must be a string, got 5"),
        (("extremal", "--divisor"), {"n": 12, "terms": [{"coeff": 1, "subset": None}]}, "subset must be a string, got None"),
        (("pair", "--divisor"), {"n": 12, "terms": [{"subset": "1,2"}]}, "bad divisor object: KeyError('coeff')"),
        (with_functional, {**functional, "boundary": [{"subset": 3, "value": 1}]}, "subset must be a string, got 3"),
        (with_functional, {**functional, "boundary": [{"subset": "1,2"}]}, "bad functional object: KeyError('value')"),
    ]
    for i, (argv, obj, message) in enumerate(cases):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


def test_json_field_that_is_not_an_array_exits_2(tmp_path, capsys):
    # {} and "" iterate as no entries: the divisor was read as the zero class
    # and paired 0 with exit 0, the functional as having no boundary values
    functional = functional_to_json_dict(biplane_curve_functional(build_biplane_qr()))
    cases = [
        (("pair", "--curve", "1|2|3|4,5", "--divisor"), {"n": 5, "terms": {}}, "terms", "{}"),
        (("pair", "--curve", "1|2|3|4,5", "--divisor"), {"n": 5, "terms": ""}, "terms", "''"),
        (("pair", "--named", "symmetric", "--functional"), {**functional, "boundary": {}}, "boundary", "{}"),
        (("pair", "--named", "symmetric", "--functional"), {**functional, "psi": ""}, "psi", "''"),
    ]
    for i, (argv, obj, field, got) in enumerate(cases):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {field} must be a JSON array, got {got}\n")


def test_extremal_rejects_non_fnef_divisor(tmp_path, capsys):
    d = DivisorClass(12, {mask_from_elements([1, 2], 12): 1})
    path = tmp_path / "single.txt"
    path.write_text(divisor_to_text(d))
    code, out, _ = run(capsys, "extremal", "--divisor", str(path), "--n", "12")
    assert code == 1
    assert "not F-nef" in out


def test_extremal_scans_the_curves_once(tmp_path, monkeypatch, capsys):
    calls = []
    scan = fnef.cone.scan_fcurves

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return scan(*args, **kwargs)

    monkeypatch.setattr(fnef.cone, "scan_fcurves", counting)
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
    scan = fnef.cone.scan_fcurves

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return scan(*args, **kwargs)

    monkeypatch.setattr(fnef.cone, "scan_fcurves", counting)
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
    def no_scan(*args):
        raise AssertionError("scanned before the moduli were checked")

    monkeypatch.setattr(fnef.cone, "fcurve_block_arrays", no_scan)
    monkeypatch.setattr(fnef.cone, "pairing_values", no_scan)
    monkeypatch.setattr(fnef.cone, "scan_fcurves", no_scan)
    monkeypatch.setattr(fnef.pairing, "_scan_chunks", no_scan)
    code, out, err = run(capsys, "extremal", "--prime", "2147483629", "--prime", "91")
    assert (code, out) == (2, "")
    assert "modulus 91 is not prime" in err
    code, out, err = run(capsys, "extremal", "--prime", "91")
    assert (code, out) == (2, "")
    assert "warning" not in err


def test_extremal_refuses_a_repeated_prime_before_any_scan(monkeypatch, capsys):
    def no_scan(*args):
        raise AssertionError("scanned before the moduli were checked")

    monkeypatch.setattr(fnef.cone, "fcurve_block_arrays", no_scan)
    monkeypatch.setattr(fnef.cone, "pairing_values", no_scan)
    monkeypatch.setattr(fnef.cone, "scan_fcurves", no_scan)
    monkeypatch.setattr(fnef.pairing, "_scan_chunks", no_scan)
    code, out, err = run(capsys, "extremal", "--prime", "3", "--prime", "101", "--prime", "3")
    assert (code, out, err) == (2, "", "error: --prime 3 is given twice\n")


def test_verify_scans_once_and_fails_on_a_decomposition_mismatch(
    qr_biplane, monkeypatch, capsys
):
    calls = []
    scan = fnef.cone.scan_fcurves

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return scan(*args, **kwargs)

    monkeypatch.setattr(fnef.cone, "scan_fcurves", counting)
    code, out, _ = run(capsys, "verify")
    assert code == 0 and calls == [12]
    # the block-star decomposition with one extra boundary term
    calls.clear()
    symmetric = fnef.cone.symmetric_divisor
    monkeypatch.setattr(
        fnef.cone, "symmetric_divisor",
        lambda: symmetric() + DivisorClass(12, {mask_from_elements([1, 2], 12): 1}),
    )
    code, out, _ = run(capsys, "verify")
    assert code == 1 and calls == [12]
    assert out.splitlines()[-2:] == ["decomposition identity: FAIL", "verdict: FAILED"]
    rep = fnef.cone.verify_counterexample(qr_biplane)
    assert rep.verdict and not rep.decomposition_equal and not rep.verified


def test_pullback_refuses_a_bad_spot_check_before_any_work(monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("worked before the sample count was checked")

    for name in ("eliminate_psi", "fnef_check"):
        monkeypatch.setattr(fnef.cli, name, no_work)
    for k in ("0", "-3"):
        argv = ["pullback", "--named", "canonical", "--n", "15", "--scan", "--spot-check", k]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: sample count must be positive, got {k}\n")


def test_pullback_refuses_a_target_beyond_the_marking_cap(capsys):
    code, out, err = run(capsys, "pullback", "--named", "canonical", "--n", "16")
    assert (code, out, err) == (2, "", "error: pullback target 17 exceeds 16 markings\n")


def test_pullback_spot_check_text_line(tmp_path, capsys):
    argv = ["pullback", "--named", "canonical", "--n", "6", "--spot-check", "500"]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "lifted.json"))
    assert (code, out, err) == (0, "projection formula: 0 mismatches on 500 curves (139 contracted)\n", "")


def test_pullback_spot_check_holds_one_slice_of_samples(capsys):
    # the sampled check draws and counts a slice of rows at a time, so a
    # hundred times the samples holds no more memory and no count is refused
    d = eliminate_psi(canonical_divisor(5))
    projection_formula_report(d, samples=10**4)  # fills the caches
    peaks = {}
    tracemalloc.start()
    try:
        for samples in (10**4, 10**6):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            rep = projection_formula_report(d, samples=samples)
            peaks[samples] = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert (rep.total, rep.mismatches) == (10**6, 0)
    assert peaks[10**6] <= peaks[10**4] + (1 << 20)
    argv = ["pullback", "--named", "canonical", "--n", "5", "--json", "--spot-check", "100000"]
    code, out, _ = run(capsys, *argv)
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
    assert payload["projection_formula"] == {"total": 5000, "contracted": 173, "mismatches": 0}
    lifted = json.loads(out_path.read_text())
    assert lifted["n"] == 13


def test_pullback_out_writes_what_the_json_encoder_writes(tmp_path, capsys):
    out_path = tmp_path / "lifted.json"
    code, out, _ = run(capsys, "pullback", "--out", str(out_path))
    assert (code, out) == (0, "")
    lifted = pullback_forgetful(eliminate_psi(biplane_divisor(build_biplane_qr())))
    assert out_path.read_bytes() == divisor_json_oracle(lifted).encode()


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


def test_enumerate_streams_without_a_partition_array(monkeypatch, capsys):
    # the 2.6 GiB array of n=16 is neither built nor guarded: the stream
    # walks the prefixes, so 1 KiB of physical memory is enough
    def refuse(*args):
        raise AssertionError("the stream built a partition array")

    monkeypatch.setattr(fnef.subsets, "fcurve_block_arrays", refuse)
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: 1 << 10)
    code, out, err = run(capsys, "fcurves", "enumerate", "--n", "16", "--limit", "3")
    assert (code, err) == (0, "")
    assert out.splitlines() == [str(fcurve_at(16, i)) for i in range(3)]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_extremal_refuses_a_scan_beyond_physical_memory(json_flag, tmp_path, monkeypatch, capsys):
    path = tmp_path / "canonical9.json"
    path.write_text(json.dumps(divisor_to_json_dict(canonical_divisor(9))))
    # the 11424 padded slots of S(9,4) = 7770 curves at one zero bit each,
    # one byte short; exactly that much scans, and the class is not F-nef
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: 11424 // 8 - 1)
    code, out, err = run(capsys, "extremal", "--divisor", str(path), *json_flag)
    assert (code, out) == (2, "")
    assert err.startswith("error: the F-nef scan of 11424 slots needs 1428 bytes")
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: 11424 // 8)
    code, out, err = run(capsys, "extremal", "--divisor", str(path), *json_flag)
    assert (code, err) == (1, "") and out


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_extremal_refuses_zero_rows_beyond_physical_memory(json_flag, tmp_path, monkeypatch, capsys):
    path = tmp_path / "d6.txt"
    path.write_text(divisor_to_text(fnef_at_6()))
    # 49 zero curves at 84 bytes each, one byte short; the scan itself fits
    monkeypatch.setattr(fnef.subsets, "physical_memory", lambda: 84 * 49 - 1)
    code, out, err = run(capsys, "extremal", "--divisor", str(path), "--n", "6", *json_flag)
    assert (code, out) == (2, "")
    assert err.startswith("error: ranking 49 zero curves needs 4116 bytes")
