"""The benchmark's hooks into the package still hold.

`perfbench/spans.py` wraps library functions from outside the package and
counts a name it cannot find as `trace.absent`, so a rename there would drop
a layer from the per-layer metrics without failing anything else.  Likewise
`perfbench/candidates.py` records a candidate the library API no longer
serves as a failed operation, and `perfbench/run.py` a command line the CLI
no longer accepts, not as a test failure.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fnef.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    for module_name, attr, *_ in load_perfbench("spans").TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_rank_spans_count_each_prime_once():
    # the rank span is named by the kernel's `p` and counts its `rows_seen`
    from fnef import DivisorClass, extremality_rank, pullback_forgetful
    from fnef.cone import DEFAULT_PRIMES, ModpEliminator

    spans = load_perfbench("spans")
    [target] = [t for t in spans.TARGETS if t[1] == "ModpEliminator.add_pattern_rows"]
    _, _, name, counters, snapshot = target
    recorder = spans.Recorder("test")
    original = ModpEliminator.add_pattern_rows
    d = pullback_forgetful(pullback_forgetful(DivisorClass(4, {0b011: 1})))
    try:
        ModpEliminator.add_pattern_rows = recorder._wrapper(original, name, counters, snapshot)
        rep = extremality_rank(d, primes=DEFAULT_PRIMES + DEFAULT_PRIMES[:1])
    finally:
        ModpEliminator.add_pattern_rows = original
    assert [s["name"] for s in recorder.spans] == [f"cone.rank.{p}" for p in DEFAULT_PRIMES]
    for p, span in zip(DEFAULT_PRIMES, recorder.spans):
        assert span["counters"]["rows_fed"] > 0
        assert span["counters"]["rank"] == rep.rank_mod_p[p] == 15


def test_candidate_screen_passes_its_checks(qr_biplane):
    candidates = load_perfbench("candidates")
    specs = candidates.candidate_specs(1, 0, count=3)
    assert "relation" in specs[2]  # every third candidate is shifted
    for out in candidates.screen(specs, qr_biplane, 0):
        assert "error" not in out, out["error"]
        assert out["reduced_matches"] is True
        assert (out["min_value"], out["zero_count"], out["oracle"]) == (0, 124366, 0)


def test_import_fnef_loads_the_wrapped_layers():
    # the candidate screen imports only `fnef` before the wrappers go in
    code = (
        "import sys, fnef; "
        "print(' '.join(m for m in ('subsets', 'divisors', 'pairing', 'cone') "
        "if 'fnef.' + m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["subsets", "divisors", "pairing", "cone"]


def test_every_benchmark_command_line_parses(tmp_path, monkeypatch):
    # run.py imports its sibling modules by name
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = load_perfbench("run").CLI_WORKLOADS
    parser = build_parser()
    for name, workload in workloads.items():
        argv = [a.replace("{out}", str(tmp_path / "out.json")) for a in workload["argv"]]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name}: fnef refuses {argv}")
