"""The names the benchmark's span recorder wraps exist in the package.

`perfbench/spans.py` wraps library functions from outside the package and
counts a name it cannot find as `trace.absent`, so a rename there would drop
a layer from the per-layer metrics without failing anything else.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    for module_name, attr, *_ in load_spans().TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


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
