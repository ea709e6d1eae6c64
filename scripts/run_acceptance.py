#!/usr/bin/env python3
"""Run the acceptance gates, one `criterion N:` line each; exit 0 iff all pass.

The gates are defined only in tests/test_acceptance.py; this script runs
that file under pytest (the `test` extra) and returns pytest's exit status.
"""

import sys
from pathlib import Path

import pytest

GATES = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"

if __name__ == "__main__":
    sys.exit(pytest.main([str(GATES), "-v", "-s"]))
