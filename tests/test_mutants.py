"""The mutation gate's list stays in step with the source (scripts/mutants.py)."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_pattern_matches_the_source_exactly_once(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    mutants = importlib.import_module("mutants")
    assert mutants.pattern_counts() == {m.name: 1 for m in mutants.MUTANTS}
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert m.replacement != m.pattern and m.tests
        for test in m.tests:
            path, name = test.split("::")
            assert f"def {name}(" in (ROOT / path).read_text(), test
