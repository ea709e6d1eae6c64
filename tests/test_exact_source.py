"""The package source holds no floating point outside the manifest timings:
no float literal, no floating dtype named in code or as a dtype string, and
no true division.  It tokenizes `src/fnef` as scripts/code_lines.py does."""

import ast
import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fnef"

#: Python's and NumPy's names of floating and complex types.  Past a dot,
#: as in `np.half`, each counts; alone, only the builtins `float` and
#: `complex` do, as words such as `single` also name variables.
FLOAT_NAMES = {
    "float", "float16", "float32", "float64", "float96", "float128", "float_",
    "half", "single", "double", "longdouble", "floating", "inexact",
    "complex", "complex64", "complex128", "complex256", "csingle", "cdouble",
    "clongdouble", "complexfloating", "truediv",
}

#: NumPy typestrings of floating and complex dtypes, such as "<f8" or "c16".
FLOAT_TYPESTRING = re.compile(r"[<>=|]?[fc]\d+")


def manifest_lines(source: str) -> set[int]:
    """The lines of the class `Manifest`, whose timings are wall seconds."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == "Manifest":
            return set(range(node.lineno, node.end_lineno + 1))
    raise AssertionError("no class Manifest")


def floating_point(source: str, exempt: frozenset = frozenset()) -> list[tuple[int, str]]:
    """(line, token) of every float literal, floating type name or dtype
    string and true division in the Python module `source`, outside the
    `exempt` lines."""
    found = []
    previous = ""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        after_dot, previous = previous == ".", tok.string
        if tok.start[0] in exempt:
            continue
        if tok.type == tokenize.NUMBER:
            hit = isinstance(ast.literal_eval(tok.string), (float, complex))
        elif tok.type == tokenize.NAME:
            hit = tok.string in ("float", "complex") or after_dot and tok.string in FLOAT_NAMES
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except (SyntaxError, ValueError):  # an f-string
                continue
            hit = value in FLOAT_NAMES or bool(FLOAT_TYPESTRING.fullmatch(str(value)))
        else:
            hit = tok.type == tokenize.OP and tok.string in ("/", "/=")
        if hit:
            found.append((tok.start[0], tok.string))
    return found


MODULE = '''"""Floating point / spelled out in a docstring."""
import numpy as np

# a comment may say 1.25 / 2 and float64
EXACT = 7 // 2, 0x1e, 1_000, "f"


class Manifest:
    seconds: float = 0.5


def rates(x, single):
    x /= 2
    return x * 1.25, np.float64, "<f8", "float32", 3j, 1e3, single, np.half
'''


def test_detector_finds_each_kind_of_floating_point():
    exempt = frozenset(manifest_lines(MODULE))
    assert exempt == {8, 9}
    assert floating_point(MODULE, exempt) == [
        (13, "/="),
        (14, "1.25"),
        (14, "float64"),
        (14, '"<f8"'),
        (14, '"float32"'),
        (14, "3j"),
        (14, "1e3"),
        (14, "half"),
    ]
    assert (9, "float") in floating_point(MODULE)


def test_package_source_has_no_floating_point_outside_the_manifest():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        exempt = frozenset(manifest_lines(source)) if path.name == "cli.py" else frozenset()
        if hits := floating_point(source, exempt):
            found[path.name] = hits
    assert found == {}
