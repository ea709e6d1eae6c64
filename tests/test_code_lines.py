"""The code-line counter (scripts/code_lines.py) counts only code."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


class Thing:
    """Class docstring."""

    # a comment alone
    size = (
        1,
        2,
    )

    def method(self):
        """Method
        docstring."""
        text = """a string that is
        no docstring"""
        return text


async def run():
    """Coroutine docstring."""
    return os.sep
'''


def test_code_lines_count_no_docstring_comment_or_blank_line(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    code_lines = importlib.import_module("code_lines").code_lines
    # import, class, size's four lines, def, the string's two, return,
    # async def and its return
    assert code_lines(MODULE) == 12
    assert code_lines("") == 0
