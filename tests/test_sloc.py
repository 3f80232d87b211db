import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "sloc", Path(__file__).resolve().parent.parent / "tools" / "sloc.py")
sloc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sloc)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import math  # trailing comment


def f(x):
    """One-line docstring."""
    text = """a multi-line
    string that is code"""
    return math.sqrt(x) + len(text)


class C:
    """Class docstring."""

    value = (1,
             2)
'''


def test_sloc_skips_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, def, the two-line string assignment, return, class, two-line tuple
    assert sloc.count_file(path) == 8


def test_sloc_counts_the_package(capsys):
    assert sloc.main() == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("total")
