"""The README's library example runs and prints what it documents."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = [float(word) for word in capsys.readouterr().out.split()]
    # each "# about <value>" comment documents one printed line, to two digits
    documented = [float(v) for v in re.findall(r"# about ([-+.e0-9]+)", blocks[0])]
    assert len(documented) == 2 and len(printed) == 3
    assert printed[1:] == pytest.approx(documented, rel=0.05)
