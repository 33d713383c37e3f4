"""The README's library example, run verbatim."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_and_its_values_hold():
    ns: dict = {}
    exec(compile(_library_example(), str(README), "exec"), ns)
    # The values its comments state: the real norm and the n = 3 gap.
    assert ns["lp"].value == Fraction(5, 8)
    assert [row.n for row in ns["rows"] if not row.equal] == [3]
