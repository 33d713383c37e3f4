"""Re-record the ``nodes_explored`` values of ``golden_integral.json``.

Usage, from the repository root::

    PYTHONPATH=src python tests/record_golden.py

Every case of ``test_golden.INTEGRAL`` is run through the CLI, as the golden
test runs it.  Where a case's output differs from its golden text in
anything but the digits of a ``"nodes_explored"`` value, or the cases are not
those of the file, nothing is written and the script exits 1, naming the
cases.  Otherwise the file is rewritten with the new node counts and every
other byte kept, and the script prints how many values moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from test_golden import FIXTURES, GOLDEN_INTEGRAL, INTEGRAL

from homnorm.cli import main as cli
from homnorm.complexes import dump_complex

NODES = re.compile(r'(\\?"nodes_explored\\?": )(\d+)')


def _masked(text: str) -> str:
    return NODES.sub(r"\1#", text)


def _nodes(text: str) -> list[int]:
    return [int(m.group(2)) for m in NODES.finditer(text)]


def _run(argv: list[str], directory: Path) -> tuple[int, str]:
    path = directory / f"{argv[1]}.cplx"
    if not path.exists():
        path.write_text(dump_complex(FIXTURES[argv[1]]()), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli([argv[0], str(path)] + argv[2:])
    return code, out.getvalue()


def main() -> int:
    raw = GOLDEN_INTEGRAL.read_text(encoding="utf-8")
    golden = json.loads(raw)
    if sorted(golden) != sorted(INTEGRAL):
        for case in sorted(set(golden) ^ set(INTEGRAL)):
            where = "file" if case in golden else "test_golden.INTEGRAL"
            print(f"only in {where}: {case}", file=sys.stderr)
        return 1
    fresh, bad = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for case in golden:
            code, out = _run(case.split(), Path(tmp))
            if code != 0 or _masked(out) != _masked(golden[case]):
                bad.append(case)
            fresh[case] = out
    for case in bad:
        print(f"differs beyond nodes_explored: {case}", file=sys.stderr)
    text = json.dumps(fresh, indent=1) + "\n"
    if bad or _masked(text) != _masked(raw):
        return 1
    before, after = _nodes(raw), _nodes(text)
    moved = sum(a != b for a, b in zip(before, after))
    if moved:
        GOLDEN_INTEGRAL.write_text(text, encoding="utf-8")
    print(f"{moved} of {len(after)} nodes_explored values re-recorded, "
          f"total {sum(before)} -> {sum(after)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
