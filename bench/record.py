"""Record the reference table the benchmark checks results against.

Usage (from the repository root)::

    python3 bench/record.py

Runs one pass of every workload under three labellings, requires the
relabelling-invariant answers (values, minimizer counts, harness rows) to
agree across them, and writes ``bench/reference.json`` keyed by case,
together with the git revision, Python version and CPU count it was
recorded with.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from ops import answer, run_op  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

LABELLINGS = (0, 1, 2)


def main() -> int:
    tr = Tracer(False)
    answers: dict[str, dict] = {}
    for workload in WORKLOADS:
        for seed in LABELLINGS:
            docs, ops = build(workload, seed)
            for op in ops:
                got = answer(op, run_op(op, docs, tr))
                if answers.setdefault(op.case, got) != got:
                    print(f"error: {op.case} differs under seed {seed}: "
                          f"{got} vs {answers[op.case]}", file=sys.stderr)
                    return 1
            print(f"{workload} seed {seed}: {len(ops)} cases agree")
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    table = {"recorded_at": {"git_rev": rev,
                             "python": platform.python_version(),
                             "nproc": os.cpu_count()},
             "answers": dict(sorted(answers.items()))}
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
