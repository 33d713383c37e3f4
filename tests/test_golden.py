"""Byte-identical CLI output of the real-norm engine on every fixture.

``golden_real.json`` maps each case id to the exact stdout of ``certify`` or
``norm --ring Q`` on that case.  It pins the reported LP vertex and the dual
certificate, not only the value, so any change to the simplex (pivot rule,
arithmetic, row or column order) that moves either one shows up here.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from homnorm.cli import main
from homnorm.complexes import WeightedComplex, dump_complex
from homnorm.fixtures import (klein8, mobius_band, rp2_6, torus7,
                              triangle_circle)

GOLDEN = Path(__file__).with_name("golden_real.json")


def grid4a() -> WeightedComplex:
    """4 x 4 flat-torus grid cut on the main diagonal, with horizontal,
    vertical and diagonal edges weighing 1, 2 and 3/2: a larger, degenerate
    LP than the fixtures give."""
    k = 4
    weight = {}
    faces = []
    for i in range(k):
        for j in range(k):
            a, b, c, d = (i * k + j, i * k + (j + 1) % k,
                          ((i + 1) % k) * k + j, ((i + 1) % k) * k + (j + 1) % k)
            for (u, v), w in (((a, b), 1), ((a, c), 2), ((a, d), Fraction(3, 2))):
                weight[tuple(sorted((u, v)))] = Fraction(w)
            faces += [tuple(sorted((a, b, d))), tuple(sorted((a, c, d)))]
    edges = sorted(weight)
    return WeightedComplex("grid4a", [[(u,) for u in range(k * k)], edges,
                                      sorted(faces)],
                           [[Fraction(1)] * k * k, [weight[e] for e in edges],
                            [Fraction(1)] * len(faces)])


FIXTURES = {"tc": triangle_circle, "torus": torus7, "rp2": rp2_6,
            "klein": klein8, "mobius": mobius_band, "grid4a": grid4a}

# (fixture, degree, payload flag, payload); each runs under both commands.
CLASSES = [
    ("tc", 1, "--class", "f:1"),
    ("tc", 1, "--class", "f:-5/3"),
    ("tc", 1, "--chain", "0=1,2=1,1=-1"),
    ("torus", 1, "--class", "f:1,0"),
    ("torus", 1, "--class", "f:0,1"),
    ("torus", 1, "--class", "f:1,1"),
    ("torus", 1, "--class", "f:2,-1"),
    ("torus", 1, "--class", "f:3/2,-2/3"),
    ("torus", 2, "--class", "f:1"),
    ("rp2", 1, "--class", "f:"),
    ("klein", 1, "--class", "f:1"),
    ("klein", 1, "--class", "f:-2"),
    ("mobius", 1, "--class", "f:1"),
    ("mobius", 1, "--class", "f:1/2"),
    ("mobius", 1, "--class", "f:-3"),
    ("grid4a", 1, "--class", "f:1,0"),
    ("grid4a", 1, "--class", "f:1,1"),
    ("grid4a", 1, "--class", "f:-1,2"),
]


def cases():
    for name, dim, flag, payload in CLASSES:
        for command in ("certify", "norm"):
            argv = [command, name, "--dim", str(dim), flag, payload]
            if command == "norm":
                argv += ["--ring", "Q"]
            yield " ".join(argv), argv


def run_case(argv, directory: Path, capsys) -> str:
    path = directory / f"{argv[1]}.cplx"
    if not path.exists():
        path.write_text(dump_complex(FIXTURES[argv[1]]()), encoding="utf-8")
    code = main([argv[0], str(path)] + argv[2:])
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case for case, _ in cases())


@pytest.mark.parametrize("case,argv", list(cases()),
                         ids=[case for case, _ in cases()])
def test_real_output_is_byte_identical(case, argv, golden, tmp_path, capsys):
    assert run_case(argv, tmp_path, capsys) == golden[case]
