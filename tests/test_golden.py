"""Byte-identical CLI output on every fixture.

``golden_real.json`` maps each case id to the exact stdout of ``certify`` or
``norm --ring Q`` on that case.  It pins the reported LP vertex and the dual
certificate, not only the value, so any change to the simplex (pivot rule,
arithmetic, row or column order) that moves either one shows up here.

``golden_integral.json`` does the same for the integral and mod-n side:
``homology`` in every degree, ``norm`` over Z, Z/2, Z/3 and Z/4 (cotorsion
classes included, and the horizontal loop of a relabelled grid given as a
chain), ``scan``, ``federer`` and ``sweep`` in both formats (a sweep with an
unsorted, repeated modulus list and one with no factors included),
``bijection`` and ``lift``.  Every reported basis
cycle, cotorsion generator and minimizer is read off Smith normal form
transforms, so any change to the SNF that moves a transform shows up here.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from homnorm.cli import main
from homnorm.complexes import WeightedComplex, dump_complex
from homnorm.fixtures import (klein8, mobius_band, mobius_boundary_indices,
                              rp2_6, torus7, triangle_circle)

from conftest import horizontal_loop, torus_grid

GOLDEN = Path(__file__).with_name("golden_real.json")
GOLDEN_INTEGRAL = Path(__file__).with_name("golden_integral.json")


def grid4a() -> WeightedComplex:
    """4 x 4 flat-torus grid cut on the main diagonal, with horizontal,
    vertical and diagonal edges weighing 1, 2 and 3/2: a larger, degenerate
    LP than the fixtures give."""
    return torus_grid(4, weights=(1, 2, Fraction(3, 2)), name="grid4a")


def grid3r() -> WeightedComplex:
    """3 x 3 unit flat-torus grid with its vertices relabelled by seed 7."""
    return torus_grid(3, seed=7, name="grid3r")


GRID3R_LOOP = horizontal_loop(grid3r(), 3, seed=7)
MOBIUS_RIM = ",".join(str(i) for i in mobius_boundary_indices(mobius_band()))
RP2_FUNDAMENTAL = ",".join(f"{i}=1" for i in range(10))

FIXTURES = {"tc": triangle_circle, "torus": torus7, "rp2": rp2_6,
            "klein": klein8, "mobius": mobius_band, "grid4a": grid4a,
            "grid3r": grid3r}

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


# Integral and mod-n commands, as argv after the command's fixture name.
INTEGRAL = (
    [f"homology {name} --dim {d}"
     for name, top in (("tc", 1), ("torus", 2), ("rp2", 2), ("klein", 2),
                       ("mobius", 2), ("grid4a", 2))
     for d in range(top + 1)]
    + [f"norm {name} --dim {d} {payload} --ring {ring}"
       for name, d, payload, rings in [
           ("tc", 1, "--class f:1", ("Z", "Z/2", "Z/3")),
           ("tc", 1, "--chain 0=1,2=1,1=-1", ("Z/3",)),
           ("torus", 1, "--class f:1,0", ("Z", "Z/2", "Z/3", "Z/4")),
           ("torus", 1, "--class f:1,1", ("Z", "Z/2", "Z/3", "Z/4")),
           ("torus", 2, "--class f:1", ("Z", "Z/2")),
           ("rp2", 1, "--class t:1", ("Z", "Z/2", "Z/3")),
           ("rp2", 2, "--class c:1", ("Z/2",)),
           ("klein", 1, "--class f:1;t:0", ("Z", "Z/2", "Z/3")),
           ("klein", 1, "--class f:0;t:1", ("Z", "Z/2")),
           ("klein", 2, "--class c:1", ("Z/2",)),
           ("mobius", 1, "--class f:1", ("Z", "Z/2", "Z/3", "Z/4")),
           ("mobius", 1, "--class f:2", ("Z", "Z/2", "Z/4")),
           ("grid4a", 1, "--class f:1,0", ("Z", "Z/2")),
           ("grid3r", 1, f"--chain {GRID3R_LOOP}", ("Z", "Z/3", "Z/4")),
       ]
       for ring in rings]
    + [f"scan {name} --dim {d} --class {klass} --n {n}{fmt}"
       for name, d, klass, n in [
           ("tc", 1, "f:1", "2..5"),
           ("mobius", 1, "f:1", "2..8"),
           ("torus", 1, "f:1,0", "2..6"),
           ("torus", 2, "f:1", "2..5"),
           ("rp2", 1, "t:1", "2..6"),
           ("klein", 1, "f:1;t:0", "2..6"),
           ("grid4a", 2, "f:1", "2..4"),
       ]
       for fmt in ("", " --format report")]
    + [f"bijection {name} --dim 1 --class {klass} --n {n}"
       for name, klass, n in [("rp2", "t:1", 2), ("klein", "f:1;t:0", 2),
                              ("torus", "f:1,0", 3), ("mobius", "f:1", 2)]]
    + [f"federer {name} --dim 1 --class {klass} --k-max {k}{fmt}"
       for name, klass, k in [("tc", "f:1", 3), ("mobius", "f:1", 4),
                              ("torus", "f:1,0", 2), ("klein", "f:1;t:0", 2)]
       for fmt in ("", " --format report")]
    + [f"sweep mobius --dim 1 --class f:1 --shrink {MOBIUS_RIM}"
       f" --factors {factors} --n {n}{fmt}"
       for factors, n in [("1/1,1/2,1/4", "3"), ("1/1,1/2", "5,3,3"),
                          (",", "3")]
       for fmt in ("", " --format report")]
    + [f"lift rp2 --dim 2 --chain {RP2_FUNDAMENTAL} --ring Z/2"]
)


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


@pytest.fixture(scope="module")
def golden_integral():
    return json.loads(GOLDEN_INTEGRAL.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden, golden_integral):
    assert sorted(golden) == sorted(case for case, _ in cases())
    assert sorted(golden_integral) == sorted(INTEGRAL)


@pytest.mark.parametrize("case,argv", list(cases()),
                         ids=[case for case, _ in cases()])
def test_real_output_is_byte_identical(case, argv, golden, tmp_path, capsys):
    assert run_case(argv, tmp_path, capsys) == golden[case]


@pytest.mark.parametrize("case", INTEGRAL)
def test_integral_output_is_byte_identical(case, golden_integral, tmp_path,
                                           capsys):
    assert run_case(case.split(), tmp_path, capsys) == golden_integral[case]
