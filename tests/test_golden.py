"""Byte-identical CLI output on every fixture.

``golden_real.json`` maps each case id to the exact stdout of ``certify`` or
``norm --ring Q`` on that case.  It pins the reported minimizer and the dual
certificate, not only the value, so any change that moves either one shows
up here: in degree 1 to the cutting planes (the master simplex's pivot rule,
the box start, the Bellman-Ford order), in degree 2 to the tableau (pivot
rule, arithmetic, row or column order).

``golden_integral.json`` does the same for the integral and mod-n side:
``homology`` in every degree, ``norm`` over Z, Z/2, Z/3, Z/4 and Z/6
(cotorsion classes included, twice the rp2 fundamental chain, which is a
mod-4 cycle in the cotorsion class, and the horizontal loop of a relabelled
grid, both given as chains), ``scan`` (in degree 2 on the identity-labelled
grid4a and on two relabelled grids, whose ``homology`` in degree 2 is
pinned too), ``federer`` (one on a relabelled weighted grid) and ``sweep``
in both formats (a sweep with an unsorted, repeated modulus list
included), ``bijection`` and ``lift``.  Every
reported basis cycle, cotorsion generator and minimizer is read off Smith
normal form transforms, so any change to the SNF that moves a transform
shows up here.  ``record_golden.py`` re-records the ``nodes_explored``
values of this file and refuses any other change.
"""

import json
from fractions import Fraction
from functools import partial
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


def grid3w() -> WeightedComplex:
    """3 x 3 grid relabelled by seed 12, with horizontal, vertical and
    diagonal edges weighing 1, 2 and 3/2: its class f:1,1 has hundreds of
    integral minimizers at k = 2."""
    return torus_grid(3, seed=12, weights=(1, 2, Fraction(3, 2)),
                      name="grid3w")


# Relabelled T4 and T5 grids, unit and anisotropic, as the real benchmark
# runs them: their horizontal loops pin the cuts of ``min_real`` at its sizes.
SEEDED_GRIDS = {
    name: (k, seed, partial(torus_grid, k, seed=seed, weights=weights,
                            name=name))
    for name, k, seed, weights in [
        ("grid4s", 4, 3, (1, 1, 1)),
        ("grid4sa", 4, 5, (1, 2, Fraction(3, 2))),
        ("grid5s", 5, 11, (1, 1, 1)),
        ("grid5sa", 5, 13, (1, 2, Fraction(3, 2))),
    ]}

# A unit and an anisotropic relabelled grid whose top degree, as in the
# benchmark's degree-2 scans, is pinned beside the identity-labelled grid4a.
RELABELLED_TOPS = ("grid4s", "grid5sa")

GRID3R_LOOP = horizontal_loop(grid3r(), 3, seed=7)
MOBIUS_RIM = ",".join(str(i) for i in mobius_boundary_indices(mobius_band()))
RP2_FUNDAMENTAL = ",".join(f"{i}=1" for i in range(10))
RP2_TWICE_FUNDAMENTAL = ",".join(f"{i}=2" for i in range(10))
# The torsion basis cycle of klein-8, whose integral class is t:1.
KLEIN_TORSION = "2=1,3=-1,4=-1,5=1,16=1,21=-1"

FIXTURES = {"tc": triangle_circle, "torus": torus7, "rp2": rp2_6,
            "klein": klein8, "mobius": mobius_band, "grid4a": grid4a,
            "grid3r": grid3r, "grid3w": grid3w,
            **{name: make for name, (_, _, make) in SEEDED_GRIDS.items()}}

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
] + [(name, 1, "--chain", horizontal_loop(make(), k, seed=seed))
     for name, (k, seed, make) in SEEDED_GRIDS.items()]

# Chains run under ``norm --ring Q`` only: a free coordinate of 1/2.
NORM_Q_CHAINS = [
    ("torus", 1, "--chain", "2=1/2,5=-1/2,17=1/2"),
]


# Integral and mod-n commands, as argv after the command's fixture name.
INTEGRAL = (
    [f"homology {name} --dim {d}"
     for name, top in (("tc", 1), ("torus", 2), ("rp2", 2), ("klein", 2),
                       ("mobius", 2), ("grid4a", 2))
     for d in range(top + 1)]
    + [f"homology {name} --dim 2" for name in RELABELLED_TOPS]
    + [f"norm {name} --dim {d} {payload} --ring {ring}"
       for name, d, payload, rings in [
           ("tc", 1, "--class f:1", ("Z", "Z/2", "Z/3")),
           ("tc", 1, "--chain 0=1,2=1,1=-1", ("Z/3",)),
           ("torus", 1, "--class f:1,0", ("Z", "Z/2", "Z/3", "Z/4")),
           ("torus", 1, "--class f:1,1", ("Z", "Z/2", "Z/3", "Z/4")),
           ("torus", 2, "--class f:1", ("Z", "Z/2")),
           ("rp2", 1, "--class t:1", ("Z", "Z/2", "Z/3")),
           ("rp2", 1, "--chain 2=-1,4=1,13=-1", ("Z/2",)),
           ("rp2", 2, "--class c:1", ("Z/2", "Z/4", "Z/6")),
           ("rp2", 2, f"--chain {RP2_TWICE_FUNDAMENTAL}", ("Z/4",)),
           ("klein", 1, "--class f:1;t:0", ("Z", "Z/2", "Z/3")),
           ("klein", 1, "--class f:0;t:1", ("Z", "Z/2")),
           ("klein", 1, f"--chain {KLEIN_TORSION}", ("Z",)),
           ("klein", 2, "--class c:1", ("Z/2", "Z/4", "Z/6")),
           ("mobius", 1, "--class f:1", ("Z", "Z/2", "Z/3", "Z/4")),
           ("mobius", 1, "--class f:2", ("Z", "Z/2", "Z/4")),
           ("grid4a", 1, "--class f:1,0", ("Z", "Z/2")),
           ("grid3r", 1, f"--chain {GRID3R_LOOP}", ("Z", "Z/3", "Z/4")),
       ]
       for ring in rings]
    # The searches of the most tied minimizers, full and capped.
    + ["norm torus --dim 1 --class f:2,0 --ring Z/4",
       "norm torus --dim 1 --class f:2,0 --ring Z/4 --cap 5",
       "norm torus --dim 1 --class f:1,1 --ring Z/3 --cap 3",
       "norm klein --dim 1 --class f:2;t:0 --ring Z/4"]
    + [f"scan {name} --dim {d} --class {klass} --n {n}{fmt}"
       for name, d, klass, n in [
           ("tc", 1, "f:1", "2..5"),
           ("mobius", 1, "f:1", "2..8"),
           ("torus", 1, "f:1,0", "2..6"),
           ("torus", 2, "f:1", "2..5"),
           ("rp2", 1, "t:1", "2..6"),
           ("klein", 1, "f:1;t:0", "2..6"),
           ("grid4a", 2, "f:1", "2..4"),
           *((name, 2, "f:1", "2..4") for name in RELABELLED_TOPS),
       ]
       for fmt in ("", " --format report")]
    + [f"bijection {name} --dim 1 --class {klass} --n {n}"
       for name, klass, n in [("rp2", "t:1", 2), ("klein", "f:1;t:0", 2),
                              ("torus", "f:1,0", 3), ("mobius", "f:1", 2),
                              ("tc", "f:2", 2), ("klein", "f:1;t:0", 3)]]
    + [f"federer {name} --dim 1 --class {klass} --k-max {k}{fmt}"
       for name, klass, k in [("tc", "f:1", 3), ("mobius", "f:1", 4),
                              ("torus", "f:1,0", 2), ("klein", "f:1;t:0", 2),
                              ("grid3w", "f:1,1", 2)]
       for fmt in ("", " --format report")]
    + [f"sweep mobius --dim 1 --class f:1 --shrink {MOBIUS_RIM}"
       f" --factors {factors} --n {n}{fmt}"
       for factors, n in [("1/1,1/2,1/4", "3"), ("1/1,1/2", "5,3,3")]
       for fmt in ("", " --format report")]
    + [f"lift rp2 --dim 2 --chain {RP2_FUNDAMENTAL} --ring Z/2",
       "lift torus --dim 1 --chain 2=1,5=-1,17=1 --ring Z/5",
       f"lift klein --dim 1 --chain {KLEIN_TORSION} --ring Z/4",
       "lift torus --dim 1 --chain 2=2,5=-2,17=2 --ring Z/4"]
)


def cases():
    for name, dim, flag, payload in CLASSES:
        for command in ("certify", "norm"):
            argv = [command, name, "--dim", str(dim), flag, payload]
            if command == "norm":
                argv += ["--ring", "Q"]
            yield " ".join(argv), argv
    for name, dim, flag, payload in NORM_Q_CHAINS:
        argv = ["norm", name, "--dim", str(dim), flag, payload, "--ring", "Q"]
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
