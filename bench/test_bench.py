"""Tests of the benchmark itself: generator, determinism and checker.

Run with ``python -m pytest bench`` from the repository root.
"""

import dataclasses
import json
import os
import sys
from fractions import Fraction
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

from homnorm.complexes import load_complex, mass  # noqa: E402
from homnorm.homology import class_of_cycle, homology_decomposition  # noqa: E402
from homnorm.rings import INT  # noqa: E402

from gen import ANISO, UNIT, grid_document, relabelling, torus_grid  # noqa: E402
from ops import Op, _parse_chain, check, run_op  # noqa: E402
from run import _span_totals, _tail  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


def _reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["answers"]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_torus_grid_is_a_torus(k):
    K = torus_grid(k, ANISO, relabelling(k * k, f"grid{k}"))
    assert [K.n_simplices(d) for d in range(3)] == [k * k, 3 * k * k, 2 * k * k]
    h1, h2 = homology_decomposition(K, 1), homology_decomposition(K, 2)
    assert (h1.betti, h1.torsion, h2.betti, h2.torsion) == (2, (), 1, ())
    assert sorted(set(K.weights[1])) == sorted(ANISO)


def test_loop_chain_is_a_primitive_cycle():
    k = 4
    doc, payload = grid_document(k, UNIT, 7, "grid")
    K = load_complex(doc)
    z = _parse_chain(K, 1, INT, payload)
    assert z.is_cycle()
    assert mass(K, z) == k
    assert gcd(*class_of_cycle(K, 1, z).free_part) == 1


def test_seed_fixes_the_documents():
    assert build("lattice", 5, 2) == build("lattice", 5, 2)
    assert build("lattice", 5, 2)[0] != build("lattice", 6, 2)[0]
    assert build("lattice", 5, 1)[0] != build("lattice", 5, 2)[0]


def test_same_seed_runs_give_identical_counts():
    def counts():
        docs, ops = build("lattice", 9)
        tr = Tracer(True)
        for op in ops:
            if op.doc in ("triangle-circle", "mobius-gap", "grid3"):
                run_op(op, docs, tr)
        return {name: {key: v for key, v in agg.items()
                       if key not in ("ms", "incl_ms")}
                for name, agg in _span_totals(tr, 0).items()}

    first = counts()
    assert first["optimize.min_mod"]["nodes"] > 0
    assert counts() == first


def test_every_case_has_a_reference_answer():
    reference = _reference()
    for workload in WORKLOADS:
        _, ops = build(workload, 0)
        assert len({op.case for op in ops}) == len(ops)
        assert all(op.case in reference for op in ops)


def test_checker_flags_a_wrong_value():
    reference = _reference()
    docs, _ = build("lattice", 0)
    op = Op("norm mobius-gap ((1,), ()) Z", "norm", "mobius-gap", 1, "Z",
            klass=((1,), ()))
    res = run_op(op, docs, Tracer(False))
    expected = reference[op.case]
    assert check(op, res, expected) == []
    assert check(op, res, {**expected, "value": "2/1"})
    res.out = dataclasses.replace(res.out, value=res.out.value + Fraction(1))
    assert any("mass" in p for p in check(op, res, expected))


def test_checker_flags_a_row_invariant():
    reference = _reference()
    docs, _ = build("experiments", 0)
    op = Op("federer mobius-gap 6", "federer", "mobius-gap", 1,
            klass=((1,), ()), k_max=6)
    res = run_op(op, docs, Tracer(False))
    assert check(op, res, reference[op.case]) == []
    res.out[0] = dataclasses.replace(res.out[0], value_real=Fraction(100))
    assert check(op, res, reference[op.case])


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = _tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
