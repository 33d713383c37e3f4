"""The three workloads: their documents and operation lists for a seed.

Sizes, weights and classes are fixed per workload; the seed relabels the
grid vertices and shuffles the operation order, so every seed poses the same
problems with the same answers.
"""

from __future__ import annotations

import random
from fractions import Fraction

from homnorm.fixtures import mobius_band, mobius_boundary_indices

from gen import ANISO, UNIT, fixture_documents, grid_document
from ops import Op

WORKLOADS = ("lattice", "real", "experiments")

RINGS = ("Z", "Z/2", "Z/3", "Z/4")


def _grids(seed: str, specs, docs: dict[str, str]) -> dict[str, str]:
    """Add relabelled grid documents; returns their loop payloads by name."""
    loops = {}
    for name, k, weights in specs:
        docs[name], loops[name] = grid_document(k, weights, f"{seed}/{name}",
                                                name)
    return loops


def _lattice(seed: str, docs: dict[str, str]) -> list[Op]:
    ops = []
    fixture_classes = [
        ("triangle-circle", [((1,), ())]),
        ("mobius-gap", [((1,), ()), ((2,), ()), ((3,), ())]),
        ("torus-7", [((1, 0), ()), ((0, 1), ()), ((2, 0), ()), ((1, 1), ())]),
        ("klein-8", [((1,), (0,)), ((0,), (1,)), ((2,), (0,))]),
        ("rp2-6", [((), (1,))]),
    ]
    for doc, classes in fixture_classes:
        for klass in classes:
            for ring in RINGS:
                ops.append(Op(f"norm {doc} {klass} {ring}", "norm", doc, 1,
                              ring, klass=klass))
    # Each ring gets its own labelling of every grid: the search cost depends
    # heavily on the labelling, and independent draws keep the tail steady.
    for name, k, weights in [("grid3", 3, UNIT), ("grid4", 4, UNIT),
                             ("grid4a", 4, ANISO)]:
        loops = _grids(seed, [(f"{name}-{i}", k, weights)
                              for i in range(1, len(RINGS) + 1)], docs)
        for (doc, payload), ring in zip(loops.items(), RINGS):
            ops.append(Op(f"norm {doc} loop {ring}", "norm", doc, 1, ring,
                          chain=payload))
    return ops


def _real(seed: str, docs: dict[str, str]) -> list[Op]:
    ops = [
        Op("norm mobius-gap (1,) Q", "norm", "mobius-gap", 1, "Q",
           klass=((1,), ())),
        Op("norm torus-7 (1, 1) Q", "norm", "torus-7", 1, "Q",
           klass=((1, 1), ())),
        Op("certify triangle-circle (1,)", "certify", "triangle-circle", 1,
           klass=((1,), ())),
        Op("certify mobius-gap (2,)", "certify", "mobius-gap", 1,
           klass=((2,), ())),
        Op("certify klein-8 (1,)", "certify", "klein-8", 1,
           klass=((1,), (0,))),
        Op("certify torus-7 (2, 0)", "certify", "torus-7", 1,
           klass=((2, 0), ())),
    ]
    # Two labellings of each T3 and T4 grid, both commands on each, and one
    # T5 query (about 3 s): a run sees many labellings, and the median and
    # the tail fall inside a size class rather than on the edge between two.
    loops = _grids(seed, [(f"{name}-{copy}", k, weights)
                          for name, k, weights in [("grid3", 3, UNIT),
                                                   ("grid3a", 3, ANISO),
                                                   ("grid4", 4, UNIT),
                                                   ("grid4a", 4, ANISO)]
                          for copy in (1, 2)] + [("grid5", 5, UNIT)], docs)
    for doc, payload in loops.items():
        commands = ("certify",) if doc == "grid5" else ("norm", "certify")
        for command in commands:
            ops.append(Op(f"{command} {doc} loop Q", command, doc, 1, "Q",
                          chain=payload))
    return ops


def _experiments(seed: str, docs: dict[str, str]) -> list[Op]:
    _grids(seed, [("grid4", 4, UNIT), ("grid6", 6, UNIT),
                  ("grid8", 8, UNIT)], docs)
    fundamental = ((1,), ())
    ops = [Op(f"scan {doc} fundamental", "scan", doc, 2,
              klass=fundamental, moduli=tuple(range(2, 9)))
           for doc in ("grid4", "grid6", "grid8")]
    for doc, klass, hi in [("mobius-gap", ((1,), ()), 16),
                           ("rp2-6", ((), (1,)), 12),
                           ("torus-7", ((1, 0), ()), 8),
                           ("klein-8", ((1,), (0,)), 6)]:
        ops.append(Op(f"scan {doc} 2..{hi}", "scan", doc, 1, klass=klass,
                      moduli=tuple(range(2, hi + 1))))
    ops.append(Op("federer mobius-gap 6", "federer", "mobius-gap", 1,
                  klass=((1,), ()), k_max=6))
    ops.append(Op("federer torus-7 2", "federer", "torus-7", 1,
                  klass=((1, 0), ()), k_max=2))
    ops.append(Op("sweep mobius-gap boundary", "sweep", "mobius-gap", 1,
                  klass=((1,), ()), moduli=(3,),
                  shrink=tuple(mobius_boundary_indices(mobius_band())),
                  factors=(Fraction(1), Fraction(1, 2), Fraction(1, 4),
                           Fraction(1, 8))))
    for doc, klass, n in [("rp2-6", ((), (1,)), 2),
                          ("klein-8", ((1,), (0,)), 2),
                          ("torus-7", ((1, 0), ()), 3)]:
        ops.append(Op(f"bijection {doc} {n}", "bijection", doc, 1,
                      klass=klass, moduli=(n,)))
    return ops


_WORKLOAD_OPS = {"lattice": _lattice, "real": _real, "experiments": _experiments}


def build(workload: str, seed: int,
          pass_no: int = 0) -> tuple[dict[str, str], list[Op]]:
    """Documents and operations of pass ``pass_no`` of ``workload``.

    Every pass poses the same problems; each pass relabels the grids afresh,
    so a run averages the labelling-dependent search cost over many
    labellings.
    """
    pass_seed = f"{seed}/{pass_no}"
    docs = fixture_documents()
    ops = _WORKLOAD_OPS[workload](pass_seed, docs)
    random.Random(pass_seed).shuffle(ops)
    return docs, ops
