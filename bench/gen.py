"""Seeded inputs for the benchmark: torus grids, vertex relabellings and
fixture documents.

Everything a workload needs is produced here as document text plus CLI-style
payload strings, so an operation starts exactly where a command-line call
starts.  A seed only relabels grid vertices, which reorders the simplices and
with them the SNF pivot sequences and branch-and-bound row orders; sizes and
weights are fixed, so every seed poses the same problems with the same
answers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence, Union

from homnorm.complexes import WeightedComplex, dump_complex
from homnorm.fixtures import SUITE

UNIT = (Fraction(1), Fraction(1), Fraction(1))
# Edge weights by direction: horizontal, vertical, diagonal.
ANISO = (Fraction(1), Fraction(2), Fraction(3, 2))


def relabelling(n_vertices: int, seed: Union[int, str]) -> list[int]:
    """Permutation of range(n_vertices) drawn from ``seed``."""
    perm = list(range(n_vertices))
    random.Random(seed).shuffle(perm)
    return perm


def torus_grid(k: int, weights: Sequence[Fraction], perm: Sequence[int],
               name: str = "torus-grid") -> WeightedComplex:
    """The k x k flat-torus grid, each square cut on its main diagonal.

    Grid vertex (i, j) is ``perm[i*k + j]``; ``weights`` gives the weight of
    the horizontal, vertical and diagonal edges.  k^2 vertices, 3k^2 edges,
    2k^2 triangles.
    """
    if k < 3:
        raise ValueError("torus grids need k >= 3 to be simplicial")

    def v(i: int, j: int) -> int:
        return perm[(i % k) * k + (j % k)]

    edge_weight: dict[tuple[int, int], Fraction] = {}
    faces: list[tuple[int, ...]] = []
    for i in range(k):
        for j in range(k):
            for direction, (di, dj) in enumerate(((0, 1), (1, 0), (1, 1))):
                edge_weight[tuple(sorted((v(i, j), v(i + di, j + dj))))] = \
                    Fraction(weights[direction])
            faces.append(tuple(sorted((v(i, j), v(i, j + 1), v(i + 1, j + 1)))))
            faces.append(tuple(sorted((v(i, j), v(i + 1, j), v(i + 1, j + 1)))))
    edges = sorted(edge_weight)
    faces.sort()
    verts = [(u,) for u in range(k * k)]
    weights_by_degree = [[Fraction(1)] * len(verts),
                         [edge_weight[e] for e in edges],
                         [Fraction(1)] * len(faces)]
    return WeightedComplex(name, [verts, edges, faces], weights_by_degree)


def horizontal_loop(K: WeightedComplex, k: int, perm: Sequence[int]) -> str:
    """Chain payload ``idx=coeff,...`` of the grid row i = 0, traversed in
    increasing j; each coefficient carries the edge's orientation sign."""
    items = []
    for j in range(k):
        a, b = perm[j], perm[(j + 1) % k]
        idx = K.index_of(1, tuple(sorted((a, b))))
        items.append((idx, 1 if a < b else -1))
    return ",".join(f"{i}={c}" for i, c in sorted(items))


def grid_document(k: int, weights: Sequence[Fraction], seed: Union[int, str],
                  name: str) -> tuple[str, str]:
    """(document text, horizontal-loop payload) of a relabelled grid."""
    perm = relabelling(k * k, seed)
    K = torus_grid(k, weights, perm, name)
    return dump_complex(K), horizontal_loop(K, k, perm)


def fixture_documents() -> dict[str, str]:
    """The curated fixtures as documents, keyed by fixture name."""
    return {name: dump_complex(make()) for name, make in SUITE.items()}
