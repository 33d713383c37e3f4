import itertools
import random
from fractions import Fraction

import pytest

from homnorm.complexes import WeightedComplex
from homnorm.fixtures import (klein8, mobius_band, rp2_6, torus7,
                              triangle_circle)
from homnorm.homology import homology_decomposition
from homnorm.rings import INT


@pytest.fixture(scope="session")
def tc():
    return triangle_circle()


@pytest.fixture(scope="session")
def torus():
    return torus7()


@pytest.fixture(scope="session")
def rp2():
    return rp2_6()


@pytest.fixture(scope="session")
def klein():
    return klein8()


@pytest.fixture(scope="session")
def mobius():
    return mobius_band()


def graph_complex(name, n_vertices, edges, weights=None, triangles=()):
    verts = [(v,) for v in range(n_vertices)]
    edges = sorted(tuple(sorted(e)) for e in edges)
    levels = [verts, edges]
    wlevels = None
    if triangles:
        levels.append(sorted(tuple(sorted(t)) for t in triangles))
    if weights is not None:
        wlevels = [[Fraction(1)] * n_vertices, [Fraction(w) for w in weights]]
        if triangles:
            wlevels.append([Fraction(1)] * len(triangles))
    return WeightedComplex(name, levels, wlevels)


def small_corpus():
    """Complexes with <= 6 d-simplices for exhaustive engine/oracle equality.

    Each entry is (complex, degree, list of coordinate tuples to test); the
    coordinate tuples are (free, torsion) pairs in the reported basis.
    """
    corpus = []
    tcx = triangle_circle()
    corpus.append((tcx, 1, [((1,), ()), ((2,), ()), ((-1,), ())]))
    square = graph_complex("square", 4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                           weights=[1, Fraction(1, 2), 2, Fraction(3, 2)])
    corpus.append((square, 1, [((1,), ()), ((2,), ())]))
    theta = graph_complex("theta", 4,
                          [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
                          weights=[1, 2, Fraction(1, 3), 1, Fraction(5, 2)])
    corpus.append((theta, 1, [((1, 0), ()), ((0, 1), ()), ((1, -1), ()),
                              ((2, 1), ())]))
    filled = graph_complex("filled-triangle", 4,
                           [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
                           weights=[1, 1, Fraction(2, 3), Fraction(1, 2), 1],
                           triangles=[(0, 1, 2)])
    corpus.append((filled, 1, [((1,), ()), ((-2,), ())]))
    tetra = WeightedComplex(
        "tetra-sphere",
        [[(v,) for v in range(4)],
         sorted(itertools.combinations(range(4), 2)),
         sorted(itertools.combinations(range(4), 3))],
        [[Fraction(1)] * 4,
         [Fraction(1)] * 6,
         [Fraction(1), Fraction(1, 2), Fraction(1), Fraction(2)]])
    corpus.append((tetra, 2, [((1,), ()), ((2,), ()), ((0,), ())]))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return small_corpus()


def _relabelling(k: int, seed) -> list[int]:
    perm = list(range(k * k))
    if seed is not None:
        random.Random(seed).shuffle(perm)
    return perm


def torus_grid(k: int, seed=None, weights=(1, 1, 1),
               name: str = "") -> WeightedComplex:
    """The k x k flat-torus grid, each square cut on its main diagonal.

    Horizontal, vertical and diagonal edges weigh ``weights``.  With a
    ``seed`` the vertices are relabelled by a permutation drawn from it,
    which reorders the simplices and so the boundary matrices.
    """
    perm = _relabelling(k, seed)

    def v(i, j):
        return perm[(i % k) * k + (j % k)]

    weight, faces = {}, []
    for i in range(k):
        for j in range(k):
            for (di, dj), w in zip(((0, 1), (1, 0), (1, 1)), weights):
                weight[tuple(sorted((v(i, j), v(i + di, j + dj))))] = \
                    Fraction(w)
            faces.append(tuple(sorted((v(i, j), v(i, j + 1), v(i + 1, j + 1)))))
            faces.append(tuple(sorted((v(i, j), v(i + 1, j), v(i + 1, j + 1)))))
    edges = sorted(weight)
    return WeightedComplex(name or f"T{k}",
                           [[(u,) for u in range(k * k)], edges, sorted(faces)],
                           [[Fraction(1)] * k * k, [weight[e] for e in edges],
                            [Fraction(1)] * len(faces)])


def horizontal_loop(K: WeightedComplex, k: int, seed=None) -> str:
    """``--chain`` payload of the grid row i = 0 of ``torus_grid(k, seed)``,
    traversed in increasing j, each coefficient carrying the edge's sign."""
    perm = _relabelling(k, seed)
    items = []
    for j in range(k):
        a, b = perm[j], perm[(j + 1) % k]
        items.append((K.index_of(1, tuple(sorted((a, b)))), 1 if a < b else -1))
    return ",".join(f"{i}={c}" for i, c in sorted(items))


def moore_space(*orders: int) -> WeightedComplex:
    """Disjoint union of 2-complexes M_m with H_1 = Z/m and H_2 = 0, one for
    each m in ``orders``, all weights 1.

    M_m is a cone over a 3m-gon whose rim winds m times round a triangle,
    with an annulus of triangles between the rim and the triangle.
    """
    verts, triangles = [], set()
    for m in orders:
        c = [len(verts) + i for i in range(3)]
        b = [len(verts) + 3 + i for i in range(3 * m)]
        o = len(verts) + 3 + 3 * m
        verts += [(v,) for v in range(len(verts), o + 1)]
        for i in range(3 * m):
            bi, bj = b[i], b[(i + 1) % (3 * m)]
            ci, cj = c[i % 3], c[(i + 1) % 3]
            triangles |= {(bi, bj, cj), (bi, ci, cj), (o, bi, bj)}
    triangles = sorted(tuple(sorted(t)) for t in triangles)
    edges = sorted({e for t in triangles for e in itertools.combinations(t, 2)})
    levels = [verts, edges, triangles]
    name = "moore-" + "-".join(map(str, orders))
    return WeightedComplex(name, levels,
                           [[Fraction(1)] * len(lv) for lv in levels])


def random_complex(rng: random.Random, max_vertices: int = 8):
    """Random face-closed weighted complex with b_1 >= 1 (for class tests)."""
    while True:
        nv = rng.randint(4, max_vertices)
        all_edges = list(itertools.combinations(range(nv), 2))
        n_edges = rng.randint(nv, min(len(all_edges), nv + 4))
        edges = sorted(rng.sample(all_edges, n_edges))
        edge_set = set(edges)
        tri_candidates = [t for t in itertools.combinations(range(nv), 3)
                          if all(e in edge_set
                                 for e in itertools.combinations(t, 2))]
        triangles = sorted(rng.sample(tri_candidates,
                                      min(len(tri_candidates), rng.randint(0, 2))))
        weights = [Fraction(rng.randint(1, 4), rng.randint(1, 3))
                   for _ in edges]
        K = graph_complex(f"random-{rng.randint(0, 10**6)}", nv, edges,
                          weights, triangles)
        dec = homology_decomposition(K, 1)
        if dec.betti >= 1:
            return K


def random_class(rng: random.Random, dec, bound: int = 2):
    while True:
        free = tuple(rng.randint(-bound, bound) for _ in range(dec.betti))
        torsion = tuple(rng.randrange(tf.order) for tf in dec.torsion)
        c = dec.class_coords(INT, free, torsion)
        if not c.is_zero():
            return c
