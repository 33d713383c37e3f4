"""The structured LP against the generic Fraction-tableau two-phase simplex.

``solve_cycle_lp`` skips phase 1 and keeps one tableau column per pair of
columns equal up to sign.  Bland's rule reads only signs and ratio
comparisons, so after the reference's phase 1, which takes one pivot per
row, both must take exactly the same pivots: value, vertex and duals are
compared for equality, and the pivot counts differ by the number of rows.
"""

import random
from fractions import Fraction

import pytest

from conftest import random_complex, torus_grid
from homnorm.fixtures import SUITE
from homnorm.homology import homology_decomposition
from homnorm.lp import solve_cycle_lp
from homnorm.rings import RAT

from oracles import boundary_matrix, reference_split_lp

DENOMINATORS = (1, 1, 1, 2, 3, 4, 5, 7)


def rand_rational(rng, lo, hi):
    q = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(lo * q, hi * q), q)


def assert_matches_reference(z0, weights, B):
    """Solve from the sparse columns of ``B`` and compare with the
    reference on the dense split LP; return the result."""
    cofaces = [[(i, row[j]) for i, row in enumerate(B) if row[j]]
               for j in range(len(B[0]) if B else 0)]
    got = solve_cycle_lp(z0, weights, cofaces)
    want = reference_split_lp(z0, weights, B)
    assert (got.value, got.x, got.duals) == (want.value, want.x, want.duals)
    assert got.pivots == want.pivots - len(z0)
    assert all(isinstance(v, Fraction)
               for v in got.x + got.duals + [got.value])
    return got


def random_split_lp(rng):
    """A seeded LP of the ``min_real`` form with an arbitrary +-1 matrix:
    rational z0 with negative and zero entries, positive rational weights.
    Any z0 is feasible (y = 0), so no draw is rejected."""
    n = rng.randint(1, 7)
    m = rng.randint(0, 6)
    density = rng.choice((0.2, 0.5, 0.8))
    B = [[rng.choice((-1, 1)) if rng.random() < density else 0
          for _ in range(m)] for _ in range(n)]
    z0 = [rand_rational(rng, -3, 3) if rng.random() < 0.7 else Fraction(0)
          for _ in range(n)]
    weights = [rand_rational(rng, 1, 4) for _ in range(n)]
    return z0, weights, B


@pytest.mark.parametrize("seed", range(30))
def test_matches_fraction_reference(seed):
    rng = random.Random(seed)
    negative_rows = 0
    for _ in range(40):
        z0, weights, B = random_split_lp(rng)
        assert_matches_reference(z0, weights, B)
        negative_rows += any(v < 0 for v in z0)
    assert negative_rows


def test_matches_reference_on_complexes():
    """The LPs of ``min_real`` on the fixtures, relabelled grids and random
    complexes in every degree, the top one (no cofaces) included, with the
    complex's weights and with random rational weights."""
    rng = random.Random("cycle-lp")
    complexes = [make() for make in SUITE.values()]
    complexes += [torus_grid(4, seed=seed) for seed in (1, 2)]
    complexes += [random_complex(rng) for _ in range(8)]
    solved = {"top": 0, "below": 0}
    for K in complexes:
        for d in range(K.dim + 1):
            dec = homology_decomposition(K, d)
            if not dec.betti:
                continue
            B = boundary_matrix(K, d + 1).data
            for weights in (K.weights[d],
                            [rand_rational(rng, 1, 5) for _ in K.weights[d]]):
                free = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(dec.betti)]
                free[0] = free[0] or Fraction(1)
                z0 = dec.representative_vector(
                    dec.class_coords(RAT, tuple(free)))
                assert_matches_reference(z0, weights, B)
                solved["top" if d == K.dim else "below"] += 1
    assert all(solved.values()), solved


def test_half_integral_vertex():
    # The optimal basis has determinant 2, so the pivots leave the unit
    # fast path: integral data, a half-integral vertex and duals.
    B = [[1, 1], [-1, 0], [-1, 1]]
    res = assert_matches_reference([Fraction(0), Fraction(-2), Fraction(-1)],
                                   [Fraction(1)] * 3, B)
    assert (res.value, res.pivots) == (Fraction(3, 2), 3)
    half = Fraction(1, 2)
    assert res.x == [0, 0, 0, 0, 3 * half, 0, 0, half, half, 0]
    assert res.duals == [Fraction(-1, 2), -1, Fraction(1, 2)]


def test_top_degree_takes_no_pivot():
    # With no cofaces the only feasible point is x = z0, and the duals are
    # the basic costs with their signs, w_i for a zero row.
    z0 = [Fraction(-3, 2), Fraction(0), Fraction(2)]
    res = assert_matches_reference(z0, [Fraction(1), 2, Fraction(1, 3)],
                                   [[], [], []])
    assert (res.value, res.pivots) == (Fraction(13, 6), 0)
    assert res.x == [0, 0, 2, Fraction(3, 2), 0, 0]
    assert res.duals == [-1, 2, Fraction(1, 3)]


def test_no_rows():
    res = solve_cycle_lp([], [], [(), ()])
    assert (res.value, res.x, res.duals, res.pivots) == (0, [0] * 4, [], 0)


@pytest.mark.parametrize("z0,weights", [
    ([1, 2], [1]),
    ([1], [1, 1]),
    ([], [1]),
])
def test_shape_mismatch(z0, weights):
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_cycle_lp(z0, weights, [])
