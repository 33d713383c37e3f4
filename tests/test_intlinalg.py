"""Smith normal form and exact solving, cross-checked against sympy oracles
and against the dense reference Smith normal form."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from homnorm.intlinalg import (IntMatrix, ShapeMismatchError, kernel_basis,
                               smith_normal_form, solve_linear)
from homnorm.rings import INT, RAT, mod_ring

from conftest import torus_grid
from oracles import reference_smith_normal_form


def _check_snf(A):
    res = smith_normal_form(A)
    assert res.U.matmul(A).matmul(res.V) == res.D
    # Integer inverses certify |det| = 1.
    assert res.U.matmul(res.u_inv) == IntMatrix.identity(A.rows)
    assert res.V.matmul(res.v_inv) == IntMatrix.identity(A.cols)
    nonzero = [d for d in res.diag if d]
    assert list(res.diag) == nonzero + [0] * (len(res.diag) - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert a > 0 and b % a == 0
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert res.D.data[i][j] == 0
    return res


def test_snf_examples():
    assert _check_snf(IntMatrix.from_rows([[2, 0], [0, 3]])).diag == (1, 6)
    assert _check_snf(IntMatrix.from_rows([[0]])).diag == (0,)
    assert _check_snf(IntMatrix.from_rows([[2, 4], [6, 8]])).diag == (2, 4)


def test_snf_empty_and_rectangular():
    assert _check_snf(IntMatrix.zeros(0, 3)).diag == ()
    assert _check_snf(IntMatrix.zeros(3, 0)).diag == ()
    assert _check_snf(IntMatrix.from_rows([[1, 2, 3]])).diag == (1,)


def _random_matrix(rng, rows, cols, bound=6):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def _random_unimodular(rng, n):
    m = IntMatrix.identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for k in range(n):
            m.data[i][k] += q * m.data[j][k]
    return m


def test_snf_matches_sympy_and_is_unimodular_invariant():
    rng = random.Random("snf-oracle")
    for _ in range(100):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        A = _random_matrix(rng, rows, cols)
        res = _check_snf(A)
        expected = sympy_snf(sympy.Matrix(A.data))
        exp_diag = [abs(int(expected[i, i])) for i in range(min(rows, cols))]
        nz = sorted(d for d in exp_diag if d)
        assert sorted(d for d in res.diag if d) == nz
        # Invariant factors survive unimodular pre/post multiplication.
        P = _random_unimodular(rng, rows)
        Q = _random_unimodular(rng, cols)
        assert smith_normal_form(P.matmul(A).matmul(Q)).diag == res.diag


def _assert_same_snf(A):
    got = smith_normal_form(A)
    ref = reference_smith_normal_form(A)
    assert got.U == ref.U
    assert got.D == ref.D
    assert got.V == ref.V
    assert got.u_inv == ref.u_inv
    assert got.v_inv == ref.v_inv
    assert got.diag == ref.diag


# Pivots that are not units, pivots that fail to divide the rest of their
# block (the divisibility fix-up) and empty shapes, on fixed inputs.
FIXED_CASES = [IntMatrix.from_rows(rows) for rows in [
    [[2, 0], [0, 3]],
    [[4, 0, 0], [0, 6, 0], [0, 0, 9]],
    [[2, 4], [6, 8]],
    [[6, 10, 15], [10, 15, 6]],
    [[0, 0], [0, 0], [0, 5]],
]] + [IntMatrix.zeros(0, 4), IntMatrix.zeros(4, 0), IntMatrix.zeros(0, 0)]


@pytest.mark.parametrize("A", FIXED_CASES, ids=repr)
def test_snf_matches_reference_on_fixed_cases(A):
    _assert_same_snf(A)


def test_snf_matches_reference_on_random_matrices():
    rng = random.Random("snf-reference")
    for _ in range(1500):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.random()
        bound = rng.choice([1, 2, 6, 40])
        scale = rng.choice([1, 1, 2, 3])  # no unit pivots when scale > 1
        _assert_same_snf(IntMatrix(rows, cols, [
            [scale * rng.randint(-bound, bound) if rng.random() < density
             else 0 for _ in range(cols)] for _ in range(rows)]))
        # A scrambled diagonal with coprime entries needs the fix-up.
        n = rng.randint(2, 5)
        diag = IntMatrix.zeros(n, n)
        for i in range(n):
            diag.data[i][i] = rng.choice([2, 3, 4, 5, 6, 9])
        _assert_same_snf(_random_unimodular(rng, n).matmul(diag).matmul(
            _random_unimodular(rng, n)))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_snf_matches_reference_on_grid_boundaries(k):
    for seed in range(2):
        K = torus_grid(k, f"snf-{k}-{seed}")
        for degree in (1, 2):
            _assert_same_snf(K.boundary_matrix(degree))


def test_mul_vec_matches_dense_product():
    rng = random.Random("mul-vec")
    for _ in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        M = IntMatrix(rows, cols, [[rng.choice([0, 0, 1, -1, 3])
                                    for _ in range(cols)]
                                   for _ in range(rows)])
        ints = [rng.choice([0, 0, 2, -1]) for _ in range(cols)]
        fracs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                 for _ in range(cols)]
        for v in (ints, fracs, [0] * cols, [Fraction(0)] * cols):
            dense = [sum((a * x for a, x in zip(row, v)), 0)
                     for row in M.data]
            assert M.mul_vec(v) == dense
    with pytest.raises(ShapeMismatchError):
        IntMatrix.identity(2).mul_vec([1])


def test_solve_examples():
    A = IntMatrix.from_rows([[2]])
    assert solve_linear(A, [3], INT) is None
    assert solve_linear(A, [3], RAT) == [Fraction(3, 2)]
    assert solve_linear(A, [3], mod_ring(5)) == [4]


def test_solve_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        solve_linear(IntMatrix.from_rows([[1, 2]]), [1, 2], INT)


def _brute_force_solvable(A, b, ring, box):
    values = range(-box, box + 1)
    if ring.is_mod:
        values = range(ring.modulus)
    for x in itertools.product(values, repeat=A.cols):
        ax = A.mul_vec(x)
        if ring.is_mod:
            if all((u - v) % ring.modulus == 0 for u, v in zip(ax, b)):
                return True
        elif ax == list(b):
            return True
    return False


@pytest.mark.parametrize("ring", [INT, mod_ring(4), mod_ring(6)])
def test_solve_agrees_with_bounded_brute_force(ring):
    rng = random.Random(f"solve-{ring.tag}")
    runs = 1000 if ring.is_int else 300
    for _ in range(runs):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        A = _random_matrix(rng, rows, cols, bound=3)
        x_true = [rng.randint(-2, 2) for _ in range(cols)]
        if rng.random() < 0.5:
            b = A.mul_vec(x_true)  # solvable by construction
        else:
            b = [rng.randint(-4, 4) for _ in range(rows)]
        x = solve_linear(A, b, ring)
        if x is not None:
            ax = A.mul_vec(x)
            if ring.is_mod:
                assert all((u - v) % ring.modulus == 0 for u, v in zip(ax, b))
            else:
                assert ax == list(b)
        else:
            # The bounded box is only a one-sided oracle over Z (solutions can
            # be large), but coefficients here are small enough that any
            # solvable system has a solution inside the box for mod rings.
            if ring.is_mod:
                assert not _brute_force_solvable(A, b, ring, 0)
            else:
                assert not _brute_force_solvable(A, b, ring, 6)


def test_solve_rational_matches_sympy():
    rng = random.Random("solve-rat")
    for _ in range(200):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        A = _random_matrix(rng, rows, cols, bound=4)
        b = [rng.randint(-5, 5) for _ in range(rows)]
        x = solve_linear(A, b, RAT)
        M = sympy.Matrix(A.data)
        rhs = sympy.Matrix(b)
        sols = list(sympy.linsolve((M, rhs)))
        if x is None:
            assert sols == []
        else:
            assert A.mul_vec(x) == b


def test_kernel_examples():
    assert kernel_basis(IntMatrix.from_rows([[1, 1]]), RAT) == [
        [Fraction(-1), Fraction(1)]] or kernel_basis(
            IntMatrix.from_rows([[1, 1]]), RAT) == [[Fraction(1), Fraction(-1)]]
    assert kernel_basis(IntMatrix.identity(2), INT) == []
    assert kernel_basis(IntMatrix.from_rows([[2]]), mod_ring(4)) == [[2]]


def test_kernel_vectors_annihilate_and_span():
    rng = random.Random("kernel")
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        A = _random_matrix(rng, rows, cols, bound=4)
        for ring in (INT, RAT, mod_ring(6)):
            basis = kernel_basis(A, ring)
            for vec in basis:
                av = A.mul_vec(vec)
                if ring.is_mod:
                    assert all(v % ring.modulus == 0 for v in av)
                else:
                    assert all(v == 0 for v in av)
        rat_basis = kernel_basis(A, RAT)
        rank = sympy.Matrix(A.data).rank()
        assert len(rat_basis) == cols - rank
