"""Smith normal form and matrix products, cross-checked against sympy
oracles and against the dense reference Smith normal form."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from homnorm.intlinalg import ShapeMismatchError, sparse_smith_normal_form

from conftest import torus_grid
from oracles import (IntMatrix, boundary_matrix, densify,
                     reference_smith_normal_form, smith_normal_form,
                     solve_with_snf)


def _check_snf(A):
    res = smith_normal_form(A)
    assert res.U.matmul(A).matmul(res.V) == res.D
    # Integer inverses certify |det| = 1.
    ref = reference_smith_normal_form(A)
    assert res.U.matmul(ref.u_inv) == IntMatrix.identity(A.rows)
    assert res.V.matmul(ref.v_inv) == IntMatrix.identity(A.cols)
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


def _sparse(values):
    return dict(itertools.compress(enumerate(values), values))


def _assert_same_snf(A):
    full = sparse_smith_normal_form([_sparse(row) for row in A.data], A.cols)
    got = densify(full)
    ref = reference_smith_normal_form(A)
    assert got.U == ref.U
    assert got.D == ref.D
    assert got.V == ref.V
    assert got.diag == ref.diag
    # The inverses keep every line but those of the unit invariant
    # factors, and the kept lines are the reference's.
    unit = {j for j, e in enumerate(ref.diag) if e == 1}
    for lines, line_of in ((full.u_inv_cols, ref.u_inv.column),
                           (full.v_inv_rows, lambda j: ref.v_inv.data[j])):
        assert {j for j, line in enumerate(lines) if line is None} == unit
        for j, line in enumerate(lines):
            if j not in unit:
                assert line == _sparse(line_of(j))
    # Tracking one side's pair alone reduces the same way and keeps that
    # pair exactly; the other pair is not built.
    for track, kept, dropped in TRACKED:
        part = sparse_smith_normal_form([_sparse(row) for row in A.data],
                                        A.cols, _track=track)
        assert part.diag == full.diag
        for name in kept:
            assert getattr(part, name) == getattr(full, name), (track, name)
        for name in dropped:
            assert getattr(part, name) is None, (track, name)


TRACKED = [("u", ("u_rows", "u_inv_cols"), ("v_cols", "v_inv_rows")),
           ("v", ("v_cols", "v_inv_rows"), ("u_rows", "u_inv_cols"))]


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
            _assert_same_snf(boundary_matrix(K, degree))


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


def test_solve_with_snf_agrees_with_bounded_brute_force():
    # The reference mod-n decomposition solves through this oracle.
    rng = random.Random("solve-snf")
    for _ in range(1000):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        A = _random_matrix(rng, rows, cols, bound=3)
        x_true = [rng.randint(-2, 2) for _ in range(cols)]
        solvable = rng.random() < 0.5
        if solvable:
            b = A.mul_vec(x_true)
        else:
            b = [rng.randint(-4, 4) for _ in range(rows)]
        x = solve_with_snf(smith_normal_form(A), b)
        if x is not None:
            assert A.mul_vec(x) == b
        else:
            # The box is a one-sided oracle: solutions over Z can be large.
            assert not solvable
            assert not any(A.mul_vec(y) == b for y in
                           itertools.product(range(-6, 7), repeat=cols))
