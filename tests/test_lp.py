"""The integer-tableau LP against the Fraction-tableau reference.

Bland's rule reads only signs and ratio comparisons, so the fraction-free
solver must take exactly the reference's pivots: value, vertex, duals and
pivot count are compared for equality, as is infeasibility.
"""

import random
from fractions import Fraction

import pytest

from homnorm.lp import LPInfeasibleError, solve_standard_lp

from oracles import reference_solve_standard_lp

DENOMINATORS = (1, 1, 1, 2, 3, 4, 5, 7)


def rand_rational(rng, lo, hi):
    q = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(lo * q, hi * q), q)


def random_lp(rng):
    """A seeded LP with rational data, of one of four kinds.

    ``feasible``: b = A x0 for a nonnegative x0, with rows negated at random
    so some right-hand sides are negative.  ``redundant``: the same plus
    rows that combine earlier rows, which leaves artificials basic at level
    zero after phase 1 and exercises the drive-out step, including pivots on
    negative entries.  ``infeasible``: b drawn independently of A.
    ``integer``: int entries only, the form ``min_real`` passes.
    """
    kind = rng.choice(("feasible", "feasible", "redundant", "infeasible",
                       "integer"))
    m = rng.randint(1, 6)
    n = rng.randint(1, 9)
    density = rng.choice((0.3, 0.6, 1.0))

    def entry():
        if rng.random() > density:
            return Fraction(0)
        if kind == "integer":
            return Fraction(rng.randint(-3, 3))
        return rand_rational(rng, -3, 3)

    A = [[entry() for _ in range(n)] for _ in range(m)]
    if kind == "redundant":
        for _ in range(rng.randint(1, 3)):
            u, v = rng.randrange(len(A)), rng.randrange(len(A))
            s, t = rand_rational(rng, -2, 2), rand_rational(rng, -2, 2)
            A.append([s * a + t * b for a, b in zip(A[u], A[v])])
        rng.shuffle(A)
    if kind == "infeasible":
        b = [rand_rational(rng, -4, 4) for _ in A]
    else:
        x0 = [rand_rational(rng, 0, 3) if rng.random() < 0.6 else Fraction(0)
              for _ in range(n)]
        b = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in A]
    for i in range(len(A)):
        if rng.random() < 0.3:
            A[i] = [-a for a in A[i]]
            b[i] = -b[i]
    c = [rand_rational(rng, 0, 4) if rng.random() < 0.8 else Fraction(0)
         for _ in range(n)]
    if kind == "integer":
        A = [[int(a) for a in row] for row in A]
        b = [int(v) if v.denominator == 1 else v for v in b]
        c = [int(v) if v.denominator == 1 else v for v in c]
    return A, b, c


def outcome(solver, A, b, c):
    try:
        res = solver(A, b, c)
    except LPInfeasibleError:
        return "infeasible"
    return (res.value, res.x, res.duals, res.pivots)


@pytest.mark.parametrize("seed", range(30))
def test_matches_fraction_reference(seed):
    rng = random.Random(seed)
    infeasible = 0
    for _ in range(40):
        A, b, c = random_lp(rng)
        got = outcome(solve_standard_lp, A, b, c)
        assert got == outcome(reference_solve_standard_lp, A, b, c), (A, b, c)
        infeasible += got == "infeasible"
        if got != "infeasible":
            value, x, duals, _ = got
            assert all(isinstance(v, Fraction) for v in x + duals + [value])
    assert 0 < infeasible < 40


def test_drive_out_pivots_on_a_negative_entry():
    # Row 2 is minus row 1 and b = 0: phase 1 makes no pivot, and driving the
    # first artificial out of the basis pivots on the entry -1.
    A = [[-1, 1], [1, -1]]
    b = [0, 0]
    c = [Fraction(1, 2), Fraction(1, 3)]
    got = outcome(solve_standard_lp, A, b, c)
    assert got == outcome(reference_solve_standard_lp, A, b, c)
    assert got == (0, [0, 0], [Fraction(-1, 2), 0], 1)


def test_no_constraints():
    res = solve_standard_lp([], [], [Fraction(1), 2])
    assert (res.value, res.x, res.duals, res.pivots) == (0, [0, 0], [], 0)


@pytest.mark.parametrize("A,b,c", [
    ([[1, 2]], [1, 2], [1, 1]),
    ([[1, 2]], [1], [1]),
    ([[1, 2], [1]], [1, 1], [1, 1]),
    ([], [1], [1]),
])
def test_shape_mismatch(A, b, c):
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_standard_lp(A, b, c)
