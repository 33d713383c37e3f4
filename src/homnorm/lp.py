"""Exact two-phase simplex with Bland's rule and dual extraction.

The tableau is fraction-free: it holds integers T = D * F, where F is the
rational tableau of the current basis and D = |det(basis)| is one common
denominator, updated by Edmonds/Bareiss integer-preserving pivots.  Every
division in a pivot is exact, so no floating point and no per-entry
fractions occur; results are returned as exact rationals.

Bland's rule (lowest eligible index enters, ratio ties broken by lowest
basic variable index) guarantees termination and makes every pivot
sequence, hence every reported vertex and dual, deterministic.  It reads
only signs and ratio comparisons, which D > 0 and the positive input
scalings below leave unchanged, so the integer tableau takes the same
pivots as a rational one would.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Sequence, Union

Rational = Union[int, Fraction]


class LPInfeasibleError(ValueError):
    pass


@dataclass
class LPResult:
    value: Fraction
    x: list[Fraction]
    duals: list[Fraction]
    pivots: int


def _scaled(v: Rational, scale: int) -> int:
    """v * scale as an int, for a scale that v's denominator divides."""
    return v.numerator * (scale // v.denominator)


def solve_standard_lp(A: Sequence[Sequence[Rational]], b: Sequence[Rational],
                      c: Sequence[Rational]) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0 (entries int or Fraction).

    Returns the optimal basic solution and the exact dual vector y with
    y.b = value and y.A <= c componentwise.  Raises LPInfeasibleError when
    the constraints admit no nonnegative solution; the objectives used in
    this package are bounded below by zero, so unboundedness is a bug.
    """
    m = len(A)
    n = len(A[0]) if m else len(c)
    if len(b) != m or len(c) != n or any(len(row) != n for row in A):
        raise ValueError("LP shape mismatch")
    if m == 0:
        return LPResult(Fraction(0), [Fraction(0)] * n, [], 0)

    # Integer data: column j of A times col_scale[j] (x_j = col_scale[j] *
    # x'_j / b_scale), b times b_scale and c times c_scale * col_scale[j].
    # All scales are positive, so no sign or ratio comparison changes.
    int_rows = [set(map(type, row)) <= {int} for row in A]
    col_scale = [1] * n
    for row, is_int in zip(A, int_rows):
        if not is_int:
            col_scale = [lcm(s, v.denominator) for s, v in zip(col_scale, row)]
    unit_scale = col_scale == [1] * n
    b_scale = lcm(*(v.denominator for v in b))
    c_scale = lcm(*(v.denominator for v in c))
    cost_int = [_scaled(v, c_scale) * s for v, s in zip(c, col_scale)]

    width = n + m + 1  # structural | artificial | rhs
    rhs = width - 1
    flipped = [False] * m
    tableau: list[list[int]] = []
    for i in range(m):
        if unit_scale and int_rows[i]:
            row = list(A[i])
        else:
            row = [_scaled(v, s) for v, s in zip(A[i], col_scale)]
        bi = _scaled(b[i], b_scale)
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
            flipped[i] = True
        row.extend([0] * m)
        row[n + i] = 1
        row.append(bi)
        tableau.append(row)
    basis = [n + i for i in range(m)]
    pivots = 0
    denom = 1

    def pivot(t: int, j: int) -> None:
        # Each row r becomes (p*r - r[j]*T[t]) / D exactly; the pivot row
        # keeps its entries and p becomes the new common denominator.
        nonlocal pivots, denom
        pivots += 1
        row = tableau[t]
        p = row[j]
        if p < 0:  # only when driving an artificial out of the basis
            tableau[t] = row = [-v for v in row]
            p = -p
        d = denom
        if p == d:
            # The update is r - r[j]*T[t]/D: rows with r[j] == 0 stay, and
            # the others change only where the pivot row is nonzero.
            support = [(k, row[k]) for k in compress(range(len(row)), row)]
            for rr in tableau + [cost]:
                f = rr[j]
                if f and rr is not row:
                    for k, v in support:
                        rr[k] -= f * v // d
        else:
            for rr in tableau + [cost]:
                if rr is not row:
                    f = rr[j]
                    rr[:] = [(p * a - f * v) // d for a, v in zip(rr, row)]
        denom = p
        basis[t] = j

    def run(allowed: int) -> None:
        # Bland's rule: smallest eligible entering index; leaving row by
        # minimum ratio rhs/a over a > 0 (compared by cross-multiplying),
        # ties by smallest basic variable index.
        while True:
            enter = -1
            for j in range(allowed):
                if cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best_r = best_a = 0
            for i in range(m):
                a = tableau[i][enter]
                if a > 0:
                    r = tableau[i][rhs]
                    if leave < 0:
                        better = True
                    else:
                        left, right = r * best_a, best_r * a
                        better = left < right or (
                            left == right and basis[i] < basis[leave])
                    if better:
                        best_r, best_a = r, a
                        leave = i
            if leave < 0:
                raise AssertionError("LP unbounded; objective should be >= 0")
            pivot(leave, enter)

    # Phase 1: minimize the artificial sum.
    cost = [-total for total in map(sum, zip(*tableau))]
    for i in range(m):
        cost[n + i] += 1
    run(n + m)
    if cost[rhs] != 0:
        raise LPInfeasibleError("constraints admit no nonnegative solution")
    # Drive artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tableau[i][j] != 0:
                    pivot(i, j)
                    break

    # Phase 2: the real objective (artificials barred from entering).
    cost = [denom * v for v in cost_int] + [0] * (m + 1)
    for i in range(m):
        cb = cost_int[basis[i]] if basis[i] < n else 0
        if cb:
            for k, v in enumerate(tableau[i]):
                if v:
                    cost[k] -= cb * v
    run(n)

    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(tableau[i][rhs] * col_scale[bi], denom * b_scale)
    duals = []
    for i in range(m):
        y = Fraction(-cost[n + i], denom * c_scale)
        duals.append(-y if flipped[i] else y)
    return LPResult(Fraction(-cost[rhs], denom * b_scale * c_scale), x, duals,
                    pivots)

