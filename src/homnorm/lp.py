"""Exact simplex for the optimal-homologous-chain LP, with Bland's rule.

``min_real`` minimizes sum_i w_i |x_i| over x = z0 + D y, D the boundary
from the cofaces (Dey-Hirani-Krishnamoorthy, *Optimal homologous cycles,
total unimodularity, and linear programming*, 2011), as the sign-split LP

    minimize w.x+ + w.x-  subject to  x+ - x- - D y+ + D y- = z0,  all >= 0.

This module solves that LP, and only that LP, on its structure; ``min_real``
calls it in degree >= 2 (degree 1 is solved by cutting planes over H^1).

The tableau is fraction-free: it holds integers T = Det * F, where F is the
rational tableau of the current basis and Det = |det(basis)| is one common
denominator, updated by Edmonds/Bareiss integer-preserving pivots.  Every
division in a pivot is exact, so no floating point and no per-entry
fractions occur; results are returned as exact rationals.  D is integral,
so only the right-hand side and the costs are scaled to integers.

Bland's rule (lowest eligible index enters, ratio ties broken by lowest
basic variable index) guarantees termination and makes every pivot
sequence, hence every reported vertex and dual, deterministic.  It reads
only signs and ratio comparisons, which Det > 0 and the positive scalings
leave unchanged, so the integer tableau takes the pivots a rational one
would.

Two facts make this LP cheaper than a generic one of its size.

* Its columns come in pairs equal up to sign: x+_i and x-_i, y+_j and y-_j,
  and, once row i is multiplied by sigma_i (the sign of z0_i, +1 at zero),
  the two-phase method's artificial a_i and sigma_i * x+_i.  So the tableau
  keeps one column per pair: the unit block (which is Det * B^-1), one
  boundary column per coface and the right-hand side.  Only the cost row
  keeps every column, so Bland scans the index order x+ | x- | y+ | y- of
  the generic method, and each pivot updates it through the twins.
* Phase 1 can be skipped.  From the all-artificial basis it always takes
  exactly one pivot per row, x+_i where z0_i >= 0 and x-_i otherwise: those
  are the lowest eligible columns, each zero off row i with a unit entry
  there, so the pivots leave the tableau as it is and end at the feasible
  basis x = z0, y = 0.  Phase 2 starts there, takes the pivots it would
  take after phase 1 and returns the same vertex, duals and value; only
  the phase-2 pivots are counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import itemgetter
from typing import Sequence


@dataclass
class LPResult:
    value: Fraction
    x: list[Fraction]
    duals: list[Fraction]
    pivots: int


def solve_cycle_lp(z0: Sequence[Fraction], weights: Sequence[Fraction],
                   cofaces: Sequence[Sequence[tuple[int, int]]]) -> LPResult:
    """Minimize sum_i w_i |x_i| over x = z0 + D y exactly, where column j of
    D has the (row, sign) entries ``cofaces[j]``, signs +-1.

    Returns the optimal basic solution of the sign-split LP as x+ | x- |
    y+ | y- and the exact dual vector phi: phi.z0 = value, |phi_i| <= w_i
    and phi vanishes on every column of D.
    """
    n, m = len(z0), len(cofaces)
    if len(weights) != n:
        raise ValueError("LP shape mismatch")
    b_scale = lcm(*(v.denominator for v in z0))
    c_scale = lcm(*(v.denominator for v in weights))
    w = [v.numerator * (c_scale // v.denominator) for v in weights]
    sigma = [1 if v >= 0 else -1 for v in z0]

    # Compact columns: the unit block 0..n-1, y-_j at n+j and the
    # right-hand side at n+m; row i is multiplied by sigma_i.
    rhs = n + m
    tableau = [[0] * (rhs + 1) for _ in range(n)]
    for i, row in enumerate(tableau):
        row[i] = 1
        row[rhs] = abs(z0[i].numerator * (b_scale // z0[i].denominator))
    for j, faces in enumerate(cofaces):
        for i, sign in faces:
            tableau[i][n + j] = sigma[i] * sign
    basis = [i if s > 0 else n + i for i, s in enumerate(sigma)]

    # Full columns x+ | x- | y+ | y- | a | rhs as (compact column, sign).
    n_struct = 2 * n + 2 * m
    column = ([(i, s) for i, s in enumerate(sigma)]
              + [(i, -s) for i, s in enumerate(sigma)]
              + [(n + j, -1) for j in range(m)] + [(n + j, 1) for j in range(m)]
              + [(i, 1) for i in range(n)] + [(rhs, 1)])
    twins: list[list[tuple[int, int]]] = [[] for _ in range(rhs + 1)]
    for k, (q, s) in enumerate(column):
        twins[q].append((k, s))

    # Phase-2 cost row c_k - sum_i c_basis(i) T[i][k] at Det = 1; the basic
    # cost of row i is w_i whichever sign of x_i is basic.
    priced = w + [sum(w[i] * sigma[i] * sign for i, sign in faces)
                  for faces in cofaces]
    priced.append(sum(wi * row[rhs] for wi, row in zip(w, tableau)))
    cost = [c - s * priced[q]
            for c, (q, s) in zip(w + w + [0] * (2 * m + n + 1), column)]
    # The structural columns of negative cost: Bland's entering column is
    # the least of them, and a pivot changes costs only on its support.
    negative = {k for k in range(n_struct) if cost[k] < 0}
    pivots = 0
    denom = 1

    while negative:
        # Bland's rule: smallest eligible entering index; leaving row by
        # minimum ratio rhs/a over a > 0 (compared by cross-multiplying),
        # ties by smallest basic variable index.
        enter = min(negative)
        q, s = column[enter]
        col = list(map(itemgetter(q), tableau))
        hits = list(compress(range(n), col))
        leave = -1
        best_r = best_a = 0
        for i in hits:
            a = s * col[i]
            if a > 0:
                r = tableau[i][rhs]
                if leave < 0 or r * best_a < best_r * a or (
                        r * best_a == best_r * a and basis[i] < basis[leave]):
                    best_r, best_a, leave = r, a, i
        if leave < 0:
            raise AssertionError("LP unbounded; objective should be >= 0")

        # Each row r becomes (p*r - r[q]*T[leave]) / Det exactly; the pivot
        # row keeps its entries and p becomes the new common denominator.
        pivots += 1
        prow = tableau[leave]
        p, d, fc = best_a, denom, cost[enter]
        if p == d:
            # The update is r - r[q]*T[leave]/Det: rows with r[q] == 0 stay,
            # and the others change only where the pivot row is nonzero.
            support = [(k, prow[k]) for k in compress(range(rhs + 1), prow)]
            for i in hits:
                if i != leave:
                    row, f = tableau[i], s * col[i]
                    if d == 1:
                        for k, v in support:
                            row[k] -= f * v
                    else:
                        for k, v in support:
                            row[k] -= f * v // d
            for k, v in support:
                g = fc * v // d
                for kk, sk in twins[k]:
                    c = cost[kk] = cost[kk] - sk * g
                    if c < 0 and kk < n_struct:
                        negative.add(kk)
                    else:
                        negative.discard(kk)
        else:
            for row, f in zip(tableau, col):
                if row is not prow:
                    f *= s
                    row[:] = [(p * a - f * v) // d for a, v in zip(row, prow)]
            cost = [(p * c - fc * sk * prow[k]) // d
                    for c, (k, sk) in zip(cost, column)]
            negative = {k for k in range(n_struct) if cost[k] < 0}
        denom = p
        basis[leave] = enter

    zero = Fraction(0)
    x = [zero] * n_struct
    for row, k in zip(tableau, basis):
        if row[rhs]:
            x[k] = Fraction(row[rhs], denom * b_scale)
    duals = [Fraction(-s * c, denom * c_scale) if c else zero
             for s, c in zip(sigma, cost[n_struct:-1])]
    return LPResult(Fraction(-cost[-1], denom * b_scale * c_scale), x, duals,
                    pivots)
