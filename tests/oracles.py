"""Independent brute-force oracles for the minimizer engines.

The searches here enumerate bounded coefficient boxes outright (no lattice
parametrization, no pruning beyond the mass budget) and decide class
membership through sympy's Hermite normal form, so they share no nontrivial
code path with the engines they check.  ``reference_solve_standard_lp`` is
the dense Fraction-tableau simplex the integer-tableau LP must agree with
pivot for pivot.
"""

from fractions import Fraction
from itertools import combinations, product

import sympy
from sympy.matrices.normalforms import hermite_normal_form

from homnorm.complexes import Chain, mass
from homnorm.homology import homology_decomposition
from homnorm.lp import LPInfeasibleError, LPResult
from homnorm.rings import INT, canonical_lift


def _frac(x) -> Fraction:
    r = sympy.Rational(x)
    return Fraction(int(r.p), int(r.q))


def weight_scale(K, d):
    from math import lcm
    weights = K.weights[d]
    scale = 1
    for w in weights:
        scale = lcm(scale, w.denominator)
    return scale, [int(w * scale) for w in weights]


def lattice_membership_tester(columns, dim):
    """Returns v -> bool for membership of v in the integer column span."""
    cols = [c for c in columns if any(c)]
    if not cols:
        return lambda v: not any(v)
    A = sympy.Matrix([[col[i] for col in cols] for i in range(dim)])
    H = hermite_normal_form(A)

    def member(v):
        if H.cols == 0:
            return not any(v)
        try:
            sol, params = H.gauss_jordan_solve(sympy.Matrix(list(v)))
        except ValueError:
            return False
        if params.rows * params.cols:
            raise AssertionError("HNF should have full column rank")
        return all(x.is_Integer for x in sol)

    return member


def mass_bounded_vectors(wnum, budget):
    """All integer vectors with sum w_i |x_i| <= budget."""
    n = len(wnum)
    vec = [0] * n

    def rec(i, rem):
        if i == n:
            yield tuple(vec)
            return
        w = wnum[i]
        top = rem // w
        for v in range(-top, top + 1):
            vec[i] = v
            yield from rec(i + 1, rem - w * abs(v))

    yield from rec(0, budget)


def brute_force_min_int(K, d, c):
    """Exhaustive minimum over integral chains in class c inside the sound box."""
    dec = homology_decomposition(K, d)
    z0 = [int(v) for v in dec.representative_vector(c)]
    scale, wnum = weight_scale(K, d)
    budget = sum(w * abs(v) for w, v in zip(wnum, z0))
    A = K.boundary_matrix_or_empty(d)
    B = K.boundary_matrix_or_empty(d + 1)
    member = lattice_membership_tester(
        [B.column(j) for j in range(B.cols)], K.n_simplices(d))
    best = None
    sols = []
    for x in mass_bounded_vectors(wnum, budget):
        if any(A.mul_vec(x)):
            continue
        if not member([a - b for a, b in zip(x, z0)]):
            continue
        m = sum(w * abs(v) for w, v in zip(wnum, x))
        if best is None or m < best:
            best, sols = m, [x]
        elif m == best:
            sols.append(x)
    assert best is not None, "reference representative must be feasible"
    chains = {Chain.from_vector(K, d, INT, x) for x in sols}
    return Fraction(best, scale), chains


def brute_force_min_mod(K, d, c):
    """Exhaustive minimum over mod-n chains in class c (full residue space)."""
    n = c.ring.modulus
    dec = homology_decomposition(K, d)
    z0 = [int(v) % n for v in dec.representative_vector(c)]
    scale, wnum = weight_scale(K, d)
    A = K.boundary_matrix_or_empty(d)
    B = K.boundary_matrix_or_empty(d + 1)
    n_simp = K.n_simplices(d)
    m = B.cols
    boundary_residues = set()
    for y in product(range(n), repeat=m):
        vec = tuple(v % n for v in B.mul_vec(y))
        boundary_residues.add(vec)
    best = None
    sols = []
    for x in product(range(n), repeat=n_simp):
        if any(v % n for v in A.mul_vec(x)):
            continue
        diff = tuple((a - b) % n for a, b in zip(x, z0))
        if diff not in boundary_residues:
            continue
        mval = sum(w * abs(canonical_lift(v, n)) for w, v in zip(wnum, x))
        if best is None or mval < best:
            best, sols = mval, [x]
        elif mval == best:
            sols.append(x)
    assert best is not None
    chains = {Chain.make(K, d, c.ring, {i: v for i, v in enumerate(x) if v})
              for x in sols}
    return Fraction(best, scale), chains


def brute_force_min_real(K, d, c):
    """LP value by enumerating the vertices of the arrangement {x_s = 0}."""
    dec = homology_decomposition(K, d)
    z0 = [Fraction(v) for v in dec.representative_vector(c)]
    B = K.boundary_matrix_or_empty(d + 1)
    n_simp = K.n_simplices(d)
    weights = K.weights[d]

    def value_at(x):
        return sum((w * abs(v) for w, v in zip(weights, x)), Fraction(0))

    M = sympy.Matrix([[B.data[i][j] for j in range(B.cols)]
                      for i in range(n_simp)]) if B.cols else None
    if M is None or M.rank() == 0:
        return value_at(z0)
    pivots = M.rref()[1]
    cols = [M.col(j) for j in pivots]
    r = len(cols)
    Mb = sympy.Matrix.hstack(*cols)
    best = value_at(z0)
    for rows in combinations(range(n_simp), r):
        sub = Mb[list(rows), :]
        if sub.det() == 0:
            continue
        rhs = sympy.Matrix([-sympy.Rational(z0[i]) for i in rows])
        y = sub.solve(rhs)
        x = [z0[i] + sum((_frac(Mb[i, k]) * _frac(y[k]) for k in range(r)),
                         Fraction(0))
             for i in range(n_simp)]
        v = value_at(x)
        if v < best:
            best = v
    return best


def reference_solve_standard_lp(A, b, c) -> LPResult:
    """The dense ``Fraction``-tableau two-phase simplex with Bland's rule.

    Reference for ``homnorm.lp.solve_standard_lp``, which must take the same
    pivots and return the same value, vertex and duals.
    Minimize c.x subject to A x = b, x >= 0 (all entries exact rationals).

    Returns the optimal basic solution and the exact dual vector y with
    y.b = value and y.A <= c componentwise.  Raises LPInfeasibleError when
    the constraints admit no nonnegative solution; the objectives used in
    this package are bounded below by zero, so unboundedness is a bug.
    """
    m = len(A)
    n = len(A[0]) if m else len(c)
    if len(b) != m or len(c) != n:
        raise ValueError("LP shape mismatch")
    if m == 0:
        return LPResult(Fraction(0), [Fraction(0)] * n, [], 0)

    width = n + m + 1  # structural | artificial | rhs
    flipped = [False] * m
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
            flipped[i] = True
        row.extend(Fraction(0) for _ in range(m))
        row[n + i] = Fraction(1)
        row.append(rhs)
        tableau.append(row)
    basis = [n + i for i in range(m)]
    pivots = 0

    def pivot(t: int, j: int) -> None:
        nonlocal pivots
        pivots += 1
        row = tableau[t]
        pv = row[j]
        tableau[t] = row = [v / pv for v in row]
        for rr in tableau:
            if rr is row:
                continue
            f = rr[j]
            if f:
                for k in range(width):
                    rr[k] -= f * row[k]
        f = cost[j]
        if f:
            for k in range(width):
                cost[k] -= f * row[k]
        basis[t] = j

    def run(allowed: int) -> None:
        # Bland's rule: smallest eligible entering index; leaving row by
        # minimum ratio, ties by smallest basic variable index.
        while True:
            enter = -1
            for j in range(allowed):
                if cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best = None
            for i in range(m):
                a = tableau[i][enter]
                if a > 0:
                    ratio = tableau[i][width - 1] / a
                    if best is None or ratio < best or (
                            ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                raise AssertionError("LP unbounded; objective should be >= 0")
            pivot(leave, enter)

    # Phase 1: minimize the artificial sum.
    cost = [Fraction(0)] * width
    for j in range(width):
        total = Fraction(0)
        for i in range(m):
            total += tableau[i][j]
        cost[j] = (Fraction(1) if n <= j < n + m else Fraction(0)) - total
    run(n + m)
    if -cost[width - 1] != 0:
        raise LPInfeasibleError("constraints admit no nonnegative solution")
    # Drive artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tableau[i][j] != 0:
                    pivot(i, j)
                    break

    # Phase 2: the real objective (artificials barred from entering).
    cost = [Fraction(0)] * width
    for j in range(width):
        cj = Fraction(c[j]) if j < n else Fraction(0)
        total = Fraction(0)
        for i in range(m):
            cb = Fraction(c[basis[i]]) if basis[i] < n else Fraction(0)
            if cb:
                total += cb * tableau[i][j]
        cost[j] = cj - total
    run(n)

    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tableau[i][width - 1]
    duals = []
    for i in range(m):
        y = -cost[n + i]
        duals.append(-y if flipped[i] else y)
    return LPResult(-cost[width - 1], x, duals, pivots)
