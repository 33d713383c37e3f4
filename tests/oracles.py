"""Independent brute-force oracles for the minimizer engines.

The searches here enumerate bounded coefficient boxes outright (no lattice
parametrization, no pruning beyond the mass budget) and decide class
membership through sympy's Hermite normal form, so they share no nontrivial
code path with the engines they check.  ``reference_solve_standard_lp`` is
the generic dense Fraction-tableau two-phase simplex, which the structured
LP must agree with pivot for pivot once its phase 1 is done,
``reference_smith_normal_form`` the dense Smith normal form whose
transforms the sparse one must reproduce exactly (the inverses in the
lines it keeps), and
``reference_search_lattice`` the sorting, dense-column branch-and-bound whose
nodes, minimizers and order the engines' search must reproduce (and whose
minimizers and order it must keep when it prunes on a bound),
``reference_echelon_columns`` the dense column echelon whose pivots the
sparse one must reproduce, with every n * e_r column listed up front,
``ReferenceModDecomposition`` the mod-n decomposition that presents the
lifted cycle lattice modulo boundaries and n * chains and runs Smith normal
forms of its own for each n, against which the closed-form one is checked,
``ReferenceHomologyDecomposition`` the integral decomposition built
from dense transforms and dense products, whose bases, coordinates and
representatives the sparse one must reproduce, ``reference_load`` and
``reference_faces`` the document reader that checks face closure apart from
building the face tables and parses every weight literal, whose messages,
simplices, weights and faces the loader must reproduce, and
``reference_is_closed`` and ``reference_comass`` the Fraction definitions
the integer-scale certificate checks must agree with.

The oracles and the tests compute with dense matrices: ``IntMatrix``,
``boundary_matrix`` (the boundary operator read off ``K.faces``) and
``smith_normal_form`` (the library's sparse Smith normal form with U, D
and V densified by ``densify``).  The library keeps no inverse line of a
unit invariant factor, so an oracle that needs U^-1 or V^-1 takes them
from ``reference_smith_normal_form``.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, product
from math import gcd
from operator import mul
from typing import Mapping, Optional, Sequence

import sympy
from sympy.matrices.normalforms import hermite_normal_form

from homnorm.complexes import Chain, ComplexFormatError, NotACycleError, mass
from homnorm.homology import HomologyDecomposition, homology_decomposition
from homnorm.intlinalg import (ShapeMismatchError, SNFResult,
                               sparse_smith_normal_form)
from homnorm.lp import LPResult
from homnorm.rings import (INT, canonical_lift, factorize, format_rational,
                           parse_rational)


class LPInfeasibleError(ValueError):
    """``reference_solve_standard_lp`` found no nonnegative solution."""


class IntMatrix:
    """Matrix of arbitrary-precision integers, stored as a list of rows."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[list[int]]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeMismatchError(f"data does not match shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        data = [list(map(int, r)) for r in rows]
        ncols = len(data[0]) if data else 0
        return cls(len(data), ncols, data)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        if any(len(col) != rows for col in cols):
            raise ShapeMismatchError("column length mismatch")
        if not cols:
            return cls.zeros(rows, 0)
        return cls(rows, len(cols), [list(map(int, r)) for r in zip(*cols)])

    def copy(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [row[:] for row in self.data])

    def column(self, j: int) -> list[int]:
        return [self.data[i][j] for i in range(self.rows)]

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatchError("matmul shape mismatch")
        out = IntMatrix.zeros(self.rows, other.cols)
        for i in range(self.rows):
            arow = self.data[i]
            orow = out.data[i]
            for k, a in enumerate(arow):
                if a:
                    brow = other.data[k]
                    for j in range(other.cols):
                        orow[j] += a * brow[j]
        return out

    def mul_vec(self, v: Sequence) -> list:
        """The product with v (ints or Fractions), over v's nonzeros."""
        if len(v) != self.cols:
            raise ShapeMismatchError("vector length mismatch")
        support = list(compress(range(len(v)), v))
        values = [v[k] for k in support]
        return [sum(map(mul, map(row.__getitem__, support), values))
                for row in self.data]

    def is_zero(self) -> bool:
        return all(not v for row in self.data for v in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.data})"


def boundary_matrix(K, d: int) -> IntMatrix:
    """Dense matrix of the boundary operator in degree d (rows: the
    (d-1)-simplices) read off ``K.faces(d)``, with the chain-complex ends
    filled in as empty maps."""
    if d <= 0:
        return IntMatrix.zeros(0, K.n_simplices(0))
    if d > K.dim:
        return IntMatrix.zeros(K.n_simplices(K.dim), 0)
    m = IntMatrix.zeros(K.n_simplices(d - 1), K.n_simplices(d))
    for j, faces in enumerate(K.faces(d)):
        for i, sign in faces:
            m.data[i][j] = sign
    return m


@dataclass
class DenseSNF:
    """U A V = D with dense transforms and their inverses (None when the
    form came from the library, which keeps only some inverse lines)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    diag: tuple[int, ...]
    u_inv: Optional[IntMatrix]
    v_inv: Optional[IntMatrix]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d)


def _dense(rows: int, cols: int, lines: Sequence[Mapping[int, int]],
           by_column: bool = False) -> IntMatrix:
    """The dense matrix whose rows (columns, when ``by_column``) are ``lines``."""
    data = [[0] * cols for _ in range(rows)]
    for a, line in enumerate(lines):
        for b, v in line.items():
            if by_column:
                data[b][a] = v
            else:
                data[a][b] = v
    return IntMatrix(rows, cols, data)


def densify(res: SNFResult) -> DenseSNF:
    """The dense U, D and V of a sparse Smith normal form, from its lines."""
    rows, cols = len(res.u_rows), len(res.v_cols)
    return DenseSNF(
        U=_dense(rows, rows, res.u_rows),
        D=_dense(rows, cols, [{i: d} for i, d in enumerate(res.diag)]),
        V=_dense(cols, cols, res.v_cols, by_column=True),
        diag=res.diag, u_inv=None, v_inv=None)


def smith_normal_form(A: IntMatrix) -> DenseSNF:
    """``sparse_smith_normal_form`` of a dense matrix, densified."""
    return densify(sparse_smith_normal_form(
        [dict(compress(enumerate(row), row)) for row in A.data], A.cols))


def solve_with_snf(res: DenseSNF, b: Sequence[int]) -> Optional[list[int]]:
    c = res.U.mul_vec(b)
    y = [0] * res.D.cols
    for i, ci in enumerate(c):
        di = res.D.data[i][i] if i < len(res.diag) else 0
        if di:
            if ci % di:
                return None
            y[i] = ci // di
        elif ci:
            return None
    return res.V.mul_vec(y)


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
    A = boundary_matrix(K, d)
    B = boundary_matrix(K, d + 1)
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
    A = boundary_matrix(K, d)
    B = boundary_matrix(K, d + 1)
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
    B = boundary_matrix(K, d + 1)
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

    Reference for ``homnorm.lp.solve_cycle_lp``: on the sign-split LP it
    takes one phase-1 pivot per row and then the same pivots as
    ``solve_cycle_lp``, and returns the same value, vertex and duals.
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


def reference_split_lp(z0, weights, B) -> LPResult:
    """``reference_solve_standard_lp`` on the dense sign-split LP of
    min sum_i w_i |x_i| over x = z0 + B y: rows [I | -I | -B | B] = z0,
    costs (w, w, 0, 0).  ``B`` is a list of len(z0) dense rows."""
    n = len(z0)
    m = len(B[0]) if B else 0
    rows = []
    for i, brow in enumerate(B):
        row = [0] * (2 * n + 2 * m)
        row[i], row[n + i] = 1, -1
        for j, v in enumerate(brow):
            row[2 * n + j], row[2 * n + m + j] = -v, v
        rows.append(row)
    return reference_solve_standard_lp(
        rows, z0, list(weights) * 2 + [0] * (2 * m))


def reference_smith_normal_form(A: IntMatrix) -> DenseSNF:
    """The dense Smith normal form by unimodular row/column reduction.

    Reference for ``homnorm.intlinalg.sparse_smith_normal_form``, whose
    U, D, V, diagonal and kept inverse lines must equal these entry for
    entry.

    Pivot selection: smallest nonzero |entry| in the active submatrix,
    ties by lowest row then lowest column index.
    """
    D = A.copy()
    rows, cols = D.rows, D.cols
    U = IntMatrix.identity(rows)
    Ui = IntMatrix.identity(rows)
    V = IntMatrix.identity(cols)
    Vi = IntMatrix.identity(cols)
    d = D.data

    def swap_rows(i: int, j: int) -> None:
        if i == j:
            return
        d[i], d[j] = d[j], d[i]
        U.data[i], U.data[j] = U.data[j], U.data[i]
        for row in Ui.data:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i: int, j: int) -> None:
        if i == j:
            return
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in V.data:
            row[i], row[j] = row[j], row[i]
        Vi.data[i], Vi.data[j] = Vi.data[j], Vi.data[i]

    def add_row(dst: int, src: int, q: int) -> None:
        # row_dst += q * row_src
        if not q:
            return
        drow, srow = d[dst], d[src]
        for j in range(cols):
            drow[j] += q * srow[j]
        drow, srow = U.data[dst], U.data[src]
        for j in range(rows):
            drow[j] += q * srow[j]
        for row in Ui.data:
            row[src] -= q * row[dst]

    def add_col(dst: int, src: int, q: int) -> None:
        if not q:
            return
        for row in d:
            row[dst] += q * row[src]
        for row in V.data:
            row[dst] += q * row[src]
        srow, drow = Vi.data[src], Vi.data[dst]
        for j in range(cols):
            srow[j] -= q * drow[j]

    def negate_row(i: int) -> None:
        d[i] = [-v for v in d[i]]
        U.data[i] = [-v for v in U.data[i]]
        for row in Ui.data:
            row[i] = -row[i]

    def find_pivot(t: int) -> Optional[tuple[int, int]]:
        best = None
        best_abs = None
        for i in range(t, rows):
            row = d[i]
            for j in range(t, cols):
                v = row[j]
                if v and (best_abs is None or abs(v) < best_abs):
                    best = (i, j)
                    best_abs = abs(v)
        return best

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = find_pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # Clear column t below the pivot (gcd descent via floor division).
            changed = True
            while changed:
                changed = False
                for i in range(t + 1, rows):
                    if d[i][t]:
                        q = d[i][t] // d[t][t]
                        add_row(i, t, -q)
                        if d[i][t]:
                            swap_rows(t, i)
                            changed = True
            # Clear row t; may dirty the column again.
            dirty = False
            changed = True
            while changed:
                changed = False
                for j in range(t + 1, cols):
                    if d[t][j]:
                        q = d[t][j] // d[t][t]
                        add_col(j, t, -q)
                        if d[t][j]:
                            swap_cols(t, j)
                            changed = True
                            dirty = True
            if not dirty and all(not d[i][t] for i in range(t + 1, rows)):
                break
        if d[t][t] < 0:
            negate_row(t)
        # Divisibility fix-up: the pivot must divide the rest of the block.
        offender = None
        p = d[t][t]
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    diag = tuple(d[i][i] for i in range(limit))
    return DenseSNF(U, D, V, diag, Ui, Vi)


def reference_echelon_columns(columns: list[list[int]],
                              row_order: Sequence[int]) -> list[tuple[int, list[int]]]:
    """Unimodular column reduction to echelon form along ``row_order``.

    Reference for ``homnorm.optimize._echelon_columns``, which works on
    sparse columns and adds each n * e_r column only when row r is reached;
    here the columns are dense and every column is listed up front.

    Returns (pivot_row, column) pairs; each pivot column has a positive
    entry at its pivot row and zeros at all earlier rows of the order.
    Column operations preserve the spanned lattice.
    """
    active = [list(col) for col in columns if any(col)]
    result: list[tuple[int, list[int]]] = []
    for r in row_order:
        nz = [col for col in active if col[r]]
        if not nz:
            continue
        while len(nz) > 1:
            nz.sort(key=lambda col: abs(col[r]))
            a = nz[0]
            for b in nz[1:]:
                q = b[r] // a[r]
                if q:
                    for i in range(len(b)):
                        b[i] -= q * a[i]
            nz = [col for col in nz if col[r]]
        piv = nz[0]
        if piv[r] < 0:
            for i in range(len(piv)):
                piv[i] = -piv[i]
        active.remove(piv)
        result.append((r, piv))
    return result


def reference_search_lattice(wnum: Sequence[int], z0: Sequence[int],
                              pivots: list[tuple[int, list[int]]],
                              row_order: Sequence[int],
                              lo: Sequence[int], hi: Sequence[int],
                              cap_mass: int, cap_count: int):
    """Enumerate all lattice-coset points of minimal weighted l1 mass.

    Reference for ``homnorm.optimize._search_lattice``, which must visit the
    same nodes in the same order and return the same (best, sols, exact,
    nodes).  Candidates at each pivot row are built as a list and sorted,
    and every move walks the whole dense pivot column.

    The coset is z0 + span(pivot columns); candidates at each pivot row are
    scanned in order of increasing contribution so incumbents improve fast
    and the per-candidate break below stays sound.
    """
    pos_in_order = {r: i for i, r in enumerate(row_order)}
    pivot_positions = [pos_in_order[r] for r, _ in pivots]
    segments: list[list[int]] = []
    prefix = [row_order[i] for i in range(
        pivot_positions[0] if pivots else len(row_order))]
    for k in range(len(pivots)):
        end = pivot_positions[k + 1] if k + 1 < len(pivots) else len(row_order)
        segments.append([row_order[i] for i in range(pivot_positions[k] + 1, end)])

    cur = list(z0)
    best = cap_mass
    sols: list[tuple[int, ...]] = []
    exact = True
    nodes = 0

    base_mass = 0
    for r in prefix:
        v = cur[r]
        if v < lo[r] or v > hi[r]:
            return best, sols, exact, nodes
        base_mass += wnum[r] * abs(v)
    if base_mass > best:
        return best, sols, exact, nodes

    def record(total: int) -> None:
        nonlocal best, sols, exact
        if total < best:
            best = total
            sols = [tuple(cur)]
            exact = True
        elif total == best:
            if len(sols) < cap_count:
                sols.append(tuple(cur))
            else:
                exact = False

    def dfs(k: int, acc: int) -> None:
        nonlocal nodes
        if k == len(pivots):
            record(acc)
            return
        r, col = pivots[k]
        g = col[r]
        base = cur[r]
        w = wnum[r]
        # Candidate values at the pivot row: the congruence class of the
        # base value inside [lo, hi], scanned cheapest first.
        residue = base % g
        first = lo[r] + ((residue - lo[r]) % g)
        vals = list(range(first, hi[r] + 1, g))
        vals.sort(key=lambda t: (abs(t), t < 0))
        for v in vals:
            contrib = w * abs(v)
            if acc + contrib > best:
                break  # later candidates only cost more at this row
            nodes += 1
            t = (v - base) // g
            if t:
                for i, cv in enumerate(col):
                    if cv:
                        cur[i] += t * cv
            total = acc + contrib
            feasible = True
            for rr in segments[k]:
                x = cur[rr]
                if x < lo[rr] or x > hi[rr]:
                    feasible = False
                    break
                total += wnum[rr] * abs(x)
                if total > best:
                    feasible = False
                    break
            if feasible:
                dfs(k + 1, total)
            if t:
                for i, cv in enumerate(col):
                    if cv:
                        cur[i] -= t * cv
        return

    dfs(0, base_mass)
    return best, sols, exact, nodes


class ReferenceModDecomposition:
    """Mod-n homology with a basis aligned to the integral reduction map,
    built from Smith normal forms of its own for every n.

    Generators, in order: the reductions of the integral free basis (order
    n each), the reductions of the integral torsion basis (order
    gcd(p^nu, n)), then cotorsion generators spanning a complement of the
    reduction image.  Coordinates of a class are unique modulo those
    orders because the three blocks form a direct sum.  The forms whose
    inverses it reads are ``reference_smith_normal_form``'s.
    """

    def __init__(self, dec: HomologyDecomposition, n: int):
        self.dec = dec
        self.n = n
        K = dec.complex
        d = dec.degree
        n_simp = K.n_simplices(d)
        B = boundary_matrix(K, d + 1)
        self._snfA = reference_smith_normal_form(boundary_matrix(K, d))
        diagA = self._snfA.diag
        # Lifted mod-n cycle lattice: columns of V_A scaled by n/gcd(diag, n).
        self._scales = [n // gcd(diagA[j] if j < len(diagA) else 0, n)
                        for j in range(n_simp)]
        relation_cols: list[list[int]] = []
        for j in range(B.cols):
            relation_cols.append(self._cycle_lattice_coords(B.column(j)))
        for k in range(n_simp):
            col = [n * v for v in self._snfA.v_inv.column(k)]
            relation_cols.append([c // s for c, s in zip(col, self._scales)])
        Cn = IntMatrix.from_columns(relation_cols, n_simp)
        self._snfCn = reference_smith_normal_form(Cn)
        diag = self._snfCn.diag
        if len(diag) != n_simp or any(e == 0 for e in diag):
            raise AssertionError("mod-n relation lattice must have full rank")
        self._factor_indices = [i for i, e in enumerate(diag) if e > 1]
        self._factor_orders = [diag[i] for i in self._factor_indices]
        for e in self._factor_orders:
            if n % e:
                raise AssertionError("mod-n invariant factor must divide n")
        # Images of the integral basis in raw coordinates.
        self._phi = [self._raw_coords(f.vector()) for f in dec.free_basis]
        self._psi = [self._raw_coords(tf.cycle.vector()) for tf in dec.torsion]
        for g in self._phi:
            if self._order(g) != n:
                raise AssertionError("free basis image must have order n mod n")
        for g, tf in zip(self._psi, dec.torsion):
            if self._order(g) != gcd(tf.order, n):
                raise AssertionError("torsion image has unexpected order")
        self.cotorsion = self._build_cotorsion()
        # Solver for coordinates: [phi | psi | w | diag(orders)] over Z.
        j_count = len(self._factor_indices)
        cols = ([list(g) for g in self._phi] + [list(g) for g in self._psi]
                + [list(w) for (_, w, _) in self.cotorsion])
        for i in range(j_count):
            e_col = [0] * j_count
            e_col[i] = self._factor_orders[i]
            cols.append(e_col)
        self._coord_solver = smith_normal_form(
            IntMatrix.from_columns(cols, j_count))

    @cached_property
    def _image_solver(self) -> SNFResult:
        """Solver for membership in the reduction image: [kernel | B | nI].

        Only :meth:`in_image` reads it, so it is built on first use.
        """
        dec = self.dec
        n_simp = dec.complex.n_simplices(dec.degree)
        B = boundary_matrix(dec.complex, dec.degree + 1)
        img_cols = ([self._snfA.V.column(j) for j in range(dec._rankA, n_simp)]
                    + [B.column(j) for j in range(B.cols)])
        for k in range(n_simp):
            e_col = [0] * n_simp
            e_col[k] = self.n
            img_cols.append(e_col)
        return smith_normal_form(IntMatrix.from_columns(img_cols, n_simp))

    # -- raw presentation helpers -------------------------------------------

    def _cycle_lattice_coords(self, vec: Sequence[int]) -> list[int]:
        y = self._snfA.v_inv.mul_vec(vec)
        out = []
        for v, s in zip(y, self._scales):
            if v % s:
                raise NotACycleError("vector is not a mod-n cycle lift")
            out.append(v // s)
        return out

    def _raw_coords(self, vec: Sequence[int]) -> tuple[int, ...]:
        s = self._cycle_lattice_coords([int(v) for v in vec])
        g = self._snfCn.U.mul_vec(s)
        return tuple(g[i] % self._snfCn.diag[i] for i in self._factor_indices)

    def _order(self, g: Sequence[int]) -> int:
        out = 1
        for v, e in zip(g, self._factor_orders):
            o = e // gcd(e, v % e)
            out = out * o // gcd(out, o)
        return out

    def _build_cotorsion(self) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
        j_count = len(self._factor_indices)
        gens = self._phi + self._psi
        cols = [list(g) for g in gens]
        for i in range(j_count):
            e_col = [0] * j_count
            e_col[i] = self._factor_orders[i]
            cols.append(e_col)
        quotient = reference_smith_normal_form(
            IntMatrix.from_columns(cols, j_count))
        out: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        for l in range(j_count):
            m_l = quotient.diag[l] if l < len(quotient.diag) else 0
            if m_l <= 1:
                continue
            u_l = quotient.u_inv.column(l)
            # Correct the lift inside the image subgroup so that its order
            # in the full group equals its order in the quotient.
            corr_cols = ([[m_l * v for v in g] for g in gens])
            for i in range(j_count):
                e_col = [0] * j_count
                e_col[i] = self._factor_orders[i]
                corr_cols.append(e_col)
            rhs = [m_l * v for v in u_l]
            sol = solve_with_snf(
                smith_normal_form(IntMatrix.from_columns(corr_cols, j_count)), rhs)
            if sol is None:
                raise AssertionError("universal-coefficient splitting failed")
            t = sol[:len(gens)]
            w = list(u_l)
            for coeff, g in zip(t, gens):
                for i in range(j_count):
                    w[i] -= coeff * g[i]
            w = [v % e for v, e in zip(w, self._factor_orders)]
            if self._order(w) != m_l:
                raise AssertionError("cotorsion generator has wrong order")
            wvec = self._element_chain_vector(w)
            out.append((m_l, tuple(w), tuple(wvec)))
        return out

    def _element_chain_vector(self, g: Sequence[int]) -> list[int]:
        """Integer chain lift of the group element with raw coordinates g."""
        n_simp = self.dec.complex.n_simplices(self.dec.degree)
        out = [0] * n_simp
        for coord, idx in zip(g, self._factor_indices):
            if coord:
                s = self._snfCn.u_inv.column(idx)
                scaled = [v * sc for v, sc in zip(s, self._scales)]
                col = self._snfA.V.mul_vec(scaled)
                for i in range(n_simp):
                    out[i] += coord * col[i]
        return out

    # -- public API -----------------------------------------------------------

    @property
    def cotorsion_orders(self) -> tuple[int, ...]:
        return tuple(order for (order, _, _) in self.cotorsion)

    def coords_of_cycle(self, vec: Sequence[int]) -> tuple[tuple[int, ...],
                                                           tuple[int, ...],
                                                           tuple[int, ...]]:
        g = self._raw_coords(vec)
        sol = solve_with_snf(self._coord_solver, list(g))
        if sol is None:
            raise AssertionError("mod-n basis does not span; this is a bug")
        b = self.dec.betti
        t = len(self.dec.torsion)
        alpha = tuple(a % self.n for a in sol[:b])
        beta = tuple(v % gcd(tf.order, self.n)
                     for v, tf in zip(sol[b:b + t], self.dec.torsion))
        gamma = tuple(v % order
                      for v, (order, _, _) in zip(sol[b + t:], self.cotorsion))
        return alpha, beta, gamma

    def in_image(self, vec: Sequence[int]) -> bool:
        """True iff the lifted chain is congruent to an integral cycle mod
        (boundaries + n*chains), i.e. the class is a reduction."""
        return solve_with_snf(self._image_solver, [int(v) for v in vec]) is not None


class ReferenceHomologyDecomposition:
    """The integral decomposition computed with dense transforms and dense
    products, against which the sparse ``HomologyDecomposition`` is checked.

    Its Smith normal forms are ``reference_smith_normal_form``; the
    boundaries in kernel coordinates, the basis matrix K' = kernel * U_C^-1,
    class coordinates and representatives are dense matrix products.
    """

    def __init__(self, K, degree: int):
        self.complex = K
        self.degree = degree
        n_simp = K.n_simplices(degree)
        A = boundary_matrix(K, degree)
        B = boundary_matrix(K, degree + 1)
        self._snfA = reference_smith_normal_form(A)
        rA = self._snfA.rank
        self._rankA = rA
        z = n_simp - rA
        # Kernel lattice basis: trailing columns of V from the SNF of A.
        self._kernel = IntMatrix.from_columns(
            [self._snfA.V.column(j) for j in range(rA, n_simp)], n_simp)
        # Boundaries in kernel coordinates.
        C = IntMatrix.zeros(z, B.cols)
        for j in range(B.cols):
            y = self._snfA.v_inv.mul_vec(B.column(j))
            if any(y[:rA]):
                raise NotACycleError("vector is not in the cycle lattice")
            for i in range(z):
                C.data[i][j] = y[rA + i]
        self._snfC = reference_smith_normal_form(C)
        rC = self._snfC.rank
        self._rankC = rC
        self.invariant_factors = tuple(self._snfC.diag[:rC])
        self._kprime = self._kernel.matmul(self._snfC.u_inv)
        self.betti = z - rC
        self.free_basis = tuple(
            Chain.from_vector(K, degree, INT, self._kprime.column(j))
            for j in range(rC, z))
        # (prime, exponent, order, column, idempotent, cycle) per factor.
        self.torsion = []
        for i, d in enumerate(self.invariant_factors):
            if d <= 1:
                continue
            for p, nu in factorize(d):
                q = p ** nu
                rest = d // q
                idem = (rest * pow(rest, -1, q)) % d if rest > 1 else 1
                vec = [idem * v for v in self._kprime.column(i)]
                self.torsion.append((p, nu, q, i, idem,
                                     Chain.from_vector(K, degree, INT, vec)))

    def cotorsion(self, n: int) -> tuple:
        """(order, unit coordinates, chain vector) of each cotorsion
        generator mod n: (n/g_j) * V_A[:, j] for g_j = gcd(D_jj, n) > 1."""
        gcds = [gcd(self._snfA.diag[j], n) for j in range(self._rankA)]
        cot = [j for j, g in enumerate(gcds) if g > 1]
        return tuple(
            (gcds[j], tuple(int(k == i) for k in range(len(cot))),
             tuple(n // gcds[j] * v for v in self._snfA.V.column(j)))
            for i, j in enumerate(cot))

    def coords_of_cycle(self, vec: Sequence, ring) -> tuple[list, list, list]:
        """Unreduced (free, torsion, cotorsion) coordinates of a cycle."""
        rA = self._rankA
        y = self._snfA.v_inv.mul_vec(vec)
        cotorsion = []
        if ring.is_mod:
            n = ring.modulus
            for j in range(rA):
                g = gcd(self._snfA.diag[j], n)
                s = n // g
                if y[j] % s:
                    raise NotACycleError("vector is not a mod-n cycle lift")
                if g > 1:
                    cotorsion.append(y[j] // s)
        elif any(y[:rA]):
            raise NotACycleError(f"vector is not a cycle over {ring.tag}")
        sp = self._snfC.U.mul_vec(y[rA:])
        torsion = ([] if ring.is_rat
                   else [sp[column] for _, _, _, column, _, _ in self.torsion])
        return sp[self._rankC:], torsion, cotorsion

    def representative_vector(self, c) -> list:
        """Chain vector of the reference representative of class ``c``."""
        kp, rC = self._kprime, self._rankC
        terms = [(a, kp.column(rC + k)) for k, a in enumerate(c.free_part) if a]
        terms += [(b * idem, kp.column(column)) for b, (_, _, _, column, idem, _)
                  in zip(c.torsion_part, self.torsion) if b]
        if c.ring.is_mod:
            cot = self.cotorsion(c.ring.modulus)
            terms += [(g, w) for g, (_, _, w) in zip(c.cotorsion_part, cot) if g]
        out = [Fraction(0) if c.ring.is_rat else 0] * kp.rows
        for a, col in terms:
            for i, v in enumerate(col):
                out[i] += a * v
        return out


# -- loading and certificate checks -----------------------------------------


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def reference_load(obj) -> tuple[tuple, tuple]:
    """(simplices, weights) of a complex document, read and validated the
    plain way: every weight literal parsed and compared as a Fraction, every
    vertex tuple tested with generator scans, and face closure checked by
    looking each face up, before and apart from building any face table.
    Raises ``ComplexFormatError`` with the loader's messages.  It predates
    the rejection of a non-string ``name`` and of weight keys outside
    0..dimension, so documents fed to it have neither."""
    if not isinstance(obj, dict):
        raise ComplexFormatError("document root must be an object")
    try:
        obj["name"]
        dim = obj["dimension"]
        simp = obj["simplices"]
    except KeyError as exc:
        raise ComplexFormatError(f"missing or malformed field: {exc}")
    if not _is_int(dim):
        raise ComplexFormatError(f"'dimension' must be an integer, got {dim!r}")
    if not isinstance(simp, dict):
        raise ComplexFormatError("'simplices' must map degree -> list")
    levels = []
    for k in range(dim + 1):
        raw = simp.get(str(k))
        if raw is None:
            raise ComplexFormatError(f"no simplices listed for degree {k}")
        if not isinstance(raw, list) or not all(
                isinstance(s, list) and all(map(_is_int, s)) for s in raw):
            raise ComplexFormatError(f"degree {k}: malformed vertex list")
        levels.append(tuple(tuple(s) for s in raw))
    extra = set(simp) - {str(k) for k in range(dim + 1)}
    if extra:
        raise ComplexFormatError(
            f"simplices listed beyond declared dimension: degree {sorted(extra)[0]}")
    weights_obj = obj.get("weights", {})
    if not isinstance(weights_obj, dict):
        raise ComplexFormatError("'weights' must map degree -> list")
    weights = []
    for k in range(dim + 1):
        raw = weights_obj.get(str(k))
        if raw is None:
            weights.append(tuple([Fraction(1)] * len(levels[k])))
            continue
        if not isinstance(raw, list) or not all(isinstance(w, str) for w in raw):
            raise ComplexFormatError(
                f'degree {k}: weights must be a list of "p/q" strings')
        if len(raw) != len(levels[k]):
            raise ComplexFormatError(
                f"degree {k}: {len(raw)} weights for {len(levels[k])} simplices")
        try:
            weights.append(tuple(parse_rational(w) for w in raw))
        except ValueError as exc:
            raise ComplexFormatError(f"degree {k}: {exc}")
    if not levels:
        raise ComplexFormatError("complex has no simplices at all")
    for k, level in enumerate(levels):
        seen = set()
        for s in level:
            if len(s) != k + 1:
                raise ComplexFormatError(
                    f"degree {k}: simplex {list(s)} has wrong vertex count")
            if any(a >= b for a, b in zip(s, s[1:])) or any(v < 0 for v in s):
                raise ComplexFormatError(
                    f"degree {k}: vertex tuple {list(s)} is not strictly "
                    "increasing over nonnegative vertices")
            if s in seen:
                raise ComplexFormatError(
                    f"degree {k}: duplicate simplex {list(s)}")
            seen.add(s)
        for w, s in zip(weights[k], level):
            if w <= 0:
                raise ComplexFormatError(
                    f"degree {k}: nonpositive weight {format_rational(w)} "
                    f"on simplex {list(s)}")
    for k in range(1, len(levels)):
        lower = set(levels[k - 1])
        for s in levels[k]:
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                if face not in lower:
                    raise ComplexFormatError(
                        f"face-closure violation: {list(face)} (face of "
                        f"{list(s)}) is not listed in degree {k - 1}")
    return tuple(levels), tuple(weights)


def reference_faces(simplices, d: int) -> tuple:
    """(face index, sign) pairs of each d-simplex, omitting vertex i with
    sign (-1)^i, by looking each face up in degree d - 1."""
    if d == 0:
        return ((),) * len(simplices[0])
    index = {s: i for i, s in enumerate(simplices[d - 1])}
    return tuple(tuple((index[s[:i] + s[i + 1:]], -1 if i % 2 else 1)
                       for i in range(d + 1))
                 for s in simplices[d])


def reference_is_closed(phi) -> bool:
    """The cochain vanishes on every (d+1)-simplex boundary, summed in
    Fractions."""
    K, d = phi.complex, phi.degree
    if d >= K.dim:
        return True
    return all(sum((phi.values[i] * sign for i, sign in faces), Fraction(0)) == 0
               for faces in K.faces(d + 1))


def reference_comass(K, phi) -> Fraction:
    """max |phi_s| / w_s over the d-simplices, in Fractions (0 with none)."""
    return max((abs(v) / w for v, w in zip(phi.values, K.weights[phi.degree])),
               default=Fraction(0))
