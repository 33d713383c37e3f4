"""Exact integer matrices and their Smith normal form.

Matrices are stored densely as lists of arbitrary-precision integer rows,
but the work skips zeros: boundary operators of desk-scale complexes have
d + 2 nonzero entries per column, mostly units, and the unimodular
transforms built from them stay sparse.  The Smith normal form tracks both
transforms and their inverses so callers can change basis in either
direction without re-inverting.  U and V^-1 change by row operations;
U^-1 and V, which change by column operations, are held transposed while
the reduction runs, so every transform update is a row ``axpy`` over the
nonzero entries of its source row, and a column operation on D touches only
the rows whose source entry is nonzero.  They are transposed back once at
the end.  ``IntMatrix.mul_vec`` likewise visits only the vector's nonzeros.

The pivot rule is fixed (smallest nonzero absolute value, ties broken by
lowest row then column index) so that every basis derived downstream is
reproducible run to run.  The search stops at the first unit entry, which
is already the minimum, and a unit pivot skips the divisibility fix-up it
cannot need; the pivots, and so all five matrices, are those of the plain
dense reduction (``tests/oracles.py`` keeps it as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Optional, Sequence


class ShapeMismatchError(ValueError):
    pass


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


@dataclass
class SNFResult:
    """U A V = D with U, V unimodular and D in Smith normal form.

    ``diag`` is the full invariant-factor sequence (length min(rows, cols),
    nonzero entries first, each dividing the next, zeros trailing).
    ``u_inv`` and ``v_inv`` are exact integer inverses of U and V.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    diag: tuple[int, ...]
    u_inv: IntMatrix
    v_inv: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d)


def _axpy(dst: list[int], src: list[int], q: int) -> None:
    """dst += q * src, visiting only the nonzero entries of src."""
    for j in compress(range(len(src)), src):
        dst[j] += q * src[j]


def smith_normal_form(A: IntMatrix) -> SNFResult:
    """Smith normal form by unimodular row/column reduction.

    Pivot selection: smallest nonzero |entry| in the active submatrix,
    ties by lowest row then lowest column index.
    """
    D = A.copy()
    rows, cols = D.rows, D.cols
    d = D.data
    # ui_t and v_t hold U^-1 and V transposed.
    u = IntMatrix.identity(rows).data
    ui_t = IntMatrix.identity(rows).data
    v_t = IntMatrix.identity(cols).data
    vi = IntMatrix.identity(cols).data

    def swap_rows(i: int, j: int) -> None:
        if i == j:
            return
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        ui_t[i], ui_t[j] = ui_t[j], ui_t[i]

    def swap_cols(i: int, j: int) -> None:
        if i == j:
            return
        for row in d:
            row[i], row[j] = row[j], row[i]
        v_t[i], v_t[j] = v_t[j], v_t[i]
        vi[i], vi[j] = vi[j], vi[i]

    def add_row(dst: int, src: int, q: int) -> None:
        # row_dst += q * row_src
        if not q:
            return
        _axpy(d[dst], d[src], q)
        _axpy(u[dst], u[src], q)
        _axpy(ui_t[src], ui_t[dst], -q)

    def add_col(dst: int, src: int, q: int) -> None:
        if not q:
            return
        for row in d:
            if row[src]:
                row[dst] += q * row[src]
        _axpy(v_t[dst], v_t[src], q)
        _axpy(vi[src], vi[dst], -q)

    def negate_row(i: int) -> None:
        d[i] = [-v for v in d[i]]
        u[i] = [-v for v in u[i]]
        ui_t[i] = [-v for v in ui_t[i]]

    def find_pivot(t: int) -> Optional[tuple[int, int]]:
        best = None
        best_abs = 0
        for i in range(t, rows):
            row = d[i]
            for j in compress(range(t, cols), row[t:]):
                a = abs(row[j])
                if a == 1:
                    return i, j
                if best is None or a < best_abs:
                    best = (i, j)
                    best_abs = a
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
            # Column t is now clear below the pivot.  Clear row t; only a
            # column swap can dirty the column again.
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
            if not dirty:
                break
        if d[t][t] < 0:
            negate_row(t)
        # Divisibility fix-up: the pivot must divide the rest of the block
        # (a unit pivot always does).
        p = d[t][t]
        if p != 1:
            offender = next((i for i in range(t + 1, rows)
                             if any(v % p for v in d[i][t + 1:])), None)
            if offender is not None:
                add_row(t, offender, 1)
                continue
        t += 1

    diag = tuple(d[i][i] for i in range(limit))
    return SNFResult(IntMatrix(rows, rows, u), D, _transpose(cols, v_t), diag,
                     _transpose(rows, ui_t), IntMatrix(cols, cols, vi))


def _transpose(n: int, data: list[list[int]]) -> IntMatrix:
    return IntMatrix(n, n, [list(col) for col in zip(*data)])
