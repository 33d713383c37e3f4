"""Exact integer matrices and their Smith normal form.

``IntMatrix`` stores a matrix densely, as a list of arbitrary-precision
integer rows; ``IntMatrix.mul_vec`` visits only the vector's nonzeros.

The Smith normal form works on sparse rows instead: boundary operators of
desk-scale complexes have d + 2 nonzero entries per column, mostly units,
and the unimodular transforms built from them stay sparse (a few nonzeros
per row).  D is held as one ``{column: value}`` dict per row plus a
column-to-rows index, so a row operation costs the nonzeros of its source
row and a column operation the rows where its source column is nonzero.
The reduction tracks both transforms and their inverses so callers can
change basis in either direction without re-inverting.  U and V^-1 change
by row operations and are held by rows; U^-1 and V change by column
operations and are held by columns, so every transform update is an
``axpy`` over the nonzeros of its source.  ``SNFResult`` keeps these sparse
lines and builds its dense ``U``, ``D``, ``V``, ``u_inv`` and ``v_inv`` only
when one is first read.

The pivot rule is fixed (smallest nonzero absolute value, ties broken by
lowest row then column index) so that every basis derived downstream is
reproducible run to run.  The search stops at the first unit entry, which
is already the minimum, and a unit pivot skips the divisibility fix-up it
cannot need.  Rows and columns are cleared in ascending index order, each
entry read when its turn comes, so the operation sequence, and so all five
matrices, are those of the plain dense reduction (``tests/oracles.py``
keeps it as the reference).
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import mul
from typing import Mapping, Optional, Sequence


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


SparseLine = dict[int, int]


class SNFResult:
    """U A V = D with U, V unimodular and D in Smith normal form.

    ``diag`` is the full invariant-factor sequence (length min(rows, cols),
    nonzero entries first, each dividing the next, zeros trailing).
    ``u_inv`` and ``v_inv`` are exact integer inverses of U and V.

    The transforms are held as sparse lines, each a ``{index: value}`` dict
    of nonzeros: ``u_rows`` (the rows of U), ``u_inv_cols`` (the columns of
    U^-1), ``v_cols`` (the columns of V) and ``v_inv_rows`` (the rows of
    V^-1).  The dense matrices are built on first access.
    """

    def __init__(self, shape: tuple[int, int], diag: tuple[int, ...],
                 u_rows: list[SparseLine], u_inv_cols: list[SparseLine],
                 v_cols: list[SparseLine], v_inv_rows: list[SparseLine]):
        self.shape = shape
        self.diag = diag
        self.u_rows = u_rows
        self.u_inv_cols = u_inv_cols
        self.v_cols = v_cols
        self.v_inv_rows = v_inv_rows

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d)

    @cached_property
    def U(self) -> IntMatrix:
        return _dense(self.shape[0], self.shape[0], self.u_rows)

    @cached_property
    def D(self) -> IntMatrix:
        return _dense(*self.shape, [{i: d} for i, d in enumerate(self.diag)])

    @cached_property
    def V(self) -> IntMatrix:
        return _dense(self.shape[1], self.shape[1], self.v_cols, by_column=True)

    @cached_property
    def u_inv(self) -> IntMatrix:
        return _dense(self.shape[0], self.shape[0], self.u_inv_cols,
                      by_column=True)

    @cached_property
    def v_inv(self) -> IntMatrix:
        return _dense(self.shape[1], self.shape[1], self.v_inv_rows)


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


def _axpy(dst: SparseLine, src: SparseLine, q: int) -> None:
    """dst += q * src, visiting only the nonzero entries of src."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def smith_normal_form(A: IntMatrix) -> SNFResult:
    """Smith normal form of a dense matrix (see ``sparse_smith_normal_form``)."""
    return sparse_smith_normal_form(
        [dict(compress(enumerate(row), row)) for row in A.data], A.cols)


def sparse_smith_normal_form(rows: Sequence[Mapping[int, int]],
                             cols: int) -> SNFResult:
    """Smith normal form by unimodular row/column reduction.

    The matrix is given by its rows, each a ``{column: value}`` map (zero
    values are ignored), and its column count.  Pivot selection: smallest
    nonzero |entry| in the active submatrix, ties by lowest row then lowest
    column index.
    """
    d = [{c: v for c, v in row.items() if v} for row in rows]
    n_rows = len(d)
    # rows_of[c]: the rows where column c of D is nonzero.
    rows_of: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(d):
        for c in row:
            rows_of[c].add(i)
    u = [{i: 1} for i in range(n_rows)]
    ui = [{i: 1} for i in range(n_rows)]
    v = [{j: 1} for j in range(cols)]
    vi = [{j: 1} for j in range(cols)]

    def swap_rows(i: int, j: int) -> None:
        if i == j:
            return
        ri, rj = d[i], d[j]
        for c in ri:
            if c not in rj:
                s = rows_of[c]
                s.remove(i)
                s.add(j)
        for c in rj:
            if c not in ri:
                s = rows_of[c]
                s.remove(j)
                s.add(i)
        d[i], d[j] = rj, ri
        u[i], u[j] = u[j], u[i]
        ui[i], ui[j] = ui[j], ui[i]

    def swap_cols(i: int, j: int) -> None:
        if i == j:
            return
        for r in rows_of[i] | rows_of[j]:
            row = d[r]
            a = row.pop(i, 0)
            b = row.pop(j, 0)
            if b:
                row[i] = b
            if a:
                row[j] = a
        rows_of[i], rows_of[j] = rows_of[j], rows_of[i]
        v[i], v[j] = v[j], v[i]
        vi[i], vi[j] = vi[j], vi[i]

    def add_row(dst: int, src: int, q: int) -> None:
        # row_dst += q * row_src
        if not q:
            return
        drow = d[dst]
        for c, x in d[src].items():
            y = drow.get(c, 0) + q * x
            if y:
                if c not in drow:
                    rows_of[c].add(dst)
                drow[c] = y
            else:
                del drow[c]
                rows_of[c].remove(dst)
        _axpy(u[dst], u[src], q)
        _axpy(ui[src], ui[dst], -q)

    def add_col(dst: int, src: int, q: int) -> None:
        # col_dst += q * col_src
        if not q:
            return
        dst_rows = rows_of[dst]
        for r in rows_of[src]:
            row = d[r]
            y = row.get(dst, 0) + q * row[src]
            if y:
                if dst not in row:
                    dst_rows.add(r)
                row[dst] = y
            else:
                del row[dst]
                dst_rows.remove(r)
        _axpy(v[dst], v[src], q)
        _axpy(vi[src], vi[dst], -q)

    def negate_row(i: int) -> None:
        d[i] = {c: -x for c, x in d[i].items()}
        u[i] = {c: -x for c, x in u[i].items()}
        ui[i] = {c: -x for c, x in ui[i].items()}

    def find_pivot(t: int) -> Optional[tuple[int, int]]:
        # Rows >= t are zero left of column t: the active block is theirs.
        best = None
        best_abs = 0
        for i in range(t, n_rows):
            row = d[i]
            if not row:
                continue
            a, j = min((abs(x), c) for c, x in row.items())
            if a == 1:
                return i, j
            if best is None or a < best_abs:
                best = (i, j)
                best_abs = a
        return best

    t = 0
    limit = min(n_rows, cols)
    while t < limit:
        pos = find_pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # Clear column t below the pivot (gcd descent via floor
            # division).  Each step changes only row t and row i, so the
            # rows still to visit keep the entries listed up front.
            changed = True
            while changed:
                changed = False
                for i in sorted(r for r in rows_of[t] if r > t):
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if t in d[i]:
                        swap_rows(t, i)
                        changed = True
            # Column t is now clear below the pivot.  Clear row t; only a
            # column swap can dirty the column again.
            dirty = False
            changed = True
            while changed:
                changed = False
                for j in sorted(c for c in d[t] if c > t):
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if j in d[t]:
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
            offender = next((i for i in range(t + 1, n_rows)
                             if any(x % p for x in d[i].values())), None)
            if offender is not None:
                add_row(t, offender, 1)
                continue
        t += 1

    diag = tuple(d[i].get(i, 0) for i in range(limit))
    return SNFResult((n_rows, cols), diag, u, ui, v, vi)
