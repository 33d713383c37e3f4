"""Smith normal form of sparse integer matrices.

Boundary operators of desk-scale complexes have d + 2 nonzero entries per
column, mostly units, and the unimodular transforms built from them stay
sparse (a few nonzeros per row).  So the reduction works on sparse rows: D
is held as one ``{column: value}`` dict per row plus a column-to-rows
index, so a row operation costs the nonzeros of its source row and a
column operation the rows where its source column is nonzero.  The
reduction tracks both transforms and their inverses so callers can change
basis in either direction without re-inverting.  U and V^-1 change by row
operations and are held by rows; U^-1 and V change by column operations
and are held by columns, so every transform update is an ``axpy`` over the
nonzeros of its source.  ``SNFResult`` returns these sparse lines.

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

from typing import Mapping, Optional, Sequence


class ShapeMismatchError(ValueError):
    pass


SparseLine = dict[int, int]
Lines = Optional[list[SparseLine]]


class SNFResult:
    """U A V = D with U, V unimodular and D in Smith normal form.

    ``diag`` is the full invariant-factor sequence (length min(rows, cols),
    nonzero entries first, each dividing the next, zeros trailing).

    The transforms and their exact integer inverses are held as sparse
    lines, each a ``{index: value}`` dict of nonzeros: ``u_rows`` (the rows
    of U), ``u_inv_cols`` (the columns of U^-1), ``v_cols`` (the columns of
    V) and ``v_inv_rows`` (the rows of V^-1); a pair that was not tracked
    is None.
    """

    def __init__(self, diag: tuple[int, ...], u_rows: Lines,
                 u_inv_cols: Lines, v_cols: Lines, v_inv_rows: Lines):
        self.diag = diag
        self.u_rows = u_rows
        self.u_inv_cols = u_inv_cols
        self.v_cols = v_cols
        self.v_inv_rows = v_inv_rows

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d)


def _axpy(dst: SparseLine, src: SparseLine, q: int) -> None:
    """dst += q * src, visiting only the nonzero entries of src."""
    for k, x in src.items():
        y = dst.get(k, 0) + q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def sparse_smith_normal_form(rows: Sequence[Mapping[int, int]],
                             cols: int, *, _track: str = "uv") -> SNFResult:
    """Smith normal form by unimodular row/column reduction.

    The matrix is given by its rows, each a ``{column: value}`` map (zero
    values are ignored), and its column count.  Pivot selection: smallest
    nonzero |entry| in the active submatrix, ties by lowest row then lowest
    column index.  ``_track`` names the transform pairs to keep, ``"u"``
    for U and U^-1 and ``"v"`` for V and V^-1; the reduction, D and the
    tracked pairs are the same whichever are kept.
    """
    d = [{c: v for c, v in row.items() if v} for row in rows]
    n_rows = len(d)
    # rows_of[c]: the rows where column c of D is nonzero.
    rows_of: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(d):
        for c in row:
            rows_of[c].add(i)
    # An untracked pair starts as empty lines, which no operation fills.
    u = [{i: 1} if "u" in _track else {} for i in range(n_rows)]
    ui = [dict(line) for line in u]
    v = [{j: 1} if "v" in _track else {} for j in range(cols)]
    vi = [dict(line) for line in v]

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
    if "u" not in _track:
        u = ui = None
    if "v" not in _track:
        v = vi = None
    return SNFResult(diag, u, ui, v, vi)
