"""Smith normal form of sparse integer matrices.

Boundary operators of desk-scale complexes have d + 2 nonzero entries per
column, mostly units, and the unimodular transforms built from them stay
sparse (a few nonzeros per row).  So the reduction works on sparse rows: D
is held as one ``{column: value}`` dict per row plus a column-to-rows
index, so a row operation costs the nonzeros of its source row and a
column operation the rows where its source column is nonzero.  The
reduction tracks transforms with their inverses so callers can change
basis in either direction without re-inverting.  U and V^-1 change by row
operations and are held by rows; U^-1 and V change by column operations
and are held by columns, so every transform update is an ``axpy`` over the
nonzeros of its source.  ``SNFResult`` returns these sparse lines.  A
caller that reads only one side keeps only that pair (U with U^-1, or V
with V^-1): the other pair is never built, and no row or column
operation, swap or negation touches it.

The inverses keep only the lines a reader of the form can use.  Step t
writes column t of U^-1 and row t of V^-1 from lines past t, and no later
step reads them, so they are final when step t ends.  Where D_tt = 1 they
are dropped: such a line only converts the coordinate of a summand Z/1,
which carries nothing, whereas the kernel and cokernel lines (past the
rank) and the lines of invariant factors above 1 are kept.  At a unit
pivot the reduction does not write them at all, which is half the
transform updates of a boundary operator, whose pivots are all units.

The pivot rule is fixed (smallest nonzero absolute value, ties broken by
lowest row then column index) so that every basis derived downstream is
reproducible run to run.  The search stops at the first unit entry, which
is already the minimum.  A unit pivot divides every entry, so it clears
its column and then its row in one pass each, with no swap and no
divisibility fix-up; the operations of a pass each change a different row
(column) and read only the pivot's, so they commute.  Other pivots clear
rows and columns in ascending index order, each entry read when its turn
comes.  So the operations, and all five matrices (the inverses where
kept), are those of the plain dense reduction (``tests/oracles.py`` keeps
it as the reference).

An incidence matrix, the degree-1 boundary, has all its pivots units, and
``incidence_smith_normal_form`` replays the same reduction on sets of
edges, one per group of vertices, to the same kernel lines of V and V^-1.
"""

from __future__ import annotations

from typing import Optional, Sequence


SparseLine = dict[int, int]
Lines = Optional[list[Optional[SparseLine]]]


class SNFResult:
    """U A V = D with U, V unimodular and D in Smith normal form.

    ``diag`` is the full invariant-factor sequence (length min(rows, cols),
    nonzero entries first, each dividing the next, zeros trailing).

    The transforms and their exact integer inverses are held as sparse
    lines, each a ``{index: value}`` dict of nonzeros: ``u_rows`` (the rows
    of U), ``u_inv_cols`` (the columns of U^-1), ``v_cols`` (the columns of
    V) and ``v_inv_rows`` (the rows of V^-1); a pair that was not tracked
    is None.  Of the inverses, line j is None where j < rank and
    diag[j] = 1; every other line, and all of U and V, is kept, except
    that ``incidence_smith_normal_form`` leaves the pivot columns of V
    (j < rank) unformed, None, as it has no reader for them.
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


def sparse_smith_normal_form(rows: list[SparseLine], cols: int, *,
                             _track: str = "uv") -> SNFResult:
    """Smith normal form by unimodular row/column reduction.

    The matrix is given by its rows, each a ``{column: value}`` dict of
    nonzero values, and its column count.  The reduction works in ``rows``
    itself, which it leaves holding D.  Pivot selection: smallest
    nonzero |entry| in the active submatrix, ties by lowest row then lowest
    column index.  ``_track`` names the transform pairs to keep, ``"u"``
    for U and U^-1 and ``"v"`` for V and V^-1; the reduction, D and the
    tracked pairs are the same whichever are kept.
    """
    d = rows
    n_rows = len(d)
    # rows_of[c]: the rows where column c of D is nonzero.
    rows_of: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(d):
        for c in row:
            rows_of[c].add(i)
    # An untracked pair is None, and no operation touches it.
    track_u, track_v = "u" in _track, "v" in _track
    u = [{i: 1} for i in range(n_rows)] if track_u else None
    ui = [{i: 1} for i in range(n_rows)] if track_u else None
    v = [{j: 1} for j in range(cols)] if track_v else None
    vi = [{j: 1} for j in range(cols)] if track_v else None

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
        if track_u:
            u[i], u[j] = u[j], u[i]
            ui[i], ui[j] = ui[j], ui[i]

    def swap_cols(i: int, j: int) -> None:
        if i == j:
            return
        ri, rj = rows_of[i], rows_of[j]
        for r in ri:
            row = d[r]
            if r in rj:
                row[i], row[j] = row[j], row[i]
            else:
                row[j] = row.pop(i)
        for r in rj:
            if r not in ri:
                row = d[r]
                row[i] = row.pop(j)
        rows_of[i], rows_of[j] = rj, ri
        if track_v:
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
        if track_u:
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
        if track_v:
            _axpy(v[dst], v[src], q)
            _axpy(vi[src], vi[dst], -q)

    def negate_row(i: int) -> None:
        d[i] = {c: -x for c, x in d[i].items()}
        if track_u:
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
            mags = list(map(abs, row.values()))
            a = min(mags)
            if best is None or a < best_abs:
                best = (i, min(row) if a == max(mags) else
                        min(c for c, x in row.items() if abs(x) == a))
                best_abs = a
                if a == 1:
                    break
        return best

    def clear_unit(t: int, p: int) -> None:
        # Column t below the pivot, then row t, each in one pass: every
        # quotient is exact, so each operation leaves a zero and no swap
        # follows.  Column t of U^-1 and row t of V^-1 are not written.
        prow = d[t]
        rest = [(j, x) for j, x in prow.items() if j != t]
        for i in rows_of[t]:
            if i == t:
                continue
            row = d[i]
            q = -p * row.pop(t)
            for c, x in rest:
                y = row.get(c)
                if y is None:
                    row[c] = q * x
                    rows_of[c].add(i)
                elif y := y + q * x:
                    row[c] = y
                else:
                    del row[c]
                    rows_of[c].remove(i)
            if track_u:
                _axpy(u[i], u[t], q)
        for j, x in rest:
            rows_of[j].remove(t)
            if track_v:
                _axpy(v[j], v[t], -p * x)
        d[t] = {t: 1}
        rows_of[t] = {t}
        if p < 0 and track_u:
            u[t] = {c: -x for c, x in u[t].items()}

    t = 0
    limit = min(n_rows, cols)
    while t < limit:
        pos = find_pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        p = d[t][t]
        if p == 1 or p == -1:
            clear_unit(t, p)
            t += 1
            continue
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
        # Divisibility fix-up: the pivot must divide the rest of the block.
        p = d[t][t]
        if p != 1:
            offender = next((i for i in range(t + 1, n_rows)
                             if any(x % p for x in d[i].values())), None)
            if offender is not None:
                add_row(t, offender, 1)
                continue
        t += 1

    diag = tuple(d[i].get(i, 0) for i in range(limit))
    # A unit factor's inverse lines are final and unread: drop them.
    for j, e in enumerate(diag):
        if e == 1:
            if track_u:
                ui[j] = None
            if track_v:
                vi[j] = None
    return SNFResult(diag, u, ui, v, vi)


def incidence_smith_normal_form(faces: Sequence[Sequence[tuple[int, int]]],
                                n_vertices: int) -> SNFResult:
    """``sparse_smith_normal_form(rows, len(faces), _track="v")`` of the
    incidence matrix with columns ``faces``, on the lines its readers use.

    Each column holds two (vertex, sign) entries of opposite sign, as the
    faces of an edge do.  Every pivot of the sparse form is then a unit,
    found at the lowest column label of the first nonempty row from step t,
    and clearing it adds the pivot row to the one other row its column
    meets.  So each row from step t is the sum of the vertex rows of one
    group of vertices joined by earlier pivot edges, its support the edges
    leaving the group.  The reduction is replayed on those supports, sets
    of edges: the same row and column swaps, a union-find for the group of
    each vertex, and the pivot row's support added to the other group's by
    symmetric difference.  The signs are never needed.

    ``diag``, the rank and the kernel lines past it are those of the sparse
    form.  V^-1 changes only by the column swaps, so its kernel row j is
    the unit row of the edge f at label j.  Column j of V is e_f plus a
    combination of pivot columns, and it is a cycle, so it is the
    fundamental cycle of f in the forest of pivot edges, with +1 on f,
    built from parent pointers; only the order of its keys differs.  The
    lines before the rank, which nothing reads for a unit pivot, are None
    in V as in V^-1, and U is not tracked.
    """
    n_edges = len(faces)
    ends = [(fs[0][0], fs[1][0]) for fs in faces]
    rows: list[set[int]] = [set() for _ in range(n_vertices)]
    for e, (a, b) in enumerate(ends):
        rows[a].add(e)
        rows[b].add(e)
    edge_at = list(range(n_edges))  # column label -> edge
    label = list(range(n_edges))    # edge -> column label
    # Union-find over vertices; root_at[i] is the root of the group whose
    # row is at position i, and pos_of[root] its position.
    parent = list(range(n_vertices))
    root_at = list(range(n_vertices))
    pos_of = list(range(n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    limit = min(n_vertices, n_edges)
    t = 0
    while t < limit:
        i = t
        while i < n_vertices and not rows[i]:
            i += 1
        if i == n_vertices:
            break
        row = rows[i]
        c = min(map(label.__getitem__, row))
        if i != t:
            rows[i] = rows[t]
            rows[t] = row
            r, s = root_at[t], root_at[i]
            root_at[t], root_at[i] = s, r
            pos_of[s], pos_of[r] = t, i
        e = edge_at[c]
        if c != t:
            f = edge_at[t]
            edge_at[t], edge_at[c] = e, f
            label[e], label[f] = t, c
        # The pivot edge leaves the group at t; its other end names the
        # group whose row absorbs the pivot row.
        mine = root_at[t]
        a, b = ends[e]
        other = find(a)
        if other == mine:
            other = find(b)
        j = pos_of[other]
        if len(row) > len(rows[j]):
            row ^= rows[j]
            rows[j] = row
        else:
            rows[j] ^= row
        parent[mine] = other
        t += 1

    rank = t
    diag = (1,) * rank + (0,) * (limit - rank)
    # The pivot edges form a spanning forest: root each tree and point
    # every other vertex at its parent (par), through the edge (up) on
    # which it has sign up_sign.
    adj: list[list[int]] = [[] for _ in range(n_vertices)]
    for e in edge_at[:rank]:
        a, b = ends[e]
        adj[a].append(e)
        adj[b].append(e)
    depth = [-1] * n_vertices
    par = [-1] * n_vertices
    up = [-1] * n_vertices
    up_sign = [0] * n_vertices
    for root in range(n_vertices):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for e in adj[x]:
                (a, sa), (b, sb) = faces[e]
                y, sy = (b, sb) if a == x else (a, sa)
                if depth[y] < 0:
                    depth[y] = depth[x] + 1
                    par[y] = x
                    up[y] = e
                    up_sign[y] = sy
                    stack.append(y)
    # With P(x) the path chain from x to its root, coefficient -s on each
    # edge whose end farther from the root has sign s, dP(x) = root - x.  For f with
    # faces (a, sa), (b, sb): e_f + sa P(a) + sb P(b) is a cycle, and the
    # two paths cancel above their meeting vertex.
    v: list[Optional[SparseLine]] = [None] * n_edges
    vi: list[Optional[SparseLine]] = [None] * n_edges
    for j in range(rank, n_edges):
        f = edge_at[j]
        vi[j] = {f: 1}
        z = {f: 1}
        (a, sa), (b, sb) = faces[f]
        while a != b:
            if depth[a] >= depth[b]:
                z[up[a]] = -sa * up_sign[a]
                a = par[a]
            else:
                z[up[b]] = -sb * up_sign[b]
                b = par[b]
        v[j] = z
    return SNFResult(diag, None, None, v, vi)
