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
are dropped at the end: such a line only converts the coordinate of a
summand Z/1, which carries nothing, whereas the kernel and cokernel lines
(past the rank) and the lines of invariant factors above 1 are kept.

The pivot rule is fixed (smallest nonzero absolute value, ties broken by
lowest row then column index) so that every basis derived downstream is
reproducible run to run.  The search stops at the first unit entry, which
is already the minimum.  Every pivot takes one step: it clears its column
and then its row in ascending index order, each entry read when its turn
comes and a nonzero remainder swapped in as the new pivot, negates a
negative pivot with its row, and makes the pivot divide the rest of its
block.  A unit pivot divides every entry, so its step makes no swap and no
fix-up.  So the operations, and all five matrices (the inverses where
kept), are those of the plain dense reduction (``tests/oracles.py`` keeps
it as the reference).

An incidence matrix, the degree-1 boundary, has all its pivots units, and
``incidence_smith_normal_form`` replays the same reduction on sets of
edges, one per group of vertices, to the same kernel lines of V and V^-1.
Rows of at most two entries of +-1, such as the next boundary of a surface
in kernel coordinates or the top boundary of a pseudomanifold, are a
signed graph on the columns, and ``signed_graph_smith_normal_form``
replays their reduction as Kruskal's forest with a signed union-find, to
the same kernel lines of U and U^-1, of V and V^-1, or of both, or returns
None where the sparse form has a factor 2 or a row has another shape.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence


SparseLine = dict[int, int]
Lines = Optional[Sequence[Optional[SparseLine]]]


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
    (j < rank) unformed, None, and ``signed_graph_smith_normal_form`` the
    pivot rows of U and columns of V, as neither has a reader for them.
    The kernel columns of V from ``incidence_smith_normal_form`` are each
    built on first read.
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


def _forest_kernel(ends: Sequence[Sequence[tuple[int, int]]],
                   pivots: Sequence[int], cols: int
                   ) -> Callable[[int], SparseLine]:
    """The kernel line of a row r that is not a pivot, as a function of r:
    the one y with y_r = 1, supported on r and the rows ``pivots``, whose
    combination of the rows is 0 on every column.

    Row r has entries sa on column a and sb on column b, ((a, sa), (b, sb))
    = ``ends[r]``, with a ground node ``cols`` and sign 0 in place of a
    missing entry.  The pivot rows are a spanning forest of this graph,
    and each of r's ends reaches the other or the ground in it.  Each tree
    is rooted, the ground's at the ground, and every other node x points at
    its parent par[x] through the pivot row up[x], in which x has sign s
    and the parent s' (0 for the ground).  y is built going up from r's two
    ends: each step cancels the combination's entry at a node with the row
    up from there, and what is left where the two paths meet goes on up to
    the ground, which takes any entry.  An entry e at x leaves -e s s' at
    the parent, so along a path the entry at x is c sig[x] for a constant
    c, sig[x] the product of those factors from the root (or the ground's
    child) down to x, and the row up from x gets -e s = c w[x], with
    w[x] = -sig[x] s.
    """
    adj: list[list[tuple[int, int, int, int]]] = [
        [] for _ in range(cols + 1)]
    for r in pivots:
        (a, sa), (b, sb) = ends[r]
        adj[a].append((b, sb, sa, r))
        adj[b].append((a, sa, sb, r))
    depth = [-1] * (cols + 1)
    par = [-1] * (cols + 1)
    up = [-1] * (cols + 1)
    sig = [1] * (cols + 1)
    w = [0] * (cols + 1)
    for root in (cols, *range(cols)):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            dy = depth[x] + 1
            for y, sy, sx, r in adj[x]:
                if depth[y] < 0:
                    depth[y] = dy
                    par[y] = x
                    up[y] = r
                    if sx:
                        sig[y] = -sig[x] * sy * sx
                    w[y] = -sig[y] * sy
                    stack.append(y)

    def line(r: int) -> SparseLine:
        y = {r: 1}
        (a, ca), (b, cb) = ends[r]
        ca *= sig[a]
        cb *= sig[b]
        while a != b:
            if depth[a] >= depth[b]:
                y[up[a]] = ca * w[a]
                a = par[a]
            else:
                y[up[b]] = cb * w[b]
                b = par[b]
        if ca + cb:
            while a != cols:
                y[up[a]] = (ca + cb) * w[a]
                a = par[a]
        return y

    return line


class _KernelLines:
    """n lines of a transform, read as a list (from index 0): line j is
    None where j < rank, and otherwise ``build(j)``, built on its first
    read."""

    def __init__(self, n: int, rank: int, build: Callable[[int], SparseLine]):
        self._lines: list[Optional[SparseLine]] = [None] * n
        self._rank = rank
        self._build = build

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(*j.indices(len(self._lines)))]
        line = self._lines[j]
        if line is None and j >= self._rank:
            line = self._lines[j] = self._build(j)
        return line


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
    which ``_forest_kernel`` builds when the column is first read (a
    degree-1 decomposition reads only those that name classes); only the
    order of its keys differs.  The lines before the rank, which nothing
    reads for a unit pivot, are None in V as in V^-1, and U is not
    tracked.
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
    cycle = _forest_kernel(faces, edge_at[:rank], n_vertices)
    vi: list[Optional[SparseLine]] = [None] * rank
    vi += ({f: 1} for f in edge_at[rank:])
    return SNFResult(diag, None, None,
                     _KernelLines(n_edges, rank, lambda j: cycle(edge_at[j])),
                     vi)


def signed_graph_smith_normal_form(rows: Sequence[SparseLine], cols: int, *,
                                   _track: str = "u") -> Optional[SNFResult]:
    """``sparse_smith_normal_form(rows, cols, _track=_track)`` of rows that
    each hold at most two entries of +-1, on the lines its readers use, or
    None where that form has a factor 2 or a row has another shape.

    Such rows are the edges of a signed graph on the columns (Zaslavsky,
    *Signed graphs*, 1982), a one-entry row an edge to a ground node G.
    Clearing a unit pivot folds the group of its column into the group of
    its row's other entry, with a sign, or grounds it, so every later row
    is on the columns of its ends' groups: it has a unit entry while its
    ends lie in different groups, and is otherwise 0, or +-2 where it
    closes an unbalanced cycle in a group that is not grounded.  So the
    pivots are Kruskal's forest in row order, found with a signed
    union-find over the columns and G; the row swaps move only dead rows
    forward, and are replayed on positions.  Each group keeps one column
    outside the pivots, its root, and the pivot column of a row is the
    root of lower position among its entries, which is folded into the
    other root or G, and the column swaps are replayed on positions too.
    A +-2 left at the end, in a group never grounded, would make the sparse
    form reduce a pivot that is not a unit, and then None is returned.

    With all pivots units, ``diag`` is that of the sparse form.  U^-1
    changes only by the row swaps, so its kernel column j is the unit
    column of the row r at position j, and row j of U is the one y with
    y_r = 1, supported on r and the pivot rows, whose combination of the
    rows is 0, which ``_forest_kernel`` builds.  Likewise V^-1 changes only
    by the column swaps, so its kernel row j is the unit row of the column
    c at position j, the root of a group never grounded; column j of V is
    the one x with x_c = 1, supported on c and the pivot columns, with
    rows x = 0: the group of c with the sign of each column's entry at c.
    ``_track`` names the pairs to form at the end, as in the sparse form;
    the pivot lines of a formed pair are None.
    """
    n_rows = len(rows)
    ground = cols
    # sign[x] takes an entry on column x to the group of parent[x]; G is
    # always the root of its group, whose signs are never read.
    parent = list(range(cols + 1))
    sign = [1] * (cols + 1)

    def find(x: int) -> tuple[int, int]:
        # The root of x and the sign of x's entry there, halving the path.
        s = 1
        while (p := parent[x]) != x:
            g = parent[p]
            if g != p:
                sign[x] *= sign[p]
                parent[x] = p = g
            s *= sign[x]
            x = p
        return x, s

    # ((a, sa), (b, sb)) per row, an end on G with sign 0: G takes any
    # entry.
    ends: list[Sequence[tuple[int, int]]] = []
    at = list(range(n_rows))  # position -> row
    col_at = list(range(cols))  # position -> column
    label = list(range(cols + 1))  # column -> position, G past the last
    # The group of each row that closes an unbalanced cycle: the row is
    # left +-2 unless the group is grounded later.
    odd = []
    t = 0
    for r, row in enumerate(rows):
        if len(row) == 2:
            end = (a, sa), (b, sb) = tuple(row.items())
            if sb * sb != 1:
                return None
        elif len(row) == 1:
            ((a, sa),) = row.items()
            b, sb = ground, 0
            end = (a, sa), (b, sb)
        elif row:
            return None
        else:
            ends.append(((ground, 0), (ground, 0)))
            continue
        if sa * sa != 1:
            return None
        ends.append(end)
        ra, xa = find(a)
        rb, xb = find(b)
        if ra == rb:
            if ra != ground and sa * xa == sb * xb:
                odd.append(ra)
            continue
        # The pivot column, of lower position, folds into the other root,
        # and swaps to position t; G is past every column.
        if label[rb] < label[ra]:
            ra, rb = rb, ra
        p, c = label[ra], col_at[t]
        col_at[t], col_at[p] = ra, c
        label[ra], label[c] = t, p
        parent[ra] = rb
        sign[ra] = -sa * xa * sb * xb
        at[t], at[r] = r, at[t]
        t += 1
    if any(find(x)[0] != ground for x in odd):
        return None
    rank = t
    u = ui = v = vi = None
    if "u" in _track:
        line = _forest_kernel(ends, at[:rank], cols)
        u = [None] * rank
        u += map(line, at[rank:])
        ui = [None] * rank
        ui += ({r: 1} for r in at[rank:])
    if "v" in _track:
        groups: dict[int, SparseLine] = {c: {} for c in col_at[rank:]}
        for x in range(cols):
            root, s = find(x)
            if root != ground:
                groups[root][x] = s
        v = [None] * rank + [groups[c] for c in col_at[rank:]]
        vi = [None] * rank + [{c: 1} for c in col_at[rank:]]
    diag = (1,) * rank + (0,) * (min(n_rows, cols) - rank)
    return SNFResult(diag, u, ui, v, vi)
