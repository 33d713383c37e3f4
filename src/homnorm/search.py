"""The lattice-coset search that ``min_int`` and ``min_mod`` share: the
mass-minimal points of z0 + boundaries + n*Z^m within the residue ranges.

The residue range contains 0, so the candidates at a pivot row are
merged outward from 0, cheapest first, with no per-node sort; each move
touches only the nonzeros of its pivot column.  The search also prunes
on the face residuals: every coset point is a cycle mod n, so once some
simplices are assigned, each (d-1)-face t with residual a_t, the signed
sum of its assigned simplices, needs unassigned simplices of total
|coefficient| >= dist(a_t, nZ), and the rest of the mass is at least
sum_t m_t dist_t / (d+1), m_t the least weight on t.  The rows go by
decreasing weight, then outward from the support of z0 over the faces
(``_row_order``), so the faces close early whatever the labelling of the
complex; any order gives the same values and minimizers.  The search
echelonizes its lattice from the faces of the (d+1)-simplices
(``_echelon_columns``): each row reduces only the columns whose first
nonzero row it is, and the entries stay in (-n, n), so the n*e_r columns
past a unit pivot vanish and the pivot columns stay short.  Each search
reduces its own lattice, along its own order and at its own modulus.
Every row is a pivot row, a node fixes the rows up to its pivot, and the
lattice alone fixes the pivot entries and the congruence class of the
candidates, so the values and minimizers are those of any echelon basis.
A row whose pivot column is the lone n*e_r is a forced level, with one
candidate, which the search takes where its value is fixed
(``_level_order`` says why only the node count moves).
"""

from __future__ import annotations

import sys
from itertools import compress
from operator import mul
from typing import Mapping, Optional, Sequence

from .complexes import WeightedComplex
from .homology import _boundary_rows


def _echelon_columns(columns: Sequence[Sequence[tuple[int, int]]],
                     row_order: Sequence[int], modulus: int
                     ) -> list[tuple[int, dict[int, int]]]:
    """Unimodular column reduction to echelon form along ``row_order`` of
    the lattice spanned by ``columns`` and n*e_r for every row r, n the
    ``modulus``, n >= 2.

    Columns are sparse, as (row, coeff) pairs.  Each active column waits
    in the bucket of its leading row, its first nonzero row in the order,
    so row r reduces only the columns that start there; a column that
    loses its entry at r moves to the bucket of its next nonzero row.  Of
    the columns with the least |entry| at r the shortest becomes the
    pivot, which keeps the pivot columns, and so the moves of the search,
    short.

    The column n*e_r is zero above row r, so it joins the reduction only
    when row r is reached, and every row is a pivot row.  Adding multiples
    of n*e_i to a column keeps the lattice, so an entry that a column
    operation takes out of (-n, n) is reduced mod n, and a column that
    becomes zero mod n, such as the n*e_r column past a unit pivot, leaves
    the reduction.

    Returns the (pivot_row, column) pairs.  Each pivot column has a
    positive entry at its pivot row, zeros at all earlier rows of the
    order, and no entry that is 0 mod n, so a column changes a row mod n
    wherever it has an entry there.  Column operations preserve the
    spanned lattice, so the pivot rows and entries are those of any
    echelon basis of it along the order.
    """
    n = modulus
    pos = {r: k for k, r in enumerate(row_order)}.__getitem__
    buckets: list[list[dict[int, int]]] = [[] for _ in row_order]
    for col in columns:
        col = {i: v if -n < v < n else v % n for i, v in col if v % n}
        if col:
            buckets[min(map(pos, col))].append(col)
    result = []
    for k, r in enumerate(row_order):
        nz = buckets[k]
        nz.append({r: n})
        while len(nz) > 1:
            nz.sort(key=lambda col: (abs(col[r]), len(col)))
            a = nz[0]
            for b in nz[1:]:
                q = b[r] // a[r]  # nonzero, as |a[r]| <= |b[r]|
                for i, v in a.items():
                    x = b.get(i, 0) - q * v
                    if not -n < x < n:
                        x %= n
                    if x:
                        b[i] = x
                    elif i in b:  # q*v may be 0 mod n
                        del b[i]
                if b and r not in b:
                    buckets[min(map(pos, b))].append(b)
            nz = [col for col in nz if r in col]
        piv = nz[0]
        if piv[r] < 0:
            for i in piv:
                piv[i] = -piv[i]
        result.append((r, piv))
    return result


def _row_order(K: WeightedComplex, d: int, z0: Sequence[int]) -> list[int]:
    """The rows by decreasing weight, read from ``K.integer_weights(d)``,
    then by the ascending tuple of the breadth-first ranks of their
    (d-1)-faces.  A search may take the weights at any multiple of that
    scale: the order is the same.

    The breadth-first search runs over the faces, two being adjacent when
    they share a d-simplex, as the rows of the degree-d boundary tell.  It
    starts from the faces of z0's support, taken along the support in
    index order, and a face it does not reach ranks after every reached
    one, by index.  So the rows near z0 come first and the rows on a face
    follow each other: the faces close early, and the face bound prunes
    from the first levels.  Any order gives the same values and minimizers
    and moves only the node count.  The order depends on ``K`` and on the
    seed faces alone, so the last one of each degree is kept in ``K``'s
    memo beside its seeds, and the searches of one class across moduli or
    multiples build it once.
    """
    faces = K.faces(d)
    wnum, _ = K.integer_weights(d)
    seeds = list(dict.fromkeys(t for fs in compress(faces, z0)
                               for t, _ in fs))
    cached = K._memo.get(("order", d))
    if cached is not None and cached[0] == seeds:
        return cached[1]
    cofaces = _boundary_rows(K, d)  # the d-simplices on each face
    n_faces = len(cofaces)
    # The face of rank k gets bit 2^(F-1-k).  Every row has d+1 faces, and
    # of two such sets the one with the smaller ascending tuple of ranks
    # holds the least rank in their difference, so its bits sum higher.
    top = 1 << n_faces
    bit = [0] * n_faces
    for k, t in enumerate(seeds, 1):
        bit[t] = top >> k
    queue = seeds[:]  # the list iterator sees what the loop appends
    for t in queue:
        for s in cofaces[t]:
            for u, _ in faces[s]:
                if not bit[u]:
                    queue.append(u)
                    bit[u] = top >> len(queue)
    if len(queue) < n_faces:
        for t in range(n_faces):
            if not bit[t]:
                queue.append(t)
                bit[t] = top >> len(queue)
    keys = []
    for fs, w in zip(faces, wnum):
        key = w << n_faces
        for t, _ in fs:
            key += bit[t]
        keys.append(key)
    # Decreasing keys; a sort in reverse keeps the index order of ties,
    # which only degree 0, with no faces, has.
    order = sorted(range(len(wnum)), key=keys.__getitem__, reverse=True)
    K._memo["order", d] = (seeds, order)
    return order


def _level_order(pivots: Sequence[tuple[int, Mapping[int, int]]],
                 modulus: int) -> Sequence[tuple[int, Mapping[int, int]]]:
    """The ``pivots`` in the order the search takes them.

    A forced level, whose column is the lone n*e_r, has one candidate,
    since its congruence class meets (-n/2, n/2] once, and its value is
    fixed once every level whose column has an entry at row r is
    assigned.  So it goes just after the last of those levels, or first
    where there is none.  The forced levels placed at one point keep their
    order, and so do all the other levels.

    This moves only the node count.  The levels a forced level jumps leave
    its row alone, and its column touches no other row, so each column
    still has zeros at the rows of the levels before it and every coset
    point is reached by the same moves.  The branching levels keep their
    order, so the leaves come in the same order.  Every bound of
    ``_search_lattice`` only grows as a row is assigned, so a branching
    level that finds a forced row assigned earlier visits none of its
    nodes that it did not visit before.  So the values, minimizers and
    their order, exactness and the value-only minimizer are those of the
    row order.  The count falls at the branching levels, but a forced
    level may be counted on a path that a branching level it jumped cuts,
    so the count of one search can rise.  With no entry that is 0 mod n,
    as ``_echelon_columns`` leaves them, the last level touching a row is
    the same in every echelon basis whose forced columns are lone, and so
    is the count.

    One pass over the column nonzeros places every level; the rows are
    those of the pivots.
    """
    after: dict[int, list] = {}  # forced levels by the level they follow
    last = [-1] * len(pivots)  # the last level so far touching each row
    order = []
    for k, (r, col) in enumerate(pivots):
        if col[r] == modulus and len(col) == 1:
            after.setdefault(last[r], []).append((r, col))
        else:
            order.append(k)
            for i in col:
                last[i] = k
    if not after:
        return pivots
    placed = after.get(-1, [])
    for k in order:
        placed.append(pivots[k])
        placed += after.get(k, ())
    return placed


def _search_lattice(wnum: Sequence[int], z0: Sequence[int],
                    pivots: Sequence[tuple[int, Mapping[int, int]]],
                    cap_count: int, *,
                    faces: Sequence[Sequence[tuple[int, int]]], modulus: int,
                    phi: Optional[Sequence[int]] = None,
                    value_only: bool = False,
                    cocycles: Optional[tuple[Sequence[Sequence[tuple[int, int]]],
                                             int]] = None):
    """Enumerate all lattice-coset points of minimal weighted l1 mass that
    are no heavier than z0, each coefficient in the residue range
    (-n/2, n/2] of n = ``modulus``.

    The coset is z0 + span(pivot columns), with a pivot at every row, as
    in the echelon of a lattice that holds n * e_r for every row r
    (``_echelon_columns``); it is searched depth first over the pivots.
    The residue range contains 0, so the candidates at a pivot row, its
    congruence class in the range, are merged outward from 0 by two
    cursors, cheapest first with t before -t, so incumbents improve fast
    and the first candidate over budget ends the row.  The budget starts
    at mass(z0), so the range needs no cut by mass: a candidate v with
    wnum[r] * |v| > mass(z0) is over budget.  A move and its undo touch
    only the (row, coeff) nonzeros of the pivot column.

    The levels go in the order of ``_level_order``, which takes each
    forced level where its value is fixed; only the node count moves.

    ``phi``, if given, is a calibration of the class on the scale of
    ``wnum``: |phi[s]| <= wnum[s], and phi(x) = phi(z0) at every coset
    point x of mass at most mass(z0).  Such an x has
    mass(x) = phi(z0) + sum_s (wnum[s] |x_s| - phi[s] x_s) with no negative
    term, so the terms of the rows assigned so far plus phi(z0) bound the
    mass of every completion within budget from below, and a candidate
    whose bound exceeds the incumbent is dropped (ties are kept).  The term
    only grows outward on each side of 0, so the first such candidate
    closes its cursor.

    ``faces`` lists the (face, sign) incidences of each row, and every
    coset point is a cycle mod ``modulus``.  Once the rows up to a level
    are assigned, each face t has a residual a_t, the signed sum of its
    assigned rows, and its unassigned rows must supply
    sum |x_s| >= dist_t = dist(a_t, nZ), each at a weight of at least m_t,
    the least weight on t.  Each row lies on ``arity`` faces, so the
    unassigned rows have mass >= sum_t m_t dist_t / arity, and a candidate
    is dropped when arity * mass + sum_t m_t dist_t exceeds arity * best
    (ties are kept).  The bound holds in any row order: m_t is the least
    weight of any row on t, so no more than that of an unassigned one, and
    once every row on t is assigned dist_t = 0, since those rows are those
    of a coset point.  A level changes only the faces of its row, and the
    candidate is tested before its move, so a dropped one is not counted
    as a node.  The terms of the other faces alone, with the candidate's
    mass, bound every later candidate of the row too, whose mass is no
    less: once they fail the test, the row ends.

    ``cocycles``, if given, is (incidences, mu): the (level, coeff)
    incidences of each row on integral cocycles h_m with
    h_m(x) = h_m(z0) (mod ``modulus``) at every coset point x, and
    mu * sum_m |h_m(s)| <= wnum[s] for every row s.  Once the rows up to a
    level are assigned, the unassigned rows of h_m must make up the
    distance dist_m from h_m(z0) - h_m(assigned rows) to nZ, so they
    have mass >= mu * sum_m dist_m, and a candidate is dropped when its
    mass plus that exceeds best (ties are kept).  The terms of the levels
    the pivot row is not on do not change with the candidate, so they join
    the test that ends the row; the others are tested per candidate, and
    only where the row lies on some h_m.  The face and cocycle bounds are
    tested separately, so together they act as their maximum.

    With ``value_only`` the ties are not enumerated: once there is an
    incumbent every test drops a candidate whose bound reaches it, which,
    masses being integers at this scale, is the strict test against
    best - 1.  The search then keeps one minimizer and reports the count
    as not exact.  It visits no node the full search does not.
    """
    depth = len(pivots)
    calibrated = phi is not None
    fvec = phi if calibrated else [0] * len(wnum)
    # m[t], the least weight of a row on face t: no more than that of any
    # unassigned row on t.
    m: dict[int, int] = {}
    for fs, w in zip(faces, wnum):
        for t, _ in fs:
            if m.get(t, w) >= w:
                m[t] = w
    arity = max(map(len, faces), default=0) or 1
    n = modulus
    lo, hi = -((n - 1) // 2), n // 2
    # res holds the residual a_t of each face t, then that of each level m
    # at n_faces + m: h_m of the assigned rows minus h_m(z0).
    n_faces = 1 + max(m, default=-1)
    incidences, mu = cocycles or ([()] * len(wnum), 0)
    n_levels = 1 + max((lv for on in incidences for lv, _ in on), default=-1)
    res = [0] * (n_faces + n_levels)
    for on, v in zip(incidences, z0):
        for lv, hv in on if v else ():
            res[n_faces + lv] -= hv * v
    levels = []
    for r, col in _level_order(pivots, n):
        on = incidences[r]
        on = [(n_faces + lv, hv) for lv, hv in on] if on else ()
        levels.append((r, col[r], wnum[r], fvec[r], list(col.items()),
                       [(t, sign, m[t]) for t, sign in faces[r]], on))

    cur = list(z0)
    # Candidates with a bound above limit drop.
    best = limit = sum(w * abs(v) for w, v in zip(wnum, z0))
    slack = 1 if value_only else 0
    sols: list[tuple[int, ...]] = []
    exact = True
    nodes = 0
    leveled = mu * sum(min(x % n, -x % n) for x in res[n_faces:])

    def record(total: int) -> None:
        nonlocal best, limit, sols, exact
        if total < best or value_only:
            best = total
            sols = [tuple(cur)]
            exact = not value_only
        elif total == best:
            if len(sols) < cap_count:
                sols.append(tuple(cur))
            else:
                exact = False
        limit = best - slack

    # The bound is acc - f, with f = phi(assigned rows) - phi(z0).
    def dfs(k: int, acc: int, f: int, residual: int, leveled: int) -> None:
        nonlocal nodes
        if k == depth:
            record(acc)
            return
        r, g, w, f_r, move, level_faces, on_levels = levels[k]
        # The residual bound without the faces of row r.
        rest = residual
        for t, _, mt in level_faces:
            x = res[t] % n
            rest -= mt * (x if x + x <= n else n - x)
        # The cocycle bound without the levels row r lies on.
        off = leveled
        for t, _ in on_levels:
            x = res[t] % n
            off -= mu * (x if x + x <= n else n - x)
        on = 0  # the cocycle bound of the levels row r lies on
        base = cur[r]
        p = base % g  # smallest nonnegative candidate
        q = p - g     # largest negative candidate
        while True:
            if p <= hi and (q < lo or p <= -q):
                v = p
                p += g
                total = acc + w * v
            elif q >= lo:
                v = q
                q -= g
                total = acc - w * v
            else:
                break
            if total + off > limit:
                break  # later candidates only cost more at this row
            if calibrated:
                fv = f + f_r * v
                if total - fv > limit:
                    if v >= 0:
                        p = hi + 1
                    else:
                        q = lo - 1
                    continue
            else:
                fv = 0
            # At v = 0 the faces of row r keep their residuals.
            if v:
                new = 0
                for t, sign, mt in level_faces:
                    x = (res[t] + sign * v) % n
                    new += mt * (x if x + x <= n else n - x)
            else:
                new = residual - rest
            if arity * total + rest + new > arity * limit:
                if arity * total + rest > arity * limit:
                    break  # new >= 0, and total only grows
                continue
            if on_levels:
                if v:
                    on = 0
                    for t, sign in on_levels:
                        x = (res[t] + sign * v) % n
                        on += x if x + x <= n else n - x
                    on *= mu
                else:
                    on = leveled - off
                if total + off + on > limit:
                    continue
            nodes += 1
            steps = (v - base) // g
            if steps:
                for i, cv in move:
                    cur[i] += steps * cv
            if v:
                for t, sign, _ in level_faces:
                    res[t] += sign * v
                for t, sign in on_levels:
                    res[t] += sign * v
            dfs(k + 1, total, fv, rest + new, off + on)
            if v:
                for t, sign, _ in level_faces:
                    res[t] -= sign * v
                for t, sign in on_levels:
                    res[t] -= sign * v
            if steps:
                for i, cv in move:
                    cur[i] -= steps * cv

    # dfs nests one call per row.
    recursion_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(recursion_limit + depth)
    try:
        dfs(0, 0, -sum(map(mul, fvec, z0)), 0, leveled)
    finally:
        sys.setrecursionlimit(recursion_limit)
    return best, sols, exact, nodes
