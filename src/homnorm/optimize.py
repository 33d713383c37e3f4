"""The three minimizer engines plus calibration certificates.

* min_real: the exact real norm with a closed cochain of comass <= 1
  certifying the value.  In degree 1 it maximizes c.t over the closed
  forms sum t_i eta_i + dG of comass <= 1, an LP in beta variables with one
  row per cycle of the 1-skeleton, by cutting planes: a small exact simplex
  over the cycles found so far and one Bellman-Ford run per round to find
  the next (``_calibrate``).  In degree >= 2 it solves the sign-split chain
  LP over a reference cycle plus boundaries on the tableau of ``lp``.
* min_mod: complete branch-and-bound enumeration of the mod-n chains in a
  class, as integer lifts x = z0 + boundary + n*u, i.e. over the
  full-rank lattice spanned by the boundaries and n times the standard
  basis, restricted to canonical residue ranges, organized as a DFS over
  an echelonized basis of that lattice with the mass of the class
  representative z0 as the first budget.
* min_int: the same search at a modulus N that it picks.  It first solves
  the real LP and also prunes on its dual certificate, a calibration phi:
  mass(x) >= phi(z0) + sum of w_s|x_s| - phi_s x_s over the simplices
  assigned so far.

The search modulo N is exact over Z.  With m0 = mass(z0) and the weights
at one integer scale, a coset point x of mass <= m0 has |x|_1 <= s1 =
m0 // min w.  N = tau * (B // tau + 1), with tau the torsion number and B
the larger of 2*s1 and every |c_i| + s1 * max|eta_i|, eta_i the cocycle
dual to free basis cycle i.  So s1 < N/2 and the residue range
(-N/2, N/2] holds every coefficient of such an x; each
|boundary(x)_t| <= s1 < N while boundary(x) = 0 mod N, so x is an integral
cycle; x - z0 = boundary(y) + N*u with u a cycle, so [x] = c + N[u], where
tau | N kills the torsion of N[u] and |eta_i(x)| < N - |c_i| forces
eta_i(u) = 0.  So x lies in class c: the coset points of mass <= m0, the
value and the minimizers are those of the integral search, and phi, which
needs only that x lies in class c, stays a calibration.

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
complex; any order gives the same values and minimizers.  Each call
echelonizes its lattice from the faces of the (d+1)-simplices
(``_echelon_columns``): each row reduces only the columns whose first
nonzero row it is, and the entries stay in (-n, n), so the n*e_r columns
past a unit pivot vanish and the pivot columns stay short.  The rows
before the first one where the reduction could depend on n take the same
operations at every modulus, so that prefix is reduced once per row order
and kept in the complex's memo beside it (``_echelon_prefix``); each call
resumes from it.  On an orientable surface the boundaries are totally
unimodular and the prefix is the whole order.  Every row is a
pivot row, a node fixes the rows up to its pivot, and the lattice alone
fixes the pivot entries and the congruence class of the candidates, so the
values and minimizers are those of any echelon basis.  A row whose pivot
column is the lone n*e_r is a forced level, with one candidate, which the
search takes where its value is fixed (``_level_order`` says why only
the node count moves).  Each reported chain is built once, from its
sorted canonical coefficients.

Over Z/n the coset points within budget lie in many integral classes, on
which phi(x) is not constant, so min_mod cannot prune on the real
calibration.  In degree 1 it prunes on a mod-n calibration instead (F.
Morgan, *Calibrations modulo nu*, Adv. Math. 64, 1987): the level sets of
the least comass form of the cocycle dual to a free basis cycle are closed
integral cocycles h_m with sum_m |h_m(e)| <= D*w_e, so the mass of a mod-n
cycle x of the class is at least (1/D) sum_m dist(h_m(z0), nZ).  On the
unit k x k grid they are k disjoint strip cocycles, and the bound meets
the value k at the root.

One integer-scale test, ``complexes._is_calibration``, decides "closed
with comass <= 1" for every calibration: the form ``_calibrate`` builds,
the certificate ``min_int`` prunes on and the cochain
``verify_certificate`` is given, which it then pairs with the class at the
same integer scale, over the sparse free basis cycles.

Two cases need no search.  With no boundary moves (the top degree) the
coset is the class representative alone, and that is the report.  And
value_real <= value_int, so an integral real minimizer in the class is an
integral minimizer; a value-only min_int reports it.  (Dey, Hirani and
Krishnamoorthy, SIAM J. Comput. 2011: when the next boundary matrix is
totally unimodular, as on orientable surfaces, every vertex is integral.
In degree 1 the real minimizer is sum lam_j C_j over cycles C_j, integral
when the lam_j are.)

Values are exact rationals; minimizer sets are enumerated completely up to
the configured cap and reported in a fixed deterministic order.  A
value-only call (``value_only=True``, for callers that read only the value)
does not enumerate ties: once it has an incumbent it prunes every node
whose bound reaches it, and reports one minimizer with
minimizer_count_exact false.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from .complexes import (Chain, Cochain, WeightedComplex, _at_integer_scale,
                         _is_calibration)
from .homology import (ClassCoords, HomologyDecomposition, InfeasibleClassError,
                       _boundary_rows, class_of_cycle, homology_decomposition,
                       reduce_class)
from .lp import solve_cycle_lp
from .rings import RAT, RingSpec, canonical_lift, format_rational

DEFAULT_MINIMIZER_CAP = 10_000


@dataclass
class OptReport:
    """Result of one class-norm computation."""

    coords: ClassCoords
    value: Fraction
    minimizers: tuple[Chain, ...]
    minimizer_count_exact: bool
    certificate: Optional[Cochain]
    nodes_explored: int

    def to_json(self) -> dict:
        out = {
            "ring": self.coords.ring.tag,
            "class": self.coords.to_json(),
            "value": format_rational(self.value),
            "minimizers": [ch.to_json() for ch in self.minimizers],
            "minimizer_count_exact": self.minimizer_count_exact,
            "nodes_explored": self.nodes_explored,
        }
        out["certificate"] = ([format_rational(v) for v in self.certificate.values]
                              if self.certificate is not None else None)
        return out

    def scale(self, k: int) -> "OptReport":
        """The report of the class k*c, k >= 1, for a real report: the value
        and minimizer times k, the same certificate and counter."""
        return OptReport(
            self.coords.scale(k), k * self.value,
            tuple(Chain.make(T.complex, T.degree, T.ring,
                             [(i, k * v) for i, v in T.coeffs])
                  for T in self.minimizers),
            self.minimizer_count_exact, self.certificate,
            self.nodes_explored)


def _validate_coords(K: WeightedComplex, d: int, c: ClassCoords,
                     expected: str) -> HomologyDecomposition:
    dec = homology_decomposition(K, d)
    if c.decomposition is not dec:
        raise InfeasibleClassError(
            "class coordinates do not belong to this complex/degree")
    if c.ring.kind != expected:
        raise InfeasibleClassError(
            f"expected {expected} class coordinates, got {c.ring.tag}")
    return dec


def _check_cap(cap: int) -> None:
    if cap < 1:
        raise ValueError(f"the minimizer cap must be at least 1, got {cap}")


def _zero_report(K: WeightedComplex, d: int, c: ClassCoords,
                 with_certificate: bool) -> OptReport:
    cert = Cochain.zero(K, d) if with_certificate else None
    return OptReport(c, Fraction(0),
                     (Chain.zero(K, d, c.ring),), True, cert, 0)


def _unit_cleared(b: dict[int, int], a: dict[int, int], q: int
                  ) -> Optional[dict[int, int]]:
    """b - q*a as ``_echelon_columns`` forms it in place, keys in the same
    order, but on a copy, so that a row of the prefix can stop with its
    columns as they were: None where an entry would leave {-1, 0, 1}."""
    b = dict(b)
    for i, v in a.items():
        if x := b.get(i, 0) - q * v:
            if x * x > 1:
                return None
            b[i] = x
        else:
            del b[i]  # q*v != 0, so b held q*v at i
    return b


# The pivot column of each row of an echelon prefix, and the columns left
# after it, by leading row.
_Prefix = tuple[list[Optional[dict[int, int]]], list[dict[int, int]]]


def _echelon_prefix(columns: Sequence[Iterable[tuple[int, int]]],
                    row_order: Sequence[int]) -> _Prefix:
    """The part of ``_echelon_columns`` along ``row_order`` that is the same
    for every modulus: the rows up to the first one whose least leading
    |entry| is not 1, or where a column operation would leave an entry
    outside {-1, 0, 1}; no row at all if an entry of ``columns`` is
    outside {-1, 0, 1}.

    Before that row the n*e_r column never becomes a pivot nor joins a
    later bucket, and every entry is in {-1, 0, 1}, which no modulus
    reduces, so every modulus takes the same operations.
    Returns the pivot column of each row before it (None for a row that no
    column starts at, whose pivot is n*e_r) and the remaining columns, to
    resume from.
    """
    columns = [dict(col) for col in columns if col]
    if any(v * v > 1 for col in columns for v in col.values()):
        return [], columns
    pos = {r: k for k, r in enumerate(row_order)}.__getitem__
    buckets: list[list[dict[int, int]]] = [[] for _ in row_order]
    for col in columns:
        buckets[min(map(pos, col))].append(col)
    shared: list[Optional[dict[int, int]]] = []
    for k, r in enumerate(row_order):
        nz = sorted(buckets[k], key=lambda col: (abs(col[r]), len(col)))
        if not nz:
            shared.append(None)
            continue
        a = nz[0]
        s = a[r]
        if s * s != 1:
            break
        cleared = [_unit_cleared(b, a, b[r] * s) for b in nz[1:]]
        if None in cleared:
            break
        for b in cleared:
            if b:
                buckets[min(map(pos, b))].append(b)
        if s < 0:
            for i in a:
                a[i] = -a[i]
        shared.append(a)
    return shared, [col for bucket in buckets[len(shared):] for col in bucket]


def _echelon_columns(columns: Sequence[Iterable[tuple[int, int]]],
                     row_order: Sequence[int], modulus: int,
                     prefix: Optional[_Prefix] = None
                     ) -> list[tuple[int, dict[int, int]]]:
    """Unimodular column reduction to echelon form along ``row_order`` of
    the lattice spanned by ``columns`` and n*e_r for every row r, n the
    ``modulus``.

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

    The rows up to the first one where the reduction could depend on n are
    reduced by ``_echelon_prefix``, whose result ``prefix`` may carry in
    from an earlier call on the same columns and order: its pivot columns
    are shared, not copied, and the reduction resumes on copies of its
    remaining columns, each entry reduced into (-n, n).  On an orientable
    surface, whose boundaries are totally unimodular, it covers every row.

    Returns (pivot_row, column) pairs; each pivot column has a positive
    entry at its pivot row, zeros at all earlier rows of the order, and
    no entry that is 0 mod n, so a column changes a row mod n wherever it
    has an entry there.  Column operations preserve the spanned lattice,
    so the pivot rows and entries are those of any echelon basis of it
    along the order.
    """
    shared, rest = prefix or _echelon_prefix(columns, row_order)
    n = modulus
    result = [(r, col or {r: n}) for r, col in zip(row_order, shared)]
    rows = row_order[len(shared):]
    if not rows:
        return result
    # The remaining columns are zero on the rows of the prefix; each goes to
    # the bucket of its leading row with its entries in (-n, n).
    pos = {r: k for k, r in enumerate(rows)}.__getitem__
    buckets: list[list[dict[int, int]]] = [[] for _ in rows]
    for col in rest:
        col = {i: v if -n < v < n else v % n for i, v in col.items() if v % n}
        if col:
            buckets[min(map(pos, col))].append(col)
    for k, r in enumerate(rows):
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


def _sorted_chains(K: WeightedComplex, d: int, ring: RingSpec,
                   vectors: list[tuple[int, ...]]) -> tuple[Chain, ...]:
    """The distinct chains of the integer coefficient ``vectors``, ordered
    by their (index, coefficient) tuples.

    Over Z/n the vectors hold lifts in (-n/2, n/2], so each nonzero entry
    has a nonzero residue.  The canonical (index, coefficient) tuples, of
    the integers over Z and of their residues over Z/n, are deduplicated
    and sorted before any chain exists, and each chain is built once.
    """
    idx = range(K.n_simplices(d))
    n = ring.modulus
    if n is None:
        keys = {tuple(zip(compress(idx, vec), compress(vec, vec)))
                for vec in vectors}
    else:  # n.__rmod__(v) is v % n
        keys = {tuple(zip(compress(idx, vec),
                          map(n.__rmod__, compress(vec, vec))))
                for vec in vectors}
    return tuple([Chain(K, d, ring, coeffs) for coeffs in sorted(keys)])


def _integral_vertex(K: WeightedComplex, d: int, c: ClassCoords,
                     real: OptReport) -> Optional[Chain]:
    """The real minimizer as an integral chain, if it is one in class ``c``.

    Such a chain is an integral minimizer, since value_real <= value_int.
    """
    (vertex,) = real.minimizers
    if any(v.denominator != 1 for _, v in vertex.coeffs):
        return None
    z = Chain.make(K, d, c.ring, [(i, int(v)) for i, v in vertex.coeffs])
    return z if class_of_cycle(K, d, z) == c else None


def _negative_cycle(out: Sequence[Sequence[tuple[int, int]]],
                    tails: Sequence[int], cost: Sequence[int]
                    ) -> tuple[list[int], Optional[list[int]]]:
    """Bellman-Ford from a source at cost 0 to every vertex.

    Arc k runs from ``tails[k]`` at the integer cost ``cost[k]``, and
    ``out[u]`` lists the (head, k) of the arcs out of vertex u by
    increasing k.  Each pass relaxes the arcs out of the vertices the pass
    before lowered (all of them at first).  Returns the shortest-path
    potentials and None, or, when the last of as many passes as there are
    vertices still lowers some vertex, the arc indices of a negative cycle.
    """
    n_vertices = len(out)
    G = [0] * n_vertices
    pred: list[int] = [0] * n_vertices
    lowered: Iterable[int] = range(n_vertices)
    for _ in range(n_vertices):
        frontier, lowered = lowered, {}
        for u in frontier:
            gu = G[u]  # no arc is a loop, so G[u] holds over out[u]
            for v, k in out[u]:
                x = gu + cost[k]
                if x < G[v]:
                    G[v] = x
                    pred[v] = k
                    lowered[v] = None
        if not lowered:
            return G, None
    v = next(iter(lowered))
    for _ in range(n_vertices):  # walk back onto the cycle
        v = tails[pred[v]]
    cycle, u = [], v
    while True:
        cycle.append(pred[u])
        u = tails[pred[u]]
        if u == v:
            return G, cycle


def _fractions(numerators: Iterable[int], denominator: int) -> list[Fraction]:
    """Each numerator over ``denominator``, one Fraction per distinct value."""
    numerators = list(numerators)
    value = {p: Fraction(p, denominator) for p in set(numerators)}
    return list(map(value.__getitem__, numerators))


def _calibrate(K: WeightedComplex, etas: Sequence[Mapping[int, int]],
               basis: Sequence[Chain], c: Sequence[Fraction]
               ) -> tuple[list[Fraction], int, list[int], list[int],
                          list[tuple[int, Fraction]], int]:
    """Max c.t over t in Q^beta with sum t_i eta_i + dG/D of comass <= 1.

    The eta_i are degree-1 cocycles with eta_i(b_j) = [i == j] on the
    cycles b_j of ``basis``.  Some potential G gives sum t_i eta_i + dG
    comass <= 1 exactly when t.eta(C) <= w(C) on every directed cycle C of
    the 1-skeleton, so this is an LP in beta variables with one row per
    cycle (Dey, Hirani and Krishnamoorthy, SIAM J. Comput. 2011), solved by
    cutting planes.  With the weights at the integer scale W and u = W*t,
    the rows are a.u <= r, a = eta(C) and r = W*w(C), both integral,
    starting from the box rows of +-b_i.  The master is solved as its dual,
    min r.lam over lam >= 0 with sum lam_j a_j = c, by a dense exact
    simplex with Bland's rule from the box basis of the signs of c, so a
    new row is a new column and the pivots resume from the last basis.
    Separation is one Bellman-Ford run on both orientations of every edge
    at the integer costs L*W*w_e -+ D*t.eta_e, D = L*W with L the common
    denominator of t: a negative cycle is the next row, none ends the loop
    with potentials G.  There are finitely many simple cycles, so it ends.
    The arc lists are built once per call; a round computes only the costs,
    from the weights and from the entries of the eta_i alone, which are
    sparse.

    Then phi = sum t_i eta_i + dG/D is closed with comass <= 1 (both are
    checked) and pairs to c.t with the class c, and x = sum lam_j C_j over
    the final basis is a real cycle in that class of mass r.lam/W = c.t.
    Returns (t, D, D*phi, G, x as (edge, coefficient) pairs, rounds), rounds
    the Bellman-Ford runs.
    """
    wt, W = K.integer_weights(1)
    ends = [(tail, head) for (head, _), (tail, _) in K.faces(1)]
    # The 1-skeleton's arcs: 2e runs along edge e, 2e + 1 against it.
    out: list[list[tuple[int, int]]] = [[] for _ in range(K.n_simplices(0))]
    tails = []
    for e, (tail, head) in enumerate(ends):
        out[tail].append((head, 2 * e))
        out[head].append((tail, 2 * e + 1))
        tails += (tail, head)
    arc_weights = [w for w in wt for _ in (0, 1)]  # the weight of each arc
    beta = len(etas)
    cz, c_scale = _at_integer_scale(c)  # lam scales with c
    # Master columns (a, r, chain): the box rows of b_i and -b_i, then cuts.
    cols = []
    for i, b in enumerate(basis):
        r = sum(wt[s] * abs(v) for s, v in b.coeffs)
        for sign in (1, -1):
            cols.append(([sign * (j == i) for j in range(beta)], r,
                         [(s, sign * v) for s, v in b.coeffs]))
    basic = [2 * i + (a < 0) for i, a in enumerate(cz)]
    # inv = den * B^-1 for the basis columns B, kept in integers by
    # Edmonds' pivots: every division is exact and den = |det B|.
    inv = [[(-1 if a < 0 else 1) * (j == i) for j in range(beta)]
           for i, a in enumerate(cz)]
    den = 1
    rounds = 0
    while True:
        while True:
            # u = U/den with B^T u = r_B; Bland enters the first column
            # with r < a.u and leaves by the least ratio lam/step, ties to
            # the least basic index.
            r_basic = [cols[j][1] for j in basic]
            U = [sum(map(mul, r_basic, column)) for column in zip(*inv)]
            enter = next((j for j, (a, r, _) in enumerate(cols)
                          if den * r < sum(map(mul, a, U))), None)
            if enter is None:
                break
            step = [sum(map(mul, row, cols[enter][0])) for row in inv]
            lam = [sum(map(mul, row, cz)) for row in inv]
            leave = -1
            for k, s in enumerate(step):
                if s > 0 and (leave < 0 or (
                        lam[k] * step[leave], basic[k]) < (
                        lam[leave] * s, basic[leave])):
                    leave = k
            p, prow = step[leave], inv[leave]
            for k, f in enumerate(step):
                if k != leave:
                    inv[k] = [(p * x - f * y) // den
                              for x, y in zip(inv[k], prow)]
            den = p
            basic[leave] = enter
        rounds += 1
        t = [Fraction(x, den * W) for x in U]
        L = lcm(*(x.denominator for x in t))
        Dt = [x.numerator * (L // x.denominator) * W for x in t]
        hD: dict[int, int] = {}  # D*t.eta_e on the edges of the etas
        for Di, eta in zip(Dt, etas):
            for e, v in eta.items() if Di else ():
                hD[e] = hD.get(e, 0) + Di * v
        cost = list(map(L.__mul__, arc_weights))
        for e, x in hD.items():
            cost[2 * e] -= x
            cost[2 * e + 1] += x
        G, cycle = _negative_cycle(out, tails, cost)
        if cycle is None:
            break
        chain = [(k >> 1, -1 if k & 1 else 1) for k in cycle]
        a = [sum(v * eta.get(e, 0) for e, v in chain) for eta in etas]
        cols.append((a, sum(wt[e] for e, _ in chain), chain))
    dphi = [hD.get(e, 0) + G[head] - G[tail]
            for e, (tail, head) in enumerate(ends)]
    if not _is_calibration(K, 1, dphi, wt, L):
        raise AssertionError("the calibration must be closed with comass <= 1")
    z = [0] * len(ends)
    for j, row in zip(basic, inv):
        weight = sum(map(mul, row, cz))
        for e, v in cols[j][2] if weight else ():
            z[e] += weight * v
    return (t, L * W, dphi, G,
            list(zip(compress(range(len(z)), z),
                     _fractions(compress(z, z), den * c_scale))), rounds)


def _level_cocycles(K: WeightedComplex, dec: HomologyDecomposition,
                    i: int) -> Optional[tuple[int, list[list[tuple[int, int]]]]]:
    """Level-set cocycles of the least comass form of eta_i, in degree 1.

    T* is the least w(C)/eta_i(C) over the cycles C of the 1-skeleton with
    eta_i(C) > 0: ``_calibrate`` of the class b_i alone, where the master
    optimum is the least ratio of its rows, that of the newest cut, so its
    rounds are Dinkelbach's iteration from T = mass(b_i).  Its form
    phi = T* eta_i + dG/D is closed with comass <= 1.
    D*phi = p*W*eta_i + dG (T* = p/q) is integral, and the potential that
    integrates it is multivalued by its periods: on a cycle z,
    D*phi(z) = p*W*eta_i(z), and eta_i(b_i) = 1, so their gcd is
    g = p*W = D*T*.  G is such a potential mod g, since D*phi - dG vanishes
    mod g.  Level m in Z/g takes, on an edge, the signed count of the
    integers congruent to m (mod g) that the potential crosses along it,
    from G at its tail; a period does not change the count.  Each level h_m
    is a closed integral cocycle, and sum_m |h_m(e)| = |D*phi_e| <= D*w_e.
    Returns D and the (level, coeff) incidences of each edge, or None when
    g exceeds the number of edges.  Kept in ``K``'s memo per index.
    """
    key = ("levels", i)
    if key not in K._memo:
        (T,), D, dphi, G, _, _ = _calibrate(
            K, [dec.dual_cocycle(i)], [dec.free_basis[i]], [Fraction(1)])
        g = (D * T).numerator
        K._memo[key] = None if g > len(dphi) else (D, [
            [(m, c) for m in range(g)
             if (c := (G[tail] + x - m) // g - (G[tail] - m) // g)]
            for (_, (tail, _)), x in zip(K.faces(1), dphi)])
    return K._memo[key]


def _coset_minimize(K: WeightedComplex, d: int, c: ClassCoords, kind: str,
                    cap: int, value_only: bool,
                    real: Optional[OptReport] = None) -> OptReport:
    """Exact minimum mass over x = z0 + boundaries + n*u, where z0 is the
    integral class representative, over Z/n with each coefficient taken
    to its canonical lift.

    The search derives its box, the residue range (-n/2, n/2], and its
    budget, mass(z0), from its modulus and z0.  Over Z it runs at a
    modulus N that it picks from z0's mass m0, the dual cocycles of the
    free basis and the torsion number tau, so that the coset points of
    mass <= m0 are the integral cycles of the class (see the module
    docstring).  The search takes the rows in ``_row_order`` and prunes on
    the face residuals of its cycles.  Over Z it also prunes
    on the dual certificate of ``min_real``, a calibration of the class;
    over Z/n phi(x) changes along x + n*e_s, so in degree 1 it prunes
    instead on the level cocycles of the first free index whose coordinate
    is nonzero mod n and that has a family (``_level_cocycles``), at a
    search scale that is a multiple of their D.  With no boundary moves the
    coset is z0 alone (over Z/n, z0's residue range holds no other point
    of z0 + n*Z^m): z0 is the report, with no LP and no search.  A
    ``value_only`` call over Z whose real minimizer is an integral cycle in
    the class reports it, with no search.  ``real``, if given, is taken for
    ``min_real``'s report of the class.  A ``cap`` below 1 is refused.
    """
    _check_cap(cap)
    dec = _validate_coords(K, d, c, kind)
    if c.is_zero():
        report = _zero_report(K, d, c, False)
        report.minimizer_count_exact = not value_only
        return report
    z0 = dec.representative_vector(c)
    n = c.ring.modulus
    if n is not None:
        z0 = [canonical_lift(v, n) for v in z0]
    wnum, w_scale = K.integer_weights(d)
    if not K.n_simplices(d + 1):  # no boundary moves: a one-point coset
        m0 = sum(w * abs(v) for w, v in zip(wnum, z0))
        return OptReport(c, Fraction(m0, w_scale),
                         _sorted_chains(K, d, c.ring, [z0]),
                         not value_only, None, 0)
    phi = family = None
    if n is None:
        if real is None:
            real = min_real(K, d, reduce_class(c, RAT))
        elif real.coords != reduce_class(c, RAT):
            raise ValueError("the real report is not that of the class")
        # The certificate and the weights at one integer scale.
        values, scale = _at_integer_scale(
            (*real.certificate.values, *K.weights[d]))
        phi, wnum = values[:len(wnum)], values[len(wnum):]
        if not _is_calibration(K, d, phi, wnum):
            raise AssertionError(
                "the real certificate must be closed with comass <= 1")
        if value_only:
            z = _integral_vertex(K, d, c, real)
            if z is not None:
                return OptReport(c, real.value, (z,), False, None, 0)
        # N = tau * (B // tau + 1) with B the larger of 2*s1 and every
        # |c_i| + s1 * max|eta_i|, s1 = m0 // min(wnum) bounding |x|_1.
        m0 = sum(w * abs(v) for w, v in zip(wnum, z0))
        s1 = m0 // min(wnum)
        bound = 2 * s1
        for i, a in enumerate(c.free_part):
            eta = dec.dual_cocycle(i).values()
            bound = max(bound, abs(a) + s1 * max(map(abs, eta)))
        tau = dec.torsion_number
        n = tau * (bound // tau + 1)
    else:
        if d == 1:
            family = next(filter(None, (_level_cocycles(K, dec, i)
                                        for i, a in enumerate(c.free_part)
                                        if a % n)), None)
        scale = lcm(w_scale, family[0]) if family else w_scale
        wnum = [w * (scale // w_scale) for w in wnum]
    # Rows by decreasing weight, then outward from z0 over the faces; the
    # echelon of the boundary lattice plus n*Z^m along them, resumed from
    # its modulus-free prefix, which K's memo keeps beside the row order
    # for the searches of every modulus along it.
    columns, order = K.faces(d + 1), _row_order(K, d, z0)
    cached = K._memo.get(("echelon", d))
    if cached is None or cached[0] is not order:
        cached = K._memo["echelon", d] = (
            order, _echelon_prefix(columns, order))
    pivots = _echelon_columns(columns, order, n, cached[1])
    best, sols, exact, nodes = _search_lattice(
        wnum, z0, pivots, cap, faces=K.faces(d), modulus=n, phi=phi,
        value_only=value_only,
        cocycles=(family[1], scale // family[0]) if family else None)
    return OptReport(c, Fraction(best, scale),
                     _sorted_chains(K, d, c.ring, sols), exact, None, nodes)


def min_int(K: WeightedComplex, d: int, c: ClassCoords,
            cap: int = DEFAULT_MINIMIZER_CAP,
            value_only: bool = False,
            real: Optional[OptReport] = None) -> OptReport:
    """Exact minimum mass over the integral cycles in class ``c``.

    Complete branch-and-bound over x = z0 + boundary + N*u, the search of
    ``min_mod`` at a modulus N, a multiple of the torsion number, that is
    large enough for the coset points within budget to be the integral
    cycles of the class.  It first solves the real LP of ``min_real``
    (unless there are no moves) and prunes on its dual certificate,
    checked to be a calibration of the class, and on the face residuals;
    ties are kept, so the value and the minimizers are those of the
    unpruned search.  With ``value_only`` it returns the value
    and one minimizer, with ``minimizer_count_exact`` false: the real
    minimizer when that is an integral cycle in the class, else the first
    minimizer of a search that drops ties.  ``real``, if given, is the
    report of ``min_real`` on the class over Q, which is then not solved
    again.
    """
    return _coset_minimize(K, d, c, "Z", cap, value_only, real)


def min_mod(K: WeightedComplex, d: int, c: ClassCoords,
            cap: int = DEFAULT_MINIMIZER_CAP,
            value_only: bool = False) -> OptReport:
    """Exact minimum mass over the mod-n cycles in class ``c``.

    Searches integer lifts x = z0 + boundary + n*u over canonical residue
    ranges (-n/2, n/2]; every feasible residue chain appears exactly once.
    It prunes on the face residuals mod n and, in degree 1, on a mod-n
    calibration: the level cocycles of the least comass form of the
    cocycle dual to a free basis cycle, whose values on every lift are
    fixed mod n.  Ties are kept, so the value and the minimizers are
    those of the unpruned search.  With ``value_only``
    the search drops ties and returns the value and one minimizer, with
    ``minimizer_count_exact`` false.
    """
    return _coset_minimize(K, d, c, "Z/n", cap, value_only)


def min_real(K: WeightedComplex, d: int, c: ClassCoords,
             cap: int = DEFAULT_MINIMIZER_CAP) -> OptReport:
    """Exact real class norm via LP, with a dual calibration certificate.

    In degree 1 the LP is over H^1 (``_calibrate``): the certificate is
    sum t_i eta_i + dG/D, the minimizer sum lam_j C_j over the tight cycles
    of the master, and ``nodes_explored`` counts the Bellman-Ford rounds.
    In degree >= 2 it minimizes sum w_s |x_s| over x = z0 + boundary(y) by
    sign-splitting both x and y on the tableau of ``solve_cycle_lp``; the LP
    dual is a cochain vanishing on boundaries with comass <= 1 pairing to
    exactly the optimal value (strong duality, exact), and
    ``nodes_explored`` counts its pivots.  The reported minimizer is one
    optimal chain; the full real minimizer set is generally an infinite
    polytope face, so minimizer_count_exact is False for nonzero classes.
    ``cap`` is not read, but one below 1 is refused, as ``min_int`` and
    ``min_mod`` refuse it.
    """
    _check_cap(cap)
    dec = _validate_coords(K, d, c, "Q")
    if c.is_zero():
        return _zero_report(K, d, c, True)
    if d == 1:
        t, D, dphi, _, x, rounds = _calibrate(
            K, [dec.dual_cocycle(i) for i in range(dec.betti)],
            dec.free_basis, c.free_part)
        # x holds nonzero Fractions by increasing edge, and dphi one integer
        # per edge: neither needs the checks of ``make``.
        return OptReport(c, sum(a * v for a, v in zip(c.free_part, t)),
                         (Chain(K, 1, RAT, tuple(x)),), False,
                         Cochain(K, 1, tuple(_fractions(dphi, D))), rounds)
    z0 = dec.representative_vector(c)
    cofaces = K.faces(d + 1) if d < K.dim else ()
    res = solve_cycle_lp(z0, K.weights[d], cofaces)
    n_rows = len(z0)
    x = [p - q if q else p
         for p, q in zip(res.x[:n_rows], res.x[n_rows:2 * n_rows])]
    minimizer = Chain.from_vector(K, d, RAT, x)
    certificate = Cochain.make(K, d, res.duals)
    return OptReport(c, res.value, (minimizer,), False,
                     certificate, res.pivots)


def verify_certificate(K: WeightedComplex, d: int, c: ClassCoords,
                       phi: Cochain, claimed: Fraction) -> bool:
    """Check a calibration: closed, comass <= 1, pairs to ``claimed``.

    A passing certificate proves claimed <= real class norm; paired with a
    feasible chain of mass == claimed it certifies optimality exactly.
    """
    if phi.complex is not K or phi.degree != d:
        return False
    if not c.ring.is_rat:
        raise InfeasibleClassError("certificates verify rational classes")
    dec = _validate_coords(K, d, c, "Q")
    values, scale = _at_integer_scale((*phi.values, *K.weights[d]))
    m = len(phi.values)
    if not _is_calibration(K, d, values[:m], values[m:]):
        return False
    # A Q class has no torsion part, so z0 = sum c_i b_i and phi(z0) is
    # sum c_i phi(b_i), paired in integers at phi's scale.
    paired = sum(a * sum(v * values[k] for k, v in b.coeffs)
                 for a, b in zip(c.free_part, dec.free_basis) if a)
    return paired == Fraction(claimed) * scale


def minimize(K: WeightedComplex, d: int, c: ClassCoords,
             cap: int = DEFAULT_MINIMIZER_CAP) -> OptReport:
    """Dispatch to the engine matching the coordinate ring."""
    if c.ring.is_int:
        return min_int(K, d, c, cap)
    if c.ring.is_rat:
        return min_real(K, d, c, cap)
    return min_mod(K, d, c, cap)
