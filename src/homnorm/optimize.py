"""The three minimizer engines plus calibration certificates and mod-n lifts.

* min_real: exact-rational LP (sign-split chain variables, class constraint
  parametrized by a reference cycle plus boundaries), with the dual vector
  returned as a closed cochain of comass <= 1 certifying the value.
* min_int: complete branch-and-bound enumeration of the integral chains in
  a class, organized as a DFS over an echelonized basis of the boundary
  lattice with per-simplex boxes derived from the initial feasible mass.
  It first solves the real LP and also prunes on its dual certificate, a
  calibration phi: mass(x) >= phi(z0) + sum of w_s|x_s| - phi_s x_s over
  the simplices assigned so far.
* min_mod: the same search over integer lifts with x = z0 + boundary + n*u,
  i.e. over the full-rank lattice spanned by boundaries and n times the
  standard basis, restricted to canonical residue ranges.

Both run one coset search.  Every box contains 0, so the candidates at a
pivot row are merged outward from 0, cheapest first, with no per-node sort;
each move touches only the nonzeros of its pivot column.  Both also prune
on the face residuals: every coset point is a cycle (mod n over Z/n), so
once some simplices are assigned, each (d-1)-face t with residual a_t, the
signed sum of its assigned simplices, needs unassigned simplices of total
|coefficient| >= dist(a_t, nZ) (|a_t| over Z), and the rest of the mass is
at least sum_t m_t dist_t / (d+1), m_t the least weight on t.  The echelon
of the boundary lattice is built once per complex and degree; the mod-n
lattices are echelonized from its columns once it exists, and from the
faces before.

phi(x) is not constant on x + n*e_s, so min_mod cannot prune on the real
calibration.  In degree 1 it prunes on a mod-n calibration instead (F.
Morgan, *Calibrations modulo nu*, Adv. Math. 64, 1987): the level sets of
the least comass form of the cocycle dual to a free basis cycle are closed
integral cocycles h_m with sum_m |h_m(e)| <= D*w_e, so the mass of a mod-n
cycle x of the class is at least (1/D) sum_m dist(h_m(z0), nZ).  On the
unit k x k grid they are k disjoint strip cocycles, and the bound meets
the value k at the root.

Two cases need no search.  With no boundary moves (the top degree) the
coset is the class representative alone, and that is the report.  And
value_real <= value_int, so an integral LP vertex in the class is an
integral minimizer; a value-only min_int reports it.  (Dey, Hirani and
Krishnamoorthy, SIAM J. Comput. 2011: when the next boundary matrix is
totally unimodular, as on orientable surfaces, every vertex is integral.)

Values are exact rationals; minimizer sets are enumerated completely up to
the configured cap and reported in a fixed deterministic order.  A
value-only call (``value_only=True``, for callers that read only the value)
does not enumerate ties: once it has an incumbent it prunes every node
whose bound reaches it, and reports one minimizer with
minimizer_count_exact false.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .complexes import (Chain, Cochain, WeightedComplex, _at_integer_scale,
                         lift_chain, mass)
from .homology import (ClassCoords, HomologyDecomposition, InfeasibleClassError,
                       class_of_cycle, homology_decomposition, reduce_class)
from .lp import solve_cycle_lp
from .rings import RAT, RingSpec, canonical_lift, format_rational

DEFAULT_MINIMIZER_CAP = 10_000


@dataclass
class OptReport:
    """Result of one class-norm computation."""

    ring: RingSpec
    coords: ClassCoords
    value: Fraction
    minimizers: tuple[Chain, ...]
    minimizer_count_exact: bool
    certificate: Optional[Cochain]
    nodes_explored: int

    def to_json(self) -> dict:
        out = {
            "ring": self.ring.tag,
            "class": self.coords.to_json(),
            "value": format_rational(self.value),
            "minimizers": [ch.to_json() for ch in self.minimizers],
            "minimizer_count_exact": self.minimizer_count_exact,
            "nodes_explored": self.nodes_explored,
        }
        out["certificate"] = ([format_rational(v) for v in self.certificate.values]
                              if self.certificate is not None else None)
        return out


@dataclass
class LiftReport:
    """Canonical integer lift of a mod-n chain and what it turned out to be."""

    input: Chain
    lifted: Chain
    is_cycle: bool
    lifted_class: Optional[ClassCoords]
    mass_preserved: bool

    def to_json(self) -> dict:
        return {
            "input": self.input.to_json(),
            "lifted": self.lifted.to_json(),
            "is_cycle": self.is_cycle,
            "lifted_class": (self.lifted_class.to_json()
                             if self.lifted_class is not None else None),
            "mass_preserved": self.mass_preserved,
        }


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


def _zero_report(K: WeightedComplex, d: int, c: ClassCoords,
                 with_certificate: bool) -> OptReport:
    cert = Cochain.zero(K, d) if with_certificate else None
    return OptReport(c.ring, c, Fraction(0),
                     (Chain.zero(K, d, c.ring),), True, cert, 0)


def _echelon_columns(columns: Sequence[Iterable[tuple[int, int]]],
                     row_order: Sequence[int],
                     modulus: Optional[int] = None
                     ) -> list[tuple[int, dict[int, int]]]:
    """Unimodular column reduction to echelon form along ``row_order``.

    Columns are sparse, as (row, coeff) pairs.  With a modulus n the
    lattice also holds n*e_r for every row r.  That column is zero above
    row r, so it joins the reduction only when row r is reached, placed
    after the given columns and among the other n*e columns by row index:
    the pivots are those of listing every n*e_r up front.

    Returns (pivot_row, column) pairs; each pivot column has a positive
    entry at its pivot row and zeros at all earlier rows of the order.
    Column operations preserve the spanned lattice.
    """
    active = [dict(col) for col in columns if col]
    n_given = len(active)  # the given columns come first, then the n*e ones
    e_rows: list[int] = []  # the row r of each n*e_r column, ascending
    result: list[tuple[int, dict[int, int]]] = []
    for r in row_order:
        if modulus is not None:
            at = bisect(e_rows, r)
            e_rows.insert(at, r)
            active.insert(n_given + at, {r: modulus})
        nz = [col for col in active if r in col]
        if not nz:
            continue
        while len(nz) > 1:
            nz.sort(key=lambda col: abs(col[r]))
            a = nz[0]
            for b in nz[1:]:
                q = b[r] // a[r]
                if q:
                    for i, v in a.items():
                        x = b.get(i, 0) - q * v
                        if x:
                            b[i] = x
                        else:
                            del b[i]
            nz = [col for col in nz if r in col]
        piv = nz[0]
        if piv[r] < 0:
            for i in piv:
                piv[i] = -piv[i]
        at = next(i for i, col in enumerate(active) if col is piv)
        del active[at]
        if at < n_given:
            n_given -= 1
        else:
            del e_rows[at - n_given]
        result.append((r, piv))
    return result


def _search_lattice(wnum: Sequence[int], z0: Sequence[int],
                    pivots: Sequence[tuple[int, Mapping[int, int]]],
                    row_order: Sequence[int],
                    lo: Sequence[int], hi: Sequence[int],
                    cap_mass: int, cap_count: int,
                    phi: Optional[Sequence[int]] = None,
                    faces: Optional[Sequence[Sequence[tuple[int, int]]]] = None,
                    modulus: Optional[int] = None, value_only: bool = False,
                    cocycles: Optional[tuple[Sequence[Sequence[tuple[int, int]]],
                                             Sequence[int], int]] = None):
    """Enumerate all lattice-coset points of minimal weighted l1 mass.

    The coset is z0 + span(pivot columns), searched depth first over the
    pivots.  Every box must contain 0 (lo[r] <= 0 <= hi[r]); the candidates
    at a pivot row, its congruence class inside [lo, hi], are then merged
    outward from 0 by two cursors, cheapest first with t before -t, so
    incumbents improve fast and the first candidate over budget ends the
    row.  A move and its undo touch only the (row, coeff) nonzeros of the
    pivot column, and the rows between two pivots are checked against
    precomputed (row, lo, hi, weight) tuples.

    ``phi``, if given, is a calibration on the scale of ``wnum``: it
    vanishes on every pivot column and |phi[s]| <= wnum[s].  Every coset
    point x then has mass(x) = phi(z0) + sum_s (wnum[s] |x_s| - phi[s] x_s)
    with no negative term, so the terms of the rows assigned so far plus
    phi(z0) bound the mass of every completion from below, and a candidate
    whose bound exceeds the incumbent is dropped (ties are kept).  At a
    pivot row the term only grows outward on each side of 0, so the first
    such candidate closes its cursor; the rows after it are not monotone,
    so there only the candidate is dropped.

    ``faces``, if given, lists the (face, sign) incidences of each row, and
    every coset point is then a cycle: mod ``modulus`` if one is given,
    exactly otherwise.  Once the rows up to a level are assigned, each face
    t has a residual a_t, the signed sum of its assigned rows, and its
    unassigned rows must supply sum |x_s| >= dist_t = dist(a_t, nZ) (|a_t|
    over Z), each at a weight of at least m_t, the least weight on t.  Each
    row lies on ``arity`` faces, so the unassigned rows have mass
    >= sum_t m_t dist_t / arity, and a candidate is dropped when
    arity * mass + sum_t m_t dist_t exceeds arity * best (ties are kept).
    The bound holds in any row order: m_t is the least weight of any row on
    t, so no more than that of an unassigned one, and once every row on t
    is assigned dist_t = 0, since those rows are those of a coset point.  A
    level changes only the faces of the rows it assigns.  At a level with
    no rows after its pivot row the candidate is tested before its move,
    and a dropped one is not counted as a node.

    ``cocycles``, if given, is (incidences, targets, mu): the (level,
    coeff) incidences of each row on integral cocycles h_m with
    h_m(x) = targets[m] (mod ``modulus``) at every coset point x, and
    mu * sum_m |h_m(s)| <= wnum[s] for every row s.  Once the rows up to a
    level are assigned, the unassigned rows of h_m must make up the
    distance dist_m from targets[m] - h_m(assigned rows) to nZ, so they
    have mass >= mu * sum_m dist_m, and a candidate is dropped when its
    mass plus that exceeds best (ties are kept).  The terms of the levels
    the pivot row is not on do not change with the candidate, so they join
    the test that ends the row; the others are tested per candidate, and
    only where the row lies on some h_m.  The face and cocycle bounds are
    tested separately, so together they act as their maximum.  They need
    a modulus and a pivot at every row, as over Z/n, where the n*e_r
    columns make every row a pivot.

    With ``value_only`` the ties are not enumerated: once there is an
    incumbent every test drops a candidate whose bound reaches it, which,
    masses being integers at this scale, is the strict test against
    best - 1.  The search then keeps one minimizer and reports the count
    as not exact.  It visits no node the full search does not.
    """
    if any(l > 0 or h < 0 for l, h in zip(lo, hi)):
        raise ValueError("every search box must contain 0")
    depth = len(pivots)
    if cocycles is not None and (modulus is None or depth != len(row_order)):
        raise ValueError("cocycles need a modulus and a pivot at every row")
    pos_in_order = {r: i for i, r in enumerate(row_order)}
    # Positions of the pivot rows in the order, then the end of the order.
    bounds = [pos_in_order[r] for r, _ in pivots] + [len(row_order)]
    prefix = row_order[:bounds[0]]
    calibrated = phi is not None
    fvec = phi if calibrated else [0] * len(wnum)
    if faces is None:
        faces = [()] * len(wnum)
    arity = max(map(len, faces), default=0) or 1
    # With x = a % n, the distance of a residual a to nZ is x if 2x <= n,
    # else n - x.  Over Z take n past twice any |a_t|, which is at most the
    # sum of the boxes since every assigned row lies in its box; the
    # distance is then |a_t|.
    n = modulus or 2 * sum(max(-l, h) for l, h in zip(lo, hi)) + 1
    # m[t], the least weight of a row on face t: no more than that of any
    # unassigned row on t.
    m: dict[int, int] = {}
    for fs, w in zip(faces, wnum):
        for t, _ in fs:
            m[t] = min(w, m.get(t, w))
    # res holds the residual a_t of each face t, then that of each level m
    # at n_faces + m: h_m of the assigned rows minus targets[m].
    n_faces = 1 + max(m, default=-1)
    incidences, targets, mu = cocycles or ([()] * len(wnum), (), 0)
    levels = []
    for k, (r, col) in enumerate(pivots):
        rows = row_order[bounds[k] + 1:bounds[k + 1]]
        if rows:
            assigned = [(s, faces[s]) for s in (r, *rows)]
            touched = dict.fromkeys(t for _, fs in assigned for t, _ in fs)
            level_faces = [(t, 0, m[t]) for t in touched]
        else:
            assigned = []
            level_faces = [(t, sign, m[t]) for t, sign in faces[r]]
        levels.append((r, col[r], wnum[r], lo[r], hi[r], fvec[r],
                       list(col.items()),
                       [(rr, lo[rr], hi[rr], wnum[rr]) for rr in rows],
                       [(rr, fvec[rr]) for rr in rows if fvec[rr]],
                       level_faces, assigned,
                       [(n_faces + lv, hv) for lv, hv in incidences[r]]))

    cur = list(z0)
    best = limit = cap_mass  # candidates with a bound above limit drop
    slack = 1 if value_only else 0
    sols: list[tuple[int, ...]] = []
    exact = True
    nodes = 0

    base_mass = 0
    res = [0] * n_faces + [-t for t in targets]  # no prefix rows with levels
    for r in prefix:
        v = cur[r]
        if v < lo[r] or v > hi[r]:
            return best, sols, exact, nodes
        base_mass += wnum[r] * abs(v)
        for t, sign in faces[r]:
            res[t] += sign * v
    residual = 0
    for t in {t for r in prefix for t, _ in faces[r]}:
        x = res[t] % n
        residual += m[t] * (x if x + x <= n else n - x)
    if arity * base_mass + residual > arity * best:
        return best, sols, exact, nodes
    leveled = 0
    for x in res[n_faces:]:
        x %= n
        leveled += x if x + x <= n else n - x
    leveled *= mu
    # The bound is acc - f, with f = phi(assigned rows) - phi(z0); the
    # prefix rows keep their z0 values.
    f0 = -sum(fvec[r] * z0[r] for r in row_order[bounds[0]:])

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

    def dfs(k: int, acc: int, f: int, residual: int, leveled: int) -> None:
        nonlocal nodes
        if k == depth:
            record(acc)
            return
        (r, g, w, lo_r, hi_r, f_r, move, segment, segment_phi,
         level_faces, assigned, on_levels) = levels[k]
        # The residual bound without the faces this level assigns to.
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
            if p <= hi_r and (q < lo_r or p <= -q):
                v = p
                p += g
                total = acc + w * v
            elif q >= lo_r:
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
                        p = hi_r + 1
                    else:
                        q = lo_r - 1
                    continue
            else:
                fv = 0
            if not segment:
                # Only row r is assigned here: test before the move.  At
                # v = 0 its faces keep their residuals.
                if v:
                    new = 0
                    for t, sign, mt in level_faces:
                        x = (res[t] + sign * v) % n
                        new += mt * (x if x + x <= n else n - x)
                else:
                    new = residual - rest
                if arity * total + rest + new > arity * limit:
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
            if not segment:
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
            else:
                for rr, l, h, wr in segment:
                    x = cur[rr]
                    if x < l or x > h:
                        break
                    total += wr * abs(x)
                    if total > limit:
                        break
                else:
                    for s, fs in assigned:
                        x = cur[s]
                        if x:
                            for t, sign in fs:
                                res[t] += sign * x
                    new = 0
                    for t, _, mt in level_faces:
                        x = res[t] % n
                        new += mt * (x if x + x <= n else n - x)
                    for rr, fr in segment_phi:
                        fv += fr * cur[rr]
                    if (arity * total + rest + new <= arity * limit
                            and total - fv <= limit):
                        dfs(k + 1, total, fv, rest + new, leveled)
                    for s, fs in assigned:
                        x = cur[s]
                        if x:
                            for t, sign in fs:
                                res[t] -= sign * x
            if steps:
                for i, cv in move:
                    cur[i] -= steps * cv

    dfs(0, base_mass, f0, residual, leveled)
    return best, sols, exact, nodes


def _sorted_chains(K: WeightedComplex, d: int, ring: RingSpec,
                   vectors: list[tuple[int, ...]]) -> tuple[Chain, ...]:
    chains = {Chain.from_vector(K, d, ring, vec) for vec in vectors}
    return tuple(sorted(chains, key=lambda ch: ch.coeffs))


def _echelon(K: WeightedComplex, d: int, wnum: Sequence[int],
             modulus: Optional[int] = None
             ) -> tuple[list[int], list[tuple[int, dict[int, int]]]]:
    """The search's row order in degree ``d``, (-weight, index), and the
    echelon along it of the boundary lattice, plus n*Z^m over Z/n.
    ``wnum`` holds the degree-d weights at a positive integer scale, which
    order the rows as the weights do.

    The echelon over Z is cached on ``K`` per degree.  A mod-n echelon is
    built from its columns when it is cached, as in the harness, which
    calls min_int first, and from the faces otherwise: both span the same
    lattice, so the pivots, and with them every search tree, are the same.
    """
    cached = K._echelon_cache.get(d)
    if cached is None:
        row_order = sorted(range(len(wnum)), key=lambda r: (-wnum[r], r))
        columns = K.faces(d + 1) if d < K.dim else ()
        if modulus is not None:
            return row_order, _echelon_columns(columns, row_order, modulus)
        cached = row_order, _echelon_columns(columns, row_order)
        K._echelon_cache[d] = cached
    if modulus is None:
        return cached
    row_order, pivots = cached
    return row_order, _echelon_columns([col for _, col in pivots], row_order,
                                       modulus)


def _integral_vertex(K: WeightedComplex, d: int, c: ClassCoords,
                     real: OptReport) -> Optional[Chain]:
    """The real LP vertex as an integral chain, if it is one in class ``c``.

    Such a vertex is an integral minimizer, since value_real <= value_int.
    """
    (vertex,) = real.minimizers
    if any(v.denominator != 1 for _, v in vertex.coeffs):
        return None
    z = Chain.make(K, d, c.ring, [(i, int(v)) for i, v in vertex.coeffs])
    return z if class_of_cycle(K, d, z) == c else None


def _negative_cycle(n_vertices: int, arcs: Sequence[tuple[int, int, int]]
                    ) -> tuple[list[int], Optional[list[int]]]:
    """Bellman-Ford from a source at cost 0 to every vertex.

    ``arcs`` are (tail, head, cost) with integer costs.  Each pass relaxes
    the arcs out of the vertices the pass before lowered (all of them at
    first).  Returns the shortest-path potentials and None, or, when pass
    ``n_vertices`` still lowers some vertex, the arc indices of a negative
    cycle.
    """
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n_vertices)]
    for k, (u, v, c) in enumerate(arcs):
        out[u].append((v, c, k))
    G = [0] * n_vertices
    pred: list[int] = [0] * n_vertices
    lowered: Iterable[int] = range(n_vertices)
    for _ in range(n_vertices):
        frontier, lowered = lowered, {}
        for u in frontier:
            for v, c, k in out[u]:
                if G[u] + c < G[v]:
                    G[v] = G[u] + c
                    pred[v] = k
                    lowered[v] = None
        if not lowered:
            return G, None
    v = next(iter(lowered))
    for _ in range(n_vertices):  # walk back onto the cycle
        v = arcs[pred[v]][0]
    cycle, u = [], v
    while True:
        cycle.append(pred[u])
        u = arcs[pred[u]][0]
        if u == v:
            return G, cycle


def _least_comass(K: WeightedComplex, eta: Mapping[int, int], b: Chain
                  ) -> tuple[Fraction, int, list[int], list[int]]:
    """The least comass form of the degree-1 cocycle ``eta``, eta(b) = 1.

    T* is the least w(C)/eta(C) over the cycles C of the 1-skeleton with
    eta(C) > 0.  Dinkelbach iteration from T = mass(b) finds it: with
    T = p/q and the weights at the integer scale W, a Bellman-Ford run on
    both orientations of every edge, at the integer costs
    q*W*w_e -+ p*W*eta_e, either finds a negative cycle C, whose ratio is
    the next, smaller T, or ends with integer potentials G.  Then
    phi = T* eta + dG/D, D = q*W, is closed with comass <= 1 and
    cohomologous to T* eta; both are checked.  Returns (T*, D, D*phi, G).
    """
    wt, W = _at_integer_scale(K.weights[1])
    ends = [(tail, head) for (head, _), (tail, _) in K.faces(1)]
    h = [eta.get(e, 0) for e in range(len(ends))]
    T = Fraction(sum(wt[s] * abs(v) for s, v in b.coeffs), W)
    while True:
        p, q = T.numerator, T.denominator
        arcs = []  # arc 2e runs along edge e, arc 2e + 1 against it
        for (tail, head), w, x in zip(ends, wt, h):
            arcs += [(tail, head, q * w - p * W * x),
                     (head, tail, q * w + p * W * x)]
        G, cycle = _negative_cycle(K.n_simplices(0), arcs)
        if cycle is None:
            break
        T = Fraction(sum(wt[k >> 1] for k in cycle),
                     W * sum(-h[k >> 1] if k & 1 else h[k >> 1]
                             for k in cycle))
    dphi = [p * W * x + G[head] - G[tail] for (tail, head), x in zip(ends, h)]
    if any(abs(x) > q * w for x, w in zip(dphi, wt)) or any(
            sa * dphi[a] + sb * dphi[b] + sc * dphi[c]
            for (a, sa), (b, sb), (c, sc) in
            (K.faces(2) if K.dim >= 2 else ())):
        raise AssertionError(
            "the least comass form must be closed with comass <= 1")
    return T, q * W, dphi, G


def _level_cocycles(K: WeightedComplex, dec: HomologyDecomposition,
                    i: int) -> Optional[tuple[int, list[list[tuple[int, int]]]]]:
    """Level-set cocycles of the least comass form of eta_i, in degree 1.

    D*phi = p*W*eta_i + dG (``_least_comass``, T* = p/q) is integral, and
    the potential that integrates it is multivalued by its periods: on a
    cycle z, D*phi(z) = p*W*eta_i(z), and eta_i(b_i) = 1, so their gcd is
    g = p*W = D*T*.  G is such a potential mod g, since D*phi - dG vanishes
    mod g.  Level m in Z/g takes, on an edge, the signed count of the
    integers congruent to m (mod g) that the potential crosses along it,
    from G at its tail; a period does not change the count.  Each level h_m
    is a closed integral cocycle, and sum_m |h_m(e)| = |D*phi_e| <= D*w_e.
    Returns D and the (level, coeff) incidences of each edge, or None when
    g exceeds the number of edges.  Cached on ``K`` per (degree, index).
    """
    key = (1, i)
    if key not in K._level_cache:
        T, D, dphi, G = _least_comass(K, dec.dual_cocycle(i),
                                      dec.free_basis[i])
        g = (D * T).numerator
        K._level_cache[key] = None if g > len(dphi) else (D, [
            [(m, c) for m in range(g)
             if (c := (G[tail] + x - m) // g - (G[tail] - m) // g)]
            for (_, (tail, _)), x in zip(K.faces(1), dphi)])
    return K._level_cache[key]


def _coset_minimize(K: WeightedComplex, d: int, c: ClassCoords, kind: str,
                    lift: Callable[[Fraction], int], cap: int,
                    value_only: bool) -> OptReport:
    """Exact minimum mass over x = z0 + boundaries, plus n*u over Z/n, where
    z0 is the class representative with each coefficient lifted by ``lift``.

    Any optimal chain obeys |x_s| * w_s <= mass(z0), which bounds the search
    box; over Z/n the box is also cut to the residue range (-n/2, n/2].
    The search prunes on the face residuals of its cycles.  Over Z it also
    prunes on the dual certificate of ``min_real``, a calibration of the
    class; over Z/n phi(x) changes along x + n*e_s, so in degree 1 it
    prunes instead on the level cocycles of the first free index whose
    coordinate is nonzero mod n and that has a family
    (``_level_cocycles``), at a search scale that is a multiple of their
    D.  With no boundary moves the coset is z0 alone (over Z/n, z0's
    residue range holds no other point of z0 + n*Z^m): z0 is the report,
    with no LP and no search.  A ``value_only`` call over Z whose LP vertex
    is an integral cycle in the class reports that vertex, with no search.
    """
    dec = _validate_coords(K, d, c, kind)
    if c.is_zero():
        report = _zero_report(K, d, c, False)
        report.minimizer_count_exact = not value_only
        return report
    z0 = [lift(v) for v in dec.representative_vector(c)]
    n = c.ring.modulus
    wnum, w_scale = _at_integer_scale(K.weights[d])
    if not K.n_simplices(d + 1):  # no boundary moves: a one-point coset
        m0 = sum(w * abs(v) for w, v in zip(wnum, z0))
        return OptReport(c.ring, c, Fraction(m0, w_scale),
                         _sorted_chains(K, d, c.ring, [z0][:cap]),
                         cap > 0 and not value_only, None, 0)
    row_order, pivots = _echelon(K, d, wnum, n)
    phi: Sequence[Fraction] = ()
    family = None
    if n is None:
        real = min_real(K, d, reduce_class(c, RAT))
        cert = real.certificate
        if not cert.is_closed() or comass(K, cert) > 1:
            raise AssertionError(
                "the real certificate must be closed with comass <= 1")
        if value_only:
            z = _integral_vertex(K, d, c, real)
            if z is not None:
                return OptReport(c.ring, c, real.value, (z,), False, None, 0)
        phi = cert.values
    elif d == 1:
        family = next(filter(None, (_level_cocycles(K, dec, i)
                                    for i, a in enumerate(c.free_part)
                                    if a % n)), None)
    scale = lcm(w_scale, *(v.denominator for v in phi),
                family[0] if family else 1)
    wnum = [w * (scale // w_scale) for w in wnum]
    cocycles = None
    if family:
        D, incidences = family
        targets = [0] * (1 + max(lv for row in incidences for lv, _ in row))
        for s, v in enumerate(z0):
            if v:
                for lv, hv in incidences[s]:
                    targets[lv] += hv * v
        cocycles = incidences, targets, scale // D
    m0 = sum(w * abs(v) for w, v in zip(wnum, z0))
    lo = [-(m0 // w) for w in wnum]
    hi = [m0 // w for w in wnum]
    if n is not None:
        lo = [max(v, -((n - 1) // 2)) for v in lo]
        hi = [min(v, n // 2) for v in hi]
    best, sols, exact, nodes = _search_lattice(
        wnum, z0, pivots, row_order, lo, hi, m0, cap,
        phi=[v.numerator * (scale // v.denominator) for v in phi] or None,
        faces=K.faces(d), modulus=n, value_only=value_only,
        cocycles=cocycles)
    return OptReport(c.ring, c, Fraction(best, scale),
                     _sorted_chains(K, d, c.ring, sols), exact, None, nodes)


def min_int(K: WeightedComplex, d: int, c: ClassCoords,
            cap: int = DEFAULT_MINIMIZER_CAP,
            value_only: bool = False) -> OptReport:
    """Exact minimum mass over the integral cycles in class ``c``.

    Complete branch-and-bound over x = z0 + (boundary-lattice moves).  It
    first solves the real LP of ``min_real`` (unless there are no moves)
    and prunes on its dual certificate, checked to be a calibration, and on
    the face residuals; ties are kept, so the value and the minimizers are
    those of the unpruned search.  With ``value_only`` it returns the value
    and one minimizer, with ``minimizer_count_exact`` false: the LP vertex
    when that is an integral cycle in the class, else the first minimizer
    of a search that drops ties.
    """
    return _coset_minimize(K, d, c, "Z", int, cap, value_only)


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
    n = c.ring.modulus
    if n is None:
        raise InfeasibleClassError(
            f"expected Z/n class coordinates, got {c.ring.tag}")
    return _coset_minimize(K, d, c, "Z/n",
                           lambda v: canonical_lift(int(v) % n, n), cap,
                           value_only)


def min_real(K: WeightedComplex, d: int, c: ClassCoords,
             cap: int = DEFAULT_MINIMIZER_CAP) -> OptReport:
    """Exact real class norm via LP, with a dual calibration certificate.

    Minimizes sum w_s |x_s| over x = z0 + boundary(y) by sign-splitting both
    x and y; the LP dual is a cochain vanishing on boundaries with comass
    <= 1 pairing to exactly the optimal value (strong duality, exact).
    The reported minimizer is one optimal vertex; the full real minimizer
    set is generally an infinite polytope face, so minimizer_count_exact is
    False for nonzero classes.
    """
    dec = _validate_coords(K, d, c, "Q")
    if c.is_zero():
        return _zero_report(K, d, c, True)
    z0 = dec.representative_vector(c)
    cofaces = K.faces(d + 1) if d < K.dim else ()
    res = solve_cycle_lp(z0, K.weights[d], cofaces)
    n_rows = len(z0)
    x = [p - q if q else p
         for p, q in zip(res.x[:n_rows], res.x[n_rows:2 * n_rows])]
    minimizer = Chain.from_vector(K, d, RAT, x)
    certificate = Cochain.make(K, d, res.duals)
    return OptReport(c.ring, c, res.value, (minimizer,), False,
                     certificate, res.pivots)


def comass(K: WeightedComplex, phi: Cochain) -> Fraction:
    """Largest value the cochain takes per unit of simplex weight."""
    if phi.complex is not K:
        raise ValueError("cochain does not live on this complex")
    x, x_scale = _at_integer_scale(phi.values)
    w, w_scale = _at_integer_scale(K.weights[phi.degree])
    # |phi_s| / w_s = (|x_s| / w_s') * (w_scale / x_scale): the largest
    # |x_s| / w_s', by cross-multiplied comparisons.
    best_x, best_w = 0, 1
    for a, b in zip(x, w):
        if abs(a) * best_w > best_x * b:
            best_x, best_w = abs(a), b
    return Fraction(best_x * w_scale, best_w * x_scale)


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
    if not phi.is_closed():
        return False
    if comass(K, phi) > 1:
        return False
    z0 = dec.representative_vector(c)
    return phi.evaluate_vector(z0) == Fraction(claimed)


def lift_minimizer(T: Chain) -> LiftReport:
    """Canonical coefficientwise lift of a mod-n cycle into (-n/2, n/2].

    The lift always preserves mass; it may fail to be an integral cycle,
    and that outcome is reported rather than raised.
    """
    if not T.ring.is_mod:
        raise ValueError("lift_minimizer expects a mod-n chain")
    if not T.is_cycle():
        raise ValueError("lift_minimizer expects a mod-n cycle")
    lifted = lift_chain(T)
    preserved = mass(T.complex, lifted) == mass(T.complex, T)
    is_cycle = lifted.is_cycle()
    lifted_class = (class_of_cycle(T.complex, T.degree, lifted)
                    if is_cycle else None)
    return LiftReport(T, lifted, is_cycle, lifted_class, preserved)


def minimize(K: WeightedComplex, d: int, c: ClassCoords,
             cap: int = DEFAULT_MINIMIZER_CAP) -> OptReport:
    """Dispatch to the engine matching the coordinate ring."""
    if c.ring.is_int:
        return min_int(K, d, c, cap)
    if c.ring.is_rat:
        return min_real(K, d, c, cap)
    return min_mod(K, d, c, cap)
