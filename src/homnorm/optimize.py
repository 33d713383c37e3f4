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

The search, its row order, echelon and bounds, is in ``search``.  Each
reported chain is built once, from its sorted canonical coefficients.

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

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from .complexes import (Chain, Cochain, WeightedComplex, _at_integer_scale,
                         _is_calibration)
from .homology import (ClassCoords, HomologyDecomposition, InfeasibleClassError,
                       class_of_cycle, homology_decomposition, reduce_class)
from .lp import solve_cycle_lp
from .rings import RAT, RingSpec, canonical_lift, format_rational
from .search import _echelon_columns, _row_order, _search_lattice

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
    # Rows by decreasing weight, then outward from z0 over the faces, and
    # the echelon of the boundary lattice plus n*Z^m along them, which each
    # search reduces afresh at its own modulus.
    pivots = _echelon_columns(K.faces(d + 1), _row_order(K, d, z0), n)
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
