"""The three minimizer engines plus calibration certificates and mod-n lifts.

* min_real: exact-rational LP (sign-split chain variables, class constraint
  parametrized by a reference cycle plus boundaries), with the dual vector
  returned as a closed cochain of comass <= 1 certifying the value.
* min_int: complete branch-and-bound enumeration of the integral chains in
  a class, organized as a DFS over an echelonized basis of the boundary
  lattice with per-simplex boxes derived from the initial feasible mass.
* min_mod: the same search over integer lifts with x = z0 + boundary + n*u,
  i.e. over the full-rank lattice spanned by boundaries and n times the
  standard basis, restricted to canonical residue ranges.

Both run one coset search.  Every box contains 0, so the candidates at a
pivot row are merged outward from 0, cheapest first, with no per-node sort;
each move touches only the nonzeros of its pivot column.

Values are exact rationals; minimizer sets are enumerated completely up to
the configured cap and reported in a fixed deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

from .complexes import Chain, Cochain, WeightedComplex, lift_chain, mass
from .homology import (ClassCoords, HomologyDecomposition, InfeasibleClassError,
                       class_of_cycle, homology_decomposition)
from .lp import solve_standard_lp
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


def _weight_scale(K: WeightedComplex, d: int) -> tuple[int, list[int]]:
    weights = K.weights[d]
    scale = lcm(*(w.denominator for w in weights))
    return scale, [int(w * scale) for w in weights]


def _echelon_columns(columns: list[list[int]],
                     row_order: Sequence[int]) -> list[tuple[int, list[int]]]:
    """Unimodular column reduction to echelon form along ``row_order``.

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


def _search_lattice(wnum: Sequence[int], z0: Sequence[int],
                    pivots: list[tuple[int, list[int]]],
                    row_order: Sequence[int],
                    lo: Sequence[int], hi: Sequence[int],
                    cap_mass: int, cap_count: int):
    """Enumerate all lattice-coset points of minimal weighted l1 mass.

    The coset is z0 + span(pivot columns), searched depth first over the
    pivots.  Every box must contain 0 (lo[r] <= 0 <= hi[r]); the candidates
    at a pivot row, its congruence class inside [lo, hi], are then merged
    outward from 0 by two cursors, cheapest first with t before -t, so
    incumbents improve fast and the first candidate over budget ends the
    row.  A move and its undo touch only the (row, coeff) nonzeros of the
    pivot column, and the rows between two pivots are checked against
    precomputed (row, lo, hi, weight) tuples.
    """
    if any(l > 0 or h < 0 for l, h in zip(lo, hi)):
        raise ValueError("every search box must contain 0")
    depth = len(pivots)
    pos_in_order = {r: i for i, r in enumerate(row_order)}
    # Positions of the pivot rows in the order, then the end of the order.
    bounds = [pos_in_order[r] for r, _ in pivots] + [len(row_order)]
    prefix = row_order[:bounds[0]]
    levels = [(r, col[r], wnum[r], lo[r], hi[r],
               [(i, cv) for i, cv in enumerate(col) if cv],
               [(rr, lo[rr], hi[rr], wnum[rr])
                for rr in row_order[bounds[k] + 1:bounds[k + 1]]])
              for k, (r, col) in enumerate(pivots)]

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
        if k == depth:
            record(acc)
            return
        r, g, w, lo_r, hi_r, move, segment = levels[k]
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
            if total > best:
                break  # later candidates only cost more at this row
            nodes += 1
            t = (v - base) // g
            if t:
                for i, cv in move:
                    cur[i] += t * cv
            for rr, l, h, wr in segment:
                x = cur[rr]
                if x < l or x > h:
                    break
                total += wr * abs(x)
                if total > best:
                    break
            else:
                dfs(k + 1, total)
            if t:
                for i, cv in move:
                    cur[i] -= t * cv

    dfs(0, base_mass)
    return best, sols, exact, nodes


def _sorted_chains(K: WeightedComplex, d: int, ring: RingSpec,
                   vectors: list[tuple[int, ...]]) -> tuple[Chain, ...]:
    chains = {Chain.from_vector(K, d, ring, vec) for vec in vectors}
    return tuple(sorted(chains, key=lambda ch: ch.coeffs))


def _coset_minimize(K: WeightedComplex, d: int, c: ClassCoords, kind: str,
                    lift: Callable[[Fraction], int], cap: int) -> OptReport:
    """Exact minimum mass over x = z0 + boundaries, plus n*u over Z/n, where
    z0 is the class representative with each coefficient lifted by ``lift``.

    Any optimal chain obeys |x_s| * w_s <= mass(z0), which bounds the search
    box; over Z/n the box is also cut to the residue range (-n/2, n/2].
    """
    dec = _validate_coords(K, d, c, kind)
    if c.is_zero():
        return _zero_report(K, d, c, False)
    z0 = [lift(v) for v in dec.representative_vector(c)]
    n_rows = K.n_simplices(d)
    scale, wnum = _weight_scale(K, d)
    m0 = sum(w * abs(v) for w, v in zip(wnum, z0))
    B = K.boundary_matrix_or_empty(d + 1)
    columns = [B.column(j) for j in range(B.cols)]
    lo = [-(m0 // w) for w in wnum]
    hi = [m0 // w for w in wnum]
    n = c.ring.modulus
    if n is not None:
        columns += [[n if i == k else 0 for i in range(n_rows)]
                    for k in range(n_rows)]
        lo = [max(v, -((n - 1) // 2)) for v in lo]
        hi = [min(v, n // 2) for v in hi]
    row_order = sorted(range(n_rows), key=lambda r: (-wnum[r], r))
    pivots = _echelon_columns(columns, row_order)
    best, sols, exact, nodes = _search_lattice(
        wnum, z0, pivots, row_order, lo, hi, m0, cap)
    return OptReport(c.ring, c, Fraction(best, scale),
                     _sorted_chains(K, d, c.ring, sols), exact, None, nodes)


def min_int(K: WeightedComplex, d: int, c: ClassCoords,
            cap: int = DEFAULT_MINIMIZER_CAP) -> OptReport:
    """Exact minimum mass over the integral cycles in class ``c``.

    Complete branch-and-bound over x = z0 + (boundary-lattice moves).
    """
    return _coset_minimize(K, d, c, "Z", int, cap)


def min_mod(K: WeightedComplex, d: int, c: ClassCoords,
            cap: int = DEFAULT_MINIMIZER_CAP) -> OptReport:
    """Exact minimum mass over the mod-n cycles in class ``c``.

    Searches integer lifts x = z0 + boundary + n*u over canonical residue
    ranges (-n/2, n/2]; every feasible residue chain appears exactly once.
    """
    n = c.ring.modulus
    if n is None:
        raise InfeasibleClassError(
            f"expected Z/n class coordinates, got {c.ring.tag}")
    return _coset_minimize(K, d, c, "Z/n",
                           lambda v: canonical_lift(int(v) % n, n), cap)


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
    n_rows = K.n_simplices(d)
    B = K.boundary_matrix_or_empty(d + 1)
    m = B.cols
    rows: list[list[int]] = []
    for i in range(n_rows):
        row = [0] * (2 * n_rows + 2 * m)
        row[i] = 1
        row[n_rows + i] = -1
        for j, bij in enumerate(B.data[i]):
            if bij:
                row[2 * n_rows + j] = -bij
                row[2 * n_rows + m + j] = bij
        rows.append(row)
    weights = list(K.weights[d])
    costs = weights + weights + [0] * (2 * m)
    res = solve_standard_lp(rows, z0, costs)
    x = [res.x[i] - res.x[n_rows + i] for i in range(n_rows)]
    minimizer = Chain.from_vector(K, d, RAT, x)
    certificate = Cochain.make(K, d, res.duals)
    return OptReport(c.ring, c, res.value, (minimizer,), False,
                     certificate, res.pivots)


def comass(K: WeightedComplex, phi: Cochain) -> Fraction:
    """Largest value the cochain takes per unit of simplex weight."""
    if phi.complex is not K:
        raise ValueError("cochain does not live on this complex")
    best = Fraction(0)
    for v, w in zip(phi.values, K.weights[phi.degree]):
        q = abs(v) / w
        if q > best:
            best = q
    return best


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
