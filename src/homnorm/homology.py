"""Homology decompositions, class coordinates and coefficient reductions.

The integral decomposition of H_d comes from two Smith normal forms: one of
the boundary operator in degree d (whose kernel lattice carries the cycles)
and one of the next boundary operator expressed in kernel coordinates
(whose invariant factors carry rank and torsion).  The basis it produces is
non-canonical but reproducible: the pivot rule in :mod:`homnorm.intlinalg`
is fixed, so identical complexes always report identical bases.  In degree
1 the first form is that of the incidence matrix of the 1-skeleton, and
``incidence_smith_normal_form`` replays its reduction on groups of
vertices: its kernel lines, the fundamental cycles of the forest of pivot
edges, are those of the sparse form.  Every other form goes first to
``signed_graph_smith_normal_form``, which replays the reduction on a
spanning forest wherever each row holds at most two entries of +-1 (the
next boundary of a surface in degree 1, the top boundary of a
pseudomanifold), and the sparse form runs only where that returns None:
for a factor 2, as on the closed non-orientable surfaces, or a row of
another shape.  Both reduce sparse rows built from
``WeightedComplex.faces``, and every change of basis (into kernel
coordinates, to class coordinates and back to chains) walks only the
nonzero entries of their sparse transforms.
The next boundary in kernel coordinates is built row by row, each row a
combination of coface rows named by one kernel row of V_A^-1; of the basis
matrix K' only the columns that name classes are formed.  Neither form
keeps the inverse lines of its unit invariant factors, and nothing here
reads them: a cycle is told from a non-cycle by its boundary.  A class is
read from its chain: one walk over the faces of the chain's support tests
the boundary, and the chain's nonzero coefficients are paired with one
cached row of U_C V_A^-1 per free or torsion coordinate (the free ones are
the dual cocycles eta_i) and with the cotorsion rows of V_A^-1, with no
dense vector.

Mod-n homology is represented concretely as integer-lifted cycles modulo
(boundaries + n * chains) and read off the same two Smith normal forms, so
a modulus costs only gcds.  Its coordinate system is aligned with the
reduction map from integral homology: the first coordinates are the mod-n
images of the integral free and torsion basis, and the remaining
"cotorsion" coordinates span a complement of that image (the Tor summand
of the universal-coefficient sequence), one generator n/gcd(D_jj, n) times
a column of V_A for each invariant factor D_jj of the degree-d boundary
that shares a factor with n.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Sequence

from .complexes import (Chain, NotACycleError, WeightedComplex,
                        _at_integer_scale, _is_cycle)
from .intlinalg import (SNFResult, incidence_smith_normal_form,
                        signed_graph_smith_normal_form,
                        sparse_smith_normal_form)
from .rings import INT, RAT, RingElem, RingSpec, factorize, format_element


class InfeasibleClassError(ValueError):
    """Class coordinates that do not address a class of the decomposition."""


@dataclass(frozen=True)
class TorsionFactor:
    """One primary cyclic factor Z/p^exponent of integral homology."""

    prime: int
    exponent: int
    order: int
    cycle: Chain
    column: int      # invariant-factor column in kernel coordinates
    idempotent: int  # CRT projector of Z/d onto this primary part


@dataclass(frozen=True)
class ClassCoords:
    """Coordinates of a homology class in the reported basis.

    Free and torsion parts match the integral decomposition; over Z/nZ a
    third block of cotorsion coordinates addresses the part of mod-n
    homology that is not a reduction of any integral class.
    """

    decomposition: "HomologyDecomposition"
    ring: RingSpec
    free_part: tuple[RingElem, ...]
    torsion_part: tuple[int, ...] = ()
    cotorsion_part: tuple[int, ...] = ()

    @property
    def degree(self) -> int:
        return self.decomposition.degree

    def is_zero(self) -> bool:
        return (all(not a for a in self.free_part)
                and all(not b for b in self.torsion_part)
                and all(not g for g in self.cotorsion_part))

    def scale(self, k: RingElem) -> "ClassCoords":
        if self.ring.is_rat:
            return self.decomposition.class_coords(
                self.ring, tuple(Fraction(k) * a for a in self.free_part))
        k = int(k)
        return self.decomposition.class_coords(
            self.ring,
            tuple(k * a for a in self.free_part),
            tuple(k * b for b in self.torsion_part),
            tuple(k * g for g in self.cotorsion_part))

    def to_json(self) -> dict:
        out = {
            "degree": self.degree,
            "ring": self.ring.tag,
            "free": [format_element(self.ring if self.ring.is_rat else INT, a)
                     for a in self.free_part],
            "torsion": [str(b) for b in self.torsion_part],
        }
        if self.ring.is_mod:
            out["cotorsion"] = [str(g) for g in self.cotorsion_part]
        return out


class HomologyDecomposition:
    """Betti number, primary torsion factors and basis cycles for one degree."""

    def __init__(self, K: WeightedComplex, degree: int):
        if not 0 <= degree <= K.dim:
            raise ValueError(f"degree {degree} out of range 0..{K.dim}")
        self.complex = K
        self.degree = degree
        n_simp = K.n_simplices(degree)
        # Only V_A, V_A^-1, U_C and U_C^-1 are read below, and of each
        # only the kernel lines when every pivot is a unit: the incidence
        # and signed-graph paths form no others, and the incidence path
        # forms a kernel column of V_A only when K' reads it.
        if degree == 1:
            snfA = incidence_smith_normal_form(K.faces(1), K.n_simplices(0))
        else:
            a_rows = _boundary_rows(K, degree)
            snfA = (signed_graph_smith_normal_form(a_rows, n_simp, _track="v")
                    or sparse_smith_normal_form(a_rows, n_simp, _track="v"))
        self._snfA: SNFResult = snfA
        rA = snfA.rank
        self._rankA = rA
        z = n_simp - rA
        # Boundaries in kernel coordinates, C = (V_A^-1 B)[r_A:], row by
        # row: row i combines the rows of B named by kernel row r_A + i of
        # V_A^-1.  The rows before r_A would be zero, as boundaries are
        # cycles.  A unit kernel row gives its row of B itself, which the
        # sparse form of C, where it runs, then changes; nothing reads B
        # afterwards.
        b_rows = _boundary_rows(K, degree + 1)
        v_inv = self._snfA.v_inv_rows
        c_rows = [_combination(v_inv[i], b_rows) for i in range(rA, n_simp)]
        m = K.n_simplices(degree + 1)
        self._snfC: SNFResult = (
            signed_graph_smith_normal_form(c_rows, m)
            or sparse_smith_normal_form(c_rows, m, _track="u"))
        rC = self._snfC.rank
        self._rankC = rC
        self._invariant_factors = tuple(self._snfC.diag[:rC])
        # Columns of K' = (kernel columns of V_A) U_C^-1 that name classes:
        # the free ones past r_C and the torsion ones.
        named = [i for i, d in enumerate(self._invariant_factors) if d > 1]
        named += range(rC, z)
        self._kprime: dict[int, dict[int, int]] = {
            j: _combination(self._snfC.u_inv_cols[j], self._snfA.v_cols, rA)
            for j in named}
        self.betti = z - rC
        # Lines of nonzero entries on the complex's own indices: no chain
        # built from them needs Chain.make's checks.
        self.free_basis = tuple(
            Chain(K, degree, INT, tuple(sorted(self._kprime[j].items())))
            for j in range(rC, z))
        factors: list[TorsionFactor] = []
        for i, d in enumerate(self._invariant_factors):
            if d <= 1:
                continue
            for p, nu in factorize(d):
                q = p ** nu
                rest = d // q
                idem = (rest * pow(rest, -1, q)) % d if rest > 1 else 1
                factors.append(TorsionFactor(
                    prime=p, exponent=nu, order=q,
                    cycle=Chain(K, degree, INT, tuple(
                        (k, idem * v)
                        for k, v in sorted(self._kprime[i].items()))),
                    column=i, idempotent=idem))
        self.torsion = tuple(factors)
        self.torsion_basis = tuple(tf.cycle for tf in factors)
        self.torsion_factors = tuple((tf.prime, tf.exponent) for tf in factors)
        self.torsion_number = 1
        for tf in factors:
            self.torsion_number *= tf.order
        self._mod_cache: dict[int, ModDecomposition] = {}
        # Rows of U_C V_A^-1[r_A:] by U_C row, built on first use; they
        # depend only on the simplices, so rebound siblings share them.
        self._cocycles: dict[int, dict[int, int]] = {}

    # -- coordinates of cycles, representatives of classes ------------------

    def coords_of_cycle(self, z: Chain) -> ClassCoords:
        """Class of the cycle ``z`` over its ring.

        A chain of another complex or degree is refused (ValueError), and a
        non-cycle by its boundary (taken mod n over Z/nZ), in one walk over
        the faces of its support.  The coefficients, an integer lift over
        Z/nZ and over Q taken at the integer scale of their denominators,
        form x; with y = V_A^-1 x, U_A A x = D_A y, and U_A is unimodular,
        so a cycle has y_j = 0 for every j < r_A, and over Z/nZ a lift has
        n/g_j | y_j; y_j/(n/g_j) is the cotorsion coordinate of each j with
        g_j > 1.  Row j of U_C V_A^-1[r_A:] pairs x to coordinate j of
        U_C y[r_A:]: row r_C + i, eta_i, gives free coordinate i, and row
        ``tf.column``, a cocycle mod its order, the torsion one of ``tf``.
        Only those cached rows and the cotorsion rows of V_A^-1 are paired
        with x, in integers; :meth:`class_coords` reduces all three parts.
        """
        K, d, ring = self.complex, self.degree, z.ring
        if z.complex is not K or z.degree != d:
            raise ValueError("chain does not live on this complex/degree")
        x = dict(z.coeffs)
        scale = 1
        if ring.is_rat:
            values, scale = _at_integer_scale(list(x.values()))
            x = dict(zip(x, values))
        n = ring.modulus
        if not _is_cycle(K, d, x.items(), n):
            raise NotACycleError(f"chain has nonzero boundary over {ring.tag}")
        get = x.get

        def pair(row: dict[int, int]) -> int:
            s = 0
            for k, v in row.items():
                s += v * get(k, 0)
            return s

        v_inv = self._snfA.v_inv_rows
        cotorsion = [pair(v_inv[j]) // (n // g)
                     for j, g in (self.mod(n)._cotorsion_pairs if n else ())]
        rC = self._rankC
        free = [pair(self._cocycle(j)) for j in range(rC, rC + self.betti)]
        if scale > 1:
            free = [Fraction(a, scale) for a in free]
        torsion = () if ring.is_rat else [pair(self._cocycle(tf.column))
                                          for tf in self.torsion]
        return self.class_coords(ring, free, torsion, cotorsion)

    def dual_cocycle(self, i: int) -> dict[int, int]:
        """The integral cocycle eta_i dual to free basis cycle i, sparse.

        eta_i is row r_C + i of U_C times the kernel rows V_A^-1[r_A:], so
        eta_i(z) is free coordinate i of [z] for every integral cycle z: it
        vanishes on boundaries and on the torsion basis, and eta_i(b_j) is
        1 if i == j, else 0.  It is the row ``coords_of_cycle`` reads, built
        once and shared: the caller must not change it.
        """
        if not 0 <= i < self.betti:
            raise IndexError(f"free index {i} out of range 0..{self.betti - 1}")
        return self._cocycle(self._rankC + i)

    def _cocycle(self, j: int) -> dict[int, int]:
        """Row j of U_C V_A^-1[r_A:], sparse, built on first use."""
        row = self._cocycles.get(j)
        if row is None:
            row = self._cocycles[j] = _combination(
                self._snfC.u_rows[j], self._snfA.v_inv_rows, self._rankA)
        return row

    def representative_vector(self, c: "ClassCoords") -> list:
        """Chain vector of the reference representative of ``c``.

        Over Z and Q the output combines the stored basis cycles; over
        Z/nZ the cotorsion generators of the mod decomposition join in and
        the result is an integer lift of the representative.
        """
        kp, rC = self._kprime, self._rankC
        terms = [(a, kp[rC + k]) for k, a in enumerate(c.free_part) if a]
        terms += [(b * tf.idempotent, kp[tf.column])
                  for b, tf in zip(c.torsion_part, self.torsion) if b]
        if c.ring.is_mod:
            lines = self.mod(c.ring.modulus)._lines
            terms += [(g, line)
                      for g, line in zip(c.cotorsion_part, lines) if g]
        out = ([Fraction(0) if c.ring.is_rat else 0]
               * self.complex.n_simplices(self.degree))
        for a, line in terms:
            for i, v in line.items():
                out[i] += a * v
        return out

    # -- public coordinate API ----------------------------------------------

    def class_coords(self, ring: RingSpec,
                     free: Sequence[RingElem],
                     torsion: Sequence[int] = (),
                     cotorsion: Sequence[int] = ()) -> ClassCoords:
        """Validated, canonically reduced coordinates in this decomposition."""
        if len(free) != self.betti:
            raise InfeasibleClassError(
                f"expected {self.betti} free coordinates, got {len(free)}")
        if ring.is_rat:
            if torsion or cotorsion:
                raise InfeasibleClassError(
                    "rational classes carry no torsion coordinates")
            return ClassCoords(self, ring, tuple(Fraction(a) for a in free))
        if len(torsion) != len(self.torsion):
            raise InfeasibleClassError(
                f"expected {len(self.torsion)} torsion coordinates, "
                f"got {len(torsion)}")
        if ring.is_int:
            if cotorsion:
                raise InfeasibleClassError(
                    "integral classes carry no cotorsion coordinates")
            return ClassCoords(
                self, ring, tuple(int(a) for a in free),
                tuple(int(b) % tf.order for b, tf in zip(torsion, self.torsion)))
        orders = self.mod(ring.modulus).cotorsion_orders
        if len(cotorsion) != len(orders):
            raise InfeasibleClassError(
                f"expected {len(orders)} cotorsion coordinates mod "
                f"{ring.modulus}, got {len(cotorsion)}")
        n = ring.modulus
        return ClassCoords(
            self, ring,
            tuple(int(a) % n for a in free),
            tuple(int(b) % gcd(tf.order, n)
                  for b, tf in zip(torsion, self.torsion)),
            tuple(int(g) % order for g, order in zip(cotorsion, orders)))

    def rebound(self, K: WeightedComplex) -> "HomologyDecomposition":
        """This decomposition on ``K``, a complex with the same simplices,
        such as a sibling of other weights.  The Smith normal forms, the dual
        cocycles and the mod-n decompositions, which hold only weight-free
        tables, are shared, and so is the cache of the last: a modulus that
        either sibling decomposes serves both.  The basis chains are rebuilt
        on ``K``."""
        dec = copy.copy(self)
        dec.complex = K
        dec.free_basis = tuple(Chain(K, T.degree, T.ring, T.coeffs)
                               for T in self.free_basis)
        dec.torsion = tuple(
            replace(tf, cycle=Chain(K, tf.cycle.degree, tf.cycle.ring,
                                    tf.cycle.coeffs))
            for tf in self.torsion)
        dec.torsion_basis = tuple(tf.cycle for tf in dec.torsion)
        return dec

    def mod(self, n: int) -> "ModDecomposition":
        if n < 2:
            raise ValueError("modulus must be >= 2")
        md = self._mod_cache.get(n)
        if md is None:
            md = ModDecomposition(self, n)
            self._mod_cache[n] = md
        return md


class ModDecomposition:
    """Mod-n homology with a basis aligned to the integral reduction map.

    Read off the integral Smith normal forms with no further one.  For an
    integer lift x of a mod-n cycle let y = V_A^-1 x.  Boundaries have
    y_j = 0 for j < r_A and n * chains are a product in y, so by the
    universal coefficient theorem

        H_d(Z/n) = (+)_{j < r_A} Z/g_j  (+)  Z^z / (n Z^z + im C),

    with g_j = gcd(D_jj, n).  Generators, in order: the reductions of the
    integral free basis (order n each), the reductions of the integral
    torsion basis (order gcd(p^nu, n)), then one cotorsion generator
    (n/g_j) * V_A[:, j] of order g_j for each j < r_A with g_j > 1.  The
    cotorsion generators span a complement of the reduction image, so a
    class has unique coordinates modulo those orders;
    :meth:`HomologyDecomposition.coords_of_cycle` reads them.
    """

    def __init__(self, dec: HomologyDecomposition, n: int):
        # (j, g_j) of each summand Z/g_j with g_j > 1, one per cotorsion
        # generator; a lift has n/g_j | y_j.  A unit D_jj gives g_j = 1.
        self._cotorsion_pairs = tuple(
            (j, g) for j, e in enumerate(dec._snfA.diag[:dec._rankA])
            if e != 1 and (g := gcd(e, n)) > 1)
        # Each cotorsion generator's order, all that a class reads of it.
        self.cotorsion_orders = tuple(g for _, g in self._cotorsion_pairs)
        # The generators' nonzero entries; ``cotorsion`` lists them densely.
        self._lines = tuple(
            {i: n // g * v for i, v in dec._snfA.v_cols[j].items()}
            for j, g in self._cotorsion_pairs)
        self._n_simp = dec.complex.n_simplices(dec.degree)

    @cached_property
    def cotorsion(self) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]],
                                 ...]:
        """(order, coordinates, dense chain vector) of each cotorsion
        generator, built on first read."""
        m = len(self._lines)
        return tuple(
            (order, tuple(int(k == i) for k in range(m)),
             tuple(line.get(k, 0) for k in range(self._n_simp)))
            for i, (order, line) in enumerate(
                zip(self.cotorsion_orders, self._lines)))


def _boundary_rows(K: WeightedComplex, d: int) -> list[dict[int, int]]:
    """The rows of the degree-d boundary, one {d-simplex: sign} dict per
    (d-1)-simplex, from the faces of the d-simplices (none past the top
    degree)."""
    rows: list[dict[int, int]] = [{} for _ in range(K.n_simplices(d - 1))]
    for j, faces in enumerate(K.faces(d) if d <= K.dim else ()):
        for i, sign in faces:
            rows[i][j] = sign
    return rows


def _combination(coeffs: dict[int, int], lines: Sequence[dict[int, int]],
                 start: int = 0) -> dict[int, int]:
    """The nonzero entries of sum_k coeffs[k] * lines[start + k].

    A lone coefficient 1 names one line, and that line itself is returned,
    not a copy: after an all-unit reduction, as on every grid and fixture,
    each kernel line of the transforms is such a unit.  A caller that
    changes the result changes that line.
    """
    if len(coeffs) == 1:
        ((k, a),) = coeffs.items()
        if a == 1:
            return lines[start + k]
    out: dict[int, int] = {}
    for k, a in coeffs.items():
        for i, v in lines[start + k].items():
            out[i] = out.get(i, 0) + a * v
    return {i: v for i, v in out.items() if v}


def homology_decomposition(K: WeightedComplex, d: int) -> HomologyDecomposition:
    """The (cached) decomposition of H_d(K; Z) in the fixed reported basis."""
    dec = K._decomposition_cache.get(d)
    if dec is None:
        dec = HomologyDecomposition(K, d)
        K._decomposition_cache[d] = dec
    return dec


def class_of_cycle(K: WeightedComplex, d: int, z: Chain) -> ClassCoords:
    """Coordinates of the homology class of a cycle, over the chain's ring."""
    return homology_decomposition(K, d).coords_of_cycle(z)


def reduce_class(c: ClassCoords, target: RingSpec) -> ClassCoords:
    """Image of an integral class under the universal-coefficient reduction."""
    if not c.ring.is_int:
        raise ValueError("reduce_class expects integral class coordinates")
    dec = c.decomposition
    if target.is_int:
        return c
    if target.is_rat:
        return dec.class_coords(RAT, tuple(Fraction(a) for a in c.free_part))
    return dec.class_coords(
        target, c.free_part, c.torsion_part,
        (0,) * len(dec.mod(target.modulus).cotorsion_orders))
