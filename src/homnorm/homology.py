"""Homology decompositions, class coordinates and coefficient reductions.

The integral decomposition of H_d comes from two Smith normal forms: one of
the boundary operator in degree d (whose kernel lattice carries the cycles)
and one of the next boundary operator expressed in kernel coordinates
(whose invariant factors carry rank and torsion).  The basis it produces is
non-canonical but reproducible: the pivot rule in :mod:`homnorm.intlinalg`
is fixed, so identical complexes always report identical bases.  Both
forms reduce sparse rows built from ``WeightedComplex.faces``, and every
change of basis (into kernel coordinates, to class coordinates and back to
chains) walks only the nonzero entries of their sparse transforms.  The
next boundary in kernel coordinates is built row by row, each row a
combination of coface rows named by one kernel row of V_A^-1; of the basis
matrix K' only the columns that name classes are formed.  Neither form
keeps the inverse lines of its unit invariant factors, and nothing here
reads them: a cycle is told from a non-cycle by its boundary.

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

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import gcd
from typing import Iterable, Optional, Sequence

from .complexes import Chain, NotACycleError, WeightedComplex
from .intlinalg import (ShapeMismatchError, SNFResult,
                        sparse_smith_normal_form)
from .rings import (INT, RAT, RingElem, RingSpec, factorize, format_element,
                    mod_ring)


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
        # Rows of the degree-d boundary, from the faces of the d-simplices.
        a_rows: list[dict[int, int]] = [
            {} for _ in range(K.n_simplices(degree - 1))]
        for j, faces in enumerate(K.faces(degree)):
            for i, sign in faces:
                a_rows[i][j] = sign
        # Only V_A, V_A^-1, U_C and U_C^-1 are read below.
        self._snfA: SNFResult = sparse_smith_normal_form(a_rows, n_simp,
                                                         _track="v")
        rA = self._snfA.rank
        self._rankA = rA
        z = n_simp - rA
        # Boundaries in kernel coordinates, C = (V_A^-1 B)[r_A:], row by
        # row: row i combines the rows of B named by kernel row r_A + i of
        # V_A^-1.  The rows before r_A would be zero, as boundaries are
        # cycles.
        b_rows: list[dict[int, int]] = [{} for _ in range(n_simp)]
        cofaces = K.faces(degree + 1) if degree < K.dim else ()
        for j, faces in enumerate(cofaces):
            for k, sign in faces:
                b_rows[k][j] = sign
        v_inv = self._snfA.v_inv_rows
        c_rows = [_combination((v, b_rows[k]) for k, v in v_inv[i].items())
                  for i in range(rA, n_simp)]
        self._snfC: SNFResult = sparse_smith_normal_form(
            c_rows, len(cofaces), _track="u")
        rC = self._snfC.rank
        self._rankC = rC
        self._invariant_factors = tuple(self._snfC.diag[:rC])
        # Columns of K' = (kernel columns of V_A) U_C^-1 that name classes:
        # the free ones past r_C and the torsion ones.
        kernel = self._snfA.v_cols[rA:]
        named = [i for i, d in enumerate(self._invariant_factors) if d > 1]
        named += range(rC, z)
        self._kprime: dict[int, dict[int, int]] = {
            j: _combination((v, kernel[k])
                            for k, v in self._snfC.u_inv_cols[j].items())
            for j in named}
        self.betti = z - rC
        self.free_basis = tuple(Chain.make(K, degree, INT, self._kprime[j])
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
                    cycle=Chain.make(K, degree, INT, {
                        k: idem * v for k, v in self._kprime[i].items()}),
                    column=i, idempotent=idem))
        self.torsion = tuple(factors)
        self.torsion_basis = tuple(tf.cycle for tf in factors)
        self.torsion_factors = tuple((tf.prime, tf.exponent) for tf in factors)
        self.torsion_number = 1
        for tf in factors:
            self.torsion_number *= tf.order
        self._mod_cache: dict[int, ModDecomposition] = {}

    # -- coordinates of cycles, representatives of classes ------------------

    def coords_of_cycle(self, vec: Sequence[RingElem],
                        ring: RingSpec) -> ClassCoords:
        """Class of a cycle over ``ring`` (an integer lift over Z/nZ).

        A non-cycle is rejected by its boundary (taken mod n over Z/nZ).
        With y = V_A^-1 vec, U_A A vec = D_A y, and U_A is unimodular, so a
        cycle has y_j = 0 for every j < r_A, and over Z/nZ a lift has
        n/g_j | y_j; y_j/(n/g_j) is the cotorsion coordinate of each j
        with g_j > 1.  Then sp = U_C y[r_A:] holds the free coordinates
        past r_C and the torsion coordinates at the torsion columns;
        :meth:`class_coords` reduces all three.
        """
        K, d = self.complex, self.degree
        if len(vec) != K.n_simplices(d):
            raise ShapeMismatchError("vector length mismatch")
        boundary: dict[int, RingElem] = {}
        faces = K.faces(d)
        for k in compress(range(len(vec)), vec):
            x = vec[k]
            for i, sign in faces[k]:
                boundary[i] = boundary.get(i, 0) + sign * x
        n = ring.modulus if ring.is_mod else 0
        if any(v % n if n else v for v in boundary.values()):
            raise NotACycleError(f"chain has nonzero boundary over {ring.tag}")
        rA = self._rankA
        gcds = self.mod(n)._gcds if n else ()
        cot = [j for j, g in enumerate(gcds) if g > 1]
        # y_j = (V_A^-1 vec)_j on the rows read: cotorsion, then kernel.
        v_inv = self._snfA.v_inv_rows
        y: dict[int, RingElem] = {}
        for j in chain(cot, range(rA, len(vec))):
            s = 0
            for k, v in v_inv[j].items():
                s += v * vec[k]
            y[j] = s
        cotorsion = [y[j] // (n // gcds[j]) for j in cot]
        yk = {j - rA: v for j, v in y.items() if j >= rA and v}
        u_rows = self._snfC.u_rows

        def sp(j: int) -> RingElem:
            return sum(v * yk[k] for k, v in u_rows[j].items() if k in yk)

        free = [sp(j) for j in range(self._rankC, len(u_rows))]
        torsion = () if ring.is_rat else [sp(tf.column) for tf in self.torsion]
        return self.class_coords(ring, free, torsion, cotorsion)

    def dual_cocycle(self, i: int) -> dict[int, int]:
        """The integral cocycle eta_i dual to free basis cycle i, sparse.

        eta_i is row r_C + i of U_C times the kernel rows V_A^-1[r_A:], so
        eta_i(z) is free coordinate i of [z] for every integral cycle z: it
        vanishes on boundaries and on the torsion basis, and eta_i(b_j) is
        1 if i == j, else 0.
        """
        if not 0 <= i < self.betti:
            raise IndexError(f"free index {i} out of range 0..{self.betti - 1}")
        v_inv, rA = self._snfA.v_inv_rows, self._rankA
        return _combination(
            (v, v_inv[rA + k])
            for k, v in self._snfC.u_rows[self._rankC + i].items())

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
        md = self.mod(ring.modulus)
        if len(cotorsion) != len(md.cotorsion):
            raise InfeasibleClassError(
                f"expected {len(md.cotorsion)} cotorsion coordinates mod "
                f"{ring.modulus}, got {len(cotorsion)}")
        n = ring.modulus
        return ClassCoords(
            self, ring,
            tuple(int(a) % n for a in free),
            tuple(int(b) % gcd(tf.order, n)
                  for b, tf in zip(torsion, self.torsion)),
            tuple(int(g) % order
                  for g, (order, _, _) in zip(cotorsion, md.cotorsion)))

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
        self.dec = dec
        self.n = n
        diag = dec._snfA.diag
        # Order of each summand Z/g_j; a lift has n/g_j | y_j.
        self._gcds = tuple(gcd(diag[j], n) for j in range(dec._rankA))
        cot = [j for j, g in enumerate(self._gcds) if g > 1]
        # The generators' nonzero entries; ``cotorsion`` lists them densely.
        self._lines = tuple(
            {i: n // self._gcds[j] * v
             for i, v in dec._snfA.v_cols[j].items()} for j in cot)
        n_simp = dec.complex.n_simplices(dec.degree)
        self.cotorsion = tuple(
            (self._gcds[j],
             tuple(int(k == i) for k in range(len(cot))),
             tuple(line.get(k, 0) for k in range(n_simp)))
            for i, (j, line) in enumerate(zip(cot, self._lines)))


def _combination(terms: Iterable[tuple[RingElem, dict[int, int]]]
                 ) -> dict[int, RingElem]:
    """The nonzero entries of sum a * line over the (a, line) terms."""
    out: dict[int, RingElem] = {}
    for a, line in terms:
        for i, v in line.items():
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
    if z.complex is not K or z.degree != d:
        raise ValueError("chain does not live on this complex/degree")
    return homology_decomposition(K, d).coords_of_cycle(z.vector(), z.ring)


def reduce_class(c: ClassCoords, target: RingSpec) -> ClassCoords:
    """Image of an integral class under the universal-coefficient reduction."""
    if not c.ring.is_int:
        raise ValueError("reduce_class expects integral class coordinates")
    dec = c.decomposition
    if target.is_int:
        return c
    if target.is_rat:
        return dec.class_coords(RAT, tuple(Fraction(a) for a in c.free_part))
    md = dec.mod(target.modulus)
    return dec.class_coords(target, c.free_part, c.torsion_part,
                            (0,) * len(md.cotorsion))


def kernel_witness(X: ClassCoords, Y: ClassCoords, n: int) -> Optional[ClassCoords]:
    """Free class W with X - Y = n*W when the mod-n reductions agree.

    Requires the torsion number to divide n (precondition of the kernel
    lemma); returns None when the reductions differ.
    """
    if not (X.ring.is_int and Y.ring.is_int):
        raise ValueError("kernel_witness expects integral classes")
    if X.decomposition is not Y.decomposition:
        raise ValueError("classes live in different decompositions")
    dec = X.decomposition
    if n < 2 or dec.torsion_number < 1 or n % dec.torsion_number:
        raise ValueError(
            f"torsion number {dec.torsion_number} does not divide n = {n}")
    target = mod_ring(n)
    if reduce_class(X, target) != reduce_class(Y, target):
        return None
    free = tuple((a - b) // n for a, b in zip(X.free_part, Y.free_part))
    return dec.class_coords(INT, free, (0,) * len(dec.torsion))

