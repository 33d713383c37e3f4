"""Homology decompositions, class coordinates and coefficient reductions.

The integral decomposition of H_d comes from two Smith normal forms: one of
the boundary operator in degree d (whose kernel lattice carries the cycles)
and one of the next boundary operator expressed in kernel coordinates
(whose invariant factors carry rank and torsion).  The basis it produces is
non-canonical but reproducible: the pivot rule in :mod:`homnorm.intlinalg`
is fixed, so identical complexes always report identical bases.

Mod-n homology is represented concretely as integer-lifted cycles modulo
(boundaries + n * chains).  Its coordinate system is aligned with the
reduction map from integral homology: the first coordinates are the mod-n
images of the integral free and torsion basis, and the remaining
"cotorsion" coordinates span a complement of that image (the Tor summand
of the universal-coefficient sequence), constructed by lifting quotient
generators and correcting them inside the image subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional, Sequence

from .complexes import Chain, NotACycleError, WeightedComplex
from .intlinalg import IntMatrix, SNFResult, smith_normal_form, solve_with_snf
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

    def __add__(self, other: "ClassCoords") -> "ClassCoords":
        if other.decomposition is not self.decomposition or other.ring != self.ring:
            raise ValueError("class coordinates live in different decompositions")
        return self.decomposition.class_coords(
            self.ring,
            tuple(a + b for a, b in zip(self.free_part, other.free_part)),
            tuple(a + b for a, b in zip(self.torsion_part, other.torsion_part)),
            tuple(a + b for a, b in zip(self.cotorsion_part, other.cotorsion_part)))

    def __neg__(self) -> "ClassCoords":
        return self.scale(-1)

    def __sub__(self, other: "ClassCoords") -> "ClassCoords":
        return self + (-other)

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
        A = K.boundary_matrix_or_empty(degree)
        B = K.boundary_matrix_or_empty(degree + 1)
        self._snfA: SNFResult = smith_normal_form(A)
        rA = self._snfA.rank
        self._rankA = rA
        z = n_simp - rA
        # Kernel lattice basis: trailing columns of V from the SNF of A.
        self._kernel = IntMatrix.from_columns(
            [self._snfA.V.column(j) for j in range(rA, n_simp)], n_simp)
        # Boundaries in kernel coordinates.
        C = IntMatrix.zeros(z, B.cols)
        for j in range(B.cols):
            s = self._kernel_coords_int(B.column(j))
            for i in range(z):
                C.data[i][j] = s[i]
        self._snfC: SNFResult = smith_normal_form(C)
        rC = self._snfC.rank
        self._rankC = rC
        self._invariant_factors = tuple(self._snfC.diag[:rC])
        self._kprime = self._kernel.matmul(self._snfC.u_inv)
        self.betti = z - rC
        self.free_basis = tuple(
            Chain.from_vector(K, degree, INT, self._kprime.column(j))
            for j in range(rC, z))
        factors: list[TorsionFactor] = []
        for i, d in enumerate(self._invariant_factors):
            if d <= 1:
                continue
            for p, nu in factorize(d):
                q = p ** nu
                rest = d // q
                idem = (rest * pow(rest, -1, q)) % d if rest > 1 else 1
                vec = [idem * v for v in self._kprime.column(i)]
                factors.append(TorsionFactor(
                    prime=p, exponent=nu, order=q,
                    cycle=Chain.from_vector(K, degree, INT, vec),
                    column=i, idempotent=idem))
        self.torsion = tuple(factors)
        self.torsion_basis = tuple(tf.cycle for tf in factors)
        self.torsion_factors = tuple((tf.prime, tf.exponent) for tf in factors)
        self.torsion_number = 1
        for tf in factors:
            self.torsion_number *= tf.order
        self._mod_cache: dict[int, ModDecomposition] = {}

    # -- internal coordinate plumbing ---------------------------------------

    def _kernel_coords_int(self, vec: Sequence[int]) -> list[int]:
        y = self._snfA.v_inv.mul_vec(vec)
        if any(y[:self._rankA]):
            raise NotACycleError("vector is not in the cycle lattice")
        return y[self._rankA:]

    def _kernel_coords_rat(self, vec: Sequence[Fraction]) -> list[Fraction]:
        y = self._snfA.v_inv.mul_vec([Fraction(v) for v in vec])
        if any(y[:self._rankA]):
            raise NotACycleError("vector is not in the rational cycle space")
        return y[self._rankA:]

    def coords_of_int_cycle(self, vec: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        sp = self._snfC.U.mul_vec(self._kernel_coords_int(vec))
        free = tuple(sp[self._rankC:])
        torsion = tuple(sp[tf.column] % tf.order for tf in self.torsion)
        return free, torsion

    def coords_of_rat_cycle(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        sp = self._snfC.U.mul_vec(self._kernel_coords_rat(vec))
        return tuple(Fraction(v) for v in sp[self._rankC:])

    def representative_vector(self, c: "ClassCoords") -> list:
        """Chain vector of the reference representative of ``c``.

        Over Z and Q the output combines the stored basis cycles; over
        Z/nZ the cotorsion generators of the mod decomposition join in and
        the result is an integer lift of the representative.
        """
        n_simp = self.complex.n_simplices(self.degree)
        if c.ring.is_rat:
            out = [Fraction(0)] * n_simp
            for a, j in zip(c.free_part, range(self._rankC, self._rankC + self.betti)):
                if a:
                    col = self._kprime.column(j)
                    for i in range(n_simp):
                        out[i] += Fraction(a) * col[i]
            return out
        out = [0] * n_simp
        for a, j in zip(c.free_part, range(self._rankC, self._rankC + self.betti)):
            if a:
                col = self._kprime.column(j)
                for i in range(n_simp):
                    out[i] += int(a) * col[i]
        for b, tf in zip(c.torsion_part, self.torsion):
            if b:
                col = self._kprime.column(tf.column)
                for i in range(n_simp):
                    out[i] += b * tf.idempotent * col[i]
        if c.ring.is_mod:
            md = self.mod(c.ring.modulus)
            for g, (order, coords, wvec) in zip(c.cotorsion_part, md.cotorsion):
                if g:
                    for i in range(n_simp):
                        out[i] += g * wvec[i]
        return out

    def representative(self, c: "ClassCoords") -> Chain:
        vec = self.representative_vector(c)
        return Chain.from_vector(self.complex, self.degree, c.ring, vec)

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

    def zero_class(self, ring: RingSpec) -> ClassCoords:
        if ring.is_rat:
            return self.class_coords(ring, (Fraction(0),) * self.betti)
        cot = ()
        if ring.is_mod:
            cot = (0,) * len(self.mod(ring.modulus).cotorsion)
        return self.class_coords(ring, (0,) * self.betti,
                                 (0,) * len(self.torsion), cot)

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

    Generators, in order: the reductions of the integral free basis (order
    n each), the reductions of the integral torsion basis (order
    gcd(p^nu, n)), then cotorsion generators spanning a complement of the
    reduction image.  Coordinates of a class are unique modulo those
    orders because the three blocks form a direct sum.
    """

    def __init__(self, dec: HomologyDecomposition, n: int):
        self.dec = dec
        self.n = n
        K = dec.complex
        d = dec.degree
        n_simp = K.n_simplices(d)
        B = K.boundary_matrix_or_empty(d + 1)
        diagA = dec._snfA.diag
        # Lifted mod-n cycle lattice: columns of V_A scaled by n/gcd(diag, n).
        self._scales = [n // gcd(diagA[j] if j < len(diagA) else 0, n)
                        for j in range(n_simp)]
        relation_cols: list[list[int]] = []
        for j in range(B.cols):
            relation_cols.append(self._cycle_lattice_coords(B.column(j)))
        for k in range(n_simp):
            col = [n * v for v in dec._snfA.v_inv.column(k)]
            relation_cols.append([c // s for c, s in zip(col, self._scales)])
        Cn = IntMatrix.from_columns(relation_cols, n_simp)
        self._snfCn = smith_normal_form(Cn)
        diag = self._snfCn.diag
        if len(diag) != n_simp or any(e == 0 for e in diag):
            raise AssertionError("mod-n relation lattice must have full rank")
        self._factor_indices = [i for i, e in enumerate(diag) if e > 1]
        self._factor_orders = [diag[i] for i in self._factor_indices]
        for e in self._factor_orders:
            if n % e:
                raise AssertionError("mod-n invariant factor must divide n")
        # Images of the integral basis in raw coordinates.
        self._phi = [self._raw_coords(f.vector()) for f in dec.free_basis]
        self._psi = [self._raw_coords(tf.cycle.vector()) for tf in dec.torsion]
        for g in self._phi:
            if self._order(g) != n:
                raise AssertionError("free basis image must have order n mod n")
        for g, tf in zip(self._psi, dec.torsion):
            if self._order(g) != gcd(tf.order, n):
                raise AssertionError("torsion image has unexpected order")
        self.cotorsion = self._build_cotorsion()
        # Solver for coordinates: [phi | psi | w | diag(orders)] over Z.
        j_count = len(self._factor_indices)
        cols = ([list(g) for g in self._phi] + [list(g) for g in self._psi]
                + [list(w) for (_, w, _) in self.cotorsion])
        for i in range(j_count):
            e_col = [0] * j_count
            e_col[i] = self._factor_orders[i]
            cols.append(e_col)
        self._coord_solver = smith_normal_form(
            IntMatrix.from_columns(cols, j_count))

    @cached_property
    def _image_solver(self) -> SNFResult:
        """Solver for membership in the reduction image: [kernel | B | nI].

        Only :meth:`in_image` reads it, so it is built on first use.
        """
        dec = self.dec
        n_simp = dec.complex.n_simplices(dec.degree)
        B = dec.complex.boundary_matrix_or_empty(dec.degree + 1)
        img_cols = ([dec._kernel.column(j) for j in range(dec._kernel.cols)]
                    + [B.column(j) for j in range(B.cols)])
        for k in range(n_simp):
            e_col = [0] * n_simp
            e_col[k] = self.n
            img_cols.append(e_col)
        return smith_normal_form(IntMatrix.from_columns(img_cols, n_simp))

    # -- raw presentation helpers -------------------------------------------

    def _cycle_lattice_coords(self, vec: Sequence[int]) -> list[int]:
        y = self.dec._snfA.v_inv.mul_vec(vec)
        out = []
        for v, s in zip(y, self._scales):
            if v % s:
                raise NotACycleError("vector is not a mod-n cycle lift")
            out.append(v // s)
        return out

    def _raw_coords(self, vec: Sequence[int]) -> tuple[int, ...]:
        s = self._cycle_lattice_coords([int(v) for v in vec])
        g = self._snfCn.U.mul_vec(s)
        return tuple(g[i] % self._snfCn.diag[i] for i in self._factor_indices)

    def _order(self, g: Sequence[int]) -> int:
        out = 1
        for v, e in zip(g, self._factor_orders):
            o = e // gcd(e, v % e)
            out = out * o // gcd(out, o)
        return out

    def _build_cotorsion(self) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
        j_count = len(self._factor_indices)
        gens = self._phi + self._psi
        cols = [list(g) for g in gens]
        for i in range(j_count):
            e_col = [0] * j_count
            e_col[i] = self._factor_orders[i]
            cols.append(e_col)
        quotient = smith_normal_form(IntMatrix.from_columns(cols, j_count))
        out: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        for l in range(j_count):
            m_l = quotient.diag[l] if l < len(quotient.diag) else 0
            if m_l <= 1:
                continue
            u_l = quotient.u_inv.column(l)
            # Correct the lift inside the image subgroup so that its order
            # in the full group equals its order in the quotient.
            corr_cols = ([[m_l * v for v in g] for g in gens])
            for i in range(j_count):
                e_col = [0] * j_count
                e_col[i] = self._factor_orders[i]
                corr_cols.append(e_col)
            rhs = [m_l * v for v in u_l]
            sol = solve_with_snf(
                smith_normal_form(IntMatrix.from_columns(corr_cols, j_count)), rhs)
            if sol is None:
                raise AssertionError("universal-coefficient splitting failed")
            t = sol[:len(gens)]
            w = list(u_l)
            for coeff, g in zip(t, gens):
                for i in range(j_count):
                    w[i] -= coeff * g[i]
            w = [v % e for v, e in zip(w, self._factor_orders)]
            if self._order(w) != m_l:
                raise AssertionError("cotorsion generator has wrong order")
            wvec = self._element_chain_vector(w)
            out.append((m_l, tuple(w), tuple(wvec)))
        return out

    def _element_chain_vector(self, g: Sequence[int]) -> list[int]:
        """Integer chain lift of the group element with raw coordinates g."""
        n_simp = self.dec.complex.n_simplices(self.dec.degree)
        out = [0] * n_simp
        for coord, idx in zip(g, self._factor_indices):
            if coord:
                s = self._snfCn.u_inv.column(idx)
                scaled = [v * sc for v, sc in zip(s, self._scales)]
                col = self.dec._snfA.V.mul_vec(scaled)
                for i in range(n_simp):
                    out[i] += coord * col[i]
        return out

    # -- public API -----------------------------------------------------------

    @property
    def cotorsion_orders(self) -> tuple[int, ...]:
        return tuple(order for (order, _, _) in self.cotorsion)

    def coords_of_cycle(self, vec: Sequence[int]) -> tuple[tuple[int, ...],
                                                           tuple[int, ...],
                                                           tuple[int, ...]]:
        g = self._raw_coords(vec)
        sol = solve_with_snf(self._coord_solver, list(g))
        if sol is None:
            raise AssertionError("mod-n basis does not span; this is a bug")
        b = self.dec.betti
        t = len(self.dec.torsion)
        alpha = tuple(a % self.n for a in sol[:b])
        beta = tuple(v % gcd(tf.order, self.n)
                     for v, tf in zip(sol[b:b + t], self.dec.torsion))
        gamma = tuple(v % order
                      for v, (order, _, _) in zip(sol[b + t:], self.cotorsion))
        return alpha, beta, gamma

    def in_image(self, vec: Sequence[int]) -> bool:
        """True iff the lifted chain is congruent to an integral cycle mod
        (boundaries + n*chains), i.e. the class is a reduction."""
        return solve_with_snf(self._image_solver, [int(v) for v in vec]) is not None


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
    if not z.is_cycle():
        raise NotACycleError(
            f"chain has nonzero boundary over {z.ring.tag}")
    dec = homology_decomposition(K, d)
    if z.ring.is_int:
        free, torsion = dec.coords_of_int_cycle([int(v) for v in z.vector()])
        return dec.class_coords(INT, free, torsion)
    if z.ring.is_rat:
        return dec.class_coords(RAT, dec.coords_of_rat_cycle(z.vector()))
    md = dec.mod(z.ring.modulus)
    alpha, beta, gamma = md.coords_of_cycle([int(v) for v in z.vector()])
    return dec.class_coords(z.ring, alpha, beta, gamma)


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


def in_reduction_image(K: WeightedComplex, d: int, c: ClassCoords) -> bool:
    """Whether a mod-n class is the reduction of some integral class."""
    if not c.ring.is_mod:
        raise ValueError("in_reduction_image expects mod-n class coordinates")
    dec = homology_decomposition(K, d)
    if c.decomposition is not dec:
        raise ValueError("class does not belong to this complex/degree")
    md = dec.mod(c.ring.modulus)
    return md.in_image(dec.representative_vector(c))
