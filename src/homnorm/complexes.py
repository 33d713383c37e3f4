"""Weighted simplicial complexes, chains, cochains, boundaries and mass.

A complex is a face-closed family of strictly-increasing vertex tuples with
one positive rational weight per simplex; weights are the only metric data
mass ever sees.  Chains are sparse coefficient maps on the d-simplices of a
fixed complex over one coefficient ring; their mass is the weighted sum of
coefficient norms.  Everything is immutable after construction and all
arithmetic is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from operator import lt
from typing import Iterable, Mapping, Optional, Sequence

from .rings import (INT, RingElem, RingSpec, canonical_lift, canonicalize,
                    format_element, format_rational, norm, parse_element,
                    parse_rational, ring_from_tag)


class ComplexFormatError(ValueError):
    """A complex document violates the format or the complex invariants."""


class NotACycleError(ValueError):
    """A chain whose boundary does not vanish was passed where a cycle is required."""


Simplex = tuple[int, ...]
_Faces = tuple[tuple[tuple[int, int], ...], ...]


def _fraction(v) -> Fraction:
    """``v`` as a Fraction, passing Fractions through unwrapped."""
    return v if type(v) is Fraction else Fraction(v)


class WeightedComplex:
    """Finite simplicial complex with positive rational weights per simplex."""

    def __init__(self, name: str,
                 simplices: Sequence[Sequence[Simplex]],
                 weights: Optional[Sequence[Sequence[Fraction]]] = None):
        self.name = name
        self.simplices: tuple[tuple[Simplex, ...], ...] = tuple(
            tuple(map(tuple, level)) for level in simplices)
        self.dim = len(self.simplices) - 1
        if self.dim < 0:
            raise ComplexFormatError("complex has no simplices at all")
        if weights is None:
            weights = [[Fraction(1)] * len(level) for level in self.simplices]
        self.weights: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(map(_fraction, level)) for level in weights)
        self._index: tuple[dict[Simplex, int], ...] = tuple(
            dict(zip(level, range(len(level)))) for level in self.simplices)
        self._faces = self._validate()
        self._echelon_cache: dict[int, tuple] = {}
        self._level_cache: dict[tuple[int, int], Optional[tuple]] = {}
        self._decomposition_cache: dict = {}

    def _validate(self) -> tuple[_Faces, ...]:
        """Check the invariants; returns the face table of every degree.

        The face tables are the face-closure check: building them looks up
        every face of every simplex once.
        """
        if len(self.weights) != len(self.simplices):
            raise ComplexFormatError("weights do not cover every degree")
        for k, level in enumerate(self.simplices):
            if len(self.weights[k]) != len(level):
                raise ComplexFormatError(
                    f"degree {k}: {len(self.weights[k])} weights for "
                    f"{len(level)} simplices")
            seen = set()
            for s in level:
                if len(s) != k + 1:
                    raise ComplexFormatError(
                        f"degree {k}: simplex {list(s)} has wrong vertex count")
                if s[0] < 0 or not all(map(lt, s, s[1:])):
                    raise ComplexFormatError(
                        f"degree {k}: vertex tuple {list(s)} is not strictly "
                        "increasing over nonnegative vertices")
                if s in seen:
                    raise ComplexFormatError(
                        f"degree {k}: duplicate simplex {list(s)}")
                seen.add(s)
            for w, s in zip(self.weights[k], level):
                if w.numerator <= 0:
                    raise ComplexFormatError(
                        f"degree {k}: nonpositive weight {format_rational(w)} "
                        f"on simplex {list(s)}")
        return tuple(self._face_table(d) for d in range(self.dim + 1))

    def _face_table(self, d: int) -> _Faces:
        """(face index, sign) pairs of each d-simplex, in omitted-vertex
        order; a face missing from degree d - 1 is a closure violation."""
        level = self.simplices[d]
        if d == 0:
            return ((),) * len(level)
        index = self._index[d - 1]
        # combinations() lists the faces by omitted vertex d, d-1, ..., 0.
        signs = tuple(-1 if i % 2 else 1 for i in range(d, -1, -1))
        try:
            return tuple(
                tuple(zip(map(index.__getitem__, combinations(s, d)),
                          signs))[::-1]
                for s in level)
        except KeyError:
            for s in level:
                for i in range(d + 1):
                    face = s[:i] + s[i + 1:]
                    if face not in index:
                        raise ComplexFormatError(
                            f"face-closure violation: {list(face)} (face of "
                            f"{list(s)}) is not listed in degree {d - 1}")
            raise

    # -- basic accessors ---------------------------------------------------

    def n_simplices(self, d: int) -> int:
        return len(self.simplices[d]) if 0 <= d <= self.dim else 0

    def index_of(self, d: int, s: Simplex) -> int:
        try:
            return self._index[d][tuple(s)]
        except (KeyError, IndexError):
            raise ComplexFormatError(
                f"no degree-{d} simplex {list(s)} in complex {self.name!r}")

    def weight(self, d: int, i: int) -> Fraction:
        return self.weights[d][i]

    def faces(self, d: int) -> _Faces:
        """(face index, sign) pairs of each d-simplex.

        The faces are the (d-1)-simplices left by omitting one vertex, and
        the sign alternates with the omitted position: the sparse columns of
        the boundary operator in degree d, all in {-1, +1}, and consecutive
        boundaries compose to zero.  Vertices have no faces.
        """
        if not 0 <= d <= self.dim:
            raise ValueError(f"degree {d} out of range 0..{self.dim}")
        return self._faces[d]

    def with_scaled_weights(self, d: int, indices: Iterable[int],
                            factor: Fraction) -> "WeightedComplex":
        """Sibling complex with the chosen degree-d weights multiplied by factor.

        The simplices (hence all boundaries and homology bases) are
        untouched, so class coordinates transfer verbatim.
        """
        if factor <= 0:
            raise ValueError("weight factor must be positive")
        idx = set(indices)
        bad = [i for i in idx if not 0 <= i < self.n_simplices(d)]
        if bad:
            raise ValueError(f"degree-{d} simplex index out of range: {bad[0]}")
        new_weights = [list(level) for level in self.weights]
        for i in idx:
            new_weights[d][i] *= factor
        return WeightedComplex(self.name, self.simplices, new_weights)

    def __repr__(self) -> str:
        counts = ",".join(str(len(level)) for level in self.simplices)
        return f"WeightedComplex({self.name!r}, counts=[{counts}])"


@dataclass(frozen=True)
class Chain:
    """Sparse coefficient assignment on the d-simplices of one complex."""

    complex: WeightedComplex
    degree: int
    ring: RingSpec
    coeffs: tuple[tuple[int, RingElem], ...]

    @staticmethod
    def make(complex: WeightedComplex, degree: int, ring: RingSpec,
             coeffs: Mapping[int, RingElem] | Iterable[tuple[int, RingElem]]) -> "Chain":
        if not 0 <= degree <= complex.dim:
            raise ValueError(f"degree {degree} out of range 0..{complex.dim}")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        n_simp = complex.n_simplices(degree)
        # Canonical forms are closed under addition except over Z/n, where
        # each sum is reduced again.  Plain ints skip ``canonicalize``.
        n = ring.modulus
        is_rat = ring.is_rat
        cleaned: dict[int, RingElem] = {}
        for idx, value in items:
            if not 0 <= idx < n_simp:
                raise ValueError(
                    f"no degree-{degree} simplex with index {idx}")
            if type(value) is not int:
                value = canonicalize(ring, value)
            elif n is not None:
                value %= n
            elif is_rat:
                value = Fraction(value)
            if not value:
                continue
            v = cleaned.get(idx, 0) + value
            if n is not None:
                v %= n
            if v:
                cleaned[idx] = v
            else:
                del cleaned[idx]
        return Chain(complex, degree, ring,
                     tuple(sorted(cleaned.items())))

    @staticmethod
    def from_vector(complex: WeightedComplex, degree: int, ring: RingSpec,
                    vector: Sequence[RingElem]) -> "Chain":
        return Chain.make(complex, degree, ring,
                          {i: v for i, v in enumerate(vector) if v})

    @staticmethod
    def zero(complex: WeightedComplex, degree: int, ring: RingSpec) -> "Chain":
        return Chain.make(complex, degree, ring, {})

    def vector(self) -> list[RingElem]:
        out: list[RingElem] = [0] * self.complex.n_simplices(self.degree)
        for idx, v in self.coeffs:
            out[idx] = v
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Chain") -> "Chain":
        self._check_compatible(other)
        merged: dict[int, RingElem] = dict(self.coeffs)
        for idx, v in other.coeffs:
            merged[idx] = merged.get(idx, 0) + v
        return Chain.make(self.complex, self.degree, self.ring, merged)

    def __neg__(self) -> "Chain":
        return Chain.make(self.complex, self.degree, self.ring,
                          {i: -v for i, v in self.coeffs})

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def scale(self, k: RingElem) -> "Chain":
        return Chain.make(self.complex, self.degree, self.ring,
                          {i: k * v for i, v in self.coeffs})

    def _check_compatible(self, other: "Chain") -> None:
        if (other.complex is not self.complex or other.degree != self.degree
                or other.ring != self.ring):
            raise ValueError("chains live on different complexes/degrees/rings")

    def boundary_vector(self) -> list[RingElem]:
        """Boundary coefficients over the ambient ring (degree-1 vector)."""
        K, d = self.complex, self.degree
        out: list[RingElem] = [0] * K.n_simplices(d - 1)
        faces = K.faces(d)
        for idx, v in self.coeffs:
            for i, sign in faces[idx]:
                out[i] += v if sign > 0 else -v
        if self.ring.is_mod:
            return [x % self.ring.modulus for x in out]
        return out

    def is_cycle(self) -> bool:
        return all(not v for v in self.boundary_vector())

    def to_json(self) -> dict:
        return {
            "ring": self.ring.tag,
            "degree": self.degree,
            "coefficients": [[i, format_element(self.ring, v)]
                             for i, v in self.coeffs],
        }

    @staticmethod
    def from_json(complex: WeightedComplex, obj: Mapping) -> "Chain":
        try:
            ring = ring_from_tag(obj["ring"])
            degree = int(obj["degree"])
            pairs = [(int(i), parse_element(ring, c))
                     for i, c in obj["coefficients"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ComplexFormatError(f"bad chain document: {exc}")
        return Chain.make(complex, degree, ring, pairs)


@dataclass(frozen=True)
class Cochain:
    """Rational values, one per d-simplex (dense)."""

    complex: WeightedComplex
    degree: int
    values: tuple[Fraction, ...]

    @staticmethod
    def make(complex: WeightedComplex, degree: int,
             values: Sequence[Fraction]) -> "Cochain":
        if not 0 <= degree <= complex.dim:
            raise ValueError(f"degree {degree} out of range 0..{complex.dim}")
        if len(values) != complex.n_simplices(degree):
            raise ValueError("cochain value count does not match simplex count")
        return Cochain(complex, degree, tuple(map(_fraction, values)))

    @staticmethod
    def zero(complex: WeightedComplex, degree: int) -> "Cochain":
        return Cochain.make(complex, degree,
                            [Fraction(0)] * complex.n_simplices(degree))

    def evaluate(self, chain: Chain) -> Fraction:
        """Pairing with an integral or rational chain."""
        if chain.complex is not self.complex or chain.degree != self.degree:
            raise ValueError("cochain and chain live on different spaces")
        if chain.ring.is_mod:
            raise ValueError("cochains pair with Z- or Q-chains only")
        return sum((Fraction(v) * self.values[i] for i, v in chain.coeffs),
                   Fraction(0))

    def evaluate_vector(self, vector: Sequence) -> Fraction:
        return sum((Fraction(v) * w for v, w in zip(vector, self.values) if v),
                   Fraction(0))

    def is_closed(self) -> bool:
        """True iff the cochain vanishes on every (d+1)-simplex boundary."""
        K, d = self.complex, self.degree
        if d >= K.dim:
            return True
        x, _ = _at_integer_scale(self.values)
        for faces in K.faces(d + 1):
            total = 0
            for i, sign in faces:
                if sign > 0:
                    total += x[i]
                else:
                    total -= x[i]
            if total:
                return False
        return True


def _at_integer_scale(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``values`` times L, the lcm of their denominators, and L."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def mass(K: WeightedComplex, T: Chain) -> Fraction:
    """Weighted mass: sum over simplices of weight times coefficient norm."""
    if T.complex is not K:
        raise ValueError("chain does not live on this complex")
    total = Fraction(0)
    for idx, v in T.coeffs:
        total += K.weight(T.degree, idx) * norm(T.ring, v)
    return total


def reduce_chain(T: Chain, target: RingSpec) -> Chain:
    """Coefficientwise reduction of an integral chain into the target ring."""
    if not T.ring.is_int:
        raise ValueError("reduce_chain expects an integral chain")
    return Chain.make(T.complex, T.degree, target, dict(T.coeffs))


def lift_chain(T: Chain) -> Chain:
    """Canonical coefficientwise lift of a mod-n chain into (-n/2, n/2]."""
    if not T.ring.is_mod:
        raise ValueError("lift_chain expects a mod-n chain")
    n = T.ring.modulus
    assert n is not None
    return Chain.make(T.complex, T.degree, INT,
                      {i: canonical_lift(int(v), n) for i, v in T.coeffs})


# -- document format ------------------------------------------------------


def load_complex(document: str) -> WeightedComplex:
    """Parse and validate a complex document (JSON structured text).

    Fields: ``name`` (string), ``dimension`` (int), ``simplices`` (mapping
    degree string -> list of vertex lists) and optional ``weights`` (mapping
    degree string, 0 to ``dimension``, -> list of "p/q" strings aligned
    with the simplices; missing degrees default every weight to "1/1").
    """
    try:
        obj = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's recursion limit.
        raise ComplexFormatError(f"parse error: {exc}")
    return complex_from_json(obj)


def _all_instances(items: Iterable, cls: type) -> bool:
    """Every item is a ``cls``; bools are not integers.  Only the distinct
    item types are tested, so a document costs one C-level pass."""
    return all(issubclass(t, cls) and t is not bool
               for t in set(map(type, items)))


def complex_from_json(obj) -> WeightedComplex:
    if not isinstance(obj, dict):
        raise ComplexFormatError("document root must be an object")
    try:
        name = obj["name"]
        dim = obj["dimension"]
        simp = obj["simplices"]
    except KeyError as exc:
        raise ComplexFormatError(f"missing or malformed field: {exc}")
    if not isinstance(name, str):
        raise ComplexFormatError(f"'name' must be a string, got {name!r}")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ComplexFormatError(f"'dimension' must be an integer, got {dim!r}")
    if not isinstance(simp, dict):
        raise ComplexFormatError("'simplices' must map degree -> list")
    levels: list[list[Simplex]] = []
    for k in range(dim + 1):
        raw = simp.get(str(k))
        if raw is None:
            raise ComplexFormatError(f"no simplices listed for degree {k}")
        if not (isinstance(raw, list) and _all_instances(raw, list)
                and _all_instances(chain.from_iterable(raw), int)):
            raise ComplexFormatError(f"degree {k}: malformed vertex list")
        levels.append(list(map(tuple, raw)))
    degrees = {str(k) for k in range(dim + 1)}
    extra = set(simp) - degrees
    if extra:
        raise ComplexFormatError(
            f"simplices listed beyond declared dimension: degree {sorted(extra)[0]}")
    weights_obj = obj.get("weights", {})
    if not isinstance(weights_obj, dict):
        raise ComplexFormatError("'weights' must map degree -> list")
    extra = set(weights_obj) - degrees
    if extra:
        raise ComplexFormatError(
            f"weights listed outside degrees 0..{dim}: degree {sorted(extra)[0]}")
    weights: list[list[Fraction]] = []
    for k in range(dim + 1):
        raw = weights_obj.get(str(k))
        if raw is None:
            weights.append([Fraction(1)] * len(levels[k]))
            continue
        if not isinstance(raw, list) or not _all_instances(raw, str):
            raise ComplexFormatError(
                f'degree {k}: weights must be a list of "p/q" strings')
        if len(raw) != len(levels[k]):
            raise ComplexFormatError(
                f"degree {k}: {len(raw)} weights for {len(levels[k])} simplices")
        # A grid has a few distinct literals: each is parsed once, in order
        # of first use, so a bad one is reported where it first appears.
        try:
            parsed = {w: parse_rational(w) for w in dict.fromkeys(raw)}
        except ValueError as exc:
            raise ComplexFormatError(f"degree {k}: {exc}")
        weights.append(list(map(parsed.__getitem__, raw)))
    return WeightedComplex(name, levels, weights)


def complex_to_json(K: WeightedComplex) -> dict:
    return {
        "name": K.name,
        "dimension": K.dim,
        "simplices": {str(k): [list(s) for s in K.simplices[k]]
                      for k in range(K.dim + 1)},
        "weights": {str(k): [format_rational(w) for w in K.weights[k]]
                    for k in range(K.dim + 1)},
    }


def dump_complex(K: WeightedComplex) -> str:
    return json.dumps(complex_to_json(K), indent=2) + "\n"
