"""Weighted simplicial complexes, chains, cochains, boundaries and mass.

A complex is a face-closed family of strictly-increasing vertex tuples with
one positive rational weight per simplex; weights are the only metric data
mass ever sees.  Chains are sparse coefficient maps on the d-simplices of a
fixed complex over one coefficient ring; their mass is the weighted sum of
coefficient norms.  Everything is immutable after construction and all
arithmetic is exact.
"""

from __future__ import annotations

import copy
import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import lt
from typing import Optional

from .rings import (RingElem, RingSpec, canonicalize, format_element,
                    format_rational, norm, parse_rational)


class ComplexFormatError(ValueError):
    """A complex document violates the format or the complex invariants."""


class NotACycleError(ValueError):
    """A chain whose boundary does not vanish was passed where a cycle is required."""


Simplex = tuple[int, ...]
_Faces = tuple[tuple[tuple[int, int], ...], ...]


def _fraction(v) -> Fraction:
    """``v`` as a Fraction, passing Fractions through unwrapped."""
    return v if type(v) is Fraction else Fraction(v)


def _distinct(values: Sequence) -> Iterable:
    """The distinct objects of ``values``, by identity: a document's
    weights are a few objects shared by many simplices."""
    return dict(zip(map(id, values), values)).values()


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
        # The tables that read the weights, by (table, degree or index).
        self._memo: dict[tuple[str, int], object] = {}
        self._decomposition_cache: dict = {}

    def _validate(self) -> tuple[_Faces, ...]:
        """Check the invariants; returns the face table of every degree.

        Each degree is checked by whole-level passes: its vertex counts, its
        vertices position by position (nonnegative, strictly increasing),
        its index against its length (duplicates) and its distinct weights.
        Only when one fails is the degree scanned in order
        (``_first_violation``), to name the first violation.  The face
        tables are the face-closure check: building them looks up every
        face of every simplex once.
        """
        if len(self.weights) != len(self.simplices):
            raise ComplexFormatError("weights do not cover every degree")
        columns = []  # per degree, the tuple of vertex j of every simplex
        for k, level in enumerate(self.simplices):
            if len(self.weights[k]) != len(level):
                raise ComplexFormatError(
                    f"degree {k}: {len(self.weights[k])} weights for "
                    f"{len(level)} simplices")
            if set(map(len, level)) <= {k + 1}:
                cols = list(zip(*level)) or [()] * (k + 1)
                if (min(cols[0], default=0) >= 0
                        and all(all(map(lt, a, b))
                                for a, b in zip(cols, cols[1:]))
                        and len(self._index[k]) == len(level)
                        and all(w.numerator > 0
                                for w in _distinct(self.weights[k]))):
                    columns.append(cols)
                    continue
            raise self._first_violation(k)
        return tuple(map(self._face_table, range(self.dim + 1), columns))

    def _first_violation(self, k: int) -> ComplexFormatError:
        """The first violation of degree k, in simplex order: vertex count,
        vertices, duplicates, then weights."""
        seen = set()
        for s in self.simplices[k]:
            if len(s) != k + 1:
                return ComplexFormatError(
                    f"degree {k}: simplex {list(s)} has wrong vertex count")
            if s[0] < 0 or not all(map(lt, s, s[1:])):
                return ComplexFormatError(
                    f"degree {k}: vertex tuple {list(s)} is not strictly "
                    "increasing over nonnegative vertices")
            if s in seen:
                return ComplexFormatError(
                    f"degree {k}: duplicate simplex {list(s)}")
            seen.add(s)
        for w, s in zip(self.weights[k], self.simplices[k]):
            if w.numerator <= 0:
                return ComplexFormatError(
                    f"degree {k}: nonpositive weight {format_rational(w)} "
                    f"on simplex {list(s)}")
        raise AssertionError(f"degree {k} failed a check but has no violation")

    def _face_table(self, d: int,
                    columns: Sequence[Sequence[int]]) -> _Faces:
        """(face index, sign) pairs of each d-simplex, in omitted-vertex
        order; a face missing from degree d - 1 is a closure violation.
        ``columns[j]`` holds vertex j of every d-simplex.

        The faces are looked up one omitted position at a time over the
        whole level; a missing one sends the scan to the first violation in
        simplex order."""
        level = self.simplices[d]
        if d == 0:
            return ((),) * len(level)
        index = self._index[d - 1]
        try:
            return tuple(zip(*(
                zip(map(index.__getitem__,
                        zip(*columns[:i], *columns[i + 1:])),
                    repeat(-1 if i % 2 else 1))
                for i in range(d + 1))))
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

    def integer_weights(self, d: int) -> tuple[tuple[int, ...], int]:
        """The degree-d weights times L, the lcm of their denominators, and
        L; built once per degree."""
        key = ("weights", d)
        got = self._memo.get(key)
        if got is None:
            wnum, scale = _at_integer_scale(self.weights[d])
            got = self._memo[key] = (tuple(wnum), scale)
        return got

    def with_scaled_weights(self, d: int, indices: Iterable[int],
                            factor: Fraction) -> "WeightedComplex":
        """Sibling complex with the chosen degree-d weights multiplied by factor.

        The simplices (hence all boundaries and homology bases) are
        untouched, so class coordinates transfer verbatim.  The sibling
        shares the weight-free state: the simplices, their index, the face
        tables and the decompositions computed so far, rebound to it.  Its
        memo of the tables that read the weights starts empty.
        """
        if not 0 <= d <= self.dim:
            raise ValueError(f"degree {d} out of range 0..{self.dim}")
        if factor <= 0:
            raise ValueError("weight factor must be positive")
        idx = set(indices)
        bad = [i for i in idx if not 0 <= i < self.n_simplices(d)]
        if bad:
            raise ValueError(f"degree-{d} simplex index out of range: {bad[0]}")
        level = list(self.weights[d])
        for i in idx:
            level[i] = _fraction(level[i] * factor)
        K = copy.copy(self)
        K.weights = (*self.weights[:d], tuple(level), *self.weights[d + 1:])
        K._memo = {}
        K._decomposition_cache = {
            k: dec.rebound(K) for k, dec in self._decomposition_cache.items()}
        return K

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
        # each sum is reduced again.
        n = ring.modulus
        cleaned: dict[int, RingElem] = {}
        for idx, value in items:
            if not 0 <= idx < n_simp:
                raise ValueError(
                    f"no degree-{degree} simplex with index {idx}")
            value = canonicalize(ring, value)
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

    def is_cycle(self) -> bool:
        return _is_cycle(self.complex, self.degree, self.coeffs,
                         self.ring.modulus)

    def to_json(self) -> dict:
        return {
            "ring": self.ring.tag,
            "degree": self.degree,
            "coefficients": [[i, format_element(self.ring, v)]
                             for i, v in self.coeffs],
        }


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


def _at_integer_scale(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``values`` times L, the lcm of their denominators, and L.  Each
    distinct object is scaled once."""
    distinct = _distinct(values)
    scale = lcm(*(v.denominator for v in distinct))
    scaled = {id(v): v.numerator * (scale // v.denominator) for v in distinct}
    return list(map(scaled.__getitem__, map(id, values))), scale


def _is_cycle(K: WeightedComplex, d: int,
              coeffs: Iterable[tuple[int, RingElem]],
              modulus: Optional[int] = None) -> bool:
    """True iff the d-chain of (index, coefficient) pairs ``coeffs`` has
    zero boundary, mod ``modulus`` if one is given.  Only the faces of its
    support are visited."""
    boundary: dict[int, RingElem] = {}
    get = boundary.get
    faces = K.faces(d)
    for k, x in coeffs:
        for i, sign in faces[k]:
            boundary[i] = get(i, 0) + sign * x
    if modulus:
        return not any(v % modulus for v in boundary.values())
    return not any(boundary.values())


def _is_calibration(K: WeightedComplex, d: int, x: Sequence[int],
                    w: Sequence[int], scale: int = 1) -> bool:
    """True iff the integral d-cochain ``x`` is closed and
    |x_s| <= scale * w_s on every d-simplex s.

    With ``w`` the weights at an integer scale W, that is: x/(scale*W)
    vanishes on every (d+1)-simplex boundary and has comass <= 1.
    """
    if any(abs(v) > scale * ws for v, ws in zip(x, w)):
        return False
    for faces in K.faces(d + 1) if d < K.dim else ():
        total = 0
        for i, sign in faces:
            total += sign * x[i]
        if total:
            return False
    return True


def mass(K: WeightedComplex, T: Chain) -> Fraction:
    """Weighted mass: sum over simplices of weight times coefficient norm."""
    if T.complex is not K:
        raise ValueError("chain does not live on this complex")
    total = Fraction(0)
    weights = K.weights[T.degree]
    for idx, v in T.coeffs:
        total += weights[idx] * norm(T.ring, v)
    return total


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
