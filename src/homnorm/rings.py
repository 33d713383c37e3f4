"""Coefficient rings (Z, Q, Z/nZ) and the norms used to weigh chain coefficients.

Elements are plain Python numbers interpreted against a :class:`RingSpec`:
``int`` for Z, ``fractions.Fraction`` for Q, and canonical residues in
``[0, n)`` (as ``int``) for Z/nZ.  The Z/nZ norm is the absolute value of
the unique signed lift into ``(-n/2, n/2]``; no homogeneity is assumed,
only reversibility, the triangle inequality and positivity.

All arithmetic is exact; nothing here ever touches floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

RingElem = Union[int, Fraction]

_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


@dataclass(frozen=True)
class RingSpec:
    """Which coefficient ring, plus its modulus when finite.

    ``kind`` is one of ``"Z"``, ``"Q"``, ``"Z/n"``; ``modulus`` is present
    (and >= 2) exactly when ``kind == "Z/n"``.
    """

    kind: str
    modulus: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "Q", "Z/n"):
            raise ValueError(f"unknown ring kind: {self.kind!r}")
        if self.kind == "Z/n":
            if self.modulus is None or self.modulus < 2:
                raise ValueError("Z/n ring needs a modulus >= 2")
        elif self.modulus is not None:
            raise ValueError(f"ring {self.kind} takes no modulus")

    @property
    def is_int(self) -> bool:
        return self.kind == "Z"

    @property
    def is_rat(self) -> bool:
        return self.kind == "Q"

    @property
    def is_mod(self) -> bool:
        return self.kind == "Z/n"

    @property
    def tag(self) -> str:
        """Serialization tag: ``"Z"``, ``"Q"`` or ``"Z/<n>"``."""
        if self.is_mod:
            return f"Z/{self.modulus}"
        return self.kind

    def __str__(self) -> str:
        return self.tag


INT = RingSpec("Z")
RAT = RingSpec("Q")


def mod_ring(n: int) -> RingSpec:
    return RingSpec("Z/n", n)


def ring_from_tag(tag: str) -> RingSpec:
    """Parse ``"Z"``, ``"Q"`` or ``"Z/<n>"`` (errors on anything else)."""
    tag = tag.strip()
    if tag == "Z":
        return INT
    if tag == "Q":
        return RAT
    if tag.startswith("Z/"):
        body = tag[2:]
        if not body.isdigit():
            raise ValueError(f"bad ring tag: {tag!r}")
        return mod_ring(int(body))
    raise ValueError(f"bad ring tag: {tag!r}")


def canonical_lift(residue: int, n: int) -> int:
    """Unique integer in ``(-n/2, n/2]`` congruent to ``residue`` mod ``n``.

    The interval is half-open on the left: for even ``n`` the residue
    ``n/2`` lifts to ``+n/2``.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    r = residue % n
    return r if 2 * r <= n else r - n


def mod_inverse(k: int, n: int) -> Optional[int]:
    """Residue ``l`` with ``k*l = 1 mod n``, or None when gcd(k, n) != 1."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return pow(k, -1, n)
    except ValueError:
        return None


def canonicalize(ring: RingSpec, value: RingElem) -> RingElem:
    """Bring ``value`` into the ring's canonical form.

    Z: int.  Q: Fraction (ints accepted).  Z/n: residue in [0, n).
    """
    if ring.is_int:
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"{value} is not an integer")
            return value.numerator
        return int(value)
    if ring.is_rat:
        return Fraction(value)
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise ValueError(f"{value} is not a residue")
        value = value.numerator
    return int(value) % ring.modulus  # type: ignore[operator]


def norm(ring: RingSpec, e: RingElem) -> RingElem:
    """The ring norm: |e| for Z and Q, |canonical lift| for Z/nZ."""
    if ring.is_mod:
        return abs(canonical_lift(int(e), ring.modulus))  # type: ignore[arg-type]
    return abs(e)


def parse_rational(text: str) -> Fraction:
    """Parse a ``"p/q"`` (or plain ``"p"``) decimal string exactly."""
    m = _RAT_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad rational literal: {text!r}")
    p = int(m.group(1))
    q = int(m.group(2)) if m.group(2) else 1
    if q == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(p, q)


def format_rational(x: Union[int, Fraction]) -> str:
    """Canonical ``"p/q"`` form with q >= 1 and gcd(|p|, q) = 1."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_element(ring: RingSpec, text: str) -> RingElem:
    """Parse a serialized coefficient for ``ring`` (canonicalized)."""
    if ring.is_rat:
        return parse_rational(text)
    value = parse_rational(text)
    if value.denominator != 1:
        raise ValueError(f"{text!r} is not an integer coefficient")
    return canonicalize(ring, value.numerator)


def format_element(ring: RingSpec, e: RingElem) -> str:
    if ring.is_rat:
        return format_rational(e)
    return str(int(e))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of ``n >= 1`` as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: list[tuple[int, int]] = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return out
