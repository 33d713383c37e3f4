"""Norm axioms and modular helpers."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from homnorm.rings import (INT, RAT, RingSpec, canonical_lift, canonicalize,
                           factorize, format_element, format_rational,
                           mod_ring, norm, parse_element, parse_integer,
                           parse_rational, ring_from_tag)


def test_norm_examples():
    assert norm(INT, -3) == 3
    assert norm(mod_ring(4), 2) == 2
    assert norm(mod_ring(5), 3) == 2


def test_canonical_lift_examples():
    assert canonical_lift(3, 5) == -2
    assert canonical_lift(2, 4) == 2
    assert canonical_lift(0, 7) == 0


def test_canonical_lift_exhaustive():
    for n in range(2, 65):
        for r in range(n):
            lift = canonical_lift(r, n)
            assert lift % n == r % n
            assert -n < 2 * lift <= n
            assert norm(mod_ring(n), r) == abs(lift)


def _sample(rng, ring):
    if ring.is_int:
        return rng.randint(-50, 50)
    if ring.is_rat:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 20))
    return rng.randrange(ring.modulus)


def _neg(ring, e):
    return canonicalize(ring, -e)


def _add(ring, e, f):
    return canonicalize(ring, e + f)


@pytest.mark.parametrize("ring", [INT, RAT] + [mod_ring(n) for n in range(2, 65)])
def test_norm_axioms_randomized(ring):
    rng = random.Random(f"axioms-{ring.tag}")
    samples = 10_000 if ring.kind in ("Z", "Q") else 200
    for _ in range(samples):
        e = _sample(rng, ring)
        f = _sample(rng, ring)
        assert norm(ring, _neg(ring, e)) == norm(ring, e)
        assert norm(ring, _add(ring, e, f)) <= norm(ring, e) + norm(ring, f)
        assert (norm(ring, e) == 0) == (canonicalize(ring, e) == canonicalize(ring, 0))


@pytest.mark.parametrize("n", range(2, 13))
def test_norm_axioms_exhaustive_small_moduli(n):
    ring = mod_ring(n)
    for e in range(n):
        assert norm(ring, _neg(ring, e)) == norm(ring, e)
        assert (norm(ring, e) == 0) == (e == 0)
        for f in range(n):
            assert norm(ring, _add(ring, e, f)) <= norm(ring, e) + norm(ring, f)


def test_rational_serialization_round_trip():
    assert parse_rational("3/6") == Fraction(1, 2)
    assert parse_rational("-4") == Fraction(-4)
    assert format_rational(Fraction(-4)) == "-4/1"
    assert format_rational(Fraction(2, 4)) == "1/2"
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("x")


def test_integers_take_ascii_decimal_digits_only():
    assert [parse_integer(t) for t in ("7", "-12", " 3 ", "007")] == [
        7, -12, 3, 7]
    for text in ("\u0663", "1_0", "+3", "", "-", "1.0", "0x1", "1 2"):
        with pytest.raises(ValueError, match="bad integer literal"):
            parse_integer(text)
    for text in ("\u0663", "1_0", "1/\u0662"):
        with pytest.raises(ValueError, match="bad rational literal"):
            parse_rational(text)


def test_format_rational_matches_the_fraction_form():
    """Ints and Fractions print from their own numerator and denominator,
    other numbers through ``Fraction``; every form is that of
    ``Fraction(x)``."""
    values = [0, 7, -12, True, Fraction(-4), Fraction(6, -4),
              Fraction(10**30 + 1, 3), 0.375, Decimal("-2.5")]
    for x in values:
        f = Fraction(x)
        assert format_rational(x) == f"{f.numerator}/{f.denominator}"
    assert format_rational(0.375) == "3/8"


def test_element_serialization():
    assert parse_element(mod_ring(5), "-2") == 3
    assert format_element(mod_ring(5), 3) == "3"
    assert parse_element(RAT, "5/10") == Fraction(1, 2)
    assert format_element(INT, -7) == "-7"
    with pytest.raises(ValueError):
        parse_element(INT, "1/2")


def test_ring_tags():
    assert ring_from_tag("Z") is INT
    assert ring_from_tag("Q") is RAT
    assert ring_from_tag("Z/6") == mod_ring(6)
    for tag in ("Z/x", "Z/\u0663", "Z/1_0", "Z/+3", "Z/-3", "Z/"):
        with pytest.raises(ValueError, match="bad ring tag"):
            ring_from_tag(tag)
    with pytest.raises(ValueError):
        RingSpec("Z/n", 1)
    with pytest.raises(ValueError):
        RingSpec("Z", 3)


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]


def test_ring_helpers_refuse_bad_arguments():
    with pytest.raises(ValueError, match=r"^unknown ring kind: 'R'$"):
        RingSpec("R")
    with pytest.raises(ValueError, match=r"^modulus must be >= 2$"):
        canonical_lift(0, 1)
    with pytest.raises(ValueError,
                       match=r"^factorize expects a positive integer$"):
        factorize(0)
