"""Desk-scale experiment harness: modulus scans, thresholds, Federer ratios,
Lavrentiev weight sweeps, minimizer-set bijection checks and canonical
mod-n lifts.

Each operation re-solves the requested norms exactly and emits rows that
carry their own invariants (value_mod <= value_int, ratios >= 1).  Where a
row reads only values, the engines run value-only and do not enumerate
ties; the flag is passed positionally, so a wrapper that forwards only
positional arguments sees every engine call.  Minimizer sets are compared
as canonical (index, coefficient) tuples, with no chain built per
minimizer.  One lift serves ``lift_minimizer`` and ``bijection_check``:
the canonical lift of the (index, residue) pairs into (-n/2, n/2], as an
integral chain, and its class, read by ``coords_of_cycle`` in the one walk
over the lift's boundary that also tells a non-cycle.  ``scan_moduli``
reads no class, so it only tests its lifts' boundaries.  A sweep solves
one real LP per factor, on a sibling complex that shares the simplices,
face tables and decompositions of the swept one.

A row's dataclass fields, in declaration order, are its format: its JSON
keys and its CSV columns, and ``_Row.to_json`` writes every report here.
A ``dict[int, ...]`` field keyed by modulus becomes a JSON object with keys
in ascending n and one ``<field>_<n>`` CSV column per modulus, ascending.
An ``Optional[X]`` field is written as an X, and an absent value as null;
rationals print as "p/q", tuples as JSON lists, and a value with its own
``to_json`` (a chain, class coordinates or a nested row) through it.  A CSV
cell is the JSON value of its field, with null empty and booleans spelled
"true"/"false".
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from typing import (Optional, Sequence, Union, get_args, get_origin,
                    get_type_hints)

from .complexes import (Chain, NotACycleError, WeightedComplex, _is_cycle,
                        mass)
from .homology import (ClassCoords, HomologyDecomposition,
                       homology_decomposition, reduce_class)
from .optimize import (DEFAULT_MINIMIZER_CAP, OptReport, min_int, min_mod,
                       min_real)
from .rings import INT, RAT, canonical_lift, format_rational, mod_ring


class EnumerationInexactError(RuntimeError):
    """A check that needs complete minimizer sets saw a capped enumeration."""


# -- row format ------------------------------------------------------------

@cache
def _layout(cls: type) -> tuple[tuple[str, type, bool], ...]:
    """(name, value type, keyed by modulus) of each field, in order; the
    value type of an ``Optional[X]`` is X."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        kind = hints[f.name]
        keyed = get_origin(kind) is dict
        if keyed:
            kind = get_args(kind)[1]
        if get_origin(kind) is Union:  # Optional[X] is Union[X, None]
            kind = get_args(kind)[0]
        out.append((f.name, kind, keyed))
    return tuple(out)


def _header(cls: type, moduli: Sequence[int]) -> list[str]:
    out: list[str] = []
    for name, _, keyed in _layout(cls):
        out += [f"{name}_{n}" for n in moduli] if keyed else [name]
    return out


def _json_value(kind: type, v):
    if kind is Fraction and v is not None:
        return format_rational(v)
    if isinstance(v, tuple):
        return [_json_value(None, x) for x in v]
    return v.to_json() if hasattr(v, "to_json") else v


class _Row:
    """A harness row or report: its dataclass fields, in order, are its JSON
    keys and its CSV columns."""

    def to_json(self) -> dict:
        out = {}
        for name, kind, keyed in _layout(type(self)):
            v = getattr(self, name)
            out[name] = ({str(n): _json_value(kind, x)
                          for n, x in sorted(v.items())}
                         if keyed else _json_value(kind, v))
        return out


@dataclass
class ScanRow(_Row):
    n: int
    value_mod: Fraction
    value_int: Fraction
    equal: bool
    tau_divides: bool
    bijection: Optional[bool]
    lift_all_cycles: Optional[bool]


@dataclass
class FedererRow(_Row):
    k: int
    value_int: Fraction
    ratio: Fraction
    value_real: Fraction


@dataclass
class GapRow(_Row):
    shrink_factor: Fraction
    value_int: Fraction
    value_real: Fraction
    value_mod: dict[int, Fraction]
    gap_ratio_real: Optional[Fraction]
    gap_ratio_mod: dict[int, Optional[Fraction]]
    in_lavrentiev_real: bool
    in_lavrentiev_mod: dict[int, bool]


@dataclass
class MinimizerLift(_Row):
    minimizer: Chain
    lift_is_cycle: bool
    lift_in_class: bool


@dataclass
class BijectionReport(_Row):
    n: int
    tau_divides: bool
    int_minimizer_count: int
    mod_minimizer_count: int
    injective: bool
    surjective: bool
    lifts_are_cycles_in_class: bool
    verdict: bool
    lifts: tuple[MinimizerLift, ...]


@dataclass
class LiftReport(_Row):
    """Canonical integer lift of a mod-n chain and what it turned out to be."""

    input: Chain
    lifted: Chain
    is_cycle: bool
    lifted_class: Optional[ClassCoords]
    mass_preserved: bool


def _lift(coeffs: tuple[tuple[int, int], ...], n: int
          ) -> list[tuple[int, int]]:
    """The canonical lift into (-n/2, n/2] of mod-n coefficients."""
    return [(i, canonical_lift(v, n)) for i, v in coeffs]


def _lift_class(dec: HomologyDecomposition,
                coeffs: tuple[tuple[int, int], ...], n: int
                ) -> tuple[Chain, Optional[ClassCoords]]:
    """The canonical lift of mod-n (index, residue) pairs, as an integral
    chain of ``dec``, and its class; the class is None when the lift is
    not a cycle.  Its boundary is walked once, by ``coords_of_cycle``."""
    # The residues are nonzero and sorted by index, and so are their lifts.
    lifted = Chain(dec.complex, dec.degree, INT, tuple(_lift(coeffs, n)))
    try:
        return lifted, dec.coords_of_cycle(lifted)
    except NotACycleError:
        return lifted, None


def _reduction_bijection(int_report: OptReport, mod_report: OptReport,
                         n: int) -> tuple[bool, bool]:
    """(injective, surjective) of coefficient reduction between minimizer
    sets, compared as canonical (index, residue) tuples."""
    reduced = [tuple([(i, r) for i, v in T.coeffs if (r := v % n)])
               for T in int_report.minimizers]
    injective = len(set(reduced)) == len(reduced)
    surjective = set(reduced) == {T.coeffs for T in mod_report.minimizers}
    return injective, surjective


def scan_moduli(K: WeightedComplex, d: int, c: ClassCoords,
                n_min: int, n_max: int,
                cap: int = DEFAULT_MINIMIZER_CAP) -> list[ScanRow]:
    """One row per modulus: mod-n value vs integral value, plus the
    minimizer-set bijection verdict where the torsion number divides n and
    both enumerations are complete.  Only those rows read minimizer sets,
    so the other engine calls are value-only."""
    if n_min < 2:
        raise ValueError("modulus scan starts at n >= 2")
    dec = homology_decomposition(K, d)
    tau = dec.torsion_number
    some_tau_divides = n_max // tau > (n_min - 1) // tau
    int_report = min_int(K, d, c, cap, not some_tau_divides)
    rows: list[ScanRow] = []
    for n in range(n_min, n_max + 1):
        tau_divides = n % tau == 0
        mod_report = min_mod(K, d, reduce_class(c, mod_ring(n)), cap,
                             not tau_divides)
        if mod_report.value > int_report.value:
            raise AssertionError(
                "mod-n value exceeded the integral value; this is a bug")
        bijection = None
        lift_all = None
        if tau_divides and int_report.minimizer_count_exact \
                and mod_report.minimizer_count_exact:
            injective, surjective = _reduction_bijection(int_report, mod_report, n)
            bijection = injective and surjective
            lift_all = all(_is_cycle(K, d, _lift(T.coeffs, n))
                           for T in mod_report.minimizers)
        rows.append(ScanRow(
            n=n, value_mod=mod_report.value, value_int=int_report.value,
            equal=mod_report.value == int_report.value,
            tau_divides=tau_divides, bijection=bijection,
            lift_all_cycles=lift_all))
    return rows


def empirical_threshold(rows: Sequence[ScanRow], tau: int) -> Optional[int]:
    """Smallest scanned N with equal and bijection true for every scanned
    n >= N with tau | n; None when even the tail fails.

    One pass down the rows by decreasing n, the failing rows of each n
    first: N is the last n reached before the first failing row."""
    def holds(row: ScanRow) -> bool:
        return row.n % tau != 0 or (row.equal and row.bijection is True)

    threshold = None
    for row in sorted(rows, key=lambda row: (-row.n, holds(row))):
        if not holds(row):
            break
        threshold = row.n
    return threshold


def federer_sequence(K: WeightedComplex, d: int, c: ClassCoords, k_max: int,
                     cap: int = DEFAULT_MINIMIZER_CAP) -> list[FedererRow]:
    """Exact values of |k*c| over Z for k = 1..k_max against the real norm.

    The ratio column value_int/k is subadditive, so its minimum over the
    scanned k already upper-bounds the asymptotic limit.  The real LP is
    solved once: k times its report is the report of k*c, which each
    ``min_int`` call takes instead of solving it again.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    real = min_real(K, d, reduce_class(c, RAT))
    rows = []
    for k in range(1, k_max + 1):
        vk = min_int(K, d, c.scale(k), cap, True, real.scale(k)).value
        rows.append(FedererRow(k=k, value_int=vk, ratio=vk / k,
                               value_real=real.value))
    return rows


def min_federer_ratio(rows: Sequence[FedererRow]) -> Fraction:
    return min(row.ratio for row in rows)


def _gap_ratio(vi: Fraction, v: Fraction) -> Optional[Fraction]:
    """vi / v, 1 for 0/0, and None where only the denominator is 0."""
    return vi / v if v else (None if vi else Fraction(1))


def gap_sweep(K: WeightedComplex, d: int, c: ClassCoords,
              shrink_simplices: Sequence[int], factors: Sequence[Fraction],
              moduli: Sequence[int],
              cap: int = DEFAULT_MINIMIZER_CAP) -> list[GapRow]:
    """Shrink the chosen d-simplex weights by each factor and re-solve.

    Gap ratios compare the integral value against the real and mod-n
    values on the reweighted complex; the 0/0 case of the zero class is 1
    by convention, and a positive integral value over a zero value has no
    ratio, written null.  The real LP of each factor is solved once and
    handed to ``min_int``.
    """
    if not shrink_simplices:
        raise ValueError("shrink set must be nonempty")
    if not factors:
        raise ValueError("shrink factors must be nonempty")
    if any(f <= 0 for f in factors):
        raise ValueError("shrink factors must be positive")
    moduli = sorted(set(moduli))
    rows: list[GapRow] = []
    for factor in factors:
        K2 = K.with_scaled_weights(d, shrink_simplices, Fraction(factor))
        dec2 = homology_decomposition(K2, d)
        c2 = dec2.class_coords(c.ring, c.free_part, c.torsion_part)
        real = min_real(K2, d, reduce_class(c2, RAT))
        vi = min_int(K2, d, c2, cap, True, real).value
        vr = real.value
        vm = {n: min_mod(K2, d, reduce_class(c2, mod_ring(n)), cap, True).value
              for n in moduli}
        rows.append(GapRow(
            shrink_factor=Fraction(factor), value_int=vi, value_real=vr,
            value_mod=vm, gap_ratio_real=_gap_ratio(vi, vr),
            gap_ratio_mod={n: _gap_ratio(vi, v) for n, v in vm.items()},
            in_lavrentiev_real=vi > vr,
            in_lavrentiev_mod={n: vi > v for n, v in vm.items()}))
    return rows


def bijection_check(K: WeightedComplex, d: int, c: ClassCoords, n: int,
                    cap: int = DEFAULT_MINIMIZER_CAP) -> BijectionReport:
    """Full bijection report between integral and mod-n minimizer sets.

    Refuses (EnumerationInexactError) when either enumeration hit the cap:
    a verdict from truncated sets would be a guess.
    """
    dec = homology_decomposition(K, d)
    tau = dec.torsion_number
    int_report = min_int(K, d, c, cap)
    mod_report = min_mod(K, d, reduce_class(c, mod_ring(n)), cap)
    if not int_report.minimizer_count_exact:
        raise EnumerationInexactError(
            "integral minimizer enumeration hit the cap; raise it to decide")
    if not mod_report.minimizer_count_exact:
        raise EnumerationInexactError(
            "mod-n minimizer enumeration hit the cap; raise it to decide")
    injective, surjective = _reduction_bijection(int_report, mod_report, n)
    lifts = []
    for T in mod_report.minimizers:
        _, lifted_class = _lift_class(dec, T.coeffs, n)
        lifts.append(MinimizerLift(T, lifted_class is not None,
                                   lifted_class == c))
    lifts_ok = all(item.lift_in_class for item in lifts)
    return BijectionReport(
        n=n, tau_divides=n % tau == 0,
        int_minimizer_count=len(int_report.minimizers),
        mod_minimizer_count=len(mod_report.minimizers),
        injective=injective, surjective=surjective,
        lifts_are_cycles_in_class=lifts_ok,
        verdict=injective and surjective and lifts_ok, lifts=tuple(lifts))


def lift_minimizer(T: Chain) -> LiftReport:
    """Canonical coefficientwise lift of a mod-n cycle into (-n/2, n/2].

    The lift always preserves mass; it may fail to be an integral cycle,
    and that outcome is reported rather than raised.
    """
    if not T.ring.is_mod:
        raise ValueError("lift_minimizer expects a mod-n chain")
    if not T.is_cycle():
        raise ValueError("lift_minimizer expects a mod-n cycle")
    K = T.complex
    lifted, lifted_class = _lift_class(homology_decomposition(K, T.degree),
                                       T.coeffs, T.ring.modulus)
    return LiftReport(T, lifted, lifted_class is not None, lifted_class,
                      mass(K, lifted) == mass(K, T))


# -- CSV emission ----------------------------------------------------------

def _cell(v):
    """The CSV cell of a JSON value: null is empty, booleans are spelled out."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return "" if v is None else v


def _rows_to_csv(cls: type, rows: Sequence, moduli: Sequence[int] = ()) -> str:
    moduli = sorted(set(moduli))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_header(cls, moduli))
    for r in rows:
        values = r.to_json()
        cells = []
        for name, _, keyed in _layout(cls):
            v = values[name]
            cells += [v[str(n)] for n in moduli] if keyed else [v]
        w.writerow(map(_cell, cells))
    return buf.getvalue()


def scan_rows_to_csv(rows: Sequence[ScanRow]) -> str:
    return _rows_to_csv(ScanRow, rows)


def federer_rows_to_csv(rows: Sequence[FedererRow]) -> str:
    return _rows_to_csv(FedererRow, rows)


def gap_rows_to_csv(rows: Sequence[GapRow], moduli: Sequence[int]) -> str:
    return _rows_to_csv(GapRow, rows, moduli)

