"""Desk-scale experiment harness: modulus scans, thresholds, Federer ratios,
Lavrentiev weight sweeps and minimizer-set bijection checks.

Each operation re-solves the requested norms exactly and emits rows that
carry their own invariants (value_mod <= value_int, ratios >= 1).  A row's
dataclass fields, in declaration order, are its format: its JSON keys and
its CSV columns.  A ``dict[int, ...]`` field keyed by modulus becomes a JSON
object with keys in ascending n and one ``<field>_<n>`` CSV column per
modulus, ascending; rationals print as "p/q", booleans as "true"/"false",
absent optionals as empty CSV fields.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence, get_args, get_origin, get_type_hints

from .complexes import Chain, WeightedComplex, reduce_chain
from .homology import ClassCoords, homology_decomposition, reduce_class
from .optimize import (DEFAULT_MINIMIZER_CAP, OptReport, lift_minimizer,
                       min_int, min_mod, min_real)
from .rings import RAT, format_rational, mod_ring, parse_rational


class EnumerationInexactError(RuntimeError):
    """A check that needs complete minimizer sets saw a capped enumeration."""


# -- row format ------------------------------------------------------------

def _bool_str(v: Optional[bool]) -> str:
    if v is None:
        return ""
    return "true" if v else "false"


def _parse_bool(text: str) -> Optional[bool]:
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"bad boolean field: {text!r}")


def _parse_required_bool(text: str) -> bool:
    v = _parse_bool(text)
    if v is None:
        raise ValueError("missing required boolean field")
    return v


# declared field type -> (CSV text of a value, value of a CSV field)
_CODECS = {
    int: (str, int),
    Fraction: (format_rational, parse_rational),
    bool: (_bool_str, _parse_required_bool),
    Optional[bool]: (_bool_str, _parse_bool),
}


@cache
def _layout(cls: type) -> tuple[tuple[str, type, bool], ...]:
    """(name, value type, keyed by modulus) of each field, in order."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        kind = hints[f.name]
        keyed = get_origin(kind) is dict
        out.append((f.name, get_args(kind)[1] if keyed else kind, keyed))
    return tuple(out)


def _header(cls: type, moduli: Sequence[int]) -> list[str]:
    out: list[str] = []
    for name, _, keyed in _layout(cls):
        out += [f"{name}_{n}" for n in moduli] if keyed else [name]
    return out


def _json_value(kind: type, v):
    return format_rational(v) if kind is Fraction else v


class _Row:
    """A harness row: its dataclass fields, in order, are its JSON keys and
    its CSV columns.  Subclasses define ``_check``, which the CSV reader runs
    on every parsed row."""

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

    def _check(self) -> None:
        if self.value_mod > self.value_int:
            raise ValueError("scan row violates value_mod <= value_int")
        if self.equal != (self.value_mod == self.value_int):
            raise ValueError("scan row 'equal' flag is inconsistent")


@dataclass
class FedererRow(_Row):
    k: int
    value_int: Fraction
    ratio: Fraction
    value_real: Fraction

    def _check(self) -> None:
        if self.ratio * self.k != self.value_int:
            raise ValueError("federer row ratio is inconsistent")


@dataclass
class GapRow(_Row):
    shrink_factor: Fraction
    value_int: Fraction
    value_real: Fraction
    value_mod: dict[int, Fraction]
    gap_ratio_real: Fraction
    gap_ratio_mod: dict[int, Fraction]
    in_lavrentiev_real: bool
    in_lavrentiev_mod: dict[int, bool]

    def _check(self) -> None:
        if self.gap_ratio_real < 1 or any(v < 1 for v in self.gap_ratio_mod.values()):
            raise ValueError("gap row violates ratio >= 1")


@dataclass
class MinimizerLift:
    minimizer: Chain
    lift_is_cycle: bool
    lift_in_class: bool


@dataclass
class BijectionReport:
    n: int
    tau_divides: bool
    int_minimizer_count: int
    mod_minimizer_count: int
    injective: bool
    surjective: bool
    lifts_are_cycles_in_class: bool
    lifts: tuple[MinimizerLift, ...]

    @property
    def verdict(self) -> bool:
        return (self.injective and self.surjective
                and self.lifts_are_cycles_in_class)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "tau_divides": self.tau_divides,
            "int_minimizer_count": self.int_minimizer_count,
            "mod_minimizer_count": self.mod_minimizer_count,
            "injective": self.injective,
            "surjective": self.surjective,
            "lifts_are_cycles_in_class": self.lifts_are_cycles_in_class,
            "verdict": self.verdict,
            "lifts": [{
                "minimizer": item.minimizer.to_json(),
                "lift_is_cycle": item.lift_is_cycle,
                "lift_in_class": item.lift_in_class,
            } for item in self.lifts],
        }


def _reduction_bijection(int_report: OptReport, mod_report: OptReport,
                         n: int) -> tuple[bool, bool]:
    """(injective, surjective) of coefficient reduction between minimizer sets."""
    reduced = [reduce_chain(T, mod_ring(n)) for T in int_report.minimizers]
    injective = len(set(reduced)) == len(reduced)
    surjective = set(reduced) == set(mod_report.minimizers)
    return injective, surjective


def scan_moduli(K: WeightedComplex, d: int, c: ClassCoords,
                n_min: int, n_max: int,
                cap: int = DEFAULT_MINIMIZER_CAP) -> list[ScanRow]:
    """One row per modulus: mod-n value vs integral value, plus the
    minimizer-set bijection verdict where the torsion number divides n and
    both enumerations are complete."""
    if n_min < 2:
        raise ValueError("modulus scan starts at n >= 2")
    dec = homology_decomposition(K, d)
    tau = dec.torsion_number
    int_report = min_int(K, d, c, cap)
    rows: list[ScanRow] = []
    for n in range(n_min, n_max + 1):
        mod_report = min_mod(K, d, reduce_class(c, mod_ring(n)), cap)
        if mod_report.value > int_report.value:
            raise AssertionError(
                "mod-n value exceeded the integral value; this is a bug")
        tau_divides = n % tau == 0
        bijection = None
        lift_all = None
        if tau_divides and int_report.minimizer_count_exact \
                and mod_report.minimizer_count_exact:
            injective, surjective = _reduction_bijection(int_report, mod_report, n)
            bijection = injective and surjective
            lift_all = all(lift_minimizer(T).is_cycle
                           for T in mod_report.minimizers)
        rows.append(ScanRow(
            n=n, value_mod=mod_report.value, value_int=int_report.value,
            equal=mod_report.value == int_report.value,
            tau_divides=tau_divides, bijection=bijection,
            lift_all_cycles=lift_all))
    return rows


def empirical_threshold(rows: Sequence[ScanRow], tau: int) -> Optional[int]:
    """Smallest scanned N with equal and bijection true for every scanned
    n >= N with tau | n; None when even the tail fails."""
    candidates = sorted(row.n for row in rows)
    for start in candidates:
        ok = True
        for row in rows:
            if row.n >= start and row.n % tau == 0:
                if not (row.equal and row.bijection is True):
                    ok = False
                    break
        if ok:
            return start
    return None


def federer_sequence(K: WeightedComplex, d: int, c: ClassCoords, k_max: int,
                     cap: int = DEFAULT_MINIMIZER_CAP) -> list[FedererRow]:
    """Exact values of |k*c| over Z for k = 1..k_max against the real norm.

    The ratio column value_int/k is subadditive, so its minimum over the
    scanned k already upper-bounds the asymptotic limit.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    value_real = min_real(K, d, reduce_class(c, RAT), cap).value
    rows = []
    for k in range(1, k_max + 1):
        vk = min_int(K, d, c.scale(k), cap).value
        ratio = vk / k if k else Fraction(0)
        rows.append(FedererRow(k=k, value_int=vk, ratio=ratio,
                               value_real=value_real))
    return rows


def min_federer_ratio(rows: Sequence[FedererRow]) -> Fraction:
    return min(row.ratio for row in rows)


def gap_sweep(K: WeightedComplex, d: int, c: ClassCoords,
              shrink_simplices: Sequence[int], factors: Sequence[Fraction],
              moduli: Sequence[int],
              cap: int = DEFAULT_MINIMIZER_CAP) -> list[GapRow]:
    """Shrink the chosen d-simplex weights by each factor and re-solve.

    Gap ratios compare the integral value against the real and mod-n
    values on the reweighted complex; the 0/0 case of the zero class is 1
    by convention so the row invariants stay total.
    """
    if not shrink_simplices:
        raise ValueError("shrink set must be nonempty")
    if any(f <= 0 for f in factors):
        raise ValueError("shrink factors must be positive")
    moduli = sorted(set(moduli))
    rows: list[GapRow] = []
    for factor in factors:
        K2 = K.with_scaled_weights(d, shrink_simplices, Fraction(factor))
        dec2 = homology_decomposition(K2, d)
        c2 = dec2.class_coords(c.ring, c.free_part, c.torsion_part)
        vi = min_int(K2, d, c2, cap).value
        vr = min_real(K2, d, reduce_class(c2, RAT), cap).value
        vm = {n: min_mod(K2, d, reduce_class(c2, mod_ring(n)), cap).value
              for n in moduli}
        ratio_real = vi / vr if vr else Fraction(1)
        ratio_mod = {n: (vi / v if v else Fraction(1)) for n, v in vm.items()}
        rows.append(GapRow(
            shrink_factor=Fraction(factor), value_int=vi, value_real=vr,
            value_mod=vm, gap_ratio_real=ratio_real, gap_ratio_mod=ratio_mod,
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
        rep = lift_minimizer(T)
        in_class = bool(rep.is_cycle and rep.lifted_class == c)
        lifts.append(MinimizerLift(T, rep.is_cycle, in_class))
    lifts_ok = all(item.lift_is_cycle and item.lift_in_class for item in lifts)
    return BijectionReport(
        n=n, tau_divides=n % tau == 0,
        int_minimizer_count=len(int_report.minimizers),
        mod_minimizer_count=len(mod_report.minimizers),
        injective=injective, surjective=surjective,
        lifts_are_cycles_in_class=lifts_ok, lifts=tuple(lifts))


# -- CSV emission / parsing -------------------------------------------------

def _rows_to_csv(cls: type, rows: Sequence, moduli: Sequence[int] = ()) -> str:
    moduli = sorted(set(moduli))
    plan = [(name, _CODECS[kind][0], keyed) for name, kind, keyed in _layout(cls)]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_header(cls, moduli))
    for r in rows:
        cells = []
        for name, fmt, keyed in plan:
            v = getattr(r, name)
            cells += [fmt(v[n]) for n in moduli] if keyed else [fmt(v)]
        w.writerow(cells)
    return buf.getvalue()


def _rows_from_csv(cls: type, text: str, moduli: Sequence[int] = ()) -> list:
    """Parse rows written by ``_rows_to_csv``, checking each with ``_check``."""
    moduli = sorted(set(moduli))
    header = _header(cls, moduli)
    plan = [(name, _CODECS[kind][1], keyed) for name, kind, keyed in _layout(cls)]
    reader = csv.reader(io.StringIO(text))
    got = next(reader, None)
    if got != header:
        raise ValueError(f"unexpected {cls.__name__} header: {got}")
    out = []
    for rec in reader:
        if not rec:
            continue
        if len(rec) != len(header):
            raise ValueError(f"{cls.__name__} record has {len(rec)} fields, "
                             f"the header {len(header)}")
        cells = iter(rec)
        row = cls(**{name: ({n: parse(next(cells)) for n in moduli} if keyed
                            else parse(next(cells)))
                     for name, parse, keyed in plan})
        row._check()
        out.append(row)
    return out


def scan_rows_to_csv(rows: Sequence[ScanRow]) -> str:
    return _rows_to_csv(ScanRow, rows)


def scan_rows_from_csv(text: str) -> list[ScanRow]:
    return _rows_from_csv(ScanRow, text)


def federer_rows_to_csv(rows: Sequence[FedererRow]) -> str:
    return _rows_to_csv(FedererRow, rows)


def federer_rows_from_csv(text: str) -> list[FedererRow]:
    return _rows_from_csv(FedererRow, text)


def gap_rows_to_csv(rows: Sequence[GapRow], moduli: Sequence[int]) -> str:
    return _rows_to_csv(GapRow, rows, moduli)


def gap_rows_from_csv(text: str, moduli: Sequence[int]) -> list[GapRow]:
    return _rows_from_csv(GapRow, text, moduli)
