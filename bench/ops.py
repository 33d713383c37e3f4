"""Benchmark operations: the library calls one CLI invocation makes, and the
checks run on each result outside the timed region.

An operation starts from document text and ends with the report text, in the
order the ``homnorm`` command functions use: ``load_complex``,
``homology_decomposition``, ``dec.mod(n)`` over Z/n, the class (coordinates
or ``class_of_cycle`` of a chain payload), the engine or harness call,
``verify_certificate`` for ``certify``, and the report (``to_json`` plus
``json.dumps``, or the CSV emitter).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from homnorm import hasse
from homnorm.complexes import Chain, WeightedComplex, load_complex, mass
from homnorm.hasse import (bijection_check, federer_rows_to_csv,
                           federer_sequence, gap_rows_to_csv, gap_sweep,
                           scan_moduli, scan_rows_to_csv)
from homnorm.homology import (HomologyDecomposition, class_of_cycle,
                              homology_decomposition)
from homnorm.optimize import (DEFAULT_MINIMIZER_CAP, min_int, min_mod,
                              min_real, verify_certificate)
from homnorm.rings import (INT, RAT, RingSpec, format_rational, parse_element,
                           ring_from_tag)

from spans import Tracer


@dataclass(frozen=True)
class Op:
    """One command invocation.

    ``case`` names the problem independently of the seed; it keys the
    reference table.  The class is either ``klass`` = (free, torsion)
    coordinates in the reported basis or a ``chain`` payload
    ``idx=coeff,...``.
    """

    case: str
    command: str
    doc: str
    dim: int
    ring: str = "Z"
    klass: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    chain: Optional[str] = None
    moduli: tuple[int, ...] = ()
    k_max: int = 0
    shrink: tuple[int, ...] = ()
    factors: tuple[Fraction, ...] = ()


@dataclass
class Result:
    K: WeightedComplex
    dec: HomologyDecomposition
    coords: Any
    out: Any
    text: str
    verified: Optional[bool] = None


def _engine_counts(report) -> dict[str, int]:
    return {"nodes": report.nodes_explored,
            "minimizers": len(report.minimizers),
            "cap_hits": 0 if report.minimizer_count_exact else 1}


def _real_counts(report) -> dict[str, int]:
    return {"pivots": report.nodes_explored}


def _rows_counts(rows) -> dict[str, int]:
    return {"rows": len(rows)}


ENGINES = {"Z": ("optimize.min_int", min_int, _engine_counts),
           "Z/n": ("optimize.min_mod", min_mod, _engine_counts),
           "Q": ("optimize.min_real", min_real, _real_counts)}

# Names the harness imported; wrapping them in the traced run attributes the
# engine and decomposition work inside each harness call.
HASSE_CALLS = {
    "min_int": ("optimize.min_int", _engine_counts),
    "min_mod": ("optimize.min_mod", _engine_counts),
    "min_real": ("optimize.min_real", _real_counts),
    "homology_decomposition": ("homology.decompose", None),
}


def _parse_chain(K: WeightedComplex, d: int, ring: RingSpec,
                 payload: str) -> Chain:
    pairs = []
    for item in payload.split(","):
        idx, coeff = item.split("=", 1)
        pairs.append((int(idx), parse_element(ring, coeff)))
    return Chain.make(K, d, ring, pairs)


def _coords(dec: HomologyDecomposition, ring: RingSpec, klass):
    free, torsion = klass
    if ring.is_rat:
        return dec.class_coords(ring, [Fraction(a) for a in free])
    cotorsion = [0] * len(dec.mod(ring.modulus).cotorsion) if ring.is_mod else []
    return dec.class_coords(ring, free, torsion, cotorsion)


def _basis_json(dec: HomologyDecomposition, ring: RingSpec) -> dict:
    out = {"free": [ch.to_json() for ch in dec.free_basis],
           "torsion": [ch.to_json() for ch in dec.torsion_basis]}
    if ring.is_mod:
        out["cotorsion"] = [{
            "order": order,
            "chain": Chain.from_vector(dec.complex, dec.degree, ring,
                                       wvec).to_json(),
        } for (order, _, wvec) in dec.mod(ring.modulus).cotorsion]
    return out


def _report_text(command: str, K: WeightedComplex, d: int, body: dict) -> str:
    return json.dumps({"command": command, "complex": K.name, "degree": d,
                       **body}, indent=2) + "\n"


def _norm_text(K, dec, ring, report) -> str:
    return _report_text("norm", K, dec.degree, {
        "basis": _basis_json(dec, ring), "report": report.to_json()})


def _certify_text(K, dec, report, verified) -> str:
    return _report_text("certify", K, dec.degree, {
        "basis": _basis_json(dec, RAT),
        "value": format_rational(report.value),
        "certificate": [format_rational(v) for v in report.certificate.values],
        "verified": verified})


def _bijection_text(K, dec, c, report) -> str:
    return _report_text("bijection", K, dec.degree, {
        "class": c.to_json(), "basis": _basis_json(dec, INT),
        "report": report.to_json()})


def run_op(op: Op, docs: dict[str, str], tr: Tracer) -> Result:
    """Execute one operation; every public library call is a span."""
    K = tr.call("complexes.load", load_complex, docs[op.doc])
    d = op.dim
    ring = RAT if op.command == "certify" else ring_from_tag(op.ring)
    dec = tr.call("homology.decompose", homology_decomposition, K, d)
    if ring.is_mod:
        tr.call("homology.mod", dec.mod, ring.modulus)
    if op.chain is not None:
        c = tr.call("homology.classify", class_of_cycle, K, d,
                    _parse_chain(K, d, ring, op.chain))
    else:
        c = tr.call("homology.classify", _coords, dec, ring, op.klass)
    cap = DEFAULT_MINIMIZER_CAP
    verified = None
    if op.command in ("norm", "certify"):
        name, engine, counts = ENGINES[ring.kind]
        out = tr.call(name, engine, K, d, c, cap, counts=counts)
        if op.command == "certify":
            verified = tr.call("optimize.verify", verify_certificate,
                               K, d, c, out.certificate, out.value)
            text = tr.call("optimize.report", _certify_text, K, dec, out,
                           verified)
        else:
            text = tr.call("optimize.report", _norm_text, K, dec, ring, out)
        return Result(K, dec, c, out, text, verified)
    with tr.patched(hasse, HASSE_CALLS):
        if op.command == "scan":
            out = tr.call("hasse.scan", scan_moduli, K, d, c, min(op.moduli),
                          max(op.moduli), cap, counts=_rows_counts)
            text = tr.call("hasse.emit", scan_rows_to_csv, out)
        elif op.command == "federer":
            out = tr.call("hasse.federer", federer_sequence, K, d, c,
                          op.k_max, cap, counts=_rows_counts)
            text = tr.call("hasse.emit", federer_rows_to_csv, out)
        elif op.command == "sweep":
            out = tr.call("hasse.sweep", gap_sweep, K, d, c, list(op.shrink),
                          list(op.factors), list(op.moduli), cap,
                          counts=_rows_counts)
            text = tr.call("hasse.emit", gap_rows_to_csv, out, list(op.moduli))
        elif op.command == "bijection":
            out = tr.call("hasse.bijection", bijection_check, K, d, c,
                          op.moduli[0], cap, counts=lambda r: {"rows": 1})
            text = tr.call("hasse.emit", _bijection_text, K, dec, c, out)
        else:
            raise ValueError(f"unknown command {op.command!r}")
    return Result(K, dec, c, out, text)


# -- checking ---------------------------------------------------------------

def answer(op: Op, res: Result) -> dict:
    """The relabelling-invariant part of a result, as stored in the
    reference table: values, minimizer counts and harness row values.
    LP vertices, node counts and report bytes are deliberately left out."""
    out, fmt = res.out, format_rational
    if op.command in ("norm", "certify"):
        ans = {"value": fmt(out.value)}
        if not res.coords.ring.is_rat:
            ans["minimizers"] = len(out.minimizers)
            ans["exact"] = out.minimizer_count_exact
        return ans
    if op.command == "scan":
        return {"rows": [[r.n, fmt(r.value_mod), fmt(r.value_int), r.equal,
                          r.tau_divides, r.bijection, r.lift_all_cycles]
                         for r in out]}
    if op.command == "federer":
        return {"rows": [[r.k, fmt(r.value_int), fmt(r.ratio),
                          fmt(r.value_real)] for r in out]}
    if op.command == "sweep":
        return {"rows": [[fmt(r.shrink_factor), fmt(r.value_int),
                          fmt(r.value_real),
                          {str(n): fmt(v) for n, v in sorted(r.value_mod.items())}]
                         for r in out]}
    return {"int_minimizers": out.int_minimizer_count,
            "mod_minimizers": out.mod_minimizer_count,
            "injective": out.injective, "surjective": out.surjective,
            "lifts_ok": out.lifts_are_cycles_in_class, "verdict": out.verdict}


def _check_minimizers(res: Result) -> list[str]:
    """Every reported minimizer is a cycle in the class, of mass = value
    (for Q, the one optimal vertex, plus a verifying certificate)."""
    report, K, c = res.out, res.K, res.coords
    d = res.dec.degree
    problems = []
    for T in report.minimizers:
        if not T.is_cycle():
            problems.append("minimizer is not a cycle")
        elif class_of_cycle(K, d, T) != c:
            problems.append("minimizer lies in another class")
        if mass(K, T) != report.value:
            problems.append("minimizer mass differs from the value")
    if c.ring.is_rat and not verify_certificate(K, d, c, report.certificate,
                                                report.value):
        problems.append("certificate does not verify")
    return problems


def _check_rows(op: Op, rows) -> list[str]:
    problems = []
    for r in rows:
        if op.command == "scan" and r.value_mod > r.value_int:
            problems.append(f"scan n={r.n}: value_mod > value_int")
        if op.command == "federer" and (r.ratio < r.value_real
                                        or r.ratio * r.k != r.value_int):
            problems.append(f"federer k={r.k}: ratio inconsistent")
        if op.command == "sweep" and (
                r.value_real > r.value_int
                or any(v > r.value_int for v in r.value_mod.values())):
            problems.append(f"sweep {r.shrink_factor}: value exceeds value_int")
    return problems


def check(op: Op, res: Result, expected: Optional[dict]) -> list[str]:
    """Problems with one result: mismatches against the reference answer
    and broken invariants.  Empty when the result is correct."""
    problems = []
    got = answer(op, res)
    if expected is None:
        problems.append(f"no reference answer for {op.case}")
    elif got != expected:
        problems.append(f"{op.case}: got {got}, expected {expected}")
    if op.command in ("norm", "certify"):
        problems += _check_minimizers(res)
        if op.command == "certify" and res.verified is not True:
            problems.append("certify reported an unverified certificate")
    elif op.command in ("scan", "federer", "sweep"):
        problems += _check_rows(op, res.out)
    if not res.text:
        problems.append("empty report text")
    return problems
