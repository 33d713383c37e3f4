"""Command-line entry point: ingestion, dispatch, deterministic reports.

Exit codes: 0 success, 1 computation error (bad document, non-cycle chain,
infeasible class) with a one-line diagnostic, 2 usage error.  Identical
inputs always produce byte-identical output; nothing here consults clocks,
environment or randomness.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import (Chain, ComplexFormatError, NotACycleError,
                        WeightedComplex, load_complex)
from .hasse import (EnumerationInexactError, bijection_check, empirical_threshold,
                    federer_rows_to_csv, federer_sequence, gap_rows_to_csv,
                    gap_sweep, min_federer_ratio, scan_moduli, scan_rows_to_csv)
from .homology import (ClassCoords, HomologyDecomposition, InfeasibleClassError,
                       class_of_cycle, homology_decomposition)
from .optimize import (DEFAULT_MINIMIZER_CAP, lift_minimizer, min_real,
                       minimize, verify_certificate)
from .rings import (INT, RAT, RingSpec, format_rational, mod_ring,
                    parse_element, parse_rational, ring_from_tag)

_ERRORS = (ComplexFormatError, NotACycleError, InfeasibleClassError,
           EnumerationInexactError, ValueError)


def _read_complex(path: str) -> WeightedComplex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ComplexFormatError(f"cannot read {path}: {exc.strerror}")
    return load_complex(text)


def _parse_class(spec: str, dec: HomologyDecomposition,
                 ring: RingSpec) -> ClassCoords:
    """Payload ``f:a1,a2;t:b1;c:g1`` in the reported basis (missing
    segments default to zero coordinates of the right arity)."""
    parts: dict[str, list[str]] = {}
    for segment in spec.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        if ":" not in segment:
            raise ValueError(f"bad class payload segment: {segment!r}")
        tag, body = segment.split(":", 1)
        tag = tag.strip()
        if tag not in ("f", "t", "c"):
            raise ValueError(f"unknown class payload tag: {tag!r}")
        if tag in parts:
            raise ValueError(f"duplicate class payload tag: {tag!r}")
        parts[tag] = [v for v in body.split(",") if v.strip()]
    if ring.is_rat:
        free = [parse_rational(v) for v in parts.get("f", [])]
    else:
        free = [int(parse_rational(v)) for v in parts.get("f", [])]
    torsion = [int(v) for v in parts.get("t", [])]
    cotorsion = [int(v) for v in parts.get("c", [])]
    if not free:
        free = [Fraction(0) if ring.is_rat else 0] * dec.betti
    if not torsion:
        torsion = [0] * len(dec.torsion)
    if cotorsion and not ring.is_mod:
        raise InfeasibleClassError(
            "cotorsion coordinates exist only over Z/n")
    if not cotorsion and ring.is_mod:
        cotorsion = [0] * len(dec.mod(ring.modulus).cotorsion)
    if ring.is_rat:
        if any(torsion):
            raise InfeasibleClassError("rational classes have no torsion part")
        return dec.class_coords(ring, free)
    return dec.class_coords(ring, free, torsion, cotorsion)


def _parse_chain(spec: str, K: WeightedComplex, d: int,
                 ring: RingSpec) -> Chain:
    """Payload ``idx=coeff,idx=coeff`` with coefficients over the ring."""
    pairs = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad chain payload item: {item!r}")
        idx, coeff = item.split("=", 1)
        pairs.append((int(idx), parse_element(ring, coeff)))
    return Chain.make(K, d, ring, pairs)


def _parse_moduli(spec: str) -> list[int]:
    """``"3"``, ``"2..16"`` or ``"2,3,5"`` (ranges inclusive)."""
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            a, b = part.split("..", 1)
            lo, hi = int(a), int(b)
            if hi < lo:
                raise ValueError(f"empty modulus range: {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    if not out:
        raise ValueError("no moduli given")
    return out


def _class_for(args, K: WeightedComplex, dec: HomologyDecomposition,
               ring: RingSpec) -> ClassCoords:
    if args.class_spec is not None:
        return _parse_class(args.class_spec, dec, ring)
    chain = _parse_chain(args.chain, K, args.dim, ring)
    return class_of_cycle(K, args.dim, chain)


def _basis_json(dec: HomologyDecomposition, ring: RingSpec) -> dict:
    out = {
        "free": [ch.to_json() for ch in dec.free_basis],
        "torsion": [ch.to_json() for ch in dec.torsion_basis],
    }
    if ring.is_mod:
        md = dec.mod(ring.modulus)
        out["cotorsion"] = [{
            "order": order,
            "chain": Chain.from_vector(dec.complex, dec.degree,
                                       mod_ring(ring.modulus), wvec).to_json(),
        } for (order, _, wvec) in md.cotorsion]
    return out


def _report(args, K: WeightedComplex, body: dict) -> str:
    """The JSON report of a command: which command ran on which complex and
    degree, then ``body``."""
    return json.dumps({"command": args.command, "complex": K.name,
                       "degree": args.dim, **body}, indent=2) + "\n"


def _cmd_homology(args) -> str:
    K = _read_complex(args.input)
    dec = homology_decomposition(K, args.dim)
    return _report(args, K, {
        "betti": dec.betti,
        "torsion_factors": [list(t) for t in dec.torsion_factors],
        "torsion_number": dec.torsion_number,
        "basis": _basis_json(dec, INT),
    })


def _cmd_norm(args) -> str:
    K = _read_complex(args.input)
    ring = ring_from_tag(args.ring)
    dec = homology_decomposition(K, args.dim)
    c = _class_for(args, K, dec, ring)
    report = minimize(K, args.dim, c, args.cap)
    return _report(args, K, {
        "basis": _basis_json(dec, ring),
        "report": report.to_json(),
    })


def _cmd_certify(args) -> str:
    K = _read_complex(args.input)
    dec = homology_decomposition(K, args.dim)
    c = _class_for(args, K, dec, RAT)
    report = min_real(K, args.dim, c, args.cap)
    verified = verify_certificate(K, args.dim, c, report.certificate,
                                  report.value)
    return _report(args, K, {
        "basis": _basis_json(dec, RAT),
        "value": format_rational(report.value),
        "certificate": [format_rational(v) for v in report.certificate.values],
        "verified": verified,
    })


def _cmd_scan(args) -> str:
    K = _read_complex(args.input)
    dec = homology_decomposition(K, args.dim)
    c = _class_for(args, K, dec, INT)
    moduli = _parse_moduli(args.n)
    lo, hi = min(moduli), max(moduli)
    if moduli != list(range(lo, hi + 1)):
        raise ValueError("scan expects a contiguous modulus range a..b")
    rows = scan_moduli(K, args.dim, c, lo, hi, args.cap)
    if args.format == "csv":
        return scan_rows_to_csv(rows)
    threshold = empirical_threshold(rows, dec.torsion_number)
    return _report(args, K, {
        "class": c.to_json(),
        "basis": _basis_json(dec, INT),
        "rows": [r.to_json() for r in rows],
        "empirical_threshold": threshold,
    })


def _cmd_lift(args) -> str:
    K = _read_complex(args.input)
    ring = ring_from_tag(args.ring)
    if not ring.is_mod:
        raise ValueError("lift expects --ring Z/n")
    chain = _parse_chain(args.chain, K, args.dim, ring)
    report = lift_minimizer(chain)
    return _report(args, K, {"report": report.to_json()})


def _cmd_federer(args) -> str:
    K = _read_complex(args.input)
    dec = homology_decomposition(K, args.dim)
    c = _class_for(args, K, dec, INT)
    rows = federer_sequence(K, args.dim, c, args.k_max, args.cap)
    if args.format == "csv":
        return federer_rows_to_csv(rows)
    return _report(args, K, {
        "class": c.to_json(),
        "basis": _basis_json(dec, INT),
        "rows": [r.to_json() for r in rows],
        "min_ratio": format_rational(min_federer_ratio(rows)),
    })


def _cmd_sweep(args) -> str:
    K = _read_complex(args.input)
    dec = homology_decomposition(K, args.dim)
    c = _class_for(args, K, dec, INT)
    moduli = _parse_moduli(args.n)
    shrink = [int(v) for v in args.shrink.split(",") if v.strip()]
    factors = [parse_rational(v) for v in args.factors.split(",") if v.strip()]
    rows = gap_sweep(K, args.dim, c, shrink, factors, moduli, args.cap)
    if args.format == "csv":
        return gap_rows_to_csv(rows, moduli)
    return _report(args, K, {
        "class": c.to_json(),
        "basis": _basis_json(dec, INT),
        "rows": [r.to_json() for r in rows],
    })


def _cmd_bijection(args) -> str:
    K = _read_complex(args.input)
    dec = homology_decomposition(K, args.dim)
    c = _class_for(args, K, dec, INT)
    moduli = _parse_moduli(args.n)
    if len(moduli) != 1:
        raise ValueError("bijection expects a single modulus")
    report = bijection_check(K, args.dim, c, moduli[0], args.cap)
    return _report(args, K, {
        "class": c.to_json(),
        "basis": _basis_json(dec, INT),
        "report": report.to_json(),
    })


_COMMANDS = {
    "homology": _cmd_homology,
    "norm": _cmd_norm,
    "scan": _cmd_scan,
    "lift": _cmd_lift,
    "federer": _cmd_federer,
    "sweep": _cmd_sweep,
    "certify": _cmd_certify,
    "bijection": _cmd_bijection,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homnorm",
        description="Minimal-mass homology representatives over Z, Q and Z/nZ")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, klass=False, chain=False, ring=False, n=False,
               k_max=False, factors=False, shrink=False, fmt=None):
        p.add_argument("input", help="complex document (JSON)")
        p.add_argument("--dim", type=int, required=True, help="chain degree")
        if klass:
            p.add_argument("--class", dest="class_spec", default=None,
                           help="class payload f:a1,..;t:b1,..;c:g1,..")
        if chain:
            p.add_argument("--chain", default=None,
                           help="chain payload idx=coeff,idx=coeff")
        if ring:
            p.add_argument("--ring", default=None, help="Z | Q | Z/n")
        if n:
            p.add_argument("--n", required=True,
                           help="modulus, range a..b, or comma list")
        if k_max:
            p.add_argument("--k-max", dest="k_max", type=int, required=True)
        if factors:
            p.add_argument("--factors", required=True,
                           help="comma-separated p/q shrink factors")
        if shrink:
            p.add_argument("--shrink", required=True,
                           help="comma-separated d-simplex indices")
        p.add_argument("--cap", type=int, default=DEFAULT_MINIMIZER_CAP,
                       help="minimizer enumeration cap")
        p.add_argument("--out", default=None, help="write output to this file")
        if fmt:
            p.add_argument("--format", choices=["csv", "report"], default=fmt)

    common(sub.add_parser("homology", help="Betti number, torsion, basis"))
    common(sub.add_parser("norm", help="class norm and minimizers"),
           klass=True, chain=True, ring=True)
    common(sub.add_parser("scan", help="modulus scan against the integral norm"),
           klass=True, chain=True, n=True, fmt="csv")
    common(sub.add_parser("lift", help="canonical lift of a mod-n cycle"),
           chain=True, ring=True)
    common(sub.add_parser("federer", help="value(k*c)/k table"),
           klass=True, chain=True, k_max=True, fmt="csv")
    common(sub.add_parser("sweep", help="Lavrentiev weight sweep"),
           klass=True, chain=True, n=True, factors=True, shrink=True, fmt="csv")
    common(sub.add_parser("certify", help="real norm with verified calibration"),
           klass=True, chain=True)
    common(sub.add_parser("bijection", help="minimizer-set bijection check"),
           klass=True, chain=True, n=True)
    return parser


def _validate_args(parser: argparse.ArgumentParser, args) -> None:
    needs_class = args.command in ("norm", "scan", "federer", "sweep",
                                   "certify", "bijection")
    if needs_class:
        has_class = args.class_spec is not None
        has_chain = getattr(args, "chain", None) is not None
        if has_class and has_chain:
            parser.error(f"{args.command}: give --class or --chain, not both")
        if not has_class and not has_chain:
            parser.error(f"{args.command}: one of --class/--chain is required")
    if args.command == "lift" and args.chain is None:
        parser.error("lift: --chain is required")
    if args.command in ("norm", "lift") and args.ring is None:
        parser.error(f"{args.command}: --ring is required")
    if args.dim < 0:
        parser.error("--dim must be nonnegative")
    if args.cap < 1:
        parser.error("--cap must be positive")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser, args)
    try:
        text = _COMMANDS[args.command](args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
