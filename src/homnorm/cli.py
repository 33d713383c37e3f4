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
from typing import Callable, NamedTuple, Optional, Sequence

from .complexes import (Chain, ComplexFormatError, NotACycleError,
                        WeightedComplex, load_complex)
from .hasse import (EnumerationInexactError, bijection_check, empirical_threshold,
                    federer_rows_to_csv, federer_sequence, gap_rows_to_csv,
                    gap_sweep, lift_minimizer, min_federer_ratio, scan_moduli,
                    scan_rows_to_csv)
from .homology import (ClassCoords, HomologyDecomposition, InfeasibleClassError,
                       homology_decomposition)
from .optimize import (DEFAULT_MINIMIZER_CAP, min_real, minimize,
                       verify_certificate)
from .rings import (INT, RingSpec, format_rational, mod_ring, parse_element,
                    parse_integer, parse_rational, ring_from_tag)

_ERRORS = (ComplexFormatError, NotACycleError, InfeasibleClassError,
           EnumerationInexactError, ValueError)


def _integer_option(text: str) -> int:
    """An integer option's value, its error worded for argparse."""
    try:
        return parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _read_complex(path: str) -> WeightedComplex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ComplexFormatError(f"cannot read {path}: {exc.strerror}")
    return load_complex(text)


def _parse_class(spec: str, dec: HomologyDecomposition,
                 ring: RingSpec) -> ClassCoords:
    """Payload ``f:a1,a2;t:b1;c:g1`` in the reported basis.  A missing
    segment, or a tag with no coordinates such as ``f:``, defaults to zero
    coordinates of the right arity; an empty item inside a list is an
    error."""
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
        items = body.split(",") if body.strip() else []
        if not all(v.strip() for v in items):
            raise ValueError(f"empty coordinate in class payload: {segment!r}")
        parts[tag] = items
    free = [parse_element(ring, v) for v in parts.get("f", [])]
    torsion = [parse_integer(v) for v in parts.get("t", [])]
    cotorsion = [parse_integer(v) for v in parts.get("c", [])]
    if not free:
        free = [Fraction(0) if ring.is_rat else 0] * dec.betti
    if not torsion:
        torsion = [0] * len(dec.torsion)
    if cotorsion and not ring.is_mod:
        raise InfeasibleClassError(
            "cotorsion coordinates exist only over Z/n")
    if not cotorsion and ring.is_mod:
        cotorsion = [0] * len(dec.mod(ring.modulus).cotorsion_orders)
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
        pairs.append((parse_integer(idx), parse_element(ring, coeff)))
    return Chain.make(K, d, ring, pairs)


def _parse_moduli(spec: str) -> list[range]:
    """``"3"``, ``"2..16"`` or ``"2,3,5"`` (ranges inclusive), one lazy
    range per part, so a count never lists the moduli."""
    out: list[range] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            a, b = part.split("..", 1)
            lo, hi = parse_integer(a), parse_integer(b)
            if hi < lo:
                raise ValueError(f"empty modulus range: {part!r}")
            out.append(range(lo, hi + 1))
        else:
            n = parse_integer(part)
            out.append(range(n, n + 1))
    if not out:
        raise ValueError("no moduli given")
    return out


def _all_moduli(spec: str) -> list[int]:
    """Every modulus of ``spec``, in order."""
    parts = _parse_moduli(spec)
    # Counted from the bounds: len() of a range past sys.maxsize overflows.
    if sum(r.stop - r.start for r in parts) > sys.maxsize:
        raise MemoryError("more moduli than a list can hold")
    out: list[int] = []
    for part in parts:
        out.extend(part)
    return out


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


def _homology(args, K: WeightedComplex, c: None) -> dict:
    dec = homology_decomposition(K, args.dim)
    return {"betti": dec.betti,
            "torsion_factors": [list(t) for t in dec.torsion_factors],
            "torsion_number": dec.torsion_number,
            "basis": _basis_json(dec, INT)}


def _norm(args, K: WeightedComplex, c: ClassCoords) -> dict:
    return {"report": minimize(K, args.dim, c, args.cap).to_json()}


def _certify(args, K: WeightedComplex, c: ClassCoords) -> dict:
    report = min_real(K, args.dim, c)
    cert = report.certificate
    return {"value": format_rational(report.value),
            "certificate": [format_rational(v) for v in cert.values],
            "verified": verify_certificate(K, args.dim, c, cert, report.value)}


def _scan(args, K: WeightedComplex, c: ClassCoords) -> dict | str:
    moduli = _all_moduli(args.n)
    if moduli != list(range(moduli[0], moduli[-1] + 1)):
        raise ValueError("scan expects a contiguous modulus range a..b")
    rows = scan_moduli(K, args.dim, c, moduli[0], moduli[-1], args.cap)
    if args.format == "csv":
        return scan_rows_to_csv(rows)
    return {"rows": [r.to_json() for r in rows],
            "empirical_threshold": empirical_threshold(
                rows, c.decomposition.torsion_number)}


def _lift(args, K: WeightedComplex, c: None) -> dict:
    ring = ring_from_tag(args.ring)
    if not ring.is_mod:
        raise ValueError("lift expects --ring Z/n")
    chain = _parse_chain(args.chain, K, args.dim, ring)
    return {"report": lift_minimizer(chain).to_json()}


def _federer(args, K: WeightedComplex, c: ClassCoords) -> dict | str:
    rows = federer_sequence(K, args.dim, c, args.k_max)
    if args.format == "csv":
        return federer_rows_to_csv(rows)
    return {"rows": [r.to_json() for r in rows],
            "min_ratio": format_rational(min_federer_ratio(rows))}


def _sweep(args, K: WeightedComplex, c: ClassCoords) -> dict | str:
    moduli = _all_moduli(args.n)
    shrink = [parse_integer(v) for v in args.shrink.split(",") if v.strip()]
    factors = [parse_rational(v) for v in args.factors.split(",") if v.strip()]
    rows = gap_sweep(K, args.dim, c, shrink, factors, moduli)
    if args.format == "csv":
        return gap_rows_to_csv(rows, moduli)
    return {"rows": [r.to_json() for r in rows]}


def _bijection(args, K: WeightedComplex, c: ClassCoords) -> dict:
    parts = _parse_moduli(args.n)
    if sum(r.stop - r.start for r in parts) != 1:
        raise ValueError("bijection expects a single modulus")
    return {"report": bijection_check(K, args.dim, c, parts[0][0],
                                      args.cap).to_json()}


_CHAIN_HELP = "chain payload idx=coeff,idx=coeff"
# The add_argument keywords of each option beside --class/--chain.
_OPTIONS = {
    "--chain": dict(required=True, help=_CHAIN_HELP),
    "--ring": dict(required=True, help="Z | Q | Z/n"),
    "--n": dict(required=True, help="modulus, range a..b, or comma list"),
    "--k-max": dict(type=_integer_option, required=True),
    "--factors": dict(required=True,
                      help="comma-separated p/q shrink factors"),
    "--shrink": dict(required=True, help="comma-separated d-simplex indices"),
    "--cap": dict(type=_integer_option, default=DEFAULT_MINIMIZER_CAP,
                  help="minimizer enumeration cap"),
}


class _Command(NamedTuple):
    """A subcommand.  ``ring`` tags the ring of the class it reads by
    ``--class`` or ``--chain`` (``"--ring"``: that option's value), None if
    it reads none.  ``body(args, K, c)`` returns report fields, which come
    after the ``header`` fields, or CSV text."""

    help: str
    body: Callable[..., "dict | str"]
    ring: Optional[str] = None
    options: tuple[str, ...] = ()
    format: Optional[str] = None
    header: tuple[str, ...] = ()


_HARNESS = ("class", "basis")
_COMMANDS = {
    "homology": _Command("Betti number, torsion, basis", _homology),
    "norm": _Command("class norm and minimizers", _norm, "--ring",
                     ("--ring", "--cap"), header=("basis",)),
    "scan": _Command("modulus scan against the integral norm", _scan, "Z",
                     ("--n", "--cap"), "csv", _HARNESS),
    "lift": _Command("canonical lift of a mod-n cycle", _lift,
                     options=("--chain", "--ring")),
    "federer": _Command("value(k*c)/k table", _federer, "Z", ("--k-max",),
                        "csv", _HARNESS),
    "sweep": _Command("Lavrentiev weight sweep", _sweep, "Z",
                      ("--n", "--factors", "--shrink"), "csv", _HARNESS),
    "certify": _Command("real norm with verified calibration", _certify, "Q",
                        header=("basis",)),
    "bijection": _Command("minimizer-set bijection check", _bijection, "Z",
                          ("--n", "--cap"), header=_HARNESS),
}


def _run(cmd: _Command, args) -> str:
    """Read the complex and the class, run the body, and return its CSV text
    or its JSON report headed by the command, complex and degree."""
    K = _read_complex(args.input)
    c = None
    if cmd.ring is not None:
        ring = ring_from_tag(args.ring if cmd.ring == "--ring" else cmd.ring)
        dec = homology_decomposition(K, args.dim)
        if args.class_spec is not None:
            c = _parse_class(args.class_spec, dec, ring)
        else:
            c = dec.coords_of_cycle(
                _parse_chain(args.chain, K, args.dim, ring))
    fields = cmd.body(args, K, c)
    if isinstance(fields, str):
        return fields
    header = {"class": lambda: c.to_json(),
              "basis": lambda: _basis_json(dec, ring)}
    return json.dumps({"command": args.command, "complex": K.name,
                       "degree": args.dim,
                       **{key: header[key]() for key in cmd.header},
                       **fields}, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homnorm",
        description="Minimal-mass homology representatives over Z, Q and Z/nZ")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("input", help="complex document (JSON)")
        p.add_argument("--dim", type=_integer_option, required=True,
                       help="chain degree")
        if cmd.ring is not None:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--class", dest="class_spec",
                               help="class payload f:a1,..;t:b1,..;c:g1,..")
            group.add_argument("--chain", help=_CHAIN_HELP)
        for option in cmd.options:
            p.add_argument(option, **_OPTIONS[option])
        p.add_argument("--out", default=None, help="write output to this file")
        if cmd.format:
            p.add_argument("--format", choices=["csv", "report"],
                           default=cmd.format)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dim < 0:
        parser.error("--dim must be nonnegative")
    if getattr(args, "cap", 1) < 1:
        parser.error("--cap must be positive")
    try:
        text = _run(_COMMANDS[args.command], args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
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
