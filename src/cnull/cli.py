"""Command-line entry point.

JSON in, JSON out: every subcommand reads its inputs from JSON files,
runs one pipeline deterministically for given inputs and seed, and
writes a report to stdout or --out.  Reports embed the tool version and
seed; exact rationals are carried as strings next to float renderings.
Precision takes no option: numeric fiber samples and root solves start
at the library's default rung and climb its ladder by themselves.  Exit
codes: 0 success, 2 violated hypothesis, 3 precision, genericity or
search exhaustion, 4 parse/schema error.  An input file that cannot be
read or parsed, or whose document has the wrong shape, raises
SchemaError at the point where it is loaded; any other exception is a
bug and surfaces with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .charpoly import (
    bounds_table,
    build_charpoly,
    charpoly_resultant_oracle,
    charpoly_to_json,
    growth_inclusion_check,
    ploski_delta,
)
from .errors import CnullError, InvalidInput, SchemaError
from .gradexp import gradexp_report, validate_inequality
from .nullcert import (
    certificate_from_json,
    certificate_to_json,
    certify_general,
    certify_partial,
    certify_proper,
    certify_strictly_regular,
    cycle_degree,
    load_cycle_components,
    verify_certificate,
)
from .polycore import NEG_INF, poly_from_json, rat_to_str, total_degree
from .propermaps import geometric_degree
from .variety import degree_by_slicing, load_map, load_variety


def _load(path: str, parse):
    """parse() of the JSON document in the file at path.

    Raises SchemaError when the file cannot be read, is not JSON, or
    holds a document of a shape that parse() fails on.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    try:
        return parse(doc)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        # e.g. a list where a parser indexes an object, or a non-integer exponent N
        raise SchemaError(f"malformed document in {path}: {exc}") from exc


def _rational(text: str) -> Fraction:
    """argparse type of a rational option such as --q 1/2."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _rat_view(q) -> dict:
    q = Fraction(q)
    return {"rational": rat_to_str(q), "float": float(q)}


def _complex_view(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _deg_view(deg):
    return "-inf" if deg == NEG_INF else int(deg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnull",
        description="characteristic polynomials, Nullstellensatz certificates and growth exponents on parametrized algebraic sets",
    )
    parser.add_argument("--version", action="version", version=f"cnull {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_variety=True, need_f=False, need_g=False):
        if need_variety:
            p.add_argument("--variety", required=True, help="variety JSON file")
        if need_f:
            p.add_argument("--f", required=True, help="map JSON file for f")
        if need_g:
            p.add_argument("--g", required=True, help="map JSON file for g")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("charpoly", help="characteristic polynomial of g relative to f")
    common(p, need_f=True, need_g=True)
    p.add_argument("--oracle", action="store_true", help="also run the exact resultant oracle and compare")

    p = sub.add_parser("certify", help="extract a Nullstellensatz certificate")
    common(p, need_f=True, need_g=True)
    p.add_argument("--ell", type=int, default=None, help="use only the first ell components")
    p.add_argument("--L", action="append", default=None, help="affine form JSON file (repeatable)")
    p.add_argument("--cycle", default=None, help="cycle components JSON file")

    p = sub.add_parser("verify", help="re-verify a certificate exactly")
    common(p, need_f=True, need_g=True)
    p.add_argument("--cert", required=True, help="certificate JSON file")

    p = sub.add_parser("degree", help="degree of the variety by generic slicing")
    common(p)

    p = sub.add_parser("geomdeg", help="geometric degree of f")
    common(p, need_f=True)

    p = sub.add_parser("ploski", help="root-growth exponent of the characteristic polynomial")
    common(p, need_f=True, need_g=True)
    p.add_argument("--q", type=_rational, default=None, help="exponent to test (rational string); default is the computed delta")
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("gradexp", help="gradient growth exponent of a polynomial")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--theta", type=_rational, default=None, help="validate at this exponent instead of the computed one")
    common(p, need_variety=False)

    p = sub.add_parser("cycle", help="degree of the cycle of zeroes of f")
    common(p, need_f=True)
    p.add_argument("--components", required=True, help="cycle components JSON file")
    p.add_argument("--L", action="append", required=True, help="affine form JSON file (repeatable)")

    p = sub.add_parser("check-bounds", help="coefficient degree bounds of the characteristic polynomial")
    common(p, need_f=True, need_g=True)
    return parser


def _load_forms(paths, domain):
    forms = []
    for path in paths:
        poly, _ = _load(path, lambda doc: poly_from_json(doc, expected_vars=domain.ambient_vars))
        if total_degree(poly) > 1:
            raise SchemaError(f"form in {path} is not affine")
        forms.append(poly)
    return forms


def run(argv) -> dict:
    args = build_parser().parse_args(argv)
    result = _dispatch(args, args.seed)
    report = {
        "tool": "cnull",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "result": result,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return report


def _dispatch(args, seed: int) -> dict:
    cmd = args.command
    if cmd == "gradexp":
        return _run_gradexp(args, seed)
    variety = _load(args.variety, load_variety)
    if cmd == "degree":
        return {"degree": degree_by_slicing(variety)}
    f = _load(args.f, lambda doc: load_map(variety, doc))
    if cmd == "geomdeg":
        return {"geometric_degree": geometric_degree(f, seed)}
    if cmd == "cycle":
        forms = _load_forms(args.L, variety)
        comps = _load(args.components, load_cycle_components)
        data = cycle_degree(f, comps, forms, seed)
        return {
            "total_degree": data.total_degree,
            "components": [
                {"multiplicity": mult, "degree": deg} for _, mult, deg in data.components
            ],
        }
    g = _load(args.g, lambda doc: load_map(variety, doc))
    if cmd == "charpoly":
        P = build_charpoly(f, g, seed)
        out = {"charpoly": charpoly_to_json(P)}
        if args.oracle:
            oracle = charpoly_resultant_oracle(f, g)
            out["oracle"] = charpoly_to_json(oracle)
            out["oracle_match"] = oracle.d == P.d and oracle.coeffs == P.coeffs
        return out
    if cmd == "certify":
        cert = _run_certify(args, variety, f, g, seed)
        return {"certificate": certificate_to_json(cert, variety.ambient_vars)}
    if cmd == "verify":
        cert = _load(args.cert, lambda doc: certificate_from_json(doc, variety.ambient_vars))
        return {"verified": verify_certificate(f, g, cert)}
    if cmd == "ploski":
        return _run_ploski(args, f, g, seed)
    if cmd == "check-bounds":
        P = build_charpoly(f, g, seed)
        rows = bounds_table(P)
        return {
            "rows": [
                {"j": j, "deg": _deg_view(deg), "bound": bound, "ok": ok}
                for j, deg, bound, ok in rows
            ]
        }
    raise SchemaError(f"unknown command {cmd!r}")


def _run_certify(args, variety, f, g, seed: int):
    if (args.L or args.cycle) and (args.ell is not None or f.n >= variety.k):
        # the partial, proper and general routes take no forms and no cycle
        raise InvalidInput("--L and --cycle apply only to the strictly regular route")
    if args.ell is not None:
        return certify_partial(f, args.ell, g, seed)
    if f.n == variety.k:
        return certify_proper(f, g, seed)
    if f.n > variety.k:
        return certify_general(f, g, seed)
    forms = _load_forms(args.L, variety) if args.L else None
    cycle = _load(args.cycle, load_cycle_components) if args.cycle else None
    return certify_strictly_regular(f, g, forms=forms, cycle=cycle, seed=seed)


def _run_ploski(args, f, g, seed: int) -> dict:
    P = build_charpoly(f, g, seed)
    delta = ploski_delta(P)
    q = args.q if args.q is not None else delta
    out = {
        "charpoly": charpoly_to_json(P),
        "delta": _rat_view(delta),
    }
    if args.q is not None or q > 0:  # only a computed delta = 0 skips the check
        check = growth_inclusion_check(P, q, samples=args.samples, seed=seed)
        out["growth_check"] = {
            "q": _rat_view(q),
            "holds": check.holds,
            "witness_C": check.witness_C,
            "low_max": check.low_max,
            "high_max": check.high_max,
            "violation": None
            if check.violation is None
            else {
                "x": [_complex_view(c) for c in check.violation[0]],
                "t": _complex_view(check.violation[1]),
            },
        }
    else:
        out["growth_check"] = None
    return out


def _run_gradexp(args, seed: int) -> dict:
    poly, _ = _load(args.poly, poly_from_json)
    if args.theta is not None:
        report = validate_inequality(poly, args.theta, seed=seed)
    else:
        report = gradexp_report(poly, seed=seed)
    return {
        "d": report.d,
        "mu": report.mu,
        "D": report.D,
        "theta": _rat_view(report.theta),
        "validated": report.validated,
        "max_ratio_C": report.max_ratio_C,
        "shells": [{"scale": scale, "max_ratio": ratio} for scale, ratio in report.shells],
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        run(argv)
        return 0
    except CnullError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return exc.exit_code
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; report those as parse errors
        if exc.code in (0, None):
            return 0
        return 4


if __name__ == "__main__":
    sys.exit(main())
