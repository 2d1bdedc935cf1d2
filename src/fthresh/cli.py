"""Command-line interface.

Verbs: nu, nu-seq, fthreshold, symbolic, rees, newton, waldschmidt,
hypergraph, laws, verify-examples.  Inputs are inline text, `@file`, or
`-`/omitted for stdin.  Output is deterministic; all rationals are exact
"num/den" strings (``--decimal k`` adds a display-only rendering).  Exit
codes: 0 success, 1 any failure, reported as a machine-readable error
object, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .errors import UnsupportedInputError
from .filtration import Filtration, OrdinaryPowers, filtration_from_json
from .gallery import verify_examples
from .hypergraph import Hypergraph, threshold_bounds_report
from .monomial import MonomialIdeal
from .newton import newton_polyhedron, rees_valuations
from .nu import (
    check_min_law,
    check_sum_product_laws,
    fthreshold,
    fthreshold_ordinary,
    fthreshold_symbolic_squarefree,
    nu_sequence,
    nu_value,
)
from .serial import (
    check_decimal_digits,
    decimal_string,
    format_fraction,
    parse_fraction,
    parse_ideal,
    parse_json,
    read_source,
)
from .waldschmidt import skew_waldschmidt

__all__ = ["main", "build_parser"]

_RATIONAL_KEYS = {"value", "lower", "upper", "ratio", "running_sup"}
_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?$")


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    return obj


def _augment_decimals(obj, digits: int):
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out[k] = _augment_decimals(v, digits)
            if (
                k in _RATIONAL_KEYS
                and isinstance(v, str)
                and _RATIONAL_RE.fullmatch(v)
            ):
                out[k + "_decimal"] = decimal_string(Fraction(v), digits)
        return out
    if isinstance(obj, list):
        return [_augment_decimals(v, digits) for v in obj]
    return obj


def _emit(data: dict, args) -> None:
    data = _jsonify(data)
    if args.decimal:
        data = _augment_decimals(data, args.decimal)
    if args.format == "table":
        for line in _table_lines(data):
            print(line)
    elif args.format == "csv":
        for line in _csv_lines(data):
            print(line)
    else:
        print(json.dumps(data, indent=2))


def _table_lines(data: dict, prefix: str = "") -> list[str]:
    lines = []
    for k, v in data.items():
        if isinstance(v, dict):
            lines.append(f"{prefix}{k}:")
            lines.extend(_table_lines(v, prefix + "  "))
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            for i, row in enumerate(v):
                lines.append(f"{prefix}{k}[{i}]:")
                lines.extend(_table_lines(row, prefix + "  "))
        else:
            lines.append(f"{prefix}{k}: {v}")
    return lines


def _csv_lines(data: dict) -> list[str]:
    # nu tables and fixture tables have a canonical CSV; everything else
    # falls back to key,value rows.
    if "records" in data and isinstance(data["records"], list):
        lines = ["e,q,nu,ratio"]
        for r in data["records"]:
            lines.append(f"{r['e']},{r['q']},{r['nu']},{r['ratio']}")
        return lines
    if "rows" in data and isinstance(data["rows"], list) and data["rows"]:
        keys = list(data["rows"][0].keys())
        lines = [",".join(keys)]
        for r in data["rows"]:
            lines.append(",".join(str(r[k]) for k in keys))
        return lines
    lines = [f"{k},{v}" for k, v in data.items() if not isinstance(v, (dict, list))]
    if not lines:
        raise UnsupportedInputError("this answer has no CSV form; use json or table")
    return lines


# ------------------------------------------------------------------ #
# argument plumbing
# ------------------------------------------------------------------ #


def _add_common(sub: argparse.ArgumentParser, *, chars: bool = False) -> None:
    sub.add_argument("--ideal", help="ideal text, @file, or - for stdin")
    sub.add_argument("--filtration", help="filtration descriptor JSON, @file, or -")
    sub.add_argument("--nvars", type=int, help="ambient variable count (else inferred)")
    sub.add_argument("--format", choices=["json", "csv", "table"], default="json")
    sub.add_argument("--decimal", type=int, metavar="K", default=0,
                     help="add K-digit decimal renderings (display only)")
    if chars:
        sub.add_argument("-p", type=int, help="prime characteristic")
        sub.add_argument("--emax", type=int, help="largest Frobenius exponent e")


def _get_filtration(args) -> Filtration:
    if getattr(args, "filtration", None) is not None:
        data = parse_json(read_source(args.filtration), "filtration")
        return filtration_from_json(data)
    if getattr(args, "ideal", None) is not None:
        return OrdinaryPowers(parse_ideal(read_source(args.ideal), args.nvars))
    return filtration_from_json(parse_json(read_source(None), "filtration"))


def _get_ideal(args) -> MonomialIdeal:
    return parse_ideal(read_source(args.ideal), args.nvars)


def _get_target(args, nvars: int) -> MonomialIdeal:
    return parse_ideal(read_source(getattr(args, "target", None) or "m"), nvars)


def _require(args, parser, *names) -> None:
    for name in names:
        if getattr(args, name.lstrip("-").replace("-", "_"), None) is None:
            parser.error(f"{name} is required for this verb")


# ------------------------------------------------------------------ #
# verbs
# ------------------------------------------------------------------ #


def _cmd_nu(args, parser) -> int:
    _require(args, parser, "-p", "-e")
    f = _get_filtration(args)
    target = _get_target(args, f.nvars)
    rec = nu_value(f, target, args.p, args.e)
    _emit(rec.to_json(), args)
    return 0


def _cmd_nu_seq(args, parser) -> int:
    _require(args, parser, "-p", "--emax")
    f = _get_filtration(args)
    target = _get_target(args, f.nvars)
    seq = nu_sequence(f, target, args.p, args.emax)
    _emit(seq.to_json(), args)
    return 0


def _cmd_fthreshold(args, parser) -> int:
    f = _get_filtration(args)
    target = None
    if args.target:
        target = _get_target(args, f.nvars)
    res = fthreshold(f, target=target)
    _emit(res.to_json(), args)
    return 0


def _cmd_symbolic(args, parser) -> int:
    _require(args, parser, "--ideal")
    res = fthreshold_symbolic_squarefree(_get_ideal(args))
    _emit(res.to_json(), args)
    return 0


def _cmd_rees(args, parser) -> int:
    _require(args, parser, "--ideal")
    ideal = _get_ideal(args)
    facets = rees_valuations(ideal)
    res = fthreshold_ordinary(ideal)
    _emit(
        {
            "rees_valuations": [f.to_json() for f in facets],
            "threshold": str(res.value),
        },
        args,
    )
    return 0


def _cmd_newton(args, parser) -> int:
    _require(args, parser, "--ideal")
    _emit(newton_polyhedron(_get_ideal(args)).to_json(), args)
    return 0


def _cmd_waldschmidt(args, parser) -> int:
    f = _get_filtration(args)
    if args.weights:
        weights = [parse_fraction(w) for w in args.weights.split(",")]
    else:
        weights = [Fraction(1)] * f.nvars
    res = skew_waldschmidt(weights, f)
    _emit(res.to_json(), args)
    return 0


def _cmd_hypergraph(args, parser) -> int:
    _require(args, parser, "--graph")
    h = Hypergraph.from_json(parse_json(read_source(args.graph), "graph"))
    _emit(threshold_bounds_report(h), args)
    return 0


def _cmd_laws(args, parser) -> int:
    _require(args, parser, "--left", "--right", "-p", "--emax")
    left = filtration_from_json(parse_json(read_source(args.left), "filtration"))
    right = filtration_from_json(parse_json(read_source(args.right), "filtration"))
    out = {}
    if left.nvars == right.nvars:
        out["min_law"] = check_min_law(left, right, args.p, args.emax).to_json()
    out["disjoint_laws"] = check_sum_product_laws(
        left, right, args.p, args.emax
    ).to_json()
    _emit(out, args)
    return 0


def _cmd_verify_examples(args, parser) -> int:
    rows, ok = verify_examples(args.filter, args.corrupt)
    if args.format == "json":
        _emit({"rows": rows, "all_pass": ok}, args)
    else:
        width = max((len(r["name"]) for r in rows), default=4)
        print(f"{'NAME':<{width}}  {'EXPECTED':>12}  {'COMPUTED':>12}  RESULT")
        for r in rows:
            flag = "pass" if r["pass"] else "FAIL"
            print(
                f"{r['name']:<{width}}  {r['expected']:>12}  {r['computed']:>12}  {flag}"
            )
        print(f"{sum(r['pass'] for r in rows)}/{len(rows)} fixtures passed")
    return 0 if ok else 1


# ------------------------------------------------------------------ #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fthresh",
        description="Exact F-thresholds of filtrations of monomial ideals",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    sp = subs.add_parser("nu", help="one nu value")
    _add_common(sp, chars=True)
    sp.add_argument("-e", type=int, help="Frobenius exponent")
    sp.add_argument("--target", help="target ideal (default m)")
    sp.set_defaults(run=_cmd_nu)

    sp = subs.add_parser("nu-seq", help="nu table for e = 0..emax")
    _add_common(sp, chars=True)
    sp.add_argument("--target", help="target ideal (default m)")
    sp.set_defaults(run=_cmd_nu_seq)

    sp = subs.add_parser("fthreshold", help="exact F-threshold")
    _add_common(sp)
    sp.add_argument("--target", help="target ideal (default m)")
    sp.set_defaults(run=_cmd_fthreshold)

    sp = subs.add_parser("symbolic", help="symbolic threshold of a square-free ideal")
    _add_common(sp)
    sp.set_defaults(run=_cmd_symbolic)

    sp = subs.add_parser("rees", help="Rees valuations of a monomial ideal")
    _add_common(sp)
    sp.set_defaults(run=_cmd_rees)

    sp = subs.add_parser("newton", help="Newton polyhedron facets")
    _add_common(sp)
    sp.set_defaults(run=_cmd_newton)

    sp = subs.add_parser("waldschmidt", help="skew Waldschmidt constant")
    _add_common(sp)
    sp.add_argument("--weights", help="comma-separated rational weights")
    sp.set_defaults(run=_cmd_waldschmidt)

    sp = subs.add_parser("hypergraph", help="combinatorial bounds report")
    _add_common(sp)
    sp.add_argument("--graph", help='hypergraph JSON {"n":..,"edges":[[..]]}')
    sp.set_defaults(run=_cmd_hypergraph)

    sp = subs.add_parser("laws", help="min / sum / product law checks")
    _add_common(sp, chars=True)
    sp.add_argument("--left", help="left filtration JSON")
    sp.add_argument("--right", help="right filtration JSON")
    sp.set_defaults(run=_cmd_laws)

    sp = subs.add_parser("verify-examples", help="run the fixture gallery")
    _add_common(sp)
    sp.add_argument("--filter", help="substring filter on fixture names")
    sp.add_argument(
        "--corrupt",
        metavar="NAME",
        help="(testing) corrupt one expected value to exercise the failure path",
    )
    sp.set_defaults(run=_cmd_verify_examples, format="table")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves it
    unchanged, and building it costs more than answering a cheap verb."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        check_decimal_digits(args.decimal)  # every verb, rational fields or not
        return args.run(args, parser)
    except Exception as exc:  # every failure is reported as a JSON error object
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error, indent=2))
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
