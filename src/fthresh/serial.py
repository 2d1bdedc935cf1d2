"""Text and JSON serialization.

Ideal text grammar: variables are x1..xn; a generator is a product of
powers like ``x1^2*x3`` or an exponent tuple ``[2,0,1]``; an ideal is a
semicolon-separated list of generators, or a JSON array of exponent
tuples (text such as ``[2,0,1]`` or ``[2,0,1];[1,1,0]``, which is not a
JSON array of arrays, is read as generators).  ``m`` denotes the maximal
ideal of the ambient ring, ``0`` the zero ideal, ``1`` the unit ideal.
Rationals serialize as "num/den" strings (plain "num" when the
denominator is 1).
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .errors import SizeGuardError, UnsupportedInputError, json_value
from .monomial import MonomialIdeal

__all__ = [
    "parse_fraction",
    "format_fraction",
    "decimal_string",
    "parse_ideal",
    "parse_monomial_text",
    "parse_json",
    "read_source",
]

_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?$")


class ParseError(UnsupportedInputError):
    """Input text that does not match the grammar; carries the offending
    token and its position."""

    def __init__(self, message: str, token: str, position: int):
        super().__init__(f"{message}: {token!r} at position {position}")
        self.token = token
        self.position = position


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("not a rational", text.strip(), 0) from exc


def decimal_string(value: Fraction | int, digits: int) -> str:
    """Truncated k-digit decimal rendering, display only."""
    if digits < 0:
        raise UnsupportedInputError(f"decimal digits must be >= 0, not {digits}")
    f = Fraction(value)
    scaled = f * 10**digits
    units = abs(scaled.numerator) // scaled.denominator
    sign = "-" if f < 0 else ""
    whole, frac = divmod(units, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def format_fraction(value: Fraction | int, decimal: int | None = None) -> str:
    f = Fraction(value)
    base = str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if decimal is not None and decimal > 0:
        base += f" (~{decimal_string(f, decimal)})"
    return base


def parse_monomial_text(text: str, nvars: int | None = None) -> list[int]:
    """One generator: 'x1^2*x3', '[2,0,1]', or '1'.  Returns the exponent
    list, padded to nvars when given."""
    s = text.strip()
    if not s:
        raise ParseError("empty generator", s, 0)
    if s.startswith("["):
        try:
            vec = json.loads(s)
        except json.JSONDecodeError as exc:
            raise ParseError("bad exponent tuple", s, exc.pos) from exc
        if not isinstance(vec, list) or not all(
            isinstance(a, int) and a >= 0 for a in vec
        ):
            raise ParseError("exponent tuple needs nonnegative integers", s, 0)
        exps = list(vec)
    elif s == "1":
        exps = []
    else:
        exps = []
        pos = 0
        for factor in s.split("*"):
            f = factor.strip()
            mt = _VAR_RE.match(f)
            if mt is None:
                raise ParseError("bad factor", f, pos)
            idx = int(mt.group(1))
            if idx < 1:
                raise ParseError("variables are numbered from x1", f, pos)
            power = int(mt.group(2) or 1)
            while len(exps) < idx:
                exps.append(0)
            exps[idx - 1] += power
            pos += len(factor) + 1
    if nvars is not None:
        if len(exps) > nvars:
            raise ParseError(f"generator uses more than {nvars} variables", s, 0)
        exps += [0] * (nvars - len(exps))
    return exps


def parse_ideal(text: str, nvars: int | None = None) -> MonomialIdeal:
    """Parse the ideal grammar; 'm' gives the maximal ideal (needs nvars),
    '0' the zero ideal, a JSON object the {"vars","generators"} schema."""
    s = text.strip()
    if s == "m":
        if nvars is None:
            raise ParseError("the token 'm' needs an ambient variable count", s, 0)
        return MonomialIdeal.maximal(nvars)
    if s == "0":
        if nvars is None:
            raise ParseError("the zero ideal needs an ambient variable count", s, 0)
        return MonomialIdeal.zero(nvars)
    if s.startswith("{"):
        return MonomialIdeal.from_json(parse_json(s, "ideal"))
    if s.startswith("["):
        try:
            rows = json.loads(s)
        except json.JSONDecodeError:
            rows = None  # '[2,0,1];[1,1,0]': exponent tuples in the text grammar
        if isinstance(rows, list) and all(isinstance(row, list) for row in rows):
            vecs = json_value(
                rows,
                lambda rs: [[int(a) for a in row] for row in rs],
                "ideal JSON array",
            )
            width = nvars if nvars is not None else max(map(len, vecs), default=0)
            vecs = [v + [0] * (width - len(v)) for v in vecs]
            return MonomialIdeal.from_exponents(width, vecs)
    raw = [parse_monomial_text(g) for g in s.split(";") if g.strip()]
    width = nvars if nvars is not None else max((len(v) for v in raw), default=0)
    if any(len(v) > width for v in raw):
        raise ParseError(f"generator exceeds {width} variables", s, 0)
    padded = [v + [0] * (width - len(v)) for v in raw]
    return MonomialIdeal.from_exponents(width, padded)


def parse_json(text: str, what: str):
    """Decode JSON input; malformed text raises `ParseError` naming ``what``,
    and text nested too deep for the decoder raises `SizeGuardError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad {what} JSON", text.strip()[:40], exc.pos) from exc
    except RecursionError:
        raise SizeGuardError(f"{what} JSON is nested too deep to decode") from None


def read_source(arg: str | None) -> str:
    """Input convention: literal text, '@path' to read a file, or None/'-'
    to read stdin."""
    if arg is None or arg == "-":
        return sys.stdin.read()
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return arg
