"""Exact linear programming over the rationals.

A small dense simplex with Bland's anti-cycling rule, run on a
fraction-free integer tableau (Edmonds 1967; Bareiss 1968).  No floats
enter any decision, so optima and certificates are exact.  Problem sizes
in this package are small (tens to hundreds of columns), which is the
regime this implementation targets.

One form.  Constraints are triples ``(coeffs, "<=", rhs)`` with int or
`Fraction` entries and rhs >= 0; all variables are implicitly >= 0.  Any
other relation, or a negative rhs, raises `UnsupportedInputError`.  In
this form x = 0 is feasible, so the simplex starts from the slack basis
and needs no phase 1, and the LP is either optimal or unbounded.  Every
LP of the package is posed this way.  The threshold LP and the fractional
chromatic number relax a normalizing "==" or ">=" row to a "<=" row that
is tight at the optimum; the body LP is solved as its LP dual (Chvatal,
*Linear Programming*, 1983, ch. 5), whose duals are the body LP's point.

The tableau.  Every constraint row and its rhs is multiplied by one
common L, the lcm of all their denominators; the slack columns stay +1,
so the starting basis is the identity.  The cost row is scaled by the lcm
of the objective's denominators.  The tableau holds D times the rational
tableau, where D > 0 is the determinant of the current basis.  A pivot on
p = T[r][k] replaces every other row, the cost row included, by
(p * T[i] - T[i][k] * T[r]) // D, and then D = p.  The division is exact:
every entry is a minor of the scaled constraint matrix.  The ratio test
takes only p > 0, so D stays > 0 and signs read as in the rational
tableau.

The pivots are those of the rational simplex.  Scaling every row by L
makes each slack variable L times itself: no reduced cost changes sign,
and every ratio of one ratio test is divided by the same positive number.
Ratios are compared by cross-multiplication.  So Bland's rule and its
tie-break take the same pivots, and the vertex and the duals are the
same; they are read back as `Fraction`s (x = T[i][rhs] / D) only at the
end.

``LPResult.duals`` is normalized so that ``value == sum(duals[i] * rhs[i])``
exactly (strong duality) for both senses: y <= 0 for "min" and y >= 0 for
"max".  `_certify` proves every ``optimal`` result before `solve_lp`
returns it, so no caller re-checks an optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InternalError, UnsupportedInputError

__all__ = ["LPResult", "solve_lp"]


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "unbounded"
    value: Fraction | None = None
    x: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None


def solve_lp(
    objective: Sequence[Fraction | int],
    constraints: Sequence[tuple[Sequence[Fraction | int], str, Fraction | int]],
    sense: str = "min",
) -> LPResult:
    """Optimize objective . x over x >= 0 under "<=" rows with rhs >= 0."""
    if sense not in ("min", "max"):
        raise UnsupportedInputError(f"unknown sense {sense!r}")
    c = [Fraction(v) for v in objective]
    res = _minimize([-v for v in c] if sense == "max" else c, constraints)
    if res.status != "optimal":
        return res
    if sense == "max":
        res = LPResult("optimal", -res.value, res.x, tuple(-d for d in res.duals))
    _certify(c, constraints, sense, res)
    return res


def _certify(c, constraints, sense: str, res: LPResult) -> None:
    """Raise `InternalError` unless res is a proved optimum.  With s = 1
    for "min" and -1 for "max": x >= 0, A x <= b, s * y <= 0,
    s * (c - A^T y) >= 0, and c.x = b.y = value, which proves x optimal
    by weak duality."""
    x, y = res.x, res.duals
    if len(x) != len(c) or len(y) != len(constraints) or min(x, default=0) < 0:
        raise InternalError("LP certificate: the point has the wrong shape or sign")
    s = 1 if sense == "min" else -1
    support = [(j, xj) for j, xj in enumerate(x) if xj]
    reduced = list(c)
    dual_value = Fraction(0)
    for i, ((coeffs, _, rhs), yi) in enumerate(zip(constraints, y)):
        if sum(coeffs[j] * xj for j, xj in support) > rhs:
            raise InternalError(f"LP certificate: the point violates constraint {i}")
        if not yi:
            continue
        if s * yi > 0:
            raise InternalError(f"LP certificate: multiplier {i} has the wrong sign")
        for j, a in enumerate(coeffs):
            if a:
                reduced[j] -= yi * a
        dual_value += yi * rhs
    if any(s * r < 0 for r in reduced):
        raise InternalError("LP certificate: the multipliers are not dual feasible")
    primal_value = sum((c[j] * xj for j, xj in support), Fraction(0))
    if not primal_value == dual_value == res.value:
        raise InternalError(
            f"LP certificate: c.x = {primal_value}, b.y = {dual_value}, "
            f"value = {res.value}"
        )


def _minimize(c: list[Fraction], constraints) -> LPResult:
    """The simplex for min c . x from the slack basis; duals as in
    `solve_lp`."""
    n, m = len(c), len(constraints)
    scale = 1  # L: one common scale, so every slack column stays e_i
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != n:
            raise UnsupportedInputError("constraint width does not match objective")
        if rel != "<=":
            raise UnsupportedInputError(f"only '<=' rows are supported, not {rel!r}")
        if rhs < 0:
            raise UnsupportedInputError(f"a row has negative right-hand side {rhs}")
        scale = lcm(scale, rhs.denominator, *(v.denominator for v in coeffs))
    ncols = n + m
    T = []
    for i, (coeffs, _, rhs) in enumerate(constraints):
        row = [v.numerator * (scale // v.denominator) for v in coeffs]
        row += [0] * m + [rhs.numerator * (scale // rhs.denominator)]
        row[n + i] = 1
        T.append(row)
    basis = list(range(n, ncols))  # the slacks, cost 0: cbar starts as c

    cscale = lcm(*(v.denominator for v in c))
    cbar = [v.numerator * (cscale // v.denominator) for v in c] + [0] * (m + 1)
    status, cbar, d = _simplex(T, basis, cbar, m, ncols)
    if status == "unbounded":
        return LPResult("unbounded")

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(T[i][ncols], d)
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    # the reduced cost of slack column n + i is -y_i; scaling row i by L
    # scales that column by 1/L, and cbar carries the cost scale and d
    duals = tuple(Fraction(-cbar[n + i] * scale, cscale * d) for i in range(m))
    return LPResult("optimal", value, tuple(x), duals)


def _simplex(T, basis, cbar, m, ncols):
    """Minimize over the tableau from its feasible starting basis (D = 1),
    with cbar the reduced-cost row; Bland's rule throughout.

    Returns (status, cbar, d) where cbar is d times the reduced-cost row,
    with the negated objective value in its last slot.
    """
    d = 1
    while True:
        enter = next((j for j in range(ncols) if cbar[j] < 0), -1)
        if enter < 0:
            return "optimal", cbar, d
        leave = -1
        best_num = best_den = 0
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                # ratio T[i][ncols] / a, compared by cross-multiplication
                lhs, rhs = T[i][ncols] * best_den, best_num * a
                if (
                    leave < 0
                    or lhs < rhs
                    or (lhs == rhs and basis[i] < basis[leave])
                ):
                    best_num, best_den = T[i][ncols], a
                    leave = i
        if leave < 0:
            return "unbounded", cbar, d
        cbar, d = _pivot(T, d, basis, cbar, leave, enter)


def _pivot(T, d, basis, cbar, leave, enter):
    """One fraction-free pivot on p = T[leave][enter] > 0: every other
    row, the cost row included, becomes (p * row - row[enter] * T[leave])
    // d, an exact division, and p is the new d.  Returns (cbar, d)."""
    row = T[leave]
    p = row[enter]
    for i, Ti in enumerate(T):
        if i != leave:
            f = Ti[enter]
            if f:
                T[i] = [(p * a - f * b) // d for a, b in zip(Ti, row)]
            elif p != d:
                T[i] = [p * a // d for a in Ti]
    f = cbar[enter]
    cbar = [(p * a - f * b) // d for a, b in zip(cbar, row)]
    basis[leave] = enter
    return cbar, p
