"""Exact linear programming over the rationals.

A small dense two-phase simplex with Bland's anti-cycling rule, run on a
fraction-free integer tableau (Edmonds 1967; Bareiss 1968).  No floats
enter any decision, so optima and certificates are exact.  Problem sizes
in this package are small (tens to hundreds of columns), which is the
regime this implementation targets.

Constraints are triples ``(coeffs, rel, rhs)`` with ``rel`` one of
``"<="``, ``"=="``, ``">="`` and int or `Fraction` entries; all variables
are implicitly >= 0.

The tableau.  Every constraint row and its rhs is multiplied by one
common L, the lcm of all their denominators; slack and artificial columns
stay +-1, so the starting basis is the identity.  The cost row is scaled
by the lcm of the objective's denominators.  The tableau holds D times
the rational tableau, where D > 0 is the determinant of the current basis.
A pivot on p = T[r][k] replaces every other row, the cost row included,
by (p * T[i] - T[i][k] * T[r]) // D, and then D = p.  The division is
exact: every entry is a minor of the scaled constraint matrix.  A
negative p (only when phase 1 pivots a zero artificial out) negates the
tableau, so D stays > 0 and signs read as in the rational tableau.

The pivots are those of the rational simplex.  Scaling every row by L
makes each slack and artificial variable L times itself: no reduced cost
changes sign, every ratio of one ratio test is divided by the same
positive number, and the phase-1 objective is scaled uniformly.  Ratios
are compared by cross-multiplication.  So Bland's rule and its tie-break
take the same pivots, and the vertex and the duals are the same; they are
read back as `Fraction`s (x = T[i][rhs] / D) only at the end.

``LPResult.duals`` is normalized so that ``value == sum(duals[i] * rhs[i])``
exactly (strong duality) for both senses.  `_certify` proves every
``optimal`` result before `solve_lp` returns it, so no caller re-checks
an optimum.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InternalError, UnsupportedInputError

__all__ = ["LPResult", "solve_lp"]

_HOLDS = {"<=": operator.le, "==": operator.eq, ">=": operator.ge}


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    x: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None


def solve_lp(
    objective: Sequence[Fraction | int],
    constraints: Sequence[tuple[Sequence[Fraction | int], str, Fraction | int]],
    sense: str = "min",
) -> LPResult:
    """Optimize objective . x over x >= 0 under the constraints."""
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
    for "min" and -1 for "max": x >= 0 meets every constraint, s * y_i is
    >= 0 on ">=" rows and <= 0 on "<=" rows, s * (c - A^T y) >= 0, and
    c.x = b.y = value, which proves x optimal by weak duality."""
    x, y = res.x, res.duals
    if len(x) != len(c) or len(y) != len(constraints) or min(x, default=0) < 0:
        raise InternalError("LP certificate: the point has the wrong shape or sign")
    s = 1 if sense == "min" else -1
    support = [(j, xj) for j, xj in enumerate(x) if xj]
    reduced = list(c)
    dual_value = Fraction(0)
    for i, ((coeffs, rel, rhs), yi) in enumerate(zip(constraints, y)):
        if not _HOLDS[rel](sum(coeffs[j] * xj for j, xj in support), rhs):
            raise InternalError(f"LP certificate: the point violates constraint {i}")
        if not yi:
            continue
        if (rel == ">=" and s * yi < 0) or (rel == "<=" and s * yi > 0):
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
    """The two-phase simplex for min c . x; duals as in `solve_lp`."""
    n = len(c)
    rows: list[list[int]] = []
    rels: list[str] = []
    flipped: list[bool] = []
    scale = 1  # L: one common scale, so the phase-1 cost stays uniform
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != n:
            raise UnsupportedInputError("constraint width does not match objective")
        if rel not in _HOLDS:
            raise UnsupportedInputError(f"unknown relation {rel!r}")
        scale = lcm(scale, rhs.denominator, *(v.denominator for v in coeffs))
    for coeffs, rel, rhs in constraints:
        row = [v.numerator * (scale // v.denominator) for v in (*coeffs, rhs)]
        flipped.append(rhs < 0)
        if rhs < 0:
            row = [-v for v in row]
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        rows.append(row)
        rels.append(rel)

    m = len(rows)
    aux_col: list[int | None] = [None] * m
    art_col: list[int | None] = [None] * m
    ncols = n
    for i in range(m):
        if rels[i] in ("<=", ">="):
            aux_col[i] = ncols
            ncols += 1
    first_art = ncols
    for i in range(m):
        if rels[i] in (">=", "=="):
            art_col[i] = ncols
            ncols += 1

    T = [[0] * (ncols + 1) for _ in range(m)]
    basis = [-1] * m
    for i in range(m):
        T[i][:n] = rows[i][:n]
        if aux_col[i] is not None:
            T[i][aux_col[i]] = 1 if rels[i] == "<=" else -1
        if art_col[i] is not None:
            T[i][art_col[i]] = 1
            basis[i] = art_col[i]
        else:
            basis[i] = aux_col[i]  # "<=" row: slack starts basic
        T[i][ncols] = rows[i][n]
    d = 1  # D, the determinant of the basis: T is D times the rational tableau

    # ---- phase 1: drive artificial variables to zero --------------------
    if first_art < ncols:
        cost1 = [0] * first_art + [1] * (ncols - first_art)
        status, cbar, d = _simplex(T, d, basis, cost1, [True] * ncols, m, ncols)
        if status != "optimal":  # the phase-1 objective is bounded below by 0
            raise InternalError(f"phase-1 LP is {status}")
        if cbar[ncols] < 0:
            return LPResult("infeasible")
        # pivot surviving artificials out of the basis when possible
        for i in range(m):
            if basis[i] >= first_art:
                enter = next((j for j in range(first_art) if T[i][j] != 0), None)
                if enter is not None:
                    cbar, d = _pivot(T, d, basis, cbar, i, enter)

    # ---- phase 2 ---------------------------------------------------------
    cscale = lcm(*(v.denominator for v in c))
    cost2 = [v.numerator * (cscale // v.denominator) for v in c] + [0] * (ncols - n)
    eligible = [True] * first_art + [False] * (ncols - first_art)
    status, cbar, d = _simplex(T, d, basis, cost2, eligible, m, ncols)
    if status == "unbounded":
        return LPResult("unbounded")

    x = [Fraction(0)] * n
    for i in range(m):
        if 0 <= basis[i] < n:
            x[basis[i]] = Fraction(T[i][ncols], d)
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))

    duals = [Fraction(0)] * m
    for i in range(m):
        # every ">="/"==" row owns a (+1) artificial column, every "<=" row
        # a (+1) slack column; the reduced cost of a (+e_i) column is -y_i.
        # Scaling row i by L scales that column by 1/L, and cbar carries
        # the cost scale and d.
        col = art_col[i] if art_col[i] is not None else aux_col[i]
        y = Fraction(-cbar[col] * scale, cscale * d)
        duals[i] = -y if flipped[i] else y
    return LPResult("optimal", value, tuple(x), tuple(duals))


def _simplex(T, d, basis, cost, eligible, m, ncols):
    """Minimize cost over the current tableau, d times the rational one;
    Bland's rule throughout.

    Returns (status, cbar, d) where cbar is d times the reduced-cost row,
    with the negated objective value in its last slot.
    """
    cbar = [v * d for v in cost] + [0]
    for i in range(m):
        cb = cost[basis[i]]
        if cb:
            cbar = [a - cb * b for a, b in zip(cbar, T[i])]
    while True:
        enter = -1
        for j in range(ncols):
            if eligible[j] and cbar[j] < 0:
                enter = j
                break
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
    """One fraction-free pivot on p = T[leave][enter]: every other row,
    the cost row included, becomes (p * row - row[enter] * T[leave]) // d,
    an exact division, and p is the new d; a negative p negates the
    tableau so that d stays > 0.  Returns (cbar, d)."""
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
    if p < 0:
        for i, Ti in enumerate(T):
            T[i] = [-a for a in Ti]
        cbar = [-a for a in cbar]
        p = -p
    basis[leave] = enter
    return cbar, p
