"""Exact linear programming over the rationals.

A small dense two-phase simplex on ``fractions.Fraction`` with Bland's
anti-cycling rule.  No floats enter any decision, so optima and
certificates are exact.  Problem sizes in this package are tiny (tens of
variables), which is the regime this implementation targets.

Constraints are triples ``(coeffs, rel, rhs)`` with ``rel`` one of
``"<="``, ``"=="``, ``">="``; all variables are implicitly >= 0.

``LPResult.duals`` is normalized so that ``value == sum(duals[i] * rhs[i])``
exactly (strong duality) for both senses.  `_certify` proves every
``optimal`` result before `solve_lp` returns it, so no caller re-checks
an optimum.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
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
    rows: list[list[Fraction]] = []
    rels: list[str] = []
    rhss: list[Fraction] = []
    flipped: list[bool] = []
    for coeffs, rel, rhs in constraints:
        row = [Fraction(v) for v in coeffs]
        if len(row) != n:
            raise UnsupportedInputError("constraint width does not match objective")
        if rel not in _HOLDS:
            raise UnsupportedInputError(f"unknown relation {rel!r}")
        b = Fraction(rhs)
        if b < 0:
            row = [-v for v in row]
            b = -b
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
            flipped.append(True)
        else:
            flipped.append(False)
        rows.append(row)
        rels.append(rel)
        rhss.append(b)

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

    T = [[Fraction(0)] * (ncols + 1) for _ in range(m)]
    basis = [-1] * m
    for i in range(m):
        T[i][:n] = rows[i]
        if aux_col[i] is not None:
            T[i][aux_col[i]] = Fraction(1 if rels[i] == "<=" else -1)
        if art_col[i] is not None:
            T[i][art_col[i]] = Fraction(1)
            basis[i] = art_col[i]
        else:
            basis[i] = aux_col[i]  # "<=" row: slack starts basic
        T[i][ncols] = rhss[i]

    # ---- phase 1: drive artificial variables to zero --------------------
    if first_art < ncols:
        cost1 = [Fraction(0)] * ncols
        for j in range(first_art, ncols):
            cost1[j] = Fraction(1)
        status, cbar = _simplex(T, basis, cost1, [True] * ncols, m, n, ncols)
        if status != "optimal":  # the phase-1 objective is bounded below by 0
            raise InternalError(f"phase-1 LP is {status}")
        if -cbar[ncols] > 0:
            return LPResult("infeasible")
        # pivot surviving artificials out of the basis when possible
        for i in range(m):
            if basis[i] >= first_art:
                enter = next((j for j in range(first_art) if T[i][j] != 0), None)
                if enter is not None:
                    _pivot(T, basis, cbar, i, enter, m, ncols)

    # ---- phase 2 ---------------------------------------------------------
    cost2 = c + [Fraction(0)] * (ncols - n)
    eligible = [True] * ncols
    for j in range(first_art, ncols):
        eligible[j] = False
    status, cbar = _simplex(T, basis, cost2, eligible, m, n, ncols)
    if status == "unbounded":
        return LPResult("unbounded")

    x = [Fraction(0)] * n
    for i in range(m):
        if 0 <= basis[i] < n:
            x[basis[i]] = T[i][ncols]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))

    duals = [Fraction(0)] * m
    for i in range(m):
        # every ">="/"==" row owns a (+1) artificial column, every "<=" row
        # a (+1) slack column; the reduced cost of a (+e_i) column is -y_i.
        col = art_col[i] if art_col[i] is not None else aux_col[i]
        y = -cbar[col]
        duals[i] = -y if flipped[i] else y
    return LPResult("optimal", value, tuple(x), tuple(duals))


def _simplex(T, basis, cost, eligible, m, n, ncols):
    """Minimize cost over the current tableau; Bland's rule throughout.

    Returns (status, cbar) where cbar is the reduced-cost row with the
    negated objective value in its last slot.
    """
    cbar = list(cost) + [Fraction(0)]
    for i in range(m):
        cb = cost[basis[i]]
        if cb:
            Ti = T[i]
            for j in range(ncols + 1):
                cbar[j] -= cb * Ti[j]
    while True:
        enter = -1
        for j in range(ncols):
            if eligible[j] and cbar[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", cbar
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][ncols] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", cbar
        _pivot(T, basis, cbar, leave, enter, m, ncols)


def _pivot(T, basis, cbar, leave, enter, m, ncols):
    row = T[leave]
    piv = row[enter]
    if piv != 1:
        inv = Fraction(1) / piv
        for j in range(ncols + 1):
            if row[j]:
                row[j] *= inv
    for i in range(m):
        if i != leave:
            f = T[i][enter]
            if f:
                Ti = T[i]
                for j in range(ncols + 1):
                    if row[j]:
                        Ti[j] -= f * row[j]
    f = cbar[enter]
    if f:
        for j in range(ncols + 1):
            if row[j]:
                cbar[j] -= f * row[j]
    basis[leave] = enter
