"""Exact linear programming over the rationals.

A small dense two-phase simplex on ``fractions.Fraction`` with Bland's
anti-cycling rule.  No floats enter any decision, so optima and
certificates are exact.  Problem sizes in this package are tiny (tens of
variables), which is the regime this implementation targets.

Constraints are triples ``(coeffs, rel, rhs)`` with ``rel`` one of
``"<="``, ``"=="``, ``">="``; all variables are implicitly >= 0.

``LPResult.duals`` is normalized so that ``value == sum(duals[i] * rhs[i])``
exactly (strong duality) for both senses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalError, UnsupportedInputError

__all__ = ["LPResult", "solve_lp"]

_RELS = ("<=", "==", ">=")


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
    if sense not in ("min", "max"):
        raise UnsupportedInputError(f"unknown sense {sense!r}")
    c = [Fraction(v) for v in objective]
    if sense == "max":
        inner = solve_lp([-v for v in c], constraints, sense="min")
        if inner.value is None or inner.duals is None:
            return inner
        return LPResult(
            "optimal", -inner.value, inner.x, tuple(-d for d in inner.duals)
        )

    n = len(c)
    rows: list[list[Fraction]] = []
    rels: list[str] = []
    rhss: list[Fraction] = []
    flipped: list[bool] = []
    for coeffs, rel, rhs in constraints:
        row = [Fraction(v) for v in coeffs]
        if len(row) != n:
            raise UnsupportedInputError("constraint width does not match objective")
        if rel not in _RELS:
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
