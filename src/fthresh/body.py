"""The limiting Newton body of a monomial filtration, as one exact LP.

For a filtration a_bullet of monomial ideals set

    P(a_bullet) = closure of the union over r of (1/r) * exps(a_r),

a convex up-set of R^n_{>=0} (by a_i * a_j subseteq a_{i+j}), empty
exactly for the zero filtration.  It is polyhedral for every shipped
rule, and `_body` writes it as the homogenized extended formulation
(u, lam) in cone(P), walking the filtration tree once (on an explicit
stack, so no tree depth meets the recursion limit):

* ordinary and integral-closure powers of I:  u >= sum_g mu_g * g with
  sum mu >= lam (P = NP(I));
* ceiling powers I^{ceil(beta r)}:            the same with sum mu >= beta * lam;
* symbolic powers and prime-power intersections:
                                              sum_{i in S} u_i >= w_S * lam
                                              (w_S = 1 for symbolic powers);
* product:                                    u >= u1 + u2, a shared lam
                                              (P = P_left + P_right);
* intersection:                               one shared (u, lam);
* binomial sum:                               u >= u1 + u2, lam <= lam1 + lam2
                                              (Balas: conv of the union);
* Veronese annotation:                        the base's rows (an
                                              annotation changes no level).

The equalities of the textbook formulation (sum mu = lam, lam = lam1 +
lam2) may be relaxed as written because P is an up-set: scaling mu down
to sum mu = lam only lowers sum mu_g * g, and (u, lam) in cone(P) with
lam <= lam' follows from (u, lam') in cone(P).  So every row is
homogeneous "<= 0", and lam >= 1 is the one row that needs an
artificial variable; with it the rows cut out P itself.  Two questions
are one LP each:

* `component_threshold`: for an irreducible target Q = (x_i^{b_i} : i in
  S), C^Q = 1 / min { s : u in P, u_i <= s * b_i for i in S }, and an
  optimum s* = 0 means C^Q is infinite (the finiteness criterion);
* `waldschmidt`: vhat(v) = min { <v, u> : u in P }.

Every optimum is certified in exact arithmetic: the point is primal
feasible, the multipliers are dual feasible, and the two objectives are
equal, which proves optimality by weak duality; a failed check raises
`InternalError`.  An infeasible LP means an empty body, which is
cross-checked against the filtration's radical.  A `Filtration` subclass
this module does not know raises `UnsupportedInputError`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError, UnsupportedInputError
from .filtration import (
    BinomialSum,
    CeilingPower,
    Filtration,
    IntegralClosurePowers,
    IntersectionFiltration,
    OrdinaryPowers,
    PrimePowerIntersection,
    ProductFiltration,
    SymbolicSquarefree,
    VeroneseAnnotation,
)
from .lp import solve_lp

__all__ = ["component_threshold", "waldschmidt"]

# a sparse homogeneous LP row {column: coefficient}, read as row . x <= 0
_Row = dict[int, Fraction]


def _body(filtration: Filtration) -> tuple[int, list[_Row]]:
    """(column count, rows) of u in P(filtration): columns 0..n-1 are u,
    column n is lam (>= 1, added by `_minimize`); the rest are auxiliary."""
    n = filtration.nvars
    ncols = n + 1
    rows: list[_Row] = []

    def new(k: int) -> list[int]:
        nonlocal ncols
        ncols += k
        return list(range(ncols - k, ncols))

    def split(u: list[int]) -> tuple[list[int], list[int]]:
        # u >= u1 + u2
        u1, u2 = new(n), new(n)
        rows.extend({u1[j]: 1, u2[j]: 1, u[j]: -1} for j in range(n))
        return u1, u2

    stack: list[tuple[Filtration, list[int], int]] = [(filtration, list(range(n)), n)]
    while stack:
        f, u, lam = stack.pop()
        if isinstance(f, (OrdinaryPowers, IntegralClosurePowers, CeilingPower)):
            gens = [g.exps for g in f.ideal.gens]
            mu = new(len(gens))
            for j in range(n):
                row = {col: g[j] for col, g in zip(mu, gens) if g[j]}
                row[u[j]] = -1
                rows.append(row)
            scale = f.beta if isinstance(f, CeilingPower) else 1
            rows.append({lam: scale, **dict.fromkeys(mu, -1)})
        elif isinstance(f, (SymbolicSquarefree, PrimePowerIntersection)):
            comps = (
                [(p, 1) for p in f.primes]
                if isinstance(f, SymbolicSquarefree)
                else f.components
            )
            for supp, w in comps:
                rows.append({lam: w, **{u[j]: -1 for j in supp}})
        elif isinstance(f, ProductFiltration):
            u1, u2 = split(u)
            stack += [(f.left, u1, lam), (f.right, u2, lam)]
        elif isinstance(f, IntersectionFiltration):
            stack += [(f.left, u, lam), (f.right, u, lam)]
        elif isinstance(f, BinomialSum):
            u1, u2 = split(u)
            lam1, lam2 = new(2)
            rows.append({lam: 1, lam1: -1, lam2: -1})
            stack += [(f.left, u1, lam1), (f.right, u2, lam2)]
        elif isinstance(f, VeroneseAnnotation):
            stack.append((f.base, u, lam))
        else:
            raise UnsupportedInputError(
                f"no Newton body for the filtration rule {type(f).__name__}"
            )
    return ncols, rows


def _minimize(
    filtration: Filtration,
    ncols: int,
    rows: list[_Row],
    objective: dict[int, Fraction],
) -> tuple[Fraction, tuple[Fraction, ...]] | None:
    """Certified min of the objective over x >= 0 with row . x <= 0 for
    every row and lam >= 1; None when the body is empty."""
    lam = filtration.nvars
    c = [Fraction(0)] * ncols
    for j, v in objective.items():
        c[j] = Fraction(v)
    cons = [([row.get(j, 0) for j in range(ncols)], "<=", 0) for row in rows]
    cons.append(([int(j == lam) for j in range(ncols)], ">=", 1))
    res = solve_lp(c, cons, sense="min")
    if res.status == "infeasible":
        if not filtration.radical().is_zero():
            raise InternalError("body LP is infeasible for a nonzero filtration")
        return None
    if res.status != "optimal" or res.x is None or res.duals is None:
        raise InternalError(f"body LP is {res.status}, not optimal")
    x, (*y, z) = res.x, res.duals
    if len(x) != ncols or len(y) != len(rows) or any(v < 0 for v in x) or x[lam] < 1:
        raise InternalError("body LP point is not feasible")
    # weak duality: y <= 0 on the "<=" rows, z >= 0 on lam >= 1 and
    # c - A^T y - z e_lam >= 0 give c.x' >= z for every feasible x', so
    # c.x = z proves x optimal
    reduced = list(c)
    reduced[lam] -= z
    for row, yi in zip(rows, y):
        if sum(a * x[j] for j, a in row.items()) > 0:
            raise InternalError("body LP point is not feasible")
        if yi > 0:
            raise InternalError("body LP multipliers are not dual feasible")
        for j, a in row.items():
            reduced[j] -= yi * a
    if z < 0 or any(r < 0 for r in reduced):
        raise InternalError("body LP multipliers are not dual feasible")
    value = sum((cj * xj for cj, xj in zip(c, x)), Fraction(0))
    if value != z:
        raise InternalError("body LP primal and dual objectives differ")
    return value, x


def component_threshold(
    filtration: Filtration, keep: frozenset[int], b: tuple[int, ...]
) -> tuple[Fraction, tuple[Fraction, ...]] | None:
    """(s*, u) for the irreducible target (x_i^{b_i} : i in keep):
    s* = min { s : u in P, u_i <= s * b_i for i in keep } and u a point of
    P attaining it, so C = 1/s* (infinite when s* = 0); None when P is
    empty (the zero filtration, C = 0)."""
    s, rows = _body(filtration)  # s: one more column, after the body's
    rows += [{j: 1, s: -b[j]} for j in sorted(keep)]
    opt = _minimize(filtration, s + 1, rows, {s: Fraction(1)})
    if opt is None:
        return None
    value, x = opt
    return value, x[: filtration.nvars]


def waldschmidt(filtration: Filtration, weights: tuple[Fraction, ...]) -> Fraction | None:
    """vhat = min { <weights, u> : u in P }; None when P is empty."""
    opt = _minimize(filtration, *_body(filtration), dict(enumerate(weights)))
    return None if opt is None else opt[0]
