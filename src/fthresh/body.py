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
                                              (Balas: conv of the union).

The equalities of the textbook formulation (sum mu = lam, lam = lam1 +
lam2) may be relaxed as written because P is an up-set: scaling mu down
to sum mu = lam only lowers sum mu_g * g, and (u, lam) in cone(P) with
lam <= lam' follows from (u, lam') in cone(P).  So every row is
homogeneous "<= 0", and with lam >= 1 the rows cut out P itself.  Two
questions are one LP each:

* `component_threshold`: for an irreducible target Q = (x_i^{b_i} : i in
  S), C^Q = 1 / min { s : u in P, u_i <= s * b_i for i in S }, and an
  optimum s* = 0 means C^Q is infinite (the finiteness criterion);
* `waldschmidt`: vhat(v) = min { <v, u> : u in P }.

Both minimize c . x with c >= 0 (the s column, or the valuation's
weights), and `_minimize` solves the LP dual (Chvatal, *Linear
Programming*, 1983, ch. 5),

    max { z : z * [j = lam] - sum_k y_k * row_k[j] <= c_j for every column j,
          y, z >= 0 },

whose rows have rhs c_j >= 0, so z = y = 0 is feasible and the simplex
starts from its slack basis.  Its optimum is s* or vhat, and its duals
are the primal point x.

Every optimum is certified in exact arithmetic by `solve_lp` itself (the
dual LP's point, its multipliers x, equal objectives: optimality by weak
duality), so nothing here re-checks it.  An unbounded dual means an
empty body, which is cross-checked against the filtration's radical.  A
`Filtration` subclass this module does not know raises
`UnsupportedInputError`.
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
)
from .lp import solve_lp

__all__ = ["component_threshold", "waldschmidt"]

# a sparse homogeneous LP row {column: coefficient}, read as row . x <= 0
_Row = dict[int, Fraction]


def _body(filtration: Filtration) -> tuple[int, list[_Row]]:
    """(column count, rows) of u in P(filtration): columns 0..n-1 are u,
    column n is lam (>= 1, imposed by `_minimize`); the rest are auxiliary."""
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
    """(min, x) of the objective (>= 0) over x >= 0 with row . x <= 0 for
    every row and lam >= 1, read from its dual LP (certified by
    `solve_lp`); None when the body is empty."""
    lam, k = filtration.nvars, len(rows)
    # one dual row per column j: (-row_0[j], .., -row_{k-1}[j], [j = lam]),
    # posed last column first: on deep product chains the basis determinant
    # then stays at 1-2 bits (21-31 bits in column order at depth 30), and
    # Bland's rule takes fewer pivots (300 against 365 at depth 50)
    cols = [[0] * (k + 1) for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, a in row.items():
            cols[j][i] = -a
    cols[lam][k] = 1
    cons = [(cols[j], "<=", objective.get(j, 0)) for j in reversed(range(ncols))]
    res = solve_lp([0] * k + [1], cons, sense="max")
    if res.status == "unbounded":
        if not filtration.radical().is_zero():
            raise InternalError("empty body LP for a nonzero filtration")
        return None
    return res.value, res.duals[::-1]


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
