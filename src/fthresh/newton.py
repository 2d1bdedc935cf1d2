"""Newton polyhedra of monomial ideals: facets, Rees valuations,
integral-closure membership, and the exact threshold linear program.

The Newton polyhedron of a nonzero proper monomial ideal I in n variables
is NP(I) = conv(exponents of generators) + R^n_{>=0}.  Its facet
inequalities with positive offset ("essential facets") are, after primitive
integer normalization, exactly the monomial Rees valuations of I:

* u in the integral closure of I^r  iff  <normal, u> >= r * offset on
  every essential facet;
* the F-threshold of the power filtration of I with respect to the
  maximal ideal is min over essential facets of <normal, (1,..,1)>/offset.

The threshold never needs the facets: `threshold_lp` solves one LP, the
valuation LP max { t : <v, g> >= t for all generators g, sum v = 1, v >= 0 },
whose optimum is s* = min { s : s*(1,..,1) in NP(I) }.  Its weights w
certify s* from below (w(I) / w(x1..xn) = s*) and its row duals, a convex
combination of generators under s*(1,..,1), certify it from above; both
are checked in exact arithmetic.  It is the only threshold route for
ordinary, integral-closure and ceiling powers.

Facets are enumerated only when a caller asks for them (the `rees` and
`newton` verbs, integral-closure membership and levels).  Each selection of k generator points and n - k coordinate
recession rays with a one-dimensional solution space fixes a candidate
hyperplane <v, x> = c through them.  The facets are exactly the tight
candidates: v >= 0, c > 0 and <v, g> >= c on every generator.  Such a
hyperplane supports NP(I) and contains n affinely independent points and
rays of it, so it is a facet; and every essential facet arises from one
tight vertex plus n - 1 independent directions among its other vertices
and the rays e_j with v_j = 0.  No pruning LP is needed.  The enumeration
is exponential in n and documented as desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Sequence

from .errors import InternalError, SizeGuardError, UnsupportedInputError
from .lp import solve_lp
from .monomial import Monomial, MonomialIdeal

__all__ = [
    "FacetInequality",
    "NewtonPolyhedron",
    "newton_polyhedron",
    "rees_valuations",
    "integral_closure_contains",
    "integral_closure_generators",
    "threshold_lp",
]

# candidate systems = C(gens + nvars, nvars); above this we refuse and the
# caller should use the LP route instead of explicit facets
_FACET_CANDIDATE_GUARD = 400_000
_BOX_GUARD = 4_000_000


@dataclass(frozen=True)
class FacetInequality:
    """<normal, x> >= offset with primitive nonnegative integer normal."""

    normal: tuple[int, ...]
    offset: int

    def value(self, u: Monomial) -> int:
        return sum(a * e for a, e in zip(self.normal, u.exps))

    def to_json(self) -> dict:
        return {"normal": list(self.normal), "offset": self.offset}


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Facet description of NP(I).

    ``essential`` are the irredundant facets with offset > 0 (the Rees
    valuations); ``coordinate`` are the x_j >= 0 facets, kept separate.
    """

    ideal: MonomialIdeal
    essential: tuple[FacetInequality, ...]
    coordinate: tuple[FacetInequality, ...]

    def contains_point(self, point: Sequence[Fraction]) -> bool:
        if any(p < 0 for p in point):
            return False
        for f in self.essential:
            if sum(Fraction(a) * p for a, p in zip(f.normal, point)) < f.offset:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "ideal": self.ideal.to_json(),
            "essential_facets": [f.to_json() for f in self.essential],
            "coordinate_facets": [f.to_json() for f in self.coordinate],
        }


def _primitive(vec: Sequence[Fraction]) -> tuple[int, ...] | None:
    """Scale a rational vector to primitive integers, preserving sign."""
    den = 1
    for v in vec:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        return None
    return tuple(v // g for v in ints)


def _nullspace_direction(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """A nonzero kernel vector of an (k x w) rational matrix if the kernel is
    one-dimensional, else None."""
    w = len(rows[0])
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(w):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(w) if c not in pivots]
    if len(free) != 1:
        return None
    fc = free[0]
    vec = [Fraction(0)] * w
    vec[fc] = Fraction(1)
    for i, pc in enumerate(pivots):
        vec[pc] = -mat[i][fc]
    return vec


@lru_cache(maxsize=512)
def newton_polyhedron(ideal: MonomialIdeal) -> NewtonPolyhedron:
    if ideal.is_zero() or ideal.is_unit():
        raise UnsupportedInputError("Newton polyhedron needs a nonzero proper ideal")
    n = ideal.nvars
    gens = [g.exps for g in ideal.gens]
    count = 1
    for k in range(1, n + 1):
        count += comb(len(gens), k) * comb(n, n - k)
        if count > _FACET_CANDIDATE_GUARD:
            raise SizeGuardError(
                "facet enumeration too large; use threshold_lp / LP routes"
            )

    candidates: dict[tuple[int, ...], int] = {}
    for k in range(1, min(n, len(gens)) + 1):
        for pts in itertools.combinations(range(len(gens)), k):
            for coords in itertools.combinations(range(n), n - k):
                # unknowns (v_1..v_n, c); rows: <v,p> - c = 0, v_j = 0
                rows: list[list[Fraction]] = []
                for pi in pts:
                    rows.append([Fraction(e) for e in gens[pi]] + [Fraction(-1)])
                for j in coords:
                    row = [Fraction(0)] * (n + 1)
                    row[j] = Fraction(1)
                    rows.append(row)
                direction = _nullspace_direction(rows)
                if direction is None:
                    continue
                prim = _primitive(direction)
                if prim is None:
                    continue
                v, c = prim[:n], prim[n]
                if any(a < 0 for a in v):
                    if all(a <= 0 for a in v):
                        v = tuple(-a for a in v)
                        c = -c
                    else:
                        continue
                # keep the hyperplane only if it is tight at its own points
                # and supports NP(I): then it is a facet
                if c <= 0 or any(
                    sum(a * e for a, e in zip(v, g)) < c for g in gens
                ):
                    continue
                candidates[v] = c

    essential = tuple(FacetInequality(v, c) for v, c in sorted(candidates.items()))
    coordinate = tuple(
        FacetInequality(tuple(1 if i == j else 0 for i in range(n)), 0)
        for j in range(n)
    )
    return NewtonPolyhedron(ideal, essential, coordinate)


def rees_valuations(ideal: MonomialIdeal) -> tuple[FacetInequality, ...]:
    """The monomial Rees valuations of I: essential Newton facets.

    Each facet carries its primitive integer weight vector (the valuation)
    and the offset (the valuation's value on I).
    """
    return newton_polyhedron(ideal).essential


def integral_closure_contains(ideal: MonomialIdeal, r: int, u: Monomial) -> bool:
    """Is u in the integral closure of I^r?  Exact facet test."""
    if r < 0:
        raise UnsupportedInputError("negative power")
    if r == 0:
        return True
    np_ = newton_polyhedron(ideal)
    return all(f.value(u) >= r * f.offset for f in np_.essential)


def integral_closure_level(ideal: MonomialIdeal, u: Monomial) -> int:
    """Largest r >= 0 with u in the integral closure of I^r."""
    np_ = newton_polyhedron(ideal)
    return min(f.value(u) // f.offset for f in np_.essential)


def integral_closure_generators(ideal: MonomialIdeal, r: int) -> MonomialIdeal:
    """Minimal monomial generators of the integral closure of I^r.

    Box-bounded scan over lattice points: a minimal generator is a lattice
    point of r*NP(I) none of whose coordinate predecessors stays inside.
    Guarded; intended for small instances (tests, axiom checks).
    """
    if r == 0:
        return MonomialIdeal.unit(ideal.nvars)
    np_ = newton_polyhedron(ideal)
    n = ideal.nvars
    box = [r * max(g.exps[j] for g in ideal.gens) for j in range(n)]
    vol = 1
    for b in box:
        vol *= b + 1
        if vol > _BOX_GUARD:
            raise SizeGuardError("integral-closure generator box too large")
    facets = np_.essential
    offs = [r * f.offset for f in facets]

    def inside(pt: tuple[int, ...]) -> bool:
        return all(
            sum(a * e for a, e in zip(f.normal, pt)) >= o
            for f, o in zip(facets, offs)
        )

    gens = []
    for pt in itertools.product(*[range(b + 1) for b in box]):
        if not inside(pt):
            continue
        minimal = True
        for j in range(n):
            if pt[j] > 0:
                down = pt[:j] + (pt[j] - 1,) + pt[j + 1 :]
                if inside(down):
                    minimal = False
                    break
        if minimal:
            gens.append(Monomial(pt))
    return MonomialIdeal(ideal.nvars, gens)


def threshold_lp(ideal: MonomialIdeal) -> tuple[Fraction, FacetInequality]:
    """Exact C^m(I^bullet) together with a certifying valuation.

    One LP, the valuation LP
    t* = max { t : <v, g> >= t for all generators g, sum v_j = 1, v >= 0 },
    whose optimum is s* = min { s : s*(1,..,1) in NP(I) }; then C = 1/s*.
    Both sides of the answer are checked in exact arithmetic:

    * the weights x[:n] give w(I) / w(1) = t*, so s* >= t*;
    * the row duals give multipliers lam_g = -duals[g] with lam >= 0,
      sum lam = 1 and sum_g lam_g * g_j <= t* for every j, so the convex
      combination sum lam_g * g lies under t*(1,..,1) and s* <= t*.

    A failed check raises `InternalError`.
    """
    if ideal.is_zero() or ideal.is_unit():
        raise UnsupportedInputError("threshold needs a nonzero proper ideal")
    gens = [g.exps for g in ideal.gens]
    n = ideal.nvars
    # variables (v_1..v_n, t)
    cons: list[tuple[list[int], str, int]] = []
    for g in gens:
        cons.append((list(g) + [-1], ">=", 0))
    cons.append(([1] * n + [0], "==", 1))
    res = solve_lp([0] * n + [1], cons, sense="max")
    if res.status != "optimal" or None in (res.value, res.x, res.duals):
        raise InternalError(f"threshold LP is {res.status}, not optimal")
    s_star = res.value
    if s_star == 0:
        raise UnsupportedInputError("degenerate threshold LP (zero optimum)")

    weights = _primitive(list(res.x[:n]))
    if weights is None:
        raise InternalError("threshold LP weights are all zero")
    offset = min(sum(a * e for a, e in zip(weights, g)) for g in gens)
    if Fraction(offset, sum(weights)) != s_star:
        raise InternalError(
            f"threshold LP weights {weights} give {offset}/{sum(weights)}, not {s_star}"
        )

    lam = [-d for d in res.duals[: len(gens)]]
    under = all(sum(a * g[j] for a, g in zip(lam, gens)) <= s_star for j in range(n))
    if min(lam) < 0 or sum(lam) != 1 or not under:
        raise InternalError(
            f"threshold LP multipliers do not place {s_star}*(1,..,1) in NP(I)"
        )
    return Fraction(1) / s_star, FacetInequality(weights, offset)
