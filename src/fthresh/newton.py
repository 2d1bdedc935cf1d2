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
whose optimum is s* = min { s : s*(1,..,1) in NP(I) }, certified by
`solve_lp`; `threshold_lp` checks that its printed weights w reproduce
s* = w(I) / w(x1..xn).  It is the only threshold route for ordinary,
integral-closure and ceiling powers.

Facets are enumerated only when a caller asks for them (the `rees` and
`newton` verbs, integral-closure membership and levels).  Each choice of
k generators p and k free coordinates J gives the candidate hyperplane
<v, x> = c with v_j = 0 off J whose (v_J, c) is the vector of signed
maximal minors of the integer rows [p_J | -1] (Bareiss elimination),
divided by its gcd and signed so that c > 0; dependent rows have only
zero minors and give none.  The facets are exactly the tight
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
from math import comb, gcd, lcm
from typing import Sequence

from .errors import (
    AmbientMismatchError,
    InternalError,
    SizeGuardError,
    UnsupportedInputError,
)
from .lp import solve_lp
from .monomial import Monomial, MonomialIdeal

__all__ = [
    "FacetInequality",
    "NewtonPolyhedron",
    "newton_polyhedron",
    "rees_valuations",
    "integral_closure_contains",
    "integral_closure_generators",
    "integral_closure_level",
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
        return all(p >= 0 for p in point) and all(
            sum(a * p for a, p in zip(f.normal, point)) >= f.offset for f in self.essential
        )

    def to_json(self) -> dict:
        return {
            "ideal": self.ideal.to_json(),
            "essential_facets": [f.to_json() for f in self.essential],
            "coordinate_facets": [f.to_json() for f in self.coordinate],
        }


def _primitive(vec: Sequence[Fraction]) -> tuple[int, ...] | None:
    """Scale a rational vector to primitive integers, preserving sign."""
    den = lcm(*(v.denominator for v in vec))
    ints = [int(v * den) for v in vec]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g else None


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss' fraction-free
    elimination: each entry after step i is an (i+1)-minor, so every
    division is exact."""
    m = [row[:] for row in rows]
    k = len(m)
    sign, prev = 1, 1
    for i in range(k):
        piv = next((r for r in range(i, k) if m[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        p = m[i][i]
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                m[r][c] = (p * m[r][c] - m[r][i] * m[i][c]) // prev
        prev = p
    return sign * prev


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
        for pts in itertools.combinations(gens, k):
            for free in itertools.combinations(range(n), k):
                # (v_free, c) spans the kernel of the rows <v, p> - c = 0
                rows = [[p[j] for j in free] + [-1] for p in pts]
                minors = [
                    (-1) ** i * _det([r[:i] + r[i + 1 :] for r in rows])
                    for i in range(k + 1)
                ]
                c = minors[k]
                if c == 0:  # also when the rows are dependent
                    continue
                g = gcd(*minors) if c > 0 else -gcd(*minors)
                v = [0] * n
                for j, m in zip(free, minors):
                    v[j] = m // g
                c //= g
                # keep the hyperplane only if it is tight at its own points
                # and supports NP(I): then it is a facet
                if any(a < 0 for a in v) or any(
                    sum(a * e for a, e in zip(v, p)) < c for p in gens
                ):
                    continue
                candidates[tuple(v)] = c

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
    return r == 0 or integral_closure_level(ideal, u) >= r


def integral_closure_level(ideal: MonomialIdeal, u: Monomial) -> int:
    """Largest r >= 0 with u in the integral closure of I^r: u lies in it
    iff <normal, u> >= r * offset on every essential facet."""
    if u.nvars != ideal.nvars:
        raise AmbientMismatchError("monomial lives in a different ring")
    np_ = newton_polyhedron(ideal)
    return min(f.value(u) // f.offset for f in np_.essential)


def integral_closure_generators(ideal: MonomialIdeal, r: int) -> MonomialIdeal:
    """Minimal monomial generators of the integral closure of I^r.

    Box-bounded scan over lattice points: a minimal generator is a lattice
    point of r*NP(I) none of whose coordinate predecessors stays inside.
    Guarded; intended for small instances (tests, axiom checks).
    """
    if r < 0:
        raise UnsupportedInputError("negative power")
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
    `solve_lp` certifies t*: its point gives s* >= t*, and its row
    multipliers lam_g = -duals[g] (lam >= 0, sum lam >= 1, sum_g lam_g *
    g_j <= t* for every j) put t*(1,..,1) in NP(I), so s* <= t*.  Checked
    here is only the printed valuation: the primitive weights w of x[:n]
    must give w(I) / w(1) = t*, else `InternalError`.
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
    if res.status != "optimal":
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
    return Fraction(1) / s_star, FacetInequality(weights, offset)
