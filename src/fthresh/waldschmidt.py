"""Skew Waldschmidt constants of filtrations.

For a monomial valuation v (a nonnegative weight vector) and a filtration
a_bullet, the skew Waldschmidt constant is

    vhat(a_bullet) = inf_r v(a_r) / r = lim_r v(a_r) / r

(the limit exists by Fekete subadditivity, since v(a_i * a_j) =
v(a_i) + v(a_j) and a_i a_j subseteq a_{i+j}).  When vhat > 0 it yields
the exact upper bound C^m(a_bullet) <= v(x1..xn)/vhat.

Exact values per rule (all by the scaling argument: the level-r minimum
is an integer program whose LP relaxation scales linearly in r, and the
optimal rational point becomes integral after clearing denominators):

* ordinary powers of I:            vhat = v(I)
* symbolic powers (square-free):   LP  min v.x  s.t. sum_{j in P} x_j >= 1
                                   over the minimal primes P
* prime-power intersections:       same LP with right-hand sides w_i
* integral-closure powers:         vhat = v(I), since v(closure of I^r) =
                                   r * min of v over NP(I) = r * v(I)
                                   (a linear form with v >= 0 attains its
                                   minimum over conv(G) + R^n_{>=0} at a
                                   generator)
* ceiling powers I^{ceil(beta r)}: beta * v(I)
* products:                        sum of the factors' exact values
* binomial sums:                   min of the two exact values
* Veronese-verified filtrations:   v(a_d)/d (annotation checked for
                                   k <= VERONESE_VERIFY_DEPTH)

Intersections only get a certified bracket (max of the components from
below, sampled level ratios from above); the generic fallback reports the
sampled upper bound with the trivial certified lower bound 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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

__all__ = ["WaldschmidtResult", "skew_waldschmidt"]


@dataclass(frozen=True)
class WaldschmidtResult:
    weights: tuple[Fraction, ...]
    lower: Fraction  # certified: vhat >= lower
    upper: Fraction | None  # certified: vhat <= upper (None if not sampled)
    exact: Fraction | None
    method: str

    def to_json(self) -> dict:
        return {
            "weights": [str(w) for w in self.weights],
            "lower": str(self.lower),
            "upper": None if self.upper is None else str(self.upper),
            "exact": None if self.exact is None else str(self.exact),
            "method": self.method,
        }


def _exact(weights, value: Fraction, method: str) -> WaldschmidtResult:
    return WaldschmidtResult(weights, value, value, value, method)


def _covering_lp(
    weights: Sequence[Fraction],
    nvars: int,
    rows: Sequence[tuple[frozenset[int], int]],
) -> Fraction:
    cons = []
    for supp, rhs in rows:
        coeffs = [1 if j in supp else 0 for j in range(nvars)]
        cons.append((coeffs, ">=", rhs))
    res = solve_lp(list(weights), cons, sense="min")
    if res.value is None:
        raise InternalError(f"covering LP is {res.status}, not optimal")
    return res.value


def skew_waldschmidt(
    weights: Sequence[Fraction | int],
    filtration: Filtration,
    horizon: int = 6,
) -> WaldschmidtResult:
    """vhat for a monomial valuation given by nonnegative weights."""
    w = tuple(Fraction(x) for x in weights)
    if len(w) != filtration.nvars:
        raise UnsupportedInputError("weight vector length != number of variables")
    if any(x < 0 for x in w):
        raise UnsupportedInputError("valuation weights must be >= 0")
    if all(x == 0 for x in w):
        raise UnsupportedInputError("zero weight vector is not a valuation")

    f = filtration
    if isinstance(f, VeroneseAnnotation):
        if f.verify():
            val = f.base.level(f.degree).valuation(w) / f.degree
            return _exact(w, val, "veronese_level")
        f = f.base  # fall through to the base rule

    if isinstance(f, OrdinaryPowers):
        if f.ideal.is_zero():
            raise UnsupportedInputError("Waldschmidt of the zero filtration")
        return _exact(w, f.ideal.valuation(w), "ordinary_exact")

    if isinstance(f, SymbolicSquarefree):
        rows = [(p, 1) for p in f.primes]
        return _exact(w, _covering_lp(w, f.nvars, rows), "symbolic_lp")

    if isinstance(f, PrimePowerIntersection):
        rows = [(supp, wt) for supp, wt in f.components]
        return _exact(w, _covering_lp(w, f.nvars, rows), "prime_power_lp")

    if isinstance(f, IntegralClosurePowers):
        return _exact(w, f.ideal.valuation(w), "closure_exact")

    if isinstance(f, CeilingPower):
        return _exact(w, f.beta * f.ideal.valuation(w), "ceiling_exact")

    if isinstance(f, ProductFiltration):
        a = skew_waldschmidt(w, f.left, horizon)
        b = skew_waldschmidt(w, f.right, horizon)
        if a.exact is not None and b.exact is not None:
            return _exact(w, a.exact + b.exact, "product_sum")
        upper = None
        if a.upper is not None and b.upper is not None:
            upper = a.upper + b.upper
        return WaldschmidtResult(w, a.lower + b.lower, upper, None, "product_bracket")

    if isinstance(f, BinomialSum):
        a = skew_waldschmidt(w, f.left, horizon)
        b = skew_waldschmidt(w, f.right, horizon)
        if a.exact is not None and b.exact is not None:
            return _exact(w, min(a.exact, b.exact), "binomial_min")
        upper = None
        if a.upper is not None and b.upper is not None:
            upper = min(a.upper, b.upper)
        return WaldschmidtResult(
            w, min(a.lower, b.lower), upper, None, "binomial_bracket"
        )

    if isinstance(f, IntersectionFiltration):
        a = skew_waldschmidt(w, f.left, horizon)
        b = skew_waldschmidt(w, f.right, horizon)
        lower = max(a.lower, b.lower)
        upper = _sampled_upper(w, f, horizon)
        exact = lower if upper is not None and lower == upper else None
        return WaldschmidtResult(w, lower, upper, exact, "intersection_bracket")

    # generic fallback: sound trivial lower bound, sampled upper bound
    return WaldschmidtResult(w, Fraction(0), _sampled_upper(w, f, horizon), None, "sampled")


def _sampled_upper(
    w: tuple[Fraction, ...], filtration: Filtration, horizon: int
) -> Fraction | None:
    best: Fraction | None = None
    for r in range(1, horizon + 1):
        lvl = filtration.level(r)
        if lvl.is_zero():
            return None  # zero level: v(a_r) = +infinity, no information
        val = lvl.valuation(w) / r
        if best is None or val < best:
            best = val
    return best
