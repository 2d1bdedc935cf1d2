"""Skew Waldschmidt constants of filtrations.

For a monomial valuation v (a nonnegative weight vector) and a filtration
a_bullet, the skew Waldschmidt constant is

    vhat(a_bullet) = inf_r v(a_r) / r = lim_r v(a_r) / r

(the limit exists by Fekete subadditivity, since v(a_i * a_j) =
v(a_i) + v(a_j) and a_i a_j subseteq a_{i+j}).  When vhat > 0 it yields
the exact upper bound C^m(a_bullet) <= v(x1..xn)/vhat.

Exact values, one route per rule.  Ordinary, integral-closure and
ceiling powers keep their closed forms:

* ordinary powers of I:            vhat = v(I)
* integral-closure powers:         vhat = v(I), since v(closure of I^r) =
                                   r * min of v over NP(I) = r * v(I)
                                   (a linear form with v >= 0 attains its
                                   minimum over conv(G) + R^n_{>=0} at a
                                   generator)
* ceiling powers I^{ceil(beta r)}: beta * v(I)

Every other rule gets vhat = min { <v, u> : u in P(a_bullet) }, one
certified LP over the limiting Newton body (`body.py`).  For symbolic
powers and prime-power intersections this is the covering LP
min v.x s.t. sum_{j in S} x_j >= w_S over their primes (method tags
`symbolic_lp` and `prime_power_lp`); products, intersections and
binomial sums are tagged `body_lp`.  A Veronese annotation is answered
as its base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import body
from .errors import UnsupportedInputError
from .filtration import (
    CeilingPower,
    Filtration,
    IntegralClosurePowers,
    OrdinaryPowers,
    PrimePowerIntersection,
    SymbolicSquarefree,
    VeroneseAnnotation,
)

__all__ = ["WaldschmidtResult", "skew_waldschmidt"]

# the body LP of these base rules is the covering LP over their primes
_LP_METHODS = {SymbolicSquarefree: "symbolic_lp", PrimePowerIntersection: "prime_power_lp"}


@dataclass(frozen=True)
class WaldschmidtResult:
    weights: tuple[Fraction, ...]
    exact: Fraction
    method: str

    # every route is exact, so the certified bounds are the value itself
    @property
    def lower(self) -> Fraction:
        return self.exact

    @property
    def upper(self) -> Fraction:
        return self.exact

    def to_json(self) -> dict:
        return {
            "weights": [str(w) for w in self.weights],
            "lower": str(self.exact),
            "upper": str(self.exact),
            "exact": str(self.exact),
            "method": self.method,
        }


def skew_waldschmidt(
    weights: Sequence[Fraction | int],
    filtration: Filtration,
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
    while isinstance(f, VeroneseAnnotation):
        f = f.base

    if isinstance(f, OrdinaryPowers) and not f.ideal.is_zero():
        return WaldschmidtResult(w, f.ideal.valuation(w), "ordinary_exact")

    if isinstance(f, IntegralClosurePowers):
        return WaldschmidtResult(w, f.ideal.valuation(w), "closure_exact")

    if isinstance(f, CeilingPower):
        return WaldschmidtResult(w, f.beta * f.ideal.valuation(w), "ceiling_exact")

    value = body.waldschmidt(f, w)
    if value is None:
        raise UnsupportedInputError("Waldschmidt of the zero filtration")
    method = _LP_METHODS.get(type(f), "body_lp")
    return WaldschmidtResult(w, value, method)
