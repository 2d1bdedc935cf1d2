"""Skew Waldschmidt constants: exact values per rule, the body LP for
composite rules, and validation."""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from fthresh import (
    BinomialSum,
    CeilingPower,
    Filtration,
    IntegralClosurePowers,
    IntersectionFiltration,
    MonomialIdeal,
    OrdinaryPowers,
    PrimePowerIntersection,
    ProductFiltration,
    SymbolicSquarefree,
    UnsupportedInputError,
    filtration_from_json,
    newton_polyhedron,
    skew_waldschmidt,
    solve_lp,
)

from conftest import random_ideal

F = Fraction
xy = MonomialIdeal.from_exponents

TRIANGLE = xy(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])


def test_validation():
    f = OrdinaryPowers(xy(2, [[1, 1]]))
    with pytest.raises(UnsupportedInputError):
        skew_waldschmidt([1], f)
    with pytest.raises(UnsupportedInputError):
        skew_waldschmidt([1, -1], f)
    with pytest.raises(UnsupportedInputError):
        skew_waldschmidt([0, 0], f)
    with pytest.raises(UnsupportedInputError):
        skew_waldschmidt([1, 1], OrdinaryPowers(MonomialIdeal.zero(2)))


def test_ordinary_exact():
    res = skew_waldschmidt([1, 1], OrdinaryPowers(xy(2, [[2, 0], [0, 3]])))
    assert res.exact == 2 and res.method == "ordinary_exact"
    assert res.lower == res.upper == 2
    # skew weights pick a different supporting generator
    res = skew_waldschmidt([F(1, 2), 5], OrdinaryPowers(xy(2, [[2, 0], [0, 3]])))
    assert res.exact == 1


def test_symbolic_lp_all_ones():
    res = skew_waldschmidt([1, 1, 1], SymbolicSquarefree(TRIANGLE))
    assert res.exact == F(3, 2) and res.method == "symbolic_lp"
    # upper bound for the symbolic threshold: v(xyz)/vhat = 3/(3/2) = height
    assert F(3) / res.exact == 2


def test_symbolic_lp_prime_indicator_is_one():
    # the valuation v_P counting degrees along one minimal prime has
    # skew Waldschmidt constant exactly 1 on the symbolic filtration
    f = SymbolicSquarefree(TRIANGLE)
    for prime in f.primes:
        w = [1 if j in prime else 0 for j in range(3)]
        assert skew_waldschmidt(w, f).exact == 1


def test_prime_power_lp():
    f = PrimePowerIntersection(3, [(frozenset({0, 1}), 2), (frozenset({2}), 3)])
    res = skew_waldschmidt([1, 1, 1], f)
    # min x0+x1+x2 with x0+x1 >= 2, x2 >= 3
    assert res.exact == 5 and res.method == "prime_power_lp"


def test_integral_closure_newton_lp():
    res = skew_waldschmidt([1, 1], IntegralClosurePowers(xy(2, [[2, 0], [0, 3]])))
    # min x+y over 3x+2y >= 6, x,y >= 0 sits at the vertex (2,0)
    assert res.exact == 2 and res.method == "closure_exact"
    # the Rees facet normal itself is the tight valuation for C^m
    res = skew_waldschmidt([3, 2], IntegralClosurePowers(xy(2, [[2, 0], [0, 3]])))
    assert res.exact == 6
    assert F(3 + 2) / res.exact == F(5, 6)


def _facet_lp_vhat(weights, ideal):
    """The retired route, kept as an oracle: min <w, x> over the Newton
    polyhedron given by its essential facets."""
    cons = [(list(f.normal), ">=", f.offset) for f in newton_polyhedron(ideal).essential]
    res = solve_lp(list(weights), cons, sense="min")
    assert res.status == "optimal"
    return res.value


def test_integral_closure_vhat_matches_facet_lp(rng):
    for _ in range(60):
        n = rng.randint(1, 4)
        ideal = random_ideal(rng, n, max_gens=4, max_exp=4)
        weights = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
        if not any(weights):
            weights[rng.randrange(n)] = F(1)
        res = skew_waldschmidt(weights, IntegralClosurePowers(ideal))
        assert res.exact == _facet_lp_vhat(weights, ideal), (ideal, weights)
        assert res.lower == res.upper == res.exact


def test_ceiling_exact():
    res = skew_waldschmidt([1, 2], CeilingPower(MonomialIdeal.maximal(2), F(5, 3)))
    assert res.exact == F(5, 3) and res.method == "ceiling_exact"


def test_product_and_binomial():
    a = OrdinaryPowers(xy(2, [[1, 0]]))
    b = OrdinaryPowers(xy(2, [[0, 2]]))
    # product body (1, 2) + R^2_+; binomial-sum body conv((1, 0), (0, 2)) + R^2_+
    prod = skew_waldschmidt([1, 1], ProductFiltration(a, b))
    assert prod.exact == 3 and prod.method == "body_lp"
    bs = skew_waldschmidt([1, 1], BinomialSum(a, b))
    assert bs.exact == 1 and bs.method == "body_lp"
    assert skew_waldschmidt([2, 1], BinomialSum(a, b)).exact == 2


def test_intersection_bracket_pinches():
    f = IntersectionFiltration(
        OrdinaryPowers(xy(1, [[2]])), OrdinaryPowers(xy(1, [[3]]))
    )
    res = skew_waldschmidt([1], f)
    assert res.method == "body_lp"
    assert res.lower == res.upper == res.exact == 3


def test_intersection_bracket_sound_when_open():
    f = IntersectionFiltration(
        SymbolicSquarefree(TRIANGLE), OrdinaryPowers(MonomialIdeal.maximal(3))
    )
    res = skew_waldschmidt([1, 1, 1], f)
    # the symbolic body {pair sums >= 1} lies inside {sum >= 1}
    assert res.exact == F(3, 2) and res.method == "body_lp"
    # vhat = inf v(a_r)/r, attained at even levels by (x1 x2 x3)^(r/2)
    for r in range(1, 7):
        assert f.level(r).valuation([1, 1, 1]) >= res.exact * r
    assert f.level(6).valuation([1, 1, 1]) == res.exact * 6


def test_veronese_level():
    # an annotation is answered as its base, never through the assertion
    base = OrdinaryPowers(xy(2, [[2, 0], [0, 3]]))
    annotated = filtration_from_json(
        {"rule": "veronese", "base": base.to_json(), "degree": 3}
    )
    res = skew_waldschmidt([1, 1], annotated)
    assert res.exact == 2 and res.method == "ordinary_exact"
    assert res.exact == base.level(3).valuation([1, 1]) / 3


@dataclass(frozen=True)
class _DoubledMaximal(Filtration):
    """a_r = m^{2r}; deliberately not one of the shipped rules."""

    nvars: int

    def _level_impl(self, r):
        return MonomialIdeal.maximal(self.nvars).power(2 * r)

    def witness_level(self, u):
        return u.degree() // 2

    def to_json(self):
        return {"rule": "test_doubled", "nvars": self.nvars}

    def embed(self, nvars, offset=0):
        raise NotImplementedError

    @property
    def rule(self):
        return "test_doubled"


def test_generic_fallback_sampled():
    # a rule with no Newton body gets a typed error
    with pytest.raises(UnsupportedInputError, match="_DoubledMaximal"):
        skew_waldschmidt([1, 1], _DoubledMaximal(2))
    with pytest.raises(UnsupportedInputError, match="_DoubledMaximal"):
        skew_waldschmidt([1, 1], ProductFiltration(_DoubledMaximal(2), _DoubledMaximal(2)))
