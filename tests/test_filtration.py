"""Filtration rules: generator levels vs closed-form witness levels,
axioms, admissibility witnesses, and JSON round trips."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from fthresh import (
    BinomialSum,
    CeilingPower,
    IntegralClosurePowers,
    IntersectionFiltration,
    Monomial,
    MonomialIdeal,
    OrdinaryPowers,
    PrimePowerIntersection,
    ProductFiltration,
    SizeGuardError,
    SymbolicSquarefree,
    UnsupportedInputError,
    UnsupportedSymbolicPowerError,
    filtration_from_json,
    symbolic_filtration,
)
from fthresh.filtration import MAX_DEPTH

from conftest import (
    admissibility,
    is_admissible_witness,
    random_filtration,
    random_ideal,
    random_squarefree_ideal,
    verify_filtration_axioms,
)

F = Fraction
xy = MonomialIdeal.from_exponents

TRIANGLE = xy(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])


def sample_filtrations():
    """One representative per rule, shared by several suites."""
    m2 = MonomialIdeal.maximal(2)
    return [
        OrdinaryPowers(xy(2, [[2, 0], [1, 1]])),
        SymbolicSquarefree(TRIANGLE),
        PrimePowerIntersection(
            3, [(frozenset({0, 1}), 1), (frozenset({1, 2}), 2)]
        ),
        IntegralClosurePowers(xy(2, [[2, 0], [0, 3]])),
        CeilingPower(m2, F(3, 2)),
        ProductFiltration(OrdinaryPowers(xy(2, [[1, 1]])), OrdinaryPowers(m2)),
        IntersectionFiltration(
            OrdinaryPowers(xy(2, [[2, 0]])), OrdinaryPowers(xy(2, [[0, 2]]))
        ),
        BinomialSum(OrdinaryPowers(xy(2, [[1, 0]])), OrdinaryPowers(xy(2, [[0, 2]]))),
        # what a veronese descriptor over m^bullet reads as
        OrdinaryPowers(m2),
    ]


def test_level_zero_is_unit():
    for f in sample_filtrations():
        assert f.level(0).is_unit()


def test_witness_level_matches_generator_levels(rng):
    """The central cross-check: witness_level (closed form) against raw
    membership in the materialized level ideals."""
    for f in sample_filtrations():
        for _ in range(12):
            u = Monomial([rng.randint(0, 7) for _ in range(f.nvars)])
            wl = f.witness_level(u)
            for r in range(0, min(wl, 14) + 1):
                assert f.level(r).contains_monomial(u), (f, u, r)
            assert not f.level(wl + 1).contains_monomial(u), (f, u, wl)


def test_member_agrees_with_level(rng):
    for f in sample_filtrations():
        for _ in range(8):
            u = Monomial([rng.randint(0, 5) for _ in range(f.nvars)])
            r = rng.randint(1, 10)
            assert f.member(r, u) == f.level(r).contains_monomial(u)


def test_symbolic_square_of_triangle():
    # second symbolic power: intersection of the squared edge primes
    second = SymbolicSquarefree(TRIANGLE).level(2)
    assert second == xy(3, [[1, 1, 1], [2, 2, 0], [0, 2, 2], [2, 0, 2]])
    # x*y*z is in the second symbolic power but not the ordinary square
    u = Monomial([1, 1, 1])
    assert second.contains_monomial(u)
    assert not TRIANGLE.power(2).contains_monomial(u)


def test_symbolic_rejects_non_squarefree():
    with pytest.raises(UnsupportedSymbolicPowerError):
        SymbolicSquarefree(xy(2, [[2, 0]]))


def test_symbolic_router():
    assert isinstance(symbolic_filtration(TRIANGLE), SymbolicSquarefree)
    assert isinstance(
        symbolic_filtration(xy(2, [[2, 0], [0, 3]])), OrdinaryPowers
    )
    with pytest.raises(UnsupportedSymbolicPowerError):
        symbolic_filtration(xy(2, [[2, 1]]))


def test_prime_power_intersection_levels():
    f = PrimePowerIntersection(3, [(frozenset({0, 1}), 1), (frozenset({1, 2}), 2)])
    # level r = (x,y)^r cap (y,z)^{2r}
    assert f.witness_level(Monomial([3, 3, 3])) == min(6, (3 + 3) // 2)
    assert f.level(1).contains_monomial(Monomial([1, 0, 2]))
    assert not f.level(2).contains_monomial(Monomial([0, 1, 0]))
    with pytest.raises(UnsupportedInputError):
        PrimePowerIntersection(2, [(frozenset(), 1)])
    with pytest.raises(UnsupportedInputError):
        PrimePowerIntersection(2, [(frozenset({0}), 0)])


def test_ceiling_power_levels():
    f = CeilingPower(MonomialIdeal.maximal(2), F(3, 2))
    # level r = m^{ceil(3r/2)}
    assert f.level(1) == MonomialIdeal.maximal(2).power(2)
    assert f.level(2) == MonomialIdeal.maximal(2).power(3)
    assert f.witness_level(Monomial([3, 3])) == 4  # floor(6 / (3/2))
    with pytest.raises(UnsupportedInputError):
        CeilingPower(MonomialIdeal.maximal(2), F(0))


def test_integral_closure_contains_ordinary(rng):
    base = xy(2, [[2, 0], [0, 3]])
    ord_, clo = OrdinaryPowers(base), IntegralClosurePowers(base)
    for _ in range(20):
        u = Monomial([rng.randint(0, 8), rng.randint(0, 8)])
        assert ord_.witness_level(u) <= clo.witness_level(u)
    for r in range(5):
        assert clo.level(r).contains_ideal(ord_.level(r))


def test_product_and_binomial_sum_levels():
    a = OrdinaryPowers(xy(2, [[1, 0]]))
    b = OrdinaryPowers(xy(2, [[0, 2]]))
    prod = ProductFiltration(a, b)
    assert prod.level(3) == xy(2, [[3, 6]])
    assert prod.witness_level(Monomial([4, 9])) == 4
    binom = BinomialSum(a, b)
    # level r = sum over i+j=r of (x^i y^{2j})
    assert binom.level(2) == xy(2, [[2, 0], [1, 2], [0, 4]])
    assert binom.witness_level(Monomial([1, 2])) == 2
    assert binom.witness_level(Monomial([0, 5])) == 2


def test_intersection_levels():
    f = IntersectionFiltration(
        OrdinaryPowers(xy(2, [[2, 0]])), OrdinaryPowers(xy(2, [[0, 2]]))
    )
    assert f.level(2) == xy(2, [[4, 4]])
    assert f.witness_level(Monomial([4, 7])) == 2


def test_veronese_annotation():
    # a veronese descriptor is read as its base; only its degree is checked
    base = OrdinaryPowers(MonomialIdeal.maximal(2))
    good = filtration_from_json({"rule": "veronese", "base": base.to_json(), "degree": 2})
    assert good == base
    assert good.level(3) == MonomialIdeal.maximal(2).power(3)
    bad = {"rule": "veronese", "base": SymbolicSquarefree(TRIANGLE).to_json(), "degree": 1}
    assert filtration_from_json(bad) == SymbolicSquarefree(TRIANGLE)
    for degree in (0, -1):
        with pytest.raises(UnsupportedInputError, match="degree must be >= 1"):
            filtration_from_json(dict(bad, degree=degree))
    with pytest.raises(UnsupportedInputError, match="degree"):
        filtration_from_json(dict(bad, degree="x"))


def test_axioms_up_to_level_12():
    for f in sample_filtrations():
        report = verify_filtration_axioms(f, 12)
        assert report.ok, (f, report)


def test_axioms_catch_violation():
    # a deliberately broken chain to prove the checker can fail:
    # level(1)^2 = m^2 is not inside level(2) = m^6
    class Broken(OrdinaryPowers):
        def level(self, r):
            if r == 0:
                return MonomialIdeal.unit(self.nvars)
            return self.ideal.power(1 if r == 1 else 3 * r)

    f = Broken(MonomialIdeal.maximal(2))
    report = verify_filtration_axioms(f, 4)
    assert not report.ok
    assert report.violations


def test_admissibility_witness():
    base = xy(2, [[2, 0], [1, 1]])
    f = OrdinaryPowers(base)
    h, c = admissibility(f)
    rep = is_admissible_witness(f, base, 2, h, c, k=1)
    assert rep.ok
    sym = SymbolicSquarefree(TRIANGLE)
    h, c = admissibility(sym)
    rep = is_admissible_witness(sym, TRIANGLE, 2, h, c, k=1)
    assert rep.ok
    # too-small constants must be caught
    rep = is_admissible_witness(sym, TRIANGLE, 2, 0, 0, k=1)
    assert not rep.ok


def test_zero_filtration_allowed():
    z = OrdinaryPowers(MonomialIdeal.zero(2))
    assert z.level(0).is_unit()
    assert z.level(3).is_zero()
    assert z.witness_level(Monomial([5, 5])) == 0
    with pytest.raises(UnsupportedInputError):
        OrdinaryPowers(MonomialIdeal.unit(2))


def test_restrict_commutes_with_levels(rng):
    """f.restrict(S).level(r) is the image of f.level(r) under x_j -> 1 for
    j outside S, and restrict returns None exactly when that image is the
    unit ideal, for every rule and every S."""
    filtrations = sample_filtrations() + [
        random_filtration(rng, rng.randint(1, 3)) for _ in range(40)
    ]
    kinds = set()
    for f in filtrations:
        kinds.add(type(f))
        n = f.nvars
        assert f.restrict(frozenset(range(n))) == f
        for size in range(n + 1):
            for keep in map(frozenset, combinations(range(n), size)):
                g = f.restrict(keep)
                for r in (1, 2, 3):
                    image = f.level(r).restrict(keep)
                    if g is None:
                        assert image.is_unit(), (f, keep, r)
                    else:
                        assert g.level(r) == image, (f, keep, r)
                        assert not image.is_unit()
    assert len(kinds) == 8


def test_json_round_trip_all_rules():
    for f in sample_filtrations():
        data = f.to_json()
        back = filtration_from_json(data)
        assert back == f
        assert back.to_json() == data
    with pytest.raises(UnsupportedInputError):
        filtration_from_json({"rule": "no-such-rule"})
    for not_an_object in ([1], "ordinary", 3, None):
        with pytest.raises(UnsupportedInputError):
            filtration_from_json(not_an_object)
    with pytest.raises(UnsupportedInputError):
        filtration_from_json({"rule": "product", "left": [1], "right": {}})


def test_embed_consistency():
    f = SymbolicSquarefree(TRIANGLE)
    g = f.embed(5, 1)
    assert g.nvars == 5
    u = Monomial([2, 2, 2])
    assert g.witness_level(u.embed(5, 1)) == f.witness_level(u)


def test_composite_nesting_is_bounded():
    m2 = OrdinaryPowers(MonomialIdeal.maximal(2))
    f = m2
    for _ in range(MAX_DEPTH - 1):
        f = ProductFiltration(f, m2)
    assert f.depth == MAX_DEPTH
    assert filtration_from_json(f.to_json()) == f
    for deeper in (
        lambda: ProductFiltration(m2, f),
        lambda: IntersectionFiltration(f, m2),
        lambda: BinomialSum(f, m2),
    ):
        with pytest.raises(SizeGuardError):
            deeper()
