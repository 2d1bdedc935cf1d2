"""Monomial and MonomialIdeal arithmetic against small independent oracles."""

import gc
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fthresh import (
    AmbientMismatchError,
    Monomial,
    MonomialIdeal,
    SizeGuardError,
    minimal_transversals,
)
from fthresh.monomial import _max_power_cached, _minimalize, max_power_membership

from conftest import naive_power_member, random_ideal

xy = MonomialIdeal.from_exponents
m = Monomial


def test_monomial_basics():
    u = m([2, 0, 1])
    v = m([1, 1, 0])
    assert str(u) == "x1^2*x3"
    assert str(m([0, 0, 0])) == "1"
    assert u.degree() == 3
    assert u.support() == frozenset({0, 2})
    assert (u * v).exps == (3, 1, 1)
    assert u.power(3).exps == (6, 0, 3)
    assert u.lcm(v).exps == (2, 1, 1)
    assert v.divides(u * v) and not u.divides(v)
    assert u.quotient(m([1, 0, 1])).exps == (1, 0, 0)
    assert u.weighted_value([Fraction(1), Fraction(2), Fraction(3)]) == 5


def test_monomial_ordering_and_embed():
    assert sorted([m([0, 2]), m([1, 0]), m([0, 1])]) == [m([0, 1]), m([0, 2]), m([1, 0])]
    assert m([2, 1]).embed(4, 1).exps == (0, 2, 1, 0)


def test_minimalization_and_predicates():
    ideal = xy(2, [[2, 0], [2, 1], [0, 3], [4, 4]])
    assert [g.exps for g in ideal.gens] == [(0, 3), (2, 0)]
    assert not ideal.is_unit() and not ideal.is_zero()
    assert MonomialIdeal.unit(2).is_unit()
    assert MonomialIdeal.zero(3).is_zero()
    assert MonomialIdeal.maximal(3).is_maximal_ideal()
    assert not xy(2, [[1, 0]]).is_maximal_ideal()
    assert xy(2, [[1, 1], [0, 1]]).is_square_free()
    assert not xy(2, [[2, 0]]).is_square_free()


def test_minimalize_matches_all_pairs_antichain():
    # lists dense in equal degrees and repeats, where the degree filter
    # skips the most divisibility tests
    rng = random.Random(1207)
    for _ in range(300):
        n = rng.randint(1, 4)
        pool = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 8))]
        gens = [m(rng.choice(pool)) for _ in range(rng.randint(0, 30))]
        want = sorted(
            {g for g in gens if not any(h != g and h.divides(g) for h in gens)},
            key=lambda g: g.exps,
        )
        assert list(_minimalize(gens)) == want, gens


def test_pure_power_maps():
    ideal = xy(3, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert ideal.pure_power_map() == {0: 2, 1: 3, 2: 5}
    assert xy(2, [[1, 1]]).pure_power_map() is None


def test_sum_product_intersect_colon():
    a = xy(2, [[2, 0]])
    b = xy(2, [[0, 3]])
    assert (a + b) == xy(2, [[2, 0], [0, 3]])
    assert (a * b) == xy(2, [[2, 3]])
    assert a.intersect(b) == xy(2, [[2, 3]])
    c = xy(2, [[2, 0], [1, 1]])
    assert c.power(2) == xy(2, [[4, 0], [3, 1], [2, 2]])


def test_bracket_power_and_radical():
    ideal = xy(2, [[2, 1], [0, 3]])
    assert ideal.bracket_power(4) == xy(2, [[8, 4], [0, 12]])
    assert ideal.radical() == xy(2, [[1, 1], [0, 1]]).radical() == xy(2, [[0, 1]])
    assert MonomialIdeal.zero(2).radical().is_zero()
    assert MonomialIdeal.unit(2).radical().is_unit()


def test_contains_and_ambient_mismatch():
    a = xy(2, [[1, 0]])
    b = xy(2, [[2, 1]])
    assert a.contains_ideal(b) and not b.contains_ideal(a)
    assert b <= a
    with pytest.raises(AmbientMismatchError):
        a.contains_ideal(xy(3, [[1, 0, 0]]))
    with pytest.raises(AmbientMismatchError):
        a + xy(3, [[1, 0, 0]])


def test_minimal_primes_and_heights():
    tri = xy(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    primes = tri.minimal_primes()
    assert sorted(sorted(p) for p in primes) == [[0, 1], [0, 2], [1, 2]]
    assert tri.height() == 2 and tri.big_height() == 2
    mixed = xy(3, [[1, 1, 0], [1, 0, 1]])  # (xy, xz) = (x) cap (y,z)
    assert mixed.height() == 1 and mixed.big_height() == 2
    # non-square-free ideals go through the radical
    assert xy(2, [[2, 0]]).height() == 1
    assert MonomialIdeal.maximal(5).height() == 5


def test_minimal_transversals_brute_force(rng):
    for _ in range(40):
        n = rng.randint(2, 6)
        sets = [
            frozenset(rng.sample(range(n), rng.randint(1, n)))
            for _ in range(rng.randint(1, 5))
        ]
        got = set(minimal_transversals(tuple(sets)))
        # oracle: all subsets, keep hitting sets, then prune non-minimal
        hitting = [
            frozenset(s)
            for mask in range(1 << n)
            if all((s := {j for j in range(n) if mask >> j & 1}) & e for e in sets)
        ]
        want = {h for h in hitting if not any(o < h for o in hitting)}
        assert got == want


def test_membership_level_against_naive(rng):
    for _ in range(30):
        n = rng.randint(1, 3)
        ideal = random_ideal(rng, n, max_gens=3, max_exp=3)
        u = tuple(rng.randint(0, 8) for _ in range(n))
        level = ideal.membership_level(Monomial(u))
        assert level is not None
        if level > 0:
            assert naive_power_member(ideal, u, level)
        assert not naive_power_member(ideal, u, level + 1)


def test_membership_level_pure_power_closed_form():
    ideal = xy(3, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    u = Monomial([7, 7, 7])
    assert ideal.membership_level(u) == 7 // 2 + 7 // 3 + 7 // 5
    assert MonomialIdeal.unit(2).membership_level(m([1, 1])) is None
    assert MonomialIdeal.zero(2).membership_level(m([1, 1])) == 0


def test_max_power_membership_matches_method(rng):
    for _ in range(20):
        ideal = random_ideal(rng, 2, max_gens=3, max_exp=3)
        u = tuple(rng.randint(0, 10) for _ in range(2))
        assert max_power_membership(ideal, Monomial(u)) == ideal.membership_level(
            Monomial(u)
        )


def test_membership_call_leaves_no_garbage():
    """The DP memo is freed on return, not left in a reference cycle for
    the garbage collector."""
    ideal = xy(2, [[1, 1], [2, 0], [0, 3]])
    _max_power_cached.cache_clear()
    gc.collect()
    gc.disable()
    try:
        assert max_power_membership(ideal, m([37, 41])) == 38
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_deep_membership_raises_size_guard():
    ideal = xy(2, [[1, 1], [2, 0], [0, 3]])
    with pytest.raises(SizeGuardError):
        max_power_membership(ideal, m([2**12 - 1, 2**12 - 1]))


def _component_ideal(nvars, b):
    return xy(nvars, [[b[i] if j == i else 0 for j in range(nvars)] for i in range(nvars) if b[i]])


def test_irreducible_components_hand_cases():
    # (x1^2, x1 x2, x2^3) = (x1, x2^3) cap (x1^2, x2)
    assert xy(2, [[2, 0], [1, 1], [0, 3]]).irreducible_components() == (
        (frozenset({0, 1}), (1, 3)),
        (frozenset({0, 1}), (2, 1)),
    )
    # (x1 x2, x2 x3) = (x1, x3) cap (x2): not m-primary
    assert xy(3, [[1, 1, 0], [0, 1, 1]]).irreducible_components() == (
        (frozenset({0, 2}), (1, 0, 1)),
        (frozenset({1}), (0, 1, 0)),
    )
    # (x1^2 x2) = (x1^2) cap (x2)
    assert xy(2, [[2, 1]]).irreducible_components() == (
        (frozenset({0}), (2, 0)),
        (frozenset({1}), (0, 1)),
    )
    pure = xy(3, [[0, 2, 0], [0, 0, 3]])
    assert pure.irreducible_components() == ((frozenset({1, 2}), (0, 2, 3)),)
    assert MonomialIdeal.unit(2).irreducible_components() == ()
    assert MonomialIdeal.zero(2).irreducible_components() == ((frozenset(), (0, 0)),)


def test_irreducible_components_intersect_irredundantly(rng):
    for _ in range(60):
        n = rng.randint(1, 4)
        ideal = random_ideal(rng, n, max_gens=4, max_exp=3)
        comps = ideal.irreducible_components()
        parts = []
        for keep, b in comps:
            assert keep == frozenset(i for i in range(n) if b[i])
            parts.append(_component_ideal(n, b))
        assert reduce(MonomialIdeal.intersect, parts) == ideal
        for j in range(len(parts)):
            others = parts[:j] + parts[j + 1 :]
            if others:
                assert reduce(MonomialIdeal.intersect, others) != ideal


def test_restrict_sets_variables_to_one():
    ideal = xy(3, [[2, 1, 0], [0, 1, 3], [1, 0, 1]])
    assert ideal.restrict(frozenset({0, 2})) == xy(3, [[2, 0, 0], [0, 0, 3], [1, 0, 1]])
    assert ideal.restrict(frozenset({1})).is_unit()
    assert ideal.restrict(frozenset({0, 1, 2})) == ideal


def test_valuation():
    ideal = xy(2, [[2, 0], [0, 3]])
    w = [Fraction(3), Fraction(2)]
    assert ideal.valuation(w) == 6
    assert MonomialIdeal.unit(2).valuation(w) == 0


def test_json_round_trip():
    ideal = xy(2, [[2, 1], [0, 3]])
    data = ideal.to_json()
    assert data == {"vars": 2, "generators": [[0, 3], [2, 1]]}
    assert MonomialIdeal.from_exponents(data["vars"], data["generators"]) == ideal


small_exps = st.lists(st.integers(0, 3), min_size=2, max_size=2)


@st.composite
def ideals(draw):
    gens = draw(st.lists(small_exps, min_size=1, max_size=3))
    gens = [g for g in gens if any(g)] or [[1, 1]]
    return MonomialIdeal.from_exponents(2, gens)


@settings(max_examples=60, deadline=None)
@given(ideals(), ideals(), small_exps)
def test_product_inside_intersection(a, b, exps):
    u = Monomial(exps)
    prod, inter = a * b, a.intersect(b)
    assert inter.contains_ideal(prod)
    assert inter.contains_monomial(u) == (a.contains_monomial(u) and b.contains_monomial(u))
    assert (a + b).contains_monomial(u) == (a.contains_monomial(u) or b.contains_monomial(u))


@settings(max_examples=60, deadline=None)
@given(ideals(), st.integers(2, 5), small_exps)
def test_bracket_power_floor_rule(a, q, exps):
    u = Monomial(exps)
    big = Monomial([e * q + r for e, r in zip(exps, [q - 1, 1])])
    floored = Monomial([e // q for e in big.exps])
    assert a.bracket_power(q).contains_monomial(big) == a.contains_monomial(floored)
    assert u.power(q).exps == tuple(e * q for e in exps)


@settings(max_examples=40, deadline=None)
@given(ideals())
def test_radical_idempotent_and_contains(a):
    r = a.radical()
    assert r.radical() == r
    assert r.contains_ideal(a)
    assert r.is_square_free()
