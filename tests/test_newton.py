"""Newton polyhedra: facet enumeration (against the enumerate-then-prune
oracle), integral-closure membership with verified rational certificates,
and the threshold LP."""

import itertools
from fractions import Fraction
from math import lcm, prod

import pytest

from fthresh import newton
from fthresh import (
    AmbientMismatchError,
    Monomial,
    MonomialIdeal,
    SizeGuardError,
    UnsupportedInputError,
    integral_closure_contains,
    integral_closure_generators,
    integral_closure_level,
    newton_polyhedron,
    rees_valuations,
    solve_lp,
    threshold_lp,
)
from fthresh.hypergraph import Hypergraph, cover_ideal, edge_ideal

from conftest import pruned_facets, random_ideal

F = Fraction
xy = MonomialIdeal.from_exponents


def facets(ideal):
    return sorted((f.normal, f.offset) for f in rees_valuations(ideal))


def test_known_facets():
    assert facets(xy(2, [[2, 0], [0, 3]])) == [((3, 2), 6)]
    assert facets(xy(2, [[2, 0], [1, 1], [0, 2]])) == [((1, 1), 2)]
    assert facets(xy(3, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == [((15, 10, 6), 30)]
    assert facets(MonomialIdeal.maximal(4)) == [((1, 1, 1, 1), 1)]
    # interior generator must not disturb the facet set
    assert facets(xy(2, [[2, 0], [0, 3], [3, 3]])) == [((3, 2), 6)]


def test_two_facet_example():
    # (x^3, xy, y^2): lower hull has two essential facets
    got = facets(xy(2, [[3, 0], [1, 1], [0, 2]]))
    assert got == [((1, 1), 2), ((1, 2), 3)]


def test_facets_reject_degenerate_ideals():
    with pytest.raises(UnsupportedInputError):
        rees_valuations(MonomialIdeal.zero(2))
    with pytest.raises(UnsupportedInputError):
        rees_valuations(MonomialIdeal.unit(2))


def test_tight_candidates_match_pruned_oracle(rng):
    graphs = [Hypergraph.cycle(5), Hypergraph.cycle(6), Hypergraph.complete(4)]
    ideals = [ideal(g) for g in graphs for ideal in (edge_ideal, cover_ideal)]
    for _ in range(80):
        n = rng.randint(1, 4)
        ideals.append(random_ideal(rng, n, max_gens=6, max_exp=3))
    for _ in range(20):
        ideals.append(random_ideal(rng, 5, max_gens=5, max_exp=3))
    for ideal in ideals:
        assert newton_polyhedron(ideal).essential == pruned_facets(ideal), ideal


def _leibniz_det(rows):
    """Sum over permutations, each signed by its inversion count."""
    k = len(rows)
    total = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(k), 2))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(k))
    return total


def test_bareiss_det_matches_leibniz(rng):
    for trial in range(400):
        k = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(k)]
        if trial % 4 == 1 and k > 1:
            # a repeated row
            rows[rng.randrange(k)] = rows[rng.randrange(k)][:]
        elif trial % 4 == 2 and k > 1:
            # a row that is an integer combination of two others
            a, b, c = (rng.randrange(k) for _ in range(3))
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[c] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
        elif trial % 4 == 3:
            # sparse rows, so zero pivots force row swaps
            rows = [[x if rng.random() < 0.4 else 0 for x in r] for r in rows]
        assert newton._det(rows) == _leibniz_det(rows), rows
    assert newton._det([[0, 1], [1, 0]]) == -1
    assert newton._det([[2, 4], [1, 2]]) == 0


def test_facets_need_no_lp(monkeypatch):
    class _LPCalled(Exception):
        pass

    def refuse(*args, **kwargs):
        raise _LPCalled("solve_lp called")

    bindings = [name for name, value in vars(newton).items() if value is solve_lp]
    assert bindings
    for name in bindings:
        monkeypatch.setattr(newton, name, refuse)
    newton.newton_polyhedron.cache_clear()
    try:
        ideal = xy(3, [[3, 0, 0], [1, 1, 0], [0, 2, 1], [0, 0, 4]])
        oracle = pruned_facets(ideal)
        assert rees_valuations(ideal) == oracle
        u = Monomial([2, 2, 2])
        assert integral_closure_level(ideal, u) == min(
            f.value(u) // f.offset for f in oracle
        )
        assert integral_closure_generators(ideal, 1).contains_monomial(
            Monomial([1, 1, 0])
        )
        with pytest.raises(_LPCalled):
            threshold_lp(ideal)
    finally:
        newton.newton_polyhedron.cache_clear()


def test_newton_polyhedron_membership():
    np_ = newton_polyhedron(xy(2, [[2, 0], [0, 3]]))
    assert np_.contains_point([F(2), F(0)])
    assert np_.contains_point([F(1), F(3, 2)])
    assert not np_.contains_point([F(1), F(1)])
    assert not np_.contains_point([F(5), F(-1)])


def test_size_guard_falls_back_to_lp():
    big = edge_ideal(Hypergraph.petersen())
    with pytest.raises(SizeGuardError):
        rees_valuations(big)
    value, facet = threshold_lp(big)
    assert value == F(5)
    assert sum(facet.normal) / F(facet.offset) == F(5)


def test_threshold_lp_equals_facet_route(rng):
    graphs = [Hypergraph.cycle(5), Hypergraph.cycle(6), Hypergraph.complete(4)]
    ideals = [edge_ideal(g) for g in graphs]
    for _ in range(100):
        n = rng.randint(2, 4)
        ideals.append(random_ideal(rng, n, max_gens=5, max_exp=4))
    for ideal in ideals:
        facet_min = min(
            F(sum(f.normal), f.offset) for f in rees_valuations(ideal)
        )
        lp_value, cert = threshold_lp(ideal)
        assert lp_value == facet_min, ideal
        assert F(sum(cert.normal), cert.offset) == lp_value


def test_threshold_lp_solves_one_lp(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(newton, "solve_lp", counted)
    for ideal in (
        xy(2, [[2, 0], [0, 3]]),
        xy(3, [[3, 0, 0], [1, 1, 0], [0, 2, 1], [0, 0, 4]]),
        edge_ideal(Hypergraph.petersen()),
    ):
        calls.clear()
        threshold_lp(ideal)
        assert len(calls) == 1, ideal


def _closure_certificates(ideal, u, r):
    """Independent oracle: solve max sum(lam) s.t. sum lam_i g_i <= u
    exactly, then VERIFY the resulting certificate by hand. Returns the
    membership verdict."""
    gens = [g.exps for g in ideal.gens]
    n = ideal.nvars
    objective = [F(1)] * len(gens)
    constraints = []
    for j in range(n):
        row = [F(g[j]) for g in gens]
        constraints.append((row, "<=", F(u[j])))
    res = solve_lp(objective, constraints, sense="max")
    assert res.status == "optimal"
    if res.value >= r:
        # scale lambda down to total exactly r, clear denominators, and
        # check the integer multiset certificate u^k in I^{rk}
        lam = [x * F(r) / res.value for x in res.x]
        k = lcm(*(x.denominator for x in lam), 1)
        counts = [int(x * k) for x in lam]
        assert sum(counts) == r * k
        for j in range(n):
            assert sum(c * g[j] for c, g in zip(counts, gens)) <= k * u[j]
        return True
    # dual certificate: weights y >= 0 with y(g_i) >= 1 for all i but
    # y(u) < r: a monomial valuation separating u from the closure
    y = res.duals
    assert all(d >= 0 for d in y)
    for g in gens:
        assert sum(a * b for a, b in zip(y, g)) >= 1
    assert sum(a * b for a, b in zip(y, u)) == res.value < r
    return False


def test_integral_closure_against_certified_oracle(rng):
    for _ in range(25):
        n = rng.randint(2, 3)
        ideal = random_ideal(rng, n, max_gens=4, max_exp=3)
        for _ in range(6):
            u = tuple(rng.randint(0, 6) for _ in range(n))
            for r in (1, 2, 3):
                lib = integral_closure_contains(ideal, r, Monomial(u))
                assert lib == _closure_certificates(ideal, u, r)


def test_integral_closure_level_consistency(rng):
    for _ in range(15):
        n = rng.randint(2, 3)
        ideal = random_ideal(rng, n, max_gens=3, max_exp=3)
        u = tuple(rng.randint(0, 9) for _ in range(n))
        lvl = integral_closure_level(ideal, Monomial(u))
        if lvl > 0:
            assert integral_closure_contains(ideal, lvl, Monomial(u))
        assert not integral_closure_contains(ideal, lvl + 1, Monomial(u))
        # the ordinary membership level never exceeds the closure level
        assert ideal.membership_level(Monomial(u)) <= lvl


def test_integral_closure_generators():
    # closure of (x^2, y^2) picks up xy
    ideal = xy(2, [[2, 0], [0, 2]])
    assert integral_closure_generators(ideal, 1) == xy(2, [[2, 0], [1, 1], [0, 2]])
    # closure of a normal ideal is itself
    mx = MonomialIdeal.maximal(2)
    assert integral_closure_generators(mx, 3) == mx.power(3)
    # and membership in the generated ideal matches polyhedral membership
    ideal2 = xy(2, [[3, 0], [0, 4]])
    closure2 = integral_closure_generators(ideal2, 2)
    for a in range(0, 9):
        for b in range(0, 10):
            u = Monomial([a, b])
            assert closure2.contains_monomial(u) == integral_closure_contains(
                ideal2, 2, u
            )


def test_integral_closure_checks_ring_and_power():
    ideal = xy(2, [[1, 1]])
    with pytest.raises(AmbientMismatchError):
        integral_closure_level(ideal, Monomial([1, 1, 1]))
    with pytest.raises(AmbientMismatchError):
        integral_closure_contains(ideal, 1, Monomial([1]))
    for call in (
        lambda: integral_closure_generators(ideal, -1),
        lambda: integral_closure_contains(ideal, -1, Monomial([1, 1])),
    ):
        with pytest.raises(UnsupportedInputError, match="negative power"):
            call()
    assert integral_closure_contains(ideal, 0, Monomial([0, 0]))
    assert integral_closure_contains(ideal, 2, Monomial([2, 3]))
    assert not integral_closure_contains(ideal, 3, Monomial([2, 3]))


def test_threshold_lp_known_values():
    assert threshold_lp(MonomialIdeal.maximal(3))[0] == F(3)
    assert threshold_lp(xy(2, [[2, 0], [0, 3]]))[0] == F(5, 6)
    assert threshold_lp(xy(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]))[0] == F(3, 2)
