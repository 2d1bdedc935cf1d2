"""Acceptance gate: eight end-to-end criteria, each a single test that
prints one PASS line.  Every comparison is exact rational equality."""

import itertools
import random
from fractions import Fraction
from math import ceil, floor

from conftest import (
    clique_number,
    is_chordal,
    random_ideal,
    random_squarefree_ideal,
    verify_filtration_axioms,
)

from fthresh import (
    BinomialSum,
    CeilingPower,
    Hypergraph,
    IntegralClosurePowers,
    IntersectionFiltration,
    Monomial,
    MonomialIdeal,
    OrdinaryPowers,
    PrimePowerIntersection,
    ProductFiltration,
    SymbolicSquarefree,
    big_height_criterion,
    check_min_law,
    check_sum_product_laws,
    cover_ideal,
    edge_ideal,
    fractional_chromatic,
    fractional_matching_number,
    fthreshold_bracket,
    fthreshold_ordinary,
    fthreshold_symbolic_squarefree,
    integral_closure_contains,
    minimal_transversals,
    newton_polyhedron,
    nu_sequence,
    nu_value,
)

F = Fraction


def _report(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n}: PASS — {message}")


def _pairwise_intersection_ideal(n: int) -> MonomialIdeal:
    """The intersection of all codimension-two coordinate primes: its
    square-free generators are the degree-(n-1) products."""
    gens = [[0 if j == i else 1 for j in range(n)] for i in range(n)]
    return MonomialIdeal.from_exponents(n, gens)


def test_criterion_1_symbolic_vs_ordinary_thresholds_of_pair_intersections():
    checked = 0
    for n in (3, 4, 5):
        a = _pairwise_intersection_ideal(n)
        target = MonomialIdeal.maximal(n)
        symbolic = SymbolicSquarefree(a)
        for p in (2, 3, 5):
            for e in range(6):
                rec = nu_value(symbolic, target, p, e)
                assert rec.nu == 2 * (p**e - 1), (n, p, e)
                checked += 1
        assert fthreshold_symbolic_squarefree(a).value == 2
        assert fthreshold_ordinary(a).value == F(n, n - 1)
    _report(1, f"{checked} nu values = 2(q-1); symbolic = 2; ordinary = n/(n-1)"
               " for n = 3..5")


def test_criterion_2_closure_powers_of_three_pure_powers():
    ideal = MonomialIdeal.from_exponents(3, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    f = IntegralClosurePowers(ideal)
    target = MonomialIdeal.maximal(3)
    value = F(1, 2) + F(1, 3) + F(1, 5)
    assert value == F(31, 30)
    checked = 0
    for p in (2, 3):
        for e in range(7):
            q = p**e
            assert nu_value(f, target, p, e).nu == (q - 1) * 31 // 30, (p, e)
            checked += 1
    res = fthreshold_ordinary(ideal)
    assert res.value == F(31, 30)
    _report(2, f"{checked} closure nu values = floor(31(q-1)/30); threshold"
               " = 31/30 = 1/2 + 1/3 + 1/5")


def test_criterion_3_ceiling_filtrations_realize_prescribed_thresholds():
    cases = [(2, F(1, 2)), (3, F(1, 2)), (2, F(7, 5)), (3, F(7, 5)), (2, F(3)),
             (3, F(3))]
    checked = 0
    for n, alpha in cases:
        f = CeilingPower(MonomialIdeal.maximal(n), F(n) / alpha)
        target = MonomialIdeal.maximal(n)
        for p in (2, 3):
            e_max = 6
            for e in range(e_max + 1):
                q = p**e
                nu = nu_value(f, target, p, e).nu
                assert ceil(alpha * (q - 1)) - 1 <= nu < alpha * q, (n, alpha, p, e)
                checked += 1
            bracket = fthreshold_bracket(f, p, e_max)
            assert bracket.lower <= alpha <= bracket.upper
            assert bracket.upper - bracket.lower <= (alpha + n) / p**e_max
    _report(3, f"{checked} nu values inside [ceil(a(q-1))-1, aq); brackets"
               " trap each a with width <= (a+n)/p^emax")


def test_criterion_4_facet_thresholds_match_closure_nu_records():
    rng = random.Random(41)
    for trial in range(50):
        n = rng.randint(1, 4)
        ideal = random_ideal(rng, n, max_gens=6, max_exp=5)
        value = fthreshold_ordinary(ideal).value
        f = IntegralClosurePowers(ideal)
        target = MonomialIdeal.maximal(n)
        for e in range(7):
            q = 2**e
            expected = floor(value * (q - 1))
            assert nu_value(f, target, 2, e).nu == expected, (trial, e)
    _report(4, "50 random ideals (n <= 4): facet threshold C reproduces"
               " every closure nu record floor(C(q-1)) at p=2, e <= 6")


def test_criterion_5_symbolic_threshold_is_height_with_witnesses():
    rng = random.Random(52)
    mixed_seen = unmixed_seen = 0
    for _ in range(50):
        n = rng.randint(2, 7)
        ideal = random_squarefree_ideal(rng, n)
        assert fthreshold_symbolic_squarefree(ideal).value == ideal.height()
        target = MonomialIdeal.maximal(n)
        unmixed = ideal.height() == ideal.big_height()
        for p in (2, 3):
            rep = big_height_criterion(ideal, target, p, 4)
            assert rep.all_non_contained == unmixed
        if unmixed:
            unmixed_seen += 1
        else:
            mixed_seen += 1
    # a guaranteed-unmixed family: intersections of distinct same-size primes
    for _ in range(10):
        n = rng.randint(3, 6)
        h = rng.randint(2, n - 1)
        prime_count = rng.randint(2, 4)
        primes = set()
        while len(primes) < prime_count:
            primes.add(frozenset(rng.sample(range(n), h)))
        gens = [
            [1 if j in t else 0 for j in range(n)]
            for t in minimal_transversals(tuple(primes))
        ]
        ideal = MonomialIdeal.from_exponents(n, gens)
        assert ideal.height() == ideal.big_height() == h
        for p in (2, 3):
            rep = big_height_criterion(ideal, MonomialIdeal.maximal(n), p, 4)
            assert rep.all_non_contained
        unmixed_seen += 1
    assert mixed_seen >= 5 and unmixed_seen >= 15
    _report(5, f"60 square-free ideals: symbolic threshold = height; witness"
               f" non-containment iff unmixed ({unmixed_seen} unmixed,"
               f" {mixed_seen} mixed)")


def _random_small_filtration(rng: random.Random, nvars: int):
    kind = rng.choice(["ordinary", "symbolic", "closure", "ceiling", "prime_power"])
    if kind == "symbolic":
        return SymbolicSquarefree(random_squarefree_ideal(rng, nvars, max_gens=2))
    if kind == "prime_power":
        comps = []
        for _ in range(rng.randint(1, 2)):
            size = rng.randint(1, nvars)
            comps.append(
                (frozenset(rng.sample(range(nvars), size)), rng.randint(1, 2))
            )
        return PrimePowerIntersection(nvars, comps)
    ideal = random_ideal(rng, nvars, max_gens=2, max_exp=2)
    if kind == "closure":
        return IntegralClosurePowers(ideal)
    if kind == "ceiling":
        return CeilingPower(ideal, F(rng.randint(1, 3), rng.randint(1, 2)))
    return OrdinaryPowers(ideal)


def test_criterion_6_min_sum_product_laws_on_random_pairs():
    rng = random.Random(63)
    for trial in range(30):
        nvars = rng.randint(1, 2)
        left = _random_small_filtration(rng, nvars)
        right = _random_small_filtration(rng, nvars)
        min_rep = check_min_law(left, right, 2, 4)
        assert min_rep.ok, (trial, min_rep.rows)
        pair_rep = check_sum_product_laws(left, right, 2, 4)
        assert pair_rep.ok, (trial, pair_rep.rows)
        for row in pair_rep.rows:
            assert row["nu_binomial_sum"] == row["nu_left"] + row["nu_right"]
            assert row["nu_product"] == max(row["nu_left"], row["nu_right"])
    _report(6, "30 random pairs: level-min law, disjoint-variable nu"
               " additivity, and nu max law all exact at p=2, e <= 4")


def _canonical_graph(n: int, edges: frozenset) -> tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        img = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
        if best is None or img < best:
            best = img
    return best


def _all_graphs_up_to_iso(n_max: int):
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for mask in range(1, 1 << len(pairs)):
            edges = frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
            key = _canonical_graph(n, edges)
            if key not in seen:
                seen.add(key)
                yield Hypergraph(n, [list(e) for e in edges])


def _check_edge_ideal_identities(g: Hypergraph) -> None:
    ordinary = fthreshold_ordinary(edge_ideal(g)).value
    assert ordinary == fractional_matching_number(g)
    assert ordinary <= F(g.n, g.min_edge_size())
    chi_f = fractional_chromatic(g)
    symbolic = fthreshold_symbolic_squarefree(edge_ideal(g)).value
    assert symbolic <= g.n * (chi_f - 1) / chi_f


def test_criterion_7_edge_ideal_thresholds_are_fractional_invariants():
    count = 0
    for g in _all_graphs_up_to_iso(5):
        _check_edge_ideal_identities(g)
        count += 1
    rng = random.Random(74)
    randoms = 0
    while randoms < 40:
        n = rng.randint(6, 7)
        pairs = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.45]
        if not pairs:
            continue
        _check_edge_ideal_identities(Hypergraph(n, pairs))
        randoms += 1
    for g in [Hypergraph.cycle(5), Hypergraph.cycle(7), Hypergraph.complete(6),
              Hypergraph.complete(7), Hypergraph.petersen()]:
        _check_edge_ideal_identities(g)
    # cover ideals: C_5 symbolic threshold and the chordal closed form
    assert fthreshold_symbolic_squarefree(cover_ideal(Hypergraph.cycle(5))).value == 2
    from conftest import random_chordal_graph

    chordal_checked = 0
    while chordal_checked < 10:
        g = random_chordal_graph(rng, rng.randint(3, 7))
        if not g.edges:
            continue
        assert is_chordal(g)
        w = clique_number(g)
        assert fthreshold_ordinary(cover_ideal(g)).value == F(w, w - 1)
        chordal_checked += 1
    _report(7, f"edge-ideal threshold = fractional matching number on"
               f" {count} iso classes (n <= 5) + 45 larger graphs; both"
               f" fractional bounds hold; 10 chordal cover ideals = w/(w-1)")


def test_criterion_8_property_suites():
    rng = random.Random(85)
    m2 = MonomialIdeal.maximal(2)
    triangle = MonomialIdeal.from_exponents(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    family = [
        OrdinaryPowers(random_ideal(rng, 2, max_gens=3, max_exp=3)),
        SymbolicSquarefree(triangle),
        IntegralClosurePowers(random_ideal(rng, 2, max_gens=3, max_exp=3)),
        CeilingPower(m2, F(5, 3)),
        PrimePowerIntersection(2, [(frozenset({0}), 2), (frozenset({0, 1}), 1)]),
        ProductFiltration(OrdinaryPowers(m2), CeilingPower(m2, F(3, 2))),
        BinomialSum(OrdinaryPowers(m2), OrdinaryPowers(m2)),
        IntersectionFiltration(OrdinaryPowers(m2), CeilingPower(m2, F(4, 3))),
    ]
    sequences = 0
    for f in family:
        target = MonomialIdeal.maximal(f.nvars)
        for p in (2, 3):
            seq = nu_sequence(f, target, p, 4)
            for prev, cur in zip(seq.records, seq.records[1:]):
                assert p * prev.nu <= cur.nu
            sequences += 1
        axioms = verify_filtration_axioms(f, 12)
        assert axioms.ok, (f, axioms.violations)
    # facet description of the Newton polyhedron vs the certified
    # closure-membership oracle
    points = 0
    for _ in range(12):
        n = rng.randint(2, 3)
        ideal = random_ideal(rng, n, max_gens=4, max_exp=4)
        np_ = newton_polyhedron(ideal)
        for g in ideal.gens:  # soundness: generators satisfy every facet
            assert np_.contains_point([F(x) for x in g.exps])
        for _ in range(8):
            u = tuple(rng.randint(0, 7) for _ in range(n))
            inside = np_.contains_point([F(x) for x in u])
            assert inside == integral_closure_contains(ideal, 1, Monomial(u))
            points += 1
    _report(8, f"doubling law on {sequences} sequences; axioms to level 12"
               f" on all 8 rules; facets agree with the closure oracle on"
               f" {points} lattice points")
