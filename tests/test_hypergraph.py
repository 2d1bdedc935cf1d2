"""Hypergraph invariants against brute-force oracles, plus the
threshold bounds report."""

import itertools
from fractions import Fraction

import pytest

from fthresh import (
    Hypergraph,
    MonomialIdeal,
    SizeGuardError,
    UnsupportedInputError,
    cover_ideal,
    edge_ideal,
    fractional_chromatic,
    fractional_matching_number,
    matching_number,
    maximal_independent_sets,
    threshold_bounds_report,
    vertex_cover_number,
)

from conftest import (
    clique_number,
    hypergraph_of_ideal,
    independence_number,
    is_chordal,
    max_cliques,
)

F = Fraction

C5 = Hypergraph.cycle(5)
K4 = Hypergraph.complete(4)
TRIANGLE = Hypergraph.complete(3)
K4_3UNIFORM = Hypergraph(4, list(itertools.combinations(range(4), 3)))


# ------------------------------------------------------------------ #
# brute-force oracles
# ------------------------------------------------------------------ #


def brute_matching(h):
    best = 0
    for k in range(len(h.edges), 0, -1):
        for combo in itertools.combinations(h.edges, k):
            if all(not (a & b) for a, b in itertools.combinations(combo, 2)):
                return k
    return best


def brute_cover(h):
    if not h.edges:
        return 0
    for k in range(h.n + 1):
        for combo in itertools.combinations(range(h.n), k):
            s = set(combo)
            if all(s & e for e in h.edges):
                return k
    raise AssertionError("unreachable")


def brute_maximal_independent(h):
    indep = []
    for k in range(h.n + 1):
        for combo in itertools.combinations(range(h.n), k):
            s = frozenset(combo)
            if not any(e <= s for e in h.edges):
                indep.append(s)
    return sorted(
        (s for s in indep if not any(s < t for t in indep)),
        key=lambda s: (len(s), sorted(s)),
    )


def brute_cliques(g):
    cliques = []
    for k in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            if all(
                frozenset((a, b)) in g.edges
                for a, b in itertools.combinations(combo, 2)
            ):
                cliques.append(frozenset(combo))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted((tuple(sorted(c)) for c in maximal), key=lambda c: (len(c), c))


def has_induced_long_cycle(g):
    for k in range(4, g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            s = set(combo)
            inside = [e for e in g.edges if e <= s]
            degs = {v: sum(1 for e in inside if v in e) for v in s}
            if len(inside) != k or any(d != 2 for d in degs.values()):
                continue
            # connected 2-regular on k vertices with k edges = one cycle
            seen = {combo[0]}
            frontier = [combo[0]]
            while frontier:
                v = frontier.pop()
                for e in inside:
                    if v in e:
                        (w,) = e - {v}
                        if w not in seen:
                            seen.add(w)
                            frontier.append(w)
            if len(seen) == k:
                return True
    return False


# ------------------------------------------------------------------ #
# construction
# ------------------------------------------------------------------ #


def test_construction_antichain_and_validation():
    h = Hypergraph(3, [[0, 1, 2], [0, 1], [1, 0]])
    assert h.edges == (frozenset({0, 1}),)
    with pytest.raises(UnsupportedInputError):
        Hypergraph(2, [[]])
    with pytest.raises(UnsupportedInputError):
        Hypergraph(2, [[0, 5]])
    with pytest.raises(UnsupportedInputError):
        Hypergraph.cycle(2)
    assert Hypergraph.from_json(h.to_json()) == h


def test_named_graphs():
    assert len(C5.edges) == 5 and C5.is_graph
    assert len(Hypergraph.petersen().edges) == 15
    assert len(Hypergraph.complete_bipartite(2, 3).edges) == 6
    assert len(Hypergraph.path(4).edges) == 3
    assert not K4_3UNIFORM.is_graph
    assert K4_3UNIFORM.min_edge_size() == 3
    with pytest.raises(UnsupportedInputError):
        K4_3UNIFORM.adjacency
    with pytest.raises(UnsupportedInputError):
        max_cliques(K4_3UNIFORM)
    with pytest.raises(UnsupportedInputError):
        Hypergraph(2, []).min_edge_size()


# ------------------------------------------------------------------ #
# ideals and duality
# ------------------------------------------------------------------ #


def test_edge_and_cover_ideals():
    ei = edge_ideal(TRIANGLE)
    assert sorted(g.exps for g in ei.gens) == [
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
    ]
    ci = cover_ideal(TRIANGLE)  # covers of a triangle: any two vertices
    assert sorted(g.exps for g in ci.gens) == [
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
    ]
    # K4 cover ideal: all four 3-subsets
    gens = cover_ideal(K4).gens
    assert len(gens) == 4 and all(g.degree() == 3 for g in gens)
    assert edge_ideal(Hypergraph(3, [])).is_zero()
    with pytest.raises(UnsupportedInputError):
        hypergraph_of_ideal(MonomialIdeal.from_exponents(2, [[2, 0]]))


def test_blocker_involution(rng):
    samples = [C5, TRIANGLE, K4, K4_3UNIFORM, Hypergraph.path(5)]
    for _ in range(10):
        n = rng.randint(2, 6)
        edges = []
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, min(3, n))
            edges.append(rng.sample(range(n), size))
        samples.append(Hypergraph(n, edges))
    for h in samples:
        if not h.edges:
            continue
        blocker = hypergraph_of_ideal(cover_ideal(h))
        assert cover_ideal(blocker) == edge_ideal(h)
        assert hypergraph_of_ideal(cover_ideal(blocker)).edges == h.edges


# ------------------------------------------------------------------ #
# matchings / covers / independence
# ------------------------------------------------------------------ #


def test_matching_cover_independence_against_brute_force(rng):
    samples = [C5, TRIANGLE, K4, K4_3UNIFORM, Hypergraph(4, [[0, 1]])]
    for _ in range(15):
        n = rng.randint(2, 7)
        edges = [
            rng.sample(range(n), rng.randint(1, min(3, n)))
            for _ in range(rng.randint(0, 7))
        ]
        samples.append(Hypergraph(n, edges))
    for h in samples:
        nu = matching_number(h)
        tau = vertex_cover_number(h)
        assert nu == brute_matching(h)
        assert tau == brute_cover(h)
        assert independence_number(h) == h.n - tau
        assert maximal_independent_sets(h) == brute_maximal_independent(h)
        if h.edges:
            nu_f = fractional_matching_number(h)
            assert F(nu) <= nu_f <= F(tau)


def test_matching_number_of_a_large_star_needs_no_recursion():
    """The branch and bound runs on an explicit stack: a star with 1,100
    leaves, more edges than the recursion limit, has matching number 1."""
    assert matching_number(Hypergraph(1101, [(0, i) for i in range(1, 1101)])) == 1


def test_fractional_matching_known_values():
    assert fractional_matching_number(C5) == F(5, 2)
    assert fractional_matching_number(K4) == 2
    assert fractional_matching_number(TRIANGLE) == F(3, 2)
    assert fractional_matching_number(K4_3UNIFORM) == F(4, 3)
    assert fractional_matching_number(Hypergraph(3, [])) == 0


def test_fractional_chromatic_known_values():
    assert fractional_chromatic(C5) == F(5, 2)
    assert fractional_chromatic(Hypergraph.cycle(7)) == F(7, 3)
    assert fractional_chromatic(Hypergraph.petersen()) == F(5, 2)
    assert fractional_chromatic(K4) == 4
    assert fractional_chromatic(Hypergraph.complete_bipartite(2, 3)) == 2
    assert fractional_chromatic(K4_3UNIFORM) == 2
    with pytest.raises(UnsupportedInputError):
        fractional_chromatic(Hypergraph(2, [[0]]))


# ------------------------------------------------------------------ #
# cliques and chordality
# ------------------------------------------------------------------ #


def test_cliques_against_brute_force(rng):
    samples = [C5, TRIANGLE, K4, Hypergraph.petersen(), Hypergraph(3, [])]
    for _ in range(12):
        samples.append(random_graph_local(rng, rng.randint(2, 7)))
    for g in samples:
        assert max_cliques(g) == brute_cliques(g)
    assert clique_number(K4) == 4
    assert clique_number(Hypergraph(3, [])) == 1


def random_graph_local(rng, n, density=0.45):
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return Hypergraph(n, edges)


def test_chordality_known_and_brute_force(rng):
    assert is_chordal(K4)
    assert is_chordal(Hypergraph.path(6))
    assert is_chordal(Hypergraph(4, []))
    assert is_chordal(Hypergraph(4, [[0, 1], [0, 2], [0, 3]]))  # star
    assert not is_chordal(Hypergraph.cycle(4))
    assert not is_chordal(C5)
    assert not is_chordal(Hypergraph.petersen())
    assert not is_chordal(Hypergraph.complete_bipartite(2, 2))
    for _ in range(25):
        g = random_graph_local(rng, rng.randint(3, 7))
        assert is_chordal(g) == (not has_induced_long_cycle(g))


def test_random_chordal_graphs_are_chordal(rng):
    from conftest import random_chordal_graph

    for _ in range(10):
        g = random_chordal_graph(rng, rng.randint(3, 8))
        assert is_chordal(g)
        assert not has_induced_long_cycle(g)


# ------------------------------------------------------------------ #
# the report
# ------------------------------------------------------------------ #


def test_threshold_bounds_report_c5():
    rep = threshold_bounds_report(C5)
    assert rep["ordinary_threshold"] == F(5, 2)
    assert rep["matching_identity"]
    assert rep["symbolic_threshold"] == 3 == rep["vertex_cover_number"]
    assert rep["bound_n_over_d"] == F(5, 2) and rep["ordinary_bound_holds"]
    assert rep["fractional_chromatic"] == F(5, 2)
    assert rep["bound_symbolic"] == 3
    assert rep["symbolic_bound_holds"] and rep["symbolic_bound_tight"]
    assert rep["transitive_equality"]


def test_threshold_bounds_report_three_uniform():
    rep = threshold_bounds_report(K4_3UNIFORM)
    assert rep["ordinary_threshold"] == F(4, 3)
    assert rep["matching_identity"]
    assert rep["symbolic_threshold"] == 2
    assert rep["bound_n_over_d"] == F(4, 3) and rep["ordinary_bound_holds"]
    assert rep["fractional_chromatic"] == 2
    assert rep["bound_symbolic"] == 2 and rep["symbolic_bound_tight"]
    assert rep["transitive_equality"]


def test_threshold_bounds_report_bound_not_tight():
    # P4: chi_f = 2, tau = 2, n = 4 -> symbolic bound 2 = tau (tight),
    # but K_{1,3}: tau = 1, chi_f = 2, bound = 2 > 1 (not tight)
    star = Hypergraph(4, [[0, 1], [0, 2], [0, 3]])
    rep = threshold_bounds_report(star)
    assert rep["symbolic_threshold"] == 1
    assert rep["bound_symbolic"] == 2
    assert rep["symbolic_bound_holds"] and not rep["symbolic_bound_tight"]
    assert not rep["transitive_equality"]


def test_threshold_bounds_report_singleton_edge_note():
    rep = threshold_bounds_report(Hypergraph(2, [[0], [0, 1]]))
    assert rep["fractional_chromatic"] is None
    assert "singleton" in rep["fractional_chromatic_note"]
    assert rep["ordinary_threshold"] == 1
    with pytest.raises(UnsupportedInputError):
        threshold_bounds_report(Hypergraph(2, []))


def test_random_graphs_bound_and_identity(rng):
    for _ in range(12):
        g = random_graph_local(rng, rng.randint(3, 6))
        if not g.edges:
            continue
        rep = threshold_bounds_report(g)
        assert rep["matching_identity"]
        assert rep["ordinary_bound_holds"]
        assert rep["symbolic_bound_holds"]
        assert rep["symbolic_threshold"] == rep["vertex_cover_number"]
