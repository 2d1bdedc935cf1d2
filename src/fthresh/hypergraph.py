"""Hypergraph combinatorics feeding the threshold bounds.

Edge ideals, cover ideals (via minimal transversals), matchings (integral
by branch-and-bound, fractional by exact LP), vertex covers, maximal
independent sets, and fractional chromatic numbers (exact LP).

The bridge identities used elsewhere:

* C^m(ordinary powers of the edge ideal) = fractional matching number;
* C^m(symbolic powers of the edge ideal) = tau (minimum vertex cover),
  bounded above by n * (chi_f - 1) / chi_f with equality iff
  chi_f = n / (n - tau);
* chordal graphs: C^m(ordinary powers of the cover ideal) = w/(w-1)
  for w the clique number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .errors import InternalError, SizeGuardError, UnsupportedInputError, json_field
from .lp import solve_lp
from .monomial import MonomialIdeal, minimal_transversals

__all__ = [
    "Hypergraph",
    "edge_ideal",
    "cover_ideal",
    "matching_number",
    "fractional_matching_number",
    "vertex_cover_number",
    "maximal_independent_sets",
    "fractional_chromatic",
    "threshold_bounds_report",
]

_INDEP_SET_GUARD = 200_000


@dataclass(frozen=True)
class Hypergraph:
    """A simple hypergraph: vertices 0..n-1, edges an antichain of
    nonempty vertex subsets.  Isolated vertices are allowed and count
    toward n everywhere n appears in a formula."""

    n: int
    edges: tuple[frozenset[int], ...]

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise UnsupportedInputError("vertex count must be >= 0")
        es = []
        for e in edges:
            fe = frozenset(int(v) for v in e)
            if not fe:
                raise UnsupportedInputError("empty edge")
            if any(v < 0 or v >= n for v in fe):
                raise UnsupportedInputError(f"edge {sorted(fe)} out of range for n={n}")
            es.append(fe)
        # antichain: drop any edge containing another
        keep = [e for e in es if not any(f < e for f in es)]
        uniq = sorted(set(keep), key=lambda e: (len(e), sorted(e)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(uniq))

    # -- constructors ---------------------------------------------------

    @classmethod
    def cycle(cls, n: int) -> "Hypergraph":
        if n < 3:
            raise UnsupportedInputError("cycle needs >= 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "Hypergraph":
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def path(cls, n: int) -> "Hypergraph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Hypergraph":
        return cls(a + b, [(i, a + j) for i in range(a) for j in range(b)])

    @classmethod
    def petersen(cls) -> "Hypergraph":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return cls(10, outer + spokes + inner)

    @classmethod
    def from_json(cls, data: dict) -> "Hypergraph":
        n = json_field(data, "n", int, "hypergraph")
        edges = json_field(
            data,
            "edges",
            lambda es: [tuple(int(v) for v in e) for e in es],
            "hypergraph",
        )
        return cls(n, edges)

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [sorted(e) for e in self.edges]}

    # -- basic structure ------------------------------------------------

    @property
    def is_graph(self) -> bool:
        return all(len(e) == 2 for e in self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        if not self.is_graph:
            raise UnsupportedInputError("adjacency is defined for graphs only")
        adj = [set() for _ in range(self.n)]
        for e in self.edges:
            a, b = sorted(e)
            adj[a].add(b)
            adj[b].add(a)
        return tuple(frozenset(s) for s in adj)

    def min_edge_size(self) -> int:
        if not self.edges:
            raise UnsupportedInputError("hypergraph has no edges")
        return min(len(e) for e in self.edges)


# ------------------------------------------------------------------ #
# ideals
# ------------------------------------------------------------------ #


def edge_ideal(h: Hypergraph) -> MonomialIdeal:
    """I(H): generated by prod_{i in e} x_i over the edges.  No edges
    gives the zero ideal."""
    gens = []
    for e in h.edges:
        gens.append([1 if j in e else 0 for j in range(h.n)])
    return MonomialIdeal.from_exponents(h.n, gens)


def cover_ideal(h: Hypergraph) -> MonomialIdeal:
    """J(H): generated by the products over minimal vertex covers
    (minimal transversals of the edge set); equivalently the
    intersection of the edge primes (Alexander duality)."""
    covers = minimal_transversals(tuple(h.edges))
    gens = [[1 if j in w else 0 for j in range(h.n)] for w in covers]
    return MonomialIdeal.from_exponents(h.n, gens)


# ------------------------------------------------------------------ #
# matchings
# ------------------------------------------------------------------ #


def matching_number(h: Hypergraph) -> int:
    """Maximum number of pairwise disjoint edges, by branch and bound on
    an explicit stack (so no edge count meets the recursion limit)."""
    edges = sorted(h.edges, key=len)
    best = 0
    stack = [(0, frozenset(), 0)]  # (next edge, covered vertices, size)
    while stack:
        idx, used, size = stack.pop()
        if size + (len(edges) - idx) <= best:
            continue
        if idx == len(edges):
            best = size
            continue
        e = edges[idx]
        stack.append((idx + 1, used, size))  # without e, searched second
        if not (e & used):
            stack.append((idx + 1, used | e, size + 1))
    return best


def fractional_matching_number(h: Hypergraph) -> Fraction:
    """max sum y_e subject to sum_{e contains v} y_e <= 1, y >= 0, exact."""
    if not h.edges:
        return Fraction(0)
    m = len(h.edges)
    constraints = []
    for v in range(h.n):
        row = [1 if v in e else 0 for e in h.edges]
        if any(row):
            constraints.append((row, "<=", 1))
    return _lp_optimum([1] * m, constraints, "max")


def vertex_cover_number(h: Hypergraph) -> int:
    """tau(H): minimum size of a transversal of the edges."""
    if not h.edges:
        return 0
    return min(len(w) for w in minimal_transversals(tuple(h.edges)))


def maximal_independent_sets(h: Hypergraph) -> list[frozenset[int]]:
    """Complements of the minimal transversals."""
    everything = frozenset(range(h.n))
    if not h.edges:
        return [everything]
    covers = minimal_transversals(tuple(h.edges))
    if len(covers) > _INDEP_SET_GUARD:
        raise SizeGuardError(
            f"{len(covers)} maximal independent sets exceeds the guard"
        )
    out = [everything - w for w in covers]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def fractional_chromatic(h: Hypergraph) -> Fraction:
    """chi_f = 1 / t* for the exact LP over maximal independent sets
    max t s.t. t - sum_{S containing v} z_S <= 0 for every vertex v and
    sum z <= 1: z / t is a fractional coloring of weight at most 1 / t,
    so t* = 1 / min { sum z : sum_{S containing v} z_S >= 1 }."""
    if h.n == 0:
        return Fraction(0)
    for e in h.edges:
        if len(e) == 1:
            raise UnsupportedInputError(
                f"vertex {min(e)} forms a singleton edge; no proper coloring exists"
            )
    sets = maximal_independent_sets(h)
    # variables (z_S for each set S, t)
    constraints = [([-int(v in s) for s in sets] + [1], "<=", 0) for v in range(h.n)]
    constraints.append(([1] * len(sets) + [0], "<=", 1))
    return 1 / _lp_optimum([0] * len(sets) + [1], constraints, "max")


def _lp_optimum(objective, constraints, sense: str) -> Fraction:
    """Optimum of an LP that is feasible and bounded by construction."""
    res = solve_lp(objective, constraints, sense=sense)
    if res.value is None:
        raise InternalError(f"{sense} LP is {res.status}, not optimal")
    return res.value


# ------------------------------------------------------------------ #
# the bounds report
# ------------------------------------------------------------------ #


def threshold_bounds_report(h: Hypergraph) -> dict:
    """Assemble the combinatorial invariants, the two upper bounds
    (n/d for ordinary powers of the edge ideal, n(chi_f - 1)/chi_f for
    its symbolic powers), the exact thresholds from the nu engine, and
    the equality flags.  All entries exact."""
    from .nu import fthreshold_ordinary, fthreshold_symbolic_squarefree

    if not h.edges:
        raise UnsupportedInputError("bounds report needs at least one edge")
    ideal = edge_ideal(h)
    n = h.n
    d = h.min_edge_size()
    tau = vertex_cover_number(h)
    m_int = matching_number(h)
    m_frac = fractional_matching_number(h)
    ordinary = fthreshold_ordinary(ideal).value
    symbolic = Fraction(fthreshold_symbolic_squarefree(ideal).value)
    report: dict = {
        "n": n,
        "min_edge_size": d,
        "matching_number": m_int,
        "fractional_matching_number": m_frac,
        "vertex_cover_number": tau,
        "independence_number": n - tau,
        "ordinary_threshold": ordinary,
        "symbolic_threshold": symbolic,
        "bound_n_over_d": Fraction(n, d),
        "ordinary_bound_holds": ordinary <= Fraction(n, d),
        "matching_identity": ordinary == m_frac,
    }
    try:
        chi_f = fractional_chromatic(h)
    except (UnsupportedInputError, SizeGuardError) as exc:
        report["fractional_chromatic"] = None
        report["fractional_chromatic_note"] = str(exc)
        return report
    sym_bound = n * (chi_f - 1) / chi_f
    report["fractional_chromatic"] = chi_f
    report["bound_symbolic"] = sym_bound
    report["symbolic_bound_holds"] = symbolic <= sym_bound
    report["symbolic_bound_tight"] = symbolic == sym_bound
    report["transitive_equality"] = chi_f == Fraction(n, n - tau)
    return report
