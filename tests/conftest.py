"""Shared helpers: seeded random generators for ideals and graphs, plus
small independent oracles used across test modules."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import ceil, gcd

import pytest

from fthresh import (
    BinomialSum,
    CeilingPower,
    FacetInequality,
    Filtration,
    Hypergraph,
    IntegralClosurePowers,
    IntersectionFiltration,
    MonomialIdeal,
    OrdinaryPowers,
    PrimePowerIntersection,
    ProductFiltration,
    SymbolicSquarefree,
    filtration_from_json,
    lp,
    solve_lp,
)
from fthresh.errors import AmbientMismatchError


def random_ideal(
    rng: random.Random,
    nvars: int,
    max_gens: int = 4,
    max_exp: int = 4,
    *,
    proper: bool = True,
) -> MonomialIdeal:
    """Random nonzero monomial ideal; proper means no unit generator."""
    while True:
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            g = [rng.randint(0, max_exp) for _ in range(nvars)]
            if proper and not any(g):
                continue
            gens.append(g)
        if gens:
            return MonomialIdeal.from_exponents(nvars, gens)


def random_squarefree_ideal(
    rng: random.Random, nvars: int, max_gens: int = 5
) -> MonomialIdeal:
    while True:
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            size = rng.randint(1, nvars)
            supp = rng.sample(range(nvars), size)
            gens.append([1 if j in supp else 0 for j in range(nvars)])
        ideal = MonomialIdeal.from_exponents(nvars, gens)
        if not ideal.is_zero() and not ideal.is_unit():
            return ideal


def random_graph(rng: random.Random, n: int, density: float = 0.45) -> Hypergraph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < density]
    return Hypergraph(n, edges)


def random_chordal_graph(rng: random.Random, n: int) -> Hypergraph:
    """Build along a perfect elimination order: each new vertex is joined
    to a clique inside an existing one."""
    adj: dict[int, set[int]] = {0: set()}
    cliques: list[set[int]] = [{0}]
    for v in range(1, n):
        base = rng.choice(cliques)
        k = rng.randint(0, len(base))
        sub = set(rng.sample(sorted(base), k))
        adj[v] = set(sub)
        for u in sub:
            adj[u].add(v)
        cliques.append(sub | {v})
    edges = [(u, v) for v in adj for u in adj[v] if u < v]
    return Hypergraph(n, edges)


def naive_power_member(ideal: MonomialIdeal, exps: tuple[int, ...], r: int) -> bool:
    """Decision oracle for u in I^r by direct multiset search, written
    independently of the library's membership DP."""
    gens = [g.exps for g in ideal.gens]
    memo: dict[tuple[tuple[int, ...], int], bool] = {}

    def go(u: tuple[int, ...], k: int) -> bool:
        if k == 0:
            return True
        key = (u, k)
        if key in memo:
            return memo[key]
        ans = False
        for g in gens:
            if all(a <= b for a, b in zip(g, u)):
                if go(tuple(b - a for a, b in zip(g, u)), k - 1):
                    ans = True
                    break
        memo[key] = ans
        return ans

    return go(tuple(exps), r)


def random_filtration(rng: random.Random, nvars: int, depth: int = 1) -> Filtration:
    """A small random filtration of any of the eight rules, or a
    `veronese` descriptor over one (read as its base); composite rules and
    descriptors nest base rules up to the given depth."""
    kinds = ["ordinary", "symbolic", "prime_power", "closure", "ceiling"]
    if depth > 0:
        kinds += ["product", "intersection", "binomial_sum", "veronese"]
    kind = rng.choice(kinds)
    if kind == "ordinary":
        return OrdinaryPowers(random_ideal(rng, nvars, 3, 2))
    if kind == "symbolic":
        return SymbolicSquarefree(random_squarefree_ideal(rng, nvars, 3))
    if kind == "prime_power":
        comps = [
            (frozenset(rng.sample(range(nvars), rng.randint(1, nvars))), rng.randint(1, 2))
            for _ in range(rng.randint(1, 2))
        ]
        return PrimePowerIntersection(nvars, comps)
    if kind == "closure":
        return IntegralClosurePowers(random_ideal(rng, nvars, 2, 2))
    if kind == "ceiling":
        beta = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        return CeilingPower(random_ideal(rng, nvars, 2, 2), beta)
    if kind == "veronese":
        # an annotated base, read as the base by the descriptor parser
        base = random_filtration(rng, nvars, depth - 1)
        d = rng.randint(1, 2)
        return filtration_from_json({"rule": "veronese", "base": base.to_json(), "degree": d})
    rule = {
        "product": ProductFiltration,
        "intersection": IntersectionFiltration,
        "binomial_sum": BinomialSum,
    }[kind]
    return rule(random_filtration(rng, nvars, depth - 1), random_filtration(rng, nvars, depth - 1))


def admissibility(f: Filtration) -> tuple[int, int]:
    """Pigeonhole constants (h, c) of a shipped rule, with
    a_{(h+m)q + c} subseteq a_{m+1}^{[q]} for all m and q = p^e: the
    constants behind the paper's existence results."""
    if isinstance(f, OrdinaryPowers):
        return (max(f.ideal.num_generators(), 1), 0)
    if isinstance(f, SymbolicSquarefree):
        h = f.ideal.big_height()
        return (h, 1 - h)
    if isinstance(f, PrimePowerIntersection):
        return (max(1 + ceil(Fraction(len(s) - 1, w)) for s, w in f.components), 0)
    if isinstance(f, IntegralClosurePowers):
        return (f.nvars - 1 + f.ideal.num_generators(), 0)
    if isinstance(f, CeilingPower):
        return (1 + ceil(Fraction(f.ideal.num_generators()) / f.beta), 0)
    (hl, cl), (hr, cr) = admissibility(f.left), admissibility(f.right)
    if isinstance(f, BinomialSum):
        return (hl + hr, cl + cr)
    return (max(hl, hr), max(cl, cr))  # product, intersection


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    h: int
    c: int
    k: int
    failures: tuple[str, ...]


def is_admissible_witness(
    filtration: Filtration,
    target: MonomialIdeal,
    p: int,
    h: int,
    c: int,
    k: int,
    e_max: int = 2,
    m_max: int = 3,
) -> AdmissibilityReport:
    """Finite verification that (h, c, k) witness admissibility with
    respect to the target: a_k subseteq target and
    a_{(h+m)p^e + c} subseteq a_{m+1}^{[p^e]} for e <= e_max, m <= m_max."""
    if target.nvars != filtration.nvars:
        raise AmbientMismatchError("target lives in a different ring")
    failures: list[str] = []
    if not target.contains_ideal(filtration.level(k)):
        failures.append(f"a_{k} is not contained in the target")
    for e in range(e_max + 1):
        q = p**e
        for m in range(m_max + 1):
            lvl = (h + m) * q + c
            if lvl < 0:
                failures.append(f"(h+m)q+c = {lvl} < 0 at e={e}, m={m}")
                continue
            lhs = filtration.level(lvl)
            rhs = filtration.level(m + 1).bracket_power(q)
            if not rhs.contains_ideal(lhs):
                failures.append(
                    f"a_{lvl} not contained in a_{m + 1}^[{q}] (e={e}, m={m})"
                )
    return AdmissibilityReport(not failures, h, c, k, tuple(failures))


def general_path_nu(
    filtration: Filtration, target: MonomialIdeal, p: int, e: int
) -> tuple[str, int | None]:
    """Brute-force nu oracle for a proper nonzero target: binary search over
    materialized levels for the first one inside target^[q].

    nu is infinite when the radical of the filtration is not inside the
    radical of the target.  Otherwise find the first containment a_k in
    the target (k <= 64); with the filtration's admissibility constants
    (h, c), level (h + k - 1) q + c is inside target^[q], which bounds the
    search.  Returns (status, nu)."""
    q = p**e
    if not target.radical().contains_ideal(filtration.radical()):
        return "infinite", None
    k = next(
        (k for k in range(1, 65) if target.contains_ideal(filtration.level(k))),
        None,
    )
    if k is None:
        raise AssertionError(f"no level up to 64 inside the target for {filtration}")
    h, c = admissibility(filtration)
    bracket = target.bracket_power(q)

    def contained(r: int) -> bool:
        return bracket.contains_ideal(filtration.level(r))

    cutoff = max((h + k - 1) * q + c, 1)
    if not contained(cutoff):
        raise AssertionError(f"admissibility cutoff {cutoff} not contained for {filtration}")
    lo, hi = 0, cutoff  # level 0 = R is never inside a proper bracket power
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if contained(mid):
            hi = mid
        else:
            lo = mid
    return "finite", lo



def _kernel_line(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """A spanning vector of the kernel of a rational matrix when that
    kernel is a line, else None (Gauss-Jordan elimination)."""
    width = len(rows[0])
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    for col in range(width):
        piv = next((i for i in range(len(pivots), len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        r = len(pivots)
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [v / mat[r][col] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    free = [c for c in range(width) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [Fraction(0)] * width
    vec[free[0]] = Fraction(1)
    for i, pc in enumerate(pivots):
        vec[pc] = -mat[i][free[0]]
    return vec


def pruned_facets(ideal: MonomialIdeal) -> tuple[FacetInequality, ...]:
    """Brute-force oracle for the essential Newton facets, sorted by
    normal: every hyperplane through k generators and n - k coordinate
    rays whose nonnegative normal supports all generators at a positive
    offset min <v, g> is a candidate (tight at its own points or not);
    then each candidate implied by the others and x >= 0 is dropped with
    one exact LP."""
    n = ideal.nvars
    gens = [g.exps for g in ideal.gens]
    candidates: dict[tuple[int, ...], int] = {}
    for k in range(1, min(n, len(gens)) + 1):
        for pts in combinations(gens, k):
            for coords in combinations(range(n), n - k):
                rows = [[Fraction(e) for e in g] + [Fraction(-1)] for g in pts]
                rows += [[Fraction(int(i == j)) for i in range(n + 1)] for j in coords]
                line = _kernel_line(rows)
                if line is None:
                    continue
                den = 1
                for x in line:
                    den = den * x.denominator // gcd(den, x.denominator)
                v = [int(x * den) for x in line[:n]]
                if any(a < 0 for a in v) and all(a <= 0 for a in v):
                    v = [-a for a in v]
                if any(a < 0 for a in v) or not any(v):
                    continue
                g0 = 0
                for a in v:
                    g0 = gcd(g0, a)
                v = [a // g0 for a in v]
                offset = min(sum(a * e for a, e in zip(v, g)) for g in gens)
                if offset > 0:
                    candidates[tuple(v)] = offset
    kept = [FacetInequality(v, c) for v, c in sorted(candidates.items())]
    i = 0
    while i < len(kept):
        f = kept[i]
        others = [(list(g.normal), ">=", g.offset) for g in kept if g is not f]
        res = solve_lp(list(f.normal), others, sense="min")
        if res.status != "optimal":
            raise AssertionError(f"pruning LP is {res.status}")
        if res.value >= f.offset:
            kept.pop(i)
        else:
            i += 1
    return tuple(kept)


def scale_x(res):
    return replace(res, x=tuple(2 * v for v in res.x))


def scale_duals(res):
    return replace(res, duals=tuple(3 * d for d in res.duals))


def corrupt_simplex(monkeypatch, corrupt) -> None:
    """Make the simplex hand every optimum it finds through `corrupt`, so
    that only solve_lp's boundary certificate stands between it and the
    caller."""
    simplex = lp._minimize

    def corrupted(*args):
        res = simplex(*args)
        return corrupt(res) if res.status == "optimal" else res

    monkeypatch.setattr(lp, "_minimize", corrupted)


@pytest.fixture
def rng():
    return random.Random(20260814)
