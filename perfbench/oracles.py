"""Independent oracles for checking fthresh answers.

Nothing here imports fthresh: every value is recomputed from first
principles by brute force, so a check compares the program against a
computation it does not share code with.  Run this file to execute the
self-tests on hand-worked cases.

* ``fractional_matching_number`` -- the fractional Tutte-Berge formula
  nu_f(G) = (n - max_S (i(G - S) - |S|)) / 2, with i the number of
  isolated vertices, brute force over S.
* ``vertex_cover_number``, ``matching_number``, ``clique_number``,
  ``chromatic_number`` -- brute-force searches.
* ``minimal_vertex_covers`` -- minimal transversals of a set family, by
  enumerating subsets in order of size.
* ``s_star`` -- min over lambda in the simplex of max_j (lambda . G)_j,
  by enumerating basic solutions supported on at most n generators.
  C^m(I^bullet) = 1 / s_star(gens of I).
* ``closure_level`` -- the largest r with u in the integral closure of
  I^r: the s_star oracle with coordinates divided by u.
* ``irreducible_components`` -- the irreducible components of an
  m-primary monomial ideal, one per corner of its staircase.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import floor, lcm

# ---------------------------------------------------------------------- #
# graphs
# ---------------------------------------------------------------------- #


def _isolated_after_removal(n: int, edges, removed: frozenset[int]) -> int:
    touched = set()
    for a, b in edges:
        if a not in removed and b not in removed:
            touched.add(a)
            touched.add(b)
    return sum(1 for v in range(n) if v not in removed and v not in touched)


def fractional_matching_number(n: int, edges) -> Fraction:
    best = None
    for k in range(n + 1):
        for s in itertools.combinations(range(n), k):
            deficiency = _isolated_after_removal(n, edges, frozenset(s)) - k
            if best is None or deficiency > best:
                best = deficiency
    return Fraction(n - best, 2)


def minimal_vertex_covers(n: int, sets) -> list[frozenset[int]]:
    """Minimal subsets of range(n) meeting every set of the family."""
    family = [frozenset(s) for s in sets]
    covers: list[frozenset[int]] = []
    for k in range(n + 1):
        for s in itertools.combinations(range(n), k):
            c = frozenset(s)
            if all(c & f for f in family) and not any(d <= c for d in covers):
                covers.append(c)
    return covers


def vertex_cover_number(n: int, edges) -> int:
    for k in range(n + 1):
        for s in itertools.combinations(range(n), k):
            c = set(s)
            if all(a in c or b in c for a, b in edges):
                return k
    raise ValueError("unreachable: the full vertex set covers every edge")


def matching_number(n: int, edges) -> int:
    edges = list(edges)
    for k in range(len(edges), 0, -1):
        for pick in itertools.combinations(edges, k):
            ends = [v for e in pick for v in e]
            if len(set(ends)) == len(ends):
                return k
    return 0


def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def clique_number(n: int, edges) -> int:
    adj = _adjacency(n, edges)
    best = 1 if n else 0
    for k in range(2, n + 1):
        if any(
            all(b in adj[a] for a, b in itertools.combinations(s, 2))
            for s in itertools.combinations(range(n), k)
        ):
            best = k
        else:
            break
    return best


def chromatic_number(n: int, edges) -> int:
    adj = _adjacency(n, edges)
    for k in range(1, n + 1):
        colour = [-1] * n

        def place(v: int) -> bool:
            if v == n:
                return True
            for c in range(k):
                if all(colour[w] != c for w in adj[v]):
                    colour[v] = c
                    if place(v + 1):
                        return True
            colour[v] = -1
            return False

        if place(0):
            return k
    return n


# ---------------------------------------------------------------------- #
# monomial ideals
# ---------------------------------------------------------------------- #


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every intermediate value stays an integer."""
    a = [row[:] for row in rows]
    k = len(a)
    sign, prev = 1, 1
    for c in range(k - 1):
        piv = next((i for i in range(c, k) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, k):
            for j in range(c + 1, k):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[k - 1][k - 1]


def s_star(points) -> Fraction:
    """min over convex combinations p of the points of max_j p_j.

    An optimal vertex of the LP min{s : sum_i l_i P_i <= s, sum l = 1,
    l >= 0} has at most n nonzero l_i, tight on as many coordinates, so
    it solves a square system for some support T and tight set J with
    |T| = |J|.  With |T| = 1 the vertex is a point itself, at height
    max_j p_j.  The points are scaled to integers and each system is
    solved by Cramer's rule, so only integers are multiplied."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if not pts:
        raise ValueError("s_star of an empty point set")
    n = len(pts[0])
    best = min(max(p) for p in pts)
    scale = lcm(*(x.denominator for p in pts for x in p))
    ints = [[int(x * scale) for x in p] for p in pts]
    for k in range(2, min(n, len(pts)) + 1):
        for support in itertools.combinations(range(len(pts)), k):
            for tight in itertools.combinations(range(n), k):
                # unknowns l_T (k of them) and s * scale; the last row is sum l = 1
                rows = [[ints[i][j] for i in support] + [-1] for j in tight]
                rows.append([1] * k + [0])
                d = _det(rows)
                if d == 0:
                    continue
                # Cramer: unknown c is det(rows with column c replaced by e_k) / d
                num = [_det([r[:c] + [int(i == k)] + r[c + 1 :] for i, r in enumerate(rows)]) for c in range(k + 1)]
                if d < 0:
                    d, num = -d, [-x for x in num]
                if any(x < 0 for x in num[:k]):
                    continue
                if any(sum(num[t] * ints[i][j] for t, i in enumerate(support)) > num[k] for j in range(n)):
                    continue
                best = min(best, Fraction(num[k], d * scale))
    return best


def threshold(gens) -> Fraction:
    """C^m of the ordinary powers of the ideal generated by gens."""
    return 1 / s_star(gens)


def closure_level(gens, u) -> int:
    """Largest r with the monomial x^u in the integral closure of I^r:
    u is in r * NP(I) iff some convex combination p of the generators has
    r * p <= u, i.e. r * s_star(G / u) <= 1.  Coordinates with u_j = 0
    only admit generators with g_j = 0."""
    live = [j for j, x in enumerate(u) if x > 0]
    usable = [g for g in gens if all(g[j] == 0 for j in range(len(u)) if u[j] == 0)]
    if not usable or not live:
        return 0
    scaled = [[Fraction(g[j], u[j]) for j in live] for g in usable]
    return floor(1 / s_star(scaled))


def pure_gens(b) -> list[tuple[int, ...]]:
    """Generators of (x_1^{b_1}, .., x_n^{b_n})."""
    n = len(b)
    return [tuple(b[j] if i == j else 0 for i in range(n)) for j in range(n)]


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def in_ideal(gens, u) -> bool:
    return any(divides(g, u) for g in gens)


def irreducible_components(gens) -> list[tuple[int, ...]]:
    """Components (x_1^{b_1}, .., x_n^{b_n}) of an m-primary monomial
    ideal, returned as the exponent vectors b: one for each corner a of
    the staircase (x^a outside the ideal, every x_i x^a inside), with
    b = a + 1."""
    n = len(gens[0])
    bound = []
    for j in range(n):
        pure = [g[j] for g in gens if all(g[i] == 0 for i in range(n) if i != j)]
        if not pure:
            raise ValueError("ideal is not m-primary")
        bound.append(min(pure))
    out = []
    for a in itertools.product(*[range(b) for b in bound]):
        if in_ideal(gens, a):
            continue
        if all(in_ideal(gens, a[:j] + (a[j] + 1,) + a[j + 1:]) for j in range(n)):
            out.append(tuple(x + 1 for x in a))
    return out


def staircase(gens, box) -> set[tuple[int, ...]]:
    """Monomials inside the box that lie outside the ideal."""
    return {a for a in itertools.product(*[range(b) for b in box]) if not in_ideal(gens, a)}


# ---------------------------------------------------------------------- #
# self-tests on hand-worked cases
# ---------------------------------------------------------------------- #


def self_test() -> list[str]:
    """Return the hand-worked cases that fail (empty when all pass)."""
    bad = []

    def expect(name, got, want):
        if got != want:
            bad.append(f"{name}: got {got}, want {want}")

    triangle = [(0, 1), (1, 2), (0, 2)]
    star = [(0, 1), (0, 2), (0, 3)]
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    expect("nu_f(triangle)", fractional_matching_number(3, triangle), Fraction(3, 2))
    expect("nu_f(K_1,3)", fractional_matching_number(4, star), Fraction(1))
    expect("nu_f(C5)", fractional_matching_number(5, c5), Fraction(5, 2))
    expect("tau(triangle)", vertex_cover_number(3, triangle), 2)
    expect("tau(K_1,3)", vertex_cover_number(4, star), 1)
    expect("tau(C5)", vertex_cover_number(5, c5), 3)
    expect("matching(C5)", matching_number(5, c5), 2)
    expect("matching(K_1,3)", matching_number(4, star), 1)
    expect("omega(triangle)", clique_number(3, triangle), 3)
    expect("omega(C5)", clique_number(5, c5), 2)
    expect("chi(C5)", chromatic_number(5, c5), 3)
    expect(
        "covers(path x0-x1-x2)",
        sorted(map(sorted, minimal_vertex_covers(3, [(0, 1), (1, 2)]))),
        [[0, 2], [1]],
    )
    expect("s*(x1^2, x2^3, x3^5)", s_star([(2, 0, 0), (0, 3, 0), (0, 0, 5)]), Fraction(30, 31))
    expect("C(x1^2, x2^3, x3^5)", threshold([(2, 0, 0), (0, 3, 0), (0, 0, 5)]), Fraction(31, 30))
    expect("C(x1x2, x2x3)", threshold([(1, 1, 0), (0, 1, 1)]), Fraction(1))
    expect("C(m^2 in 2 vars)", threshold([(2, 0), (1, 1), (0, 2)]), Fraction(1))
    # (x1^2, x2^3): x1^3 x2^4 lies in the closure of I^r iff 3/2 + 4/3 >= r
    expect("closure level x1^3x2^4 in (x1^2,x2^3)", closure_level([(2, 0), (0, 3)], (3, 4)), 2)
    expect("closure level x2^5 in (x1x2, x2^2)", closure_level([(1, 1), (0, 2)], (0, 5)), 2)
    expect("closure level 1 in (x1)", closure_level([(1, 0)], (0, 0)), 0)
    expect(
        "components(x1^2, x1x2, x2^3)",
        sorted(irreducible_components([(2, 0), (1, 1), (0, 3)])),
        [(1, 3), (2, 1)],
    )
    expect(
        "components(x1, x2, x3)",
        irreducible_components([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        [(1, 1, 1)],
    )
    return bad


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print("FAIL", line)
    print("oracle self-test:", "ok" if not failures else f"{len(failures)} failed")
    raise SystemExit(1 if failures else 0)
