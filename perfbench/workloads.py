"""Seeded question generators for the two workloads.

A question is one ``fthresh`` CLI invocation (its argv) plus the data the
checks need.  A workload is a fixed list of slots; one round poses one
question per slot, so every round has the same make-up and only the
random content differs.  Round k of a run draws from
``random.Random(f"{workload}:{seed}:{k}")``, so a seed gives the same
questions on every machine, and a run may pose as many rounds as its
time allows.  ``Generator`` redraws any question already posed in the
run, so no question repeats (the known-fault question of ``nu`` varies
its exponent by round for the same reason).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles


@dataclass(frozen=True)
class Question:
    kind: str
    argv: tuple[str, ...]
    data: dict = field(compare=False, hash=False)


# ---------------------------------------------------------------------- #
# random objects
# ---------------------------------------------------------------------- #


def antichain(rng: random.Random, n: int, g: int, max_exp: int) -> list[tuple[int, ...]]:
    """g pairwise non-dividing nonzero exponent vectors in n variables."""
    while True:
        gens: list[tuple[int, ...]] = []
        for _ in range(200):
            v = tuple(rng.randint(0, max_exp) for _ in range(n))
            if any(v) and not any(oracles.divides(h, v) or oracles.divides(v, h) for h in gens):
                gens.append(v)
                if len(gens) == g:
                    return sorted(gens)


def squarefree(rng: random.Random, n: int, g: int) -> list[tuple[int, ...]]:
    """g pairwise non-dividing square-free monomials of degree >= 2."""
    while True:
        gens: list[tuple[int, ...]] = []
        for _ in range(200):
            supp = rng.sample(range(n), rng.randint(2, n - 1))
            v = tuple(1 if j in supp else 0 for j in range(n))
            if not any(oracles.divides(h, v) or oracles.divides(v, h) for h in gens):
                gens.append(v)
                if len(gens) == g:
                    return sorted(gens)


def graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    return sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))


def chordal_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Each new vertex joins a clique inside an old vertex's closed
    neighbourhood, so the reverse insertion order is a perfect
    elimination order; vertex labels are then shuffled."""
    while True:
        adj = [set() for _ in range(n)]
        for v in range(1, n):
            u = rng.randrange(v)
            clique = [u]
            for w in sorted(adj[u]):
                if rng.random() < 0.5 and all(w in adj[x] for x in clique):
                    clique.append(w)
            for w in clique:
                adj[w].add(v)
                adj[v].add(w)
        label = rng.sample(range(n), n)
        edges = sorted({tuple(sorted((label[a], label[b]))) for a in range(n) for b in adj[a]})
        if oracles.clique_number(n, edges) >= 2:
            return edges


def m_primary(rng: random.Random, n: int, max_pure: int) -> list[tuple[int, ...]]:
    """Pure powers of every variable plus one mixed generator below them,
    so the target is m-primary but not generated by pure powers."""
    b = [rng.randint(2, max_pure) for _ in range(n)]
    gens = [tuple(b[j] if i == j else 0 for i in range(n)) for j in range(n)]
    while True:
        mixed = tuple(rng.randint(0, b[j] - 1) for j in range(n))
        if sum(1 for x in mixed if x) >= 2:
            return sorted(gens + [mixed])


def pure_target(rng: random.Random, n: int, max_exp: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, max_exp) for _ in range(n))


# ---------------------------------------------------------------------- #
# argv rendering
# ---------------------------------------------------------------------- #


def ideal_text(gens) -> str:
    parts = []
    for g in gens:
        factors = [f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}" for j, e in enumerate(g) if e]
        parts.append("*".join(factors) if factors else "1")
    return ";".join(parts)


def ideal_json(n: int, gens) -> dict:
    return {"vars": n, "generators": [list(g) for g in gens]}


def rule_ordinary(n, gens):
    return {"rule": "ordinary", "ideal": ideal_json(n, gens)}


def rule_closure(n, gens):
    return {"rule": "integral_closure", "ideal": ideal_json(n, gens)}


def rule_ceiling(n, gens, beta: Fraction):
    return {"rule": "ceiling", "ideal": ideal_json(n, gens), "beta": f"{beta.numerator}/{beta.denominator}"}


def rule_symbolic(n, gens):
    return {"rule": "symbolic", "ideal": ideal_json(n, gens)}


def rule_ppi(n, comps):
    return {
        "rule": "prime_power_intersection",
        "vars": n,
        "components": [{"support": sorted(s), "weight": w} for s, w in comps],
    }


def compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def random_beta(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.randint(1, 3))


def random_ppi(rng: random.Random, n: int, comps: int, max_weight: int = 3):
    return [
        (frozenset(rng.sample(range(n), rng.randint(1, n))), rng.randint(1, max_weight))
        for _ in range(comps)
    ]


# ---------------------------------------------------------------------- #
# thresholds
# ---------------------------------------------------------------------- #


def q_threshold_ordinary(rng, n, g):
    gens = antichain(rng, n, g, 4)
    return Question("threshold_ordinary", ("fthreshold", "--ideal", ideal_text(gens), "--nvars", str(n)), {"n": n, "gens": gens})


def q_threshold_closure(rng, n, g):
    gens = antichain(rng, n, g, 4)
    return Question("threshold_closure", ("fthreshold", "--filtration", compact(rule_closure(n, gens))), {"n": n, "gens": gens})


def q_threshold_ceiling(rng, n, g):
    gens = antichain(rng, n, g, 4)
    beta = random_beta(rng)
    return Question(
        "threshold_ceiling",
        ("fthreshold", "--filtration", compact(rule_ceiling(n, gens, beta))),
        {"n": n, "gens": gens, "beta": beta},
    )


def q_rees(rng, n, g):
    gens = antichain(rng, n, g, 4)
    return Question("rees", ("rees", "--ideal", ideal_text(gens), "--nvars", str(n)), {"n": n, "gens": gens})


def q_waldschmidt(rng, kind, n, g):
    gens = antichain(rng, n, g, 4)
    weights = [rng.randint(1, 5) for _ in range(n)]
    beta = random_beta(rng)
    rule = {"ordinary": rule_ordinary, "integral_closure": rule_closure}.get(kind)
    rule = rule(n, gens) if rule else rule_ceiling(n, gens, beta)
    argv = ("waldschmidt", "--filtration", compact(rule), "--weights", ",".join(map(str, weights)))
    return Question("waldschmidt", argv, {"n": n, "gens": gens, "weights": weights, "rule": rule})


def edge_gens(n, edges):
    return [tuple(1 if j in e else 0 for j in range(n)) for e in edges]


def q_threshold_edge(rng, n, m):
    edges = graph(rng, n, m)
    argv = ("fthreshold", "--ideal", ideal_text(edge_gens(n, edges)), "--nvars", str(n))
    return Question("threshold_edge", argv, {"n": n, "edges": edges})


def q_threshold_symbolic_edge(rng, n, m):
    edges = graph(rng, n, m)
    argv = ("fthreshold", "--filtration", compact(rule_symbolic(n, edge_gens(n, edges))))
    return Question("threshold_symbolic", argv, {"n": n, "supports": edges})


def q_threshold_symbolic(rng, n, g):
    gens = squarefree(rng, n, g)
    supports = [[j for j, e in enumerate(v) if e] for v in gens]
    argv = ("fthreshold", "--filtration", compact(rule_symbolic(n, gens)))
    return Question("threshold_symbolic", argv, {"n": n, "supports": supports})


def q_hypergraph(rng, n, m):
    edges = graph(rng, n, m)
    argv = ("hypergraph", "--graph", compact({"n": n, "edges": [list(e) for e in edges]}))
    return Question("hypergraph", argv, {"n": n, "edges": edges})


def q_threshold_cover_chordal(rng, n):
    edges = chordal_graph(rng, n)
    covers = oracles.minimal_vertex_covers(n, edges)
    gens = sorted(tuple(1 if j in c else 0 for j in range(n)) for c in covers)
    argv = ("fthreshold", "--ideal", ideal_text(gens), "--nvars", str(n))
    return Question("threshold_cover_chordal", argv, {"n": n, "edges": edges})


# About a quarter of the questions take a few ms (symbolic thresholds,
# skew Waldschmidt constants of ordinary and ceiling powers), about 40% go
# through the threshold LP or the hypergraph report (10-30 ms), and the
# rest enumerate Newton facets (30-250 ms).  The median then falls inside
# the LP group and the 90th percentile inside the facet group.
THRESHOLDS = [
    (q_threshold_symbolic_edge, 7, 9),
    (q_threshold_symbolic_edge, 8, 12),
    (q_threshold_symbolic, 6, 3),
    (q_threshold_symbolic, 6, 4),
    (q_waldschmidt, "ordinary", 4, 4),
    (q_waldschmidt, "ordinary", 3, 5),
    (q_waldschmidt, "ceiling", 4, 4),
    (q_threshold_edge, 7, 10),
    (q_threshold_edge, 7, 12),
    (q_threshold_edge, 8, 12),
    (q_threshold_edge, 8, 14),
    (q_threshold_edge, 8, 16),
    (q_hypergraph, 6, 9),
    (q_hypergraph, 7, 10),
    (q_hypergraph, 7, 12),
    (q_hypergraph, 8, 12),
    (q_hypergraph, 8, 14),
    (q_threshold_ordinary, 3, 4),
    (q_threshold_ordinary, 4, 3),
    (q_threshold_closure, 3, 4),
    (q_threshold_ceiling, 3, 4),
    (q_rees, 3, 4),
    (q_rees, 4, 3),
    (q_waldschmidt, "integral_closure", 3, 4),
    (q_threshold_edge, 6, 5),
    (q_threshold_cover_chordal, 5),
]


# ---------------------------------------------------------------------- #
# nu: witness-path questions
# ---------------------------------------------------------------------- #


def _nu_seq(rule, n, target, p, emax, source=None):
    """A nu-seq question; the rule goes in as --filtration JSON unless
    source gives other argv for it."""
    argv = ["nu-seq", *(source or ["--filtration", compact(rule)])]
    if target is not None:
        argv += ["--target", ideal_text(oracles.pure_gens(target))]
    argv += ["-p", str(p), "--emax", str(emax)]
    data = {"n": n, "rule": rule, "target": target or (1,) * n, "p": p, "emax": emax}
    return Question("nu_witness", tuple(argv), data)


def q_witness_ordinary(rng, n, p, emax, pure):
    gens = antichain(rng, n, 3, 6 if n == 2 else 3)
    target = pure_target(rng, n, 2) if pure else None
    source = ["--ideal", ideal_text(gens), "--nvars", str(n)]
    return _nu_seq(rule_ordinary(n, gens), n, target, p, emax, source)


def q_witness_ceiling(rng, n, p, emax, pure):
    gens = antichain(rng, n, 3, 5)
    target = pure_target(rng, n, 2) if pure else None
    return _nu_seq(rule_ceiling(n, gens, random_beta(rng)), n, target, p, emax)


def q_witness_closure(rng, n, p, emax, pure):
    gens = antichain(rng, n, 3, 6 if n == 2 else 3)
    target = pure_target(rng, n, 3) if pure else None
    return _nu_seq(rule_closure(n, gens), n, target, p, emax)


def q_witness_symbolic(rng, n, p, emax, pure):
    gens = squarefree(rng, n, 3)
    target = pure_target(rng, n, 3) if pure else None
    return _nu_seq(rule_symbolic(n, gens), n, target, p, emax)


def q_witness_ppi(rng, n, p, emax, pure):
    target = pure_target(rng, n, 3) if pure else None
    return _nu_seq(rule_ppi(n, random_ppi(rng, n, rng.randint(2, 3))), n, target, p, emax)


def q_witness_intersection(rng, n, p, emax, pure):
    left = rng.choice(
        [
            lambda: rule_ordinary(n, antichain(rng, n, 3, 3)),
            lambda: rule_ceiling(n, antichain(rng, n, 3, 3), random_beta(rng)),
        ]
    )()
    right = rng.choice(
        [
            lambda: rule_closure(n, antichain(rng, n, 2, 3)),
            lambda: rule_symbolic(n, [(1,) * n]),
            lambda: rule_ppi(n, random_ppi(rng, n, 2)),
        ]
    )()
    target = pure_target(rng, n, 2) if pure else None
    rule = {"rule": "intersection", "left": left, "right": right}
    return _nu_seq(rule, n, target, p, emax)


FAULT_GENS = [(0, 3), (1, 1), (2, 0)]


def q_fault(k):
    """The known fault: the membership DP recurses once per generator
    used, so ordinary powers of (x1*x2, x1^2, x2^3) hit the recursion
    limit for q >= 2^11.  Round k asks e = 12 + k, so the question never
    repeats and does not depend on the seed."""
    e = 12 + k
    argv = ("nu", "--ideal", "x1*x2;x1^2;x2^3", "-p", "2", "-e", str(e))
    return Question("nu_single", argv, {"n": 2, "rule": rule_ordinary(2, FAULT_GENS), "target": (1, 1), "p": 2, "e": e})


# About two thirds of these questions are answered by a closed-form
# witness level (symbolic, prime-power, integral closure); they are the
# cheapest of the ``nu`` workload, so its median measures the CLI, parsing
# and JSON output.  The rest run the membership DP of ordinary and ceiling
# powers and, with the general-path questions, hold the 90th percentile.
NU_WITNESS = [
    (q_witness_symbolic, 5, 2, 16, False),
    (q_witness_symbolic, 5, 2, 12, True),
    (q_witness_symbolic, 5, 3, 10, False),
    (q_witness_symbolic, 5, 3, 8, True),
    (q_witness_symbolic, 5, 5, 7, True),
    (q_witness_ppi, 4, 2, 16, True),
    (q_witness_ppi, 4, 2, 12, False),
    (q_witness_ppi, 4, 3, 10, False),
    (q_witness_ppi, 4, 3, 8, True),
    (q_witness_ppi, 4, 5, 7, False),
    (q_witness_closure, 2, 2, 12, False),
    (q_witness_closure, 2, 2, 10, True),
    (q_witness_closure, 2, 3, 8, False),
    (q_witness_closure, 2, 5, 6, True),
    (q_witness_closure, 3, 2, 12, False),
    (q_witness_closure, 3, 3, 8, True),
    (q_witness_ordinary, 2, 2, 7, False),
    (q_witness_ordinary, 2, 2, 6, True),
    (q_witness_ordinary, 2, 3, 4, False),
    (q_witness_ordinary, 2, 5, 3, False),
    (q_witness_ordinary, 3, 2, 5, False),
    (q_witness_ceiling, 2, 2, 7, False),
    (q_witness_ceiling, 2, 3, 4, True),
    (q_witness_intersection, 2, 2, 7, False),
    (q_witness_intersection, 2, 3, 4, True),
]


# ---------------------------------------------------------------------- #
# nu: general-path questions
# ---------------------------------------------------------------------- #


def _general(rule, n, target_gens, p, emax):
    argv = (
        "nu-seq", "--filtration", compact(rule), "--target", ideal_text(target_gens),
        "-p", str(p), "--emax", str(emax),
    )
    return Question("nu_general", argv, {"n": n, "rule": rule, "target_gens": target_gens, "p": p, "emax": emax})


def q_general_ordinary(rng, p, emax):
    return _general(rule_ordinary(2, antichain(rng, 2, 3, 4)), 2, m_primary(rng, 2, 3), p, emax)


def q_general_ceiling(rng, p, emax):
    return _general(rule_ceiling(2, antichain(rng, 2, 3, 3), random_beta(rng)), 2, m_primary(rng, 2, 3), p, emax)


def q_general_symbolic(rng, p, emax):
    return _general(rule_symbolic(3, squarefree(rng, 3, rng.randint(1, 3))), 3, m_primary(rng, 3, 3), p, emax)


def q_general_ppi(rng, p, emax):
    return _general(rule_ppi(2, random_ppi(rng, 2, 2, 2)), 2, m_primary(rng, 2, 4), p, emax)


def q_composite(rng, rule_name, p, emax):
    left = antichain(rng, 2, 3, 4)
    right = antichain(rng, 2, 3, 4)
    rule = {"rule": rule_name, "left": rule_ordinary(2, left), "right": rule_ordinary(2, right)}
    argv = ("nu-seq", "--filtration", compact(rule), "-p", str(p), "--emax", str(emax))
    return Question("nu_composite", argv, {"n": 2, "rule": rule, "left": left, "right": right, "p": p, "emax": emax})


def _small_rule(rng, kind, n):
    if kind == "symbolic":
        return rule_symbolic(n, rng.choice([[(1, 0)], [(0, 1)], [(1, 1)], [(1, 0), (0, 1)]]))
    if kind == "prime_power":
        return rule_ppi(n, random_ppi(rng, n, rng.randint(1, 2), 2))
    gens = antichain(rng, n, rng.randint(1, 2), 3)
    if kind == "closure":
        return rule_closure(n, gens)
    if kind == "ceiling":
        return rule_ceiling(n, gens, random_beta(rng))
    return rule_ordinary(n, gens)


def q_laws(rng, left_kind, right_kind, emax):
    """Rule pairs drawn like the law checks of the acceptance tests: one
    or two variables, small generators, p = 2."""
    n = 2
    left = _small_rule(rng, left_kind, n)
    right = _small_rule(rng, right_kind, n)
    argv = ("laws", "--left", compact(left), "--right", compact(right), "-p", "2", "--emax", str(emax))
    return Question("laws", argv, {"n": n, "left": left, "right": right, "p": 2, "emax": emax})


NU_GENERAL = [
    (q_general_ordinary, 2, 3),
    (q_general_ordinary, 2, 2),
    (q_general_ordinary, 3, 2),
    (q_general_ceiling, 2, 3),
    (q_general_ceiling, 3, 2),
    (q_general_symbolic, 2, 3),
    (q_general_ppi, 2, 3),
    (q_composite, "product", 2, 5),
    (q_composite, "product", 3, 3),
    (q_composite, "binomial_sum", 2, 4),
    (q_composite, "binomial_sum", 3, 2),
    (q_laws, "ordinary", "ordinary", 2),
    (q_laws, "ordinary", "prime_power", 2),
    (q_laws, "ordinary", "ceiling", 2),
    (q_laws, "ceiling", "symbolic", 2),
    (q_laws, "prime_power", "prime_power", 2),
]


# One round of ``nu`` poses every witness slot, the known-fault question
# and every general slot, so level materialization and the membership DP
# carry most of its question time between them.
WORKLOADS = {
    "thresholds": THRESHOLDS,
    "nu": NU_WITNESS + NU_GENERAL,
}


class SpaceExhausted(Exception):
    """A slot has no question left that this run has not posed."""


MAX_DRAWS = 2000


class Generator:
    """Rounds of questions for one workload and seed, never repeating."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.slots = WORKLOADS[workload]
        self.seen: set[tuple[str, ...]] = set()

    def round(self, k: int) -> list[Question]:
        rng = random.Random(f"{self.workload}:{self.seed}:{k}")
        out = []
        for make, *params in self.slots:
            for _ in range(MAX_DRAWS):
                q = make(rng, *params)
                if q.argv not in self.seen:
                    break
            else:
                raise SpaceExhausted(f"slot {make.__name__}{tuple(params)} after {k} rounds")
            self.seen.add(q.argv)
            out.append(q)
        if self.workload == "nu":
            out.insert(len(NU_WITNESS), q_fault(k))
        return out
