"""Curated regression fixtures with frozen expected values.

Each fixture computes one exact quantity through the public API and
compares its serialized form against a hand-checked constant.  The
`verify-examples` CLI verb renders these as a table; the test suite runs
them all and also exercises the deliberate-failure path by corrupting an
expected value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from .filtration import (
    CeilingPower,
    IntegralClosurePowers,
    OrdinaryPowers,
    PrimePowerIntersection,
    SymbolicSquarefree,
)
from .hypergraph import Hypergraph, cover_ideal, edge_ideal, fractional_chromatic
from .monomial import Monomial, MonomialIdeal
from .nu import (
    big_height_criterion,
    fthreshold,
    fthreshold_bracket,
    fthreshold_ordinary,
    fthreshold_symbolic_squarefree,
    nu_value,
    symbolic_fsplit_witness,
)
from .serial import format_fraction
from .waldschmidt import skew_waldschmidt

__all__ = ["FIXTURES", "Fixture", "verify_examples"]


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    expected: str
    compute: Callable[[], str]


def _pair_intersection_ideal(n: int) -> MonomialIdeal:
    """Intersection of all (x_i, x_j): generated by the degree-(n-1)
    square-free monomials."""
    gens = []
    for omit in range(n):
        gens.append([0 if j == omit else 1 for j in range(n)])
    return MonomialIdeal.from_exponents(n, gens)


def _k4_minus_edge() -> Hypergraph:
    edges = [e for e in combinations(range(4), 2) if e != (2, 3)]
    return Hypergraph(4, edges)


def _frac(x) -> str:
    return format_fraction(Fraction(x))


def _fix() -> list[Fixture]:
    maximal2 = MonomialIdeal.maximal(2)
    pure235 = MonomialIdeal.from_exponents(3, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    triangle = _pair_intersection_ideal(3)
    m3 = MonomialIdeal.maximal(3)
    c5 = Hypergraph.cycle(5)

    return [
        Fixture(
            "pair-intersection-symbolic-nu",
            "nu of symbolic powers of the triangle ideal against m, p=3 e=2",
            "16",
            lambda: str(nu_value(SymbolicSquarefree(triangle), m3, 3, 2).nu),
        ),
        Fixture(
            "pair-intersection-symbolic-threshold",
            "symbolic threshold of the pairwise intersection ideal, n=4",
            "2",
            lambda: _frac(
                fthreshold_symbolic_squarefree(_pair_intersection_ideal(4)).value
            ),
        ),
        Fixture(
            "pair-intersection-ordinary-threshold",
            "ordinary threshold of the pairwise intersection ideal, n=5",
            "5/4",
            lambda: _frac(fthreshold_ordinary(_pair_intersection_ideal(5)).value),
        ),
        Fixture(
            "pure-powers-closure-nu",
            "closure-filtration nu for (x1^2,x2^3,x3^5) against m, p=2 e=3",
            "7",
            lambda: str(nu_value(IntegralClosurePowers(pure235), m3, 2, 3).nu),
        ),
        Fixture(
            "pure-powers-ordinary-nu",
            "ordinary-powers nu for (x1^2,x2^3,x3^5) against m, p=2 e=3",
            "6",
            lambda: str(nu_value(OrdinaryPowers(pure235), m3, 2, 3).nu),
        ),
        Fixture(
            "pure-powers-threshold",
            "threshold of (x1^2,x2^3,x3^5): sum of reciprocals",
            "31/30",
            lambda: _frac(fthreshold_ordinary(pure235).value),
        ),
        Fixture(
            "ceiling-threshold",
            "ceiling filtration over m_2 with beta=10/7 has threshold 2/beta",
            "7/5",
            lambda: _frac(
                fthreshold(CeilingPower(maximal2, Fraction(10, 7))).value
            ),
        ),
        Fixture(
            "ceiling-nu",
            "ceiling filtration nu at p=2 e=4: floor(alpha*(q-1)) with alpha=7/5",
            "21",
            lambda: str(
                nu_value(
                    CeilingPower(maximal2, Fraction(10, 7)),
                    MonomialIdeal.maximal(2),
                    2,
                    4,
                ).nu
            ),
        ),
        Fixture(
            "prime-power-min-threshold",
            "intersection of powers of (x1,x2),(x2,x3)^2,(x1,x3)^3",
            "2/3",
            lambda: _frac(
                fthreshold(
                    PrimePowerIntersection(
                        3,
                        [
                            (frozenset({0, 1}), 1),
                            (frozenset({1, 2}), 2),
                            (frozenset({0, 2}), 3),
                        ],
                    )
                ).value
            ),
        ),
        Fixture(
            "triangle-fsplit-witness",
            "triangle ideal is symbolic F-split at p=3",
            "True",
            lambda: str(symbolic_fsplit_witness(triangle, 3)),
        ),
        Fixture(
            "triangle-symbolic-membership",
            "(x1 x2 x3)^(q-1) lies in the 2(q-1)-th symbolic power, q=9",
            "True",
            lambda: str(
                SymbolicSquarefree(triangle).member(16, Monomial([8, 8, 8]))
            ),
        ),
        Fixture(
            "triangle-big-height-witness",
            "unmixed: no containment of the H(q-1) symbolic power, p=2 e<=3",
            "True",
            lambda: str(big_height_criterion(triangle, m3, 2, 3).all_non_contained),
        ),
        Fixture(
            "chordal-cover-threshold",
            "cover ideal of K4 minus an edge: threshold w/(w-1) with w=3",
            "3/2",
            lambda: _frac(fthreshold_ordinary(cover_ideal(_k4_minus_edge())).value),
        ),
        Fixture(
            "odd-cycle-cover-symbolic-threshold",
            "symbolic threshold of the C5 cover ideal: the height",
            "2",
            lambda: _frac(
                fthreshold_symbolic_squarefree(cover_ideal(c5)).value
            ),
        ),
        Fixture(
            "odd-cycle-cover-waldschmidt",
            "Waldschmidt constant of symbolic powers of the C5 cover ideal",
            "5/2",
            lambda: _frac(
                skew_waldschmidt(
                    [Fraction(1)] * 5, SymbolicSquarefree(cover_ideal(c5))
                ).exact
            ),
        ),
        Fixture(
            "odd-cycle-cover-bracket-lower",
            "bracket lower bound for the C5 cover ideal at p=3, e<=4",
            "160/81",
            lambda: _frac(
                fthreshold_bracket(
                    SymbolicSquarefree(cover_ideal(c5)), 3, 4
                ).lower
            ),
        ),
        Fixture(
            "odd-cycle-cover-bracket-upper",
            "bracket upper bound for the C5 cover ideal: the threshold",
            "2",
            lambda: _frac(
                fthreshold_bracket(
                    SymbolicSquarefree(cover_ideal(c5)), 3, 4
                ).upper
            ),
        ),
        Fixture(
            "hamiltonian-edge-threshold",
            "edge ideal of C6 (Hamiltonian): threshold n/2",
            "3",
            lambda: _frac(fthreshold_ordinary(edge_ideal(Hypergraph.cycle(6))).value),
        ),
        Fixture(
            "perfect-matching-edge-threshold",
            "edge ideal of the Petersen graph: threshold n/2 from a perfect matching",
            "5",
            lambda: _frac(
                fthreshold_ordinary(edge_ideal(Hypergraph.petersen())).value
            ),
        ),
        Fixture(
            "petersen-fractional-chromatic",
            "chi_f of the Petersen graph (vertex-transitive: n/(n-tau))",
            "5/2",
            lambda: _frac(fractional_chromatic(Hypergraph.petersen())),
        ),
    ]


FIXTURES: tuple[Fixture, ...] = tuple(_fix())


def verify_examples(
    name_filter: str | None = None, corrupt: str | None = None
) -> tuple[list[dict], bool]:
    """Run (a filtered subset of) the gallery.  Returns (rows, all_pass).
    `corrupt` replaces the expected value of the named fixture with a
    sentinel — the deliberate-failure path used by the negative-control
    test."""
    rows = []
    all_pass = True
    for fx in FIXTURES:
        if name_filter is not None and name_filter not in fx.name:
            continue
        expected = "<corrupted>" if fx.name == corrupt else fx.expected
        try:
            computed = fx.compute()
        except Exception as exc:  # surface, don't abort the table
            computed = f"error: {exc}"
        ok = computed == expected
        all_pass = all_pass and ok
        rows.append(
            {
                "name": fx.name,
                "description": fx.description,
                "expected": expected,
                "computed": computed,
                "pass": ok,
            }
        )
    return rows, all_pass
