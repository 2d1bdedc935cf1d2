"""Exact simplex on its one form ("<=" rows, rhs >= 0): known optima
(">=" and "==" LPs posed as their duals), statuses, duality, the rows it
refuses, a brute-force vertex-enumeration oracle on random covering
problems, the retired `Fraction` simplex as a pivot-for-pivot oracle of
the integer tableau, and the boundary certificate every caller's optimum
passes."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from fthresh import InternalError, UnsupportedInputError, lp, solve_lp
from fthresh.cli import main
from fthresh.hypergraph import Hypergraph, fractional_chromatic, fractional_matching_number

from conftest import corrupt_simplex, fraction_minimize, scale_duals, scale_x

F = Fraction


def test_known_minimum():
    # min x+y  s.t.  x+2y >= 4, 3x+y >= 6 has the vertex (8/5, 6/5) and
    # value 14/5; it is posed as its dual max 4u+6w  s.t.  u+3w <= 1,
    # 2u+w <= 1, whose duals are that vertex
    res = solve_lp(
        [F(4), F(6)],
        [([F(1), F(3)], "<=", F(1)), ([F(2), F(1)], "<=", F(1))],
        sense="max",
    )
    assert res.status == "optimal"
    assert res.value == F(14, 5)
    assert res.x == (F(2, 5), F(1, 5))
    assert res.duals == (F(8, 5), F(6, 5))


def test_known_maximum_and_dual_value():
    # max 3x+5y  s.t.  x <= 4, 2y <= 12, 3x+2y <= 18 -> 36 at (2,6)
    res = solve_lp(
        [F(3), F(5)],
        [
            ([F(1), F(0)], "<=", F(4)),
            ([F(0), F(2)], "<=", F(12)),
            ([F(3), F(2)], "<=", F(18)),
        ],
        sense="max",
    )
    assert res.status == "optimal" and res.value == F(36)
    assert sum(d * r for d, r in zip(res.duals, [F(4), F(12), F(18)])) == F(36)


def test_equality_constraints():
    # min x+2y+3z  s.t. x+y+z == 1, x - y == 0 (optimum 3/2 at (1/2, 1/2, 0))
    # is posed as its dual max u  s.t. u+w <= 1, u-w <= 2, u <= 3 with the
    # free u and w split into nonnegative parts (u+, u-, w+, w-)
    res = solve_lp(
        [1, -1, 0, 0],
        [([1, -1, 1, -1], "<=", 1), ([1, -1, -1, 1], "<=", 2), ([1, -1, 0, 0], "<=", 3)],
        sense="max",
    )
    assert res.status == "optimal" and res.value == F(3, 2)
    assert res.duals == (F(1, 2), F(1, 2), 0)


def test_infeasible():
    # the empty { x >= 0 : x <= -2 } shows as its unbounded dual
    # max { 2y : -y <= 1, y >= 0 }, as an empty Newton body does in body.py
    assert solve_lp([F(2)], [([F(-1)], "<=", F(1))], sense="max").status == "unbounded"


def test_unbounded():
    res = solve_lp([F(1), F(1)], [([F(1), F(-1)], "<=", F(1))], sense="max")
    assert res.status == "unbounded"


def test_degenerate_zero_rhs():
    # the first pivot is degenerate: x enters on the rhs-0 row x - y <= 0
    res = solve_lp(
        [F(1), F(1)],
        [([F(1), F(-1)], "<=", F(0)), ([F(-1), F(1)], "<=", F(0)), ([F(1), F(1)], "<=", F(2))],
        sense="max",
    )
    assert res.status == "optimal" and res.value == F(2) and res.x == (F(1), F(1))


@pytest.mark.parametrize(
    "row",
    [([F(1)], ">=", F(1)), ([F(1)], "==", F(1)), ([F(1)], "<=", F(-2))],
    ids=[">=", "==", "negative rhs"],
)
def test_rows_outside_the_one_form_are_unsupported(row):
    """Only "<=" rows with rhs >= 0 are taken, so x = 0 is always feasible
    and the simplex needs no phase 1."""
    with pytest.raises(UnsupportedInputError):
        solve_lp([F(1)], [([F(1)], "<=", F(3)), row], sense="min")


def _oracle_min(objective, constraints):
    """All basic feasible points by exhaustive vertex enumeration: pick n
    active hyperplanes among constraints and axes, solve exactly."""
    n = len(objective)
    rows = [(list(c), rhs) for c, _, rhs in constraints]
    axes = [([F(1 if j == i else 0) for j in range(n)], F(0)) for i in range(n)]
    best = None
    for active in combinations(rows + axes, n):
        mat = [list(r[0]) + [r[1]] for r in active]
        # gaussian elimination over fractions
        sol = _solve_square(mat, n)
        if sol is None or any(x < 0 for x in sol):
            continue
        if all(
            sum(c * x for c, x in zip(coeffs, sol)) >= rhs for coeffs, rhs in rows
        ):
            val = sum(c * x for c, x in zip(objective, sol))
            best = val if best is None else min(best, val)
    return best


def _solve_square(mat, n):
    mat = [row[:] for row in mat]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv = mat[col][col]
        mat[col] = [a / pv for a in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return [mat[r][n] for r in range(n)]


def test_random_covering_lps_match_vertex_oracle(rng):
    """Random covering LPs, posed as their packing duals: the dual optimum
    is the covering minimum, and its duals are a covering point."""
    for _ in range(25):
        n = rng.randint(2, 3)
        rows = rng.randint(2, 4)
        objective = [F(rng.randint(1, 4)) for _ in range(n)]
        constraints = []
        for _ in range(rows):
            coeffs = [F(rng.randint(0, 3)) for _ in range(n)]
            if not any(coeffs):
                coeffs[rng.randrange(n)] = F(1)
            constraints.append((coeffs, ">=", F(rng.randint(1, 5))))
        # max b.y  s.t.  A^T y <= c, y >= 0
        packing = [
            ([coeffs[j] for coeffs, _, _ in constraints], "<=", objective[j])
            for j in range(n)
        ]
        res = solve_lp([rhs for _, _, rhs in constraints], packing, sense="max")
        assert res.status == "optimal"
        assert res.value == _oracle_min(objective, constraints)
        # the duals: a covering point x >= 0 with A x >= b and c.x = value
        x = res.duals
        assert all(v >= 0 for v in x)
        for coeffs, _, rhs in constraints:
            assert sum(a * v for a, v in zip(coeffs, x)) >= rhs
        assert sum(c * v for c, v in zip(objective, x)) == res.value


def _random_rational(rng: random.Random, zero_share: float):
    """0 with the given probability, else a rational with |numerator| <= 6
    and denominator <= 6; whole values come back as plain ints at times."""
    if rng.random() < zero_share:
        return 0
    v = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return int(v) if v.denominator == 1 and rng.random() < 0.5 else v


def _random_lp(rng: random.Random):
    """A "<=" LP with rhs >= 0 (0 at times: degenerate rows), coefficients
    of both signs and a random sense; the objective's signs are free, so
    some LPs are unbounded."""
    n = rng.randint(1, 6)
    c = [Fraction(_random_rational(rng, 0.2)) for _ in range(n)]
    constraints = []
    for _ in range(rng.randint(0, 8)):
        zero_row = rng.random() < 0.08
        coeffs = [0 if zero_row else _random_rational(rng, 0.3) for _ in range(n)]
        rhs = abs(_random_rational(rng, 0.25))
        constraints.append((coeffs, "<=", rhs))
    return c, constraints, rng.choice(["min", "max"])


def test_integer_tableau_matches_fraction_simplex():
    """The fraction-free tableau takes the retired simplex's pivots, so
    status, value, vertex and duals all agree on 600 seeded "<=" LPs with
    zero and positive right-hand sides, zero rows, both senses, and
    optimal and unbounded cases."""
    rng = random.Random(20261022)
    statuses = Counter()
    for _ in range(600):
        c, constraints, sense = _random_lp(rng)
        cmin = [-v for v in c] if sense == "max" else c
        got = lp._minimize(cmin, constraints)
        assert got == fraction_minimize(cmin, constraints), (c, constraints, sense)
        statuses[sense, got.status] += 1
        if got.status == "optimal":
            res = solve_lp(c, constraints, sense)  # and it passes _certify
            assert res.x == got.x
            assert res.value == (got.value if sense == "min" else -got.value)
    kinds = product(("min", "max"), ("optimal", "unbounded"))
    assert min(statuses[k] for k in kinds) >= 50, statuses


@pytest.mark.parametrize("corrupt", [scale_x, scale_duals], ids=["x", "duals"])
def test_corrupt_optimum_is_internal_error(monkeypatch, capsys, corrupt):
    """An optimum the simplex gets wrong never leaves solve_lp: the
    hypergraph LPs raise, and the CLI reports it.  The threshold LP and the
    body LP are held to the same check in test_nu and test_body."""
    corrupt_simplex(monkeypatch, corrupt)
    c5 = Hypergraph.cycle(5)
    for question in (
        lambda: fractional_matching_number(c5),
        lambda: fractional_chromatic(c5),
    ):
        with pytest.raises(InternalError, match="LP certificate"):
            question()
    assert main(["hypergraph", "--graph", json.dumps(c5.to_json())]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "InternalError" and "LP certificate" in err["message"]
