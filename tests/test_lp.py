"""Exact simplex: known optima, statuses, duality, a brute-force
vertex-enumeration oracle on random covering problems, and the boundary
certificate every caller's optimum passes."""

import json
from fractions import Fraction
from itertools import combinations

import pytest

from fthresh import InternalError, solve_lp
from fthresh.cli import main
from fthresh.hypergraph import Hypergraph, fractional_chromatic, fractional_matching_number

from conftest import corrupt_simplex, scale_duals, scale_x

F = Fraction


def test_known_minimum():
    # min x+y  s.t.  x+2y >= 4, 3x+y >= 6  -> vertex (8/5, 6/5), value 14/5
    res = solve_lp(
        [F(1), F(1)],
        [([F(1), F(2)], ">=", F(4)), ([F(3), F(1)], ">=", F(6))],
        sense="min",
    )
    assert res.status == "optimal"
    assert res.value == F(14, 5)
    assert res.x == (F(8, 5), F(6, 5))


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
    # min x+2y+3z  s.t. x+y+z == 1, x - y == 0
    res = solve_lp(
        [F(1), F(2), F(3)],
        [([F(1), F(1), F(1)], "==", F(1)), ([F(1), F(-1), F(0)], "==", F(0))],
        sense="min",
    )
    assert res.status == "optimal" and res.value == F(3, 2)


def test_infeasible():
    res = solve_lp([F(1)], [([F(1)], "<=", F(-2))], sense="min")
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp([F(1)], [([F(1)], ">=", F(1))], sense="max")
    assert res.status == "unbounded"


def test_degenerate_zero_rhs():
    res = solve_lp(
        [F(1), F(1)],
        [([F(1), F(-1)], ">=", F(0)), ([F(1), F(1)], ">=", F(2))],
        sense="min",
    )
    assert res.status == "optimal" and res.value == F(2)


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
        res = solve_lp(objective, constraints, sense="min")
        assert res.status == "optimal"
        assert res.value == _oracle_min(objective, constraints)
        # dual certificate: y >= 0, A^T y <= c, value agreement
        assert all(d >= 0 for d in res.duals)
        for j in range(n):
            assert (
                sum(res.duals[i] * constraints[i][0][j] for i in range(rows))
                <= objective[j]
            )
        assert res.value == sum(
            d * c[2] for d, c in zip(res.duals, constraints)
        )


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
