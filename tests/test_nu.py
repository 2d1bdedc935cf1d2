"""The nu engine against a brute-force general-path oracle, degenerate
conventions, threshold routing with certificates, structural laws, and
the big-height criterion."""

import json
from fractions import Fraction

import pytest

import fthresh
from fthresh import (
    AmbientMismatchError,
    BinomialSum,
    CeilingPower,
    FThreshError,
    IntegralClosurePowers,
    InternalError,
    IntersectionFiltration,
    Monomial,
    MonomialIdeal,
    OrdinaryPowers,
    PrimePowerIntersection,
    ProductFiltration,
    SymbolicSquarefree,
    UnsupportedInputError,
    VeroneseAnnotation,
    big_height_criterion,
    check_min_law,
    check_sum_product_laws,
    fthreshold,
    fthreshold_bracket,
    fthreshold_ordinary,
    fthreshold_prime_power_intersection,
    fthreshold_symbolic_squarefree,
    nu_sequence,
    nu_value,
    rees_valuations,
    skew_waldschmidt,
    symbolic_bracket_containment,
    symbolic_fsplit_witness,
)
from fthresh import newton
from fthresh.hypergraph import Hypergraph, edge_ideal
from fthresh.cli import main
from fthresh.nu import threshold_attainment_report

from conftest import general_path_nu, random_filtration, random_ideal

F = Fraction
xy = MonomialIdeal.from_exponents

TRIANGLE = xy(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])


# ------------------------------------------------------------------ #
# nu values
# ------------------------------------------------------------------ #


def test_degenerate_targets():
    f = OrdinaryPowers(xy(2, [[1, 1]]))
    unit = nu_value(f, MonomialIdeal.unit(2), 2, 3)
    assert unit.status == "minus_infinite" and unit.nu is None
    zero = nu_value(f, MonomialIdeal.zero(2), 2, 3)
    assert zero.status == "infinite"
    zf = OrdinaryPowers(MonomialIdeal.zero(2))
    rec = nu_value(zf, MonomialIdeal.zero(2), 2, 3)
    assert rec.status == "finite" and rec.nu == 0
    assert nu_value(zf, MonomialIdeal.maximal(2), 2, 3).nu == 0


def test_validation():
    f = OrdinaryPowers(xy(2, [[1, 1]]))
    with pytest.raises(UnsupportedInputError):
        nu_value(f, MonomialIdeal.maximal(2), 4, 1)  # 4 is not prime
    with pytest.raises(UnsupportedInputError):
        nu_value(f, MonomialIdeal.maximal(2), 2, -1)
    with pytest.raises(AmbientMismatchError):
        nu_value(f, MonomialIdeal.maximal(3), 2, 1)


def test_witness_path_against_general_path(rng):
    """Same answers through the closed-form witness route and the
    generator-containment oracle."""
    m2 = MonomialIdeal.maximal(2)
    m3 = MonomialIdeal.maximal(3)
    cases = [
        (OrdinaryPowers(xy(2, [[2, 0], [1, 1]])), m2),
        (SymbolicSquarefree(TRIANGLE), m3),
        (PrimePowerIntersection(2, [(frozenset({0}), 1), (frozenset({0, 1}), 2)]), m2),
        (IntegralClosurePowers(xy(2, [[2, 0], [0, 3]])), m2),
        (CeilingPower(m2, F(5, 3)), m2),
        (
            IntersectionFiltration(
                OrdinaryPowers(xy(2, [[2, 0]])), OrdinaryPowers(xy(2, [[1, 1]]))
            ),
            m2,
        ),
        (
            BinomialSum(
                OrdinaryPowers(xy(2, [[1, 0]])), OrdinaryPowers(xy(2, [[0, 2]]))
            ),
            m2,
        ),
    ]
    for f, target in cases:
        for p, e in [(2, 1), (2, 2), (3, 1), (2, 3)]:
            fast = nu_value(f, target, p, e)
            assert fast.status == "finite"
            assert general_path_nu(f, target, p, e) == ("finite", fast.nu), (f, p, e)


def test_witness_path_on_non_maximal_pure_target():
    # target (x^2, y^3): witness exponents (2q-1, 3q-1)
    f = OrdinaryPowers(xy(2, [[1, 1]]))
    target = xy(2, [[2, 0], [0, 3]])
    for p, e in [(2, 2), (3, 1)]:
        q = p**e
        fast = nu_value(f, target, p, e)
        assert fast.nu == 2 * q - 1
        assert general_path_nu(f, target, p, e) == ("finite", fast.nu)


def test_general_path_infinite_certified():
    # filtration of powers of (x) can never sit inside powers of (y^2):
    # restricted to the component (y^2), every level is the unit ideal
    f = OrdinaryPowers(xy(2, [[1, 0]]))
    rec = nu_value(f, xy(2, [[0, 2]]), 2, 2)
    assert rec.status == "infinite"
    assert "radical" in rec.note


def test_general_path_finite_non_pure_target():
    # target (x1^2) in two variables: one component, supported on x1 only
    f = OrdinaryPowers(xy(2, [[1, 1]]))
    for p, e in [(2, 1), (2, 3), (3, 2)]:
        q = p**e
        rec = nu_value(f, xy(2, [[2, 0]]), p, e)
        assert rec.status == "finite" and rec.nu == 2 * q - 1
        assert rec.note == "witness"


def test_nu_value_matches_general_path_oracle(rng):
    """Seeded differential test: random filtrations of all nine rules
    against random targets, m-primary or not, infinite cases included."""
    kinds, statuses, non_primary = set(), [], 0
    for _ in range(1000):
        n = rng.randint(1, 3)
        f = random_filtration(rng, n)
        target = random_ideal(rng, n, max_gens=3, max_exp=2)
        p = rng.choice([2, 3])
        e = rng.randint(0, 2 if p == 2 else 1)
        rec = nu_value(f, target, p, e)
        assert (rec.status, rec.nu) == general_path_nu(f, target, p, e), (f, target, p, e)
        if rec.finite:
            assert rec.note == "witness" and rec.ratio == F(rec.nu, p**e)
            non_primary += any(len(s) < n for s, _ in target.irreducible_components())
        else:
            assert "radical" in rec.note
        kinds.add(type(f))
        statuses.append(rec.status)
    assert len(kinds) == 9
    assert statuses.count("infinite") >= 200 and non_primary >= 100


def test_non_pure_target_at_high_q():
    # the baseline slow case: nu against (x1^2, x1 x2, x2^3) at q = 64 is
    # the max over its two components (x1, x2^3) and (x1^2, x2)
    ideal = xy(2, [[1, 1], [2, 0], [0, 3]])
    f = OrdinaryPowers(ideal)
    rec = nu_value(f, ideal, 2, 6)
    parts = [nu_value(f, xy(2, [[1, 0], [0, 3]]), 2, 6), nu_value(f, xy(2, [[2, 0], [0, 1]]), 2, 6)]
    assert rec.nu == max(r.nu for r in parts) == 105


def test_nu_sequence_doubling_and_sup():
    seq = nu_sequence(SymbolicSquarefree(TRIANGLE), MonomialIdeal.maximal(3), 2, 5)
    nus = [r.nu for r in seq.records]
    assert nus == [2 * (2**e - 1) for e in range(6)]
    for prev, cur in zip(seq.records, seq.records[1:]):
        assert 2 * prev.nu <= cur.nu
    assert seq.running_sup == F(2 * 31, 32)
    data = seq.to_json()
    assert data["records"][3]["ratio"] == "7/4"


# ------------------------------------------------------------------ #
# thresholds
# ------------------------------------------------------------------ #


def test_threshold_ordinary_certificates():
    res = fthreshold_ordinary(xy(2, [[2, 0], [0, 3]]))
    assert res.kind == "exact" and res.method == "rees_valuation"
    assert res.value == F(5, 6)
    assert res.certificate["valuation"]["weights"] == ["3", "2"]
    res = fthreshold_ordinary(MonomialIdeal.maximal(3))
    assert res.value == 3


def test_threshold_ordinary_rejects_degenerate():
    with pytest.raises(UnsupportedInputError):
        fthreshold_ordinary(MonomialIdeal.zero(2))
    with pytest.raises(UnsupportedInputError):
        fthreshold_ordinary(MonomialIdeal.unit(2))


def test_threshold_symbolic():
    res = fthreshold_symbolic_squarefree(TRIANGLE)
    assert res.value == 2 and res.method == "symbolic_squarefree"
    assert res.certificate["height"] == 2
    with pytest.raises(UnsupportedInputError):
        fthreshold_symbolic_squarefree(xy(2, [[2, 0]]))


def test_threshold_prime_power_min():
    f = PrimePowerIntersection(
        4,
        [
            (frozenset({0, 1, 2}), 2),
            (frozenset({2, 3}), 1),
            (frozenset({0, 3}), 4),
        ],
    )
    res = fthreshold_prime_power_intersection(f)
    assert res.value == min(F(3, 2), F(2, 1), F(2, 4)) == F(1, 2)
    assert res.method == "prime_power_min"


def test_threshold_router_each_rule():
    m2 = MonomialIdeal.maximal(2)
    zero = OrdinaryPowers(MonomialIdeal.zero(2))
    assert fthreshold(OrdinaryPowers(xy(2, [[2, 0], [0, 3]]))).value == F(5, 6)
    assert fthreshold(IntegralClosurePowers(xy(2, [[2, 0], [0, 3]]))).value == F(5, 6)
    assert fthreshold(SymbolicSquarefree(TRIANGLE)).value == 2
    assert fthreshold(CeilingPower(m2, F(4, 3))).value == F(3, 2)
    inter = IntersectionFiltration(
        SymbolicSquarefree(TRIANGLE).embed(3, 0),
        OrdinaryPowers(MonomialIdeal.maximal(3)),
    )
    res = fthreshold(inter)
    assert res.value == 2 and res.method == "body_lp"
    # composite rules are exact without p or e_max: m^r * m^r = m^(2r)
    prod = ProductFiltration(OrdinaryPowers(m2), OrdinaryPowers(m2))
    res = fthreshold(prod)
    assert res.kind == "exact" and res.value == 1 and res.method == "body_lp"
    # zero filtrations: 0 everywhere, and an empty body drops out of a sum
    res = fthreshold(zero)
    assert res.value == 0 and res.method == "zero_filtration"
    assert fthreshold(BinomialSum(zero, OrdinaryPowers(m2))).value == 2
    res = fthreshold(ProductFiltration(zero, OrdinaryPowers(m2)))
    assert res.value == 0 and res.method == "zero_filtration"
    assert fthreshold_bracket(zero, 2, 3).upper == 0
    # a non-maximal target: m^r is never inside (x1^(2q)), so C is infinite
    res = fthreshold(OrdinaryPowers(m2), target=xy(2, [[2, 0]]))
    assert res.kind == "infinite" and res.value is None
    assert res.to_json()["value"] == "inf"
    assert nu_value(OrdinaryPowers(m2), xy(2, [[2, 0]]), 2, 3).status == "infinite"
    with pytest.raises(UnsupportedInputError):
        fthreshold(OrdinaryPowers(m2), target=MonomialIdeal.unit(2))
    with pytest.raises(AmbientMismatchError):
        fthreshold(OrdinaryPowers(m2), target=MonomialIdeal.maximal(3))


class _NoFacets(RuntimeError):
    pass


def test_exact_thresholds_never_enumerate_facets(monkeypatch):
    """Ordinary, closure and ceiling thresholds and closure Waldschmidt
    constants take the LP / generator routes: with facet enumeration
    broken they still answer, while the facet verbs still need it."""

    def broken(ideal):
        raise _NoFacets("newton_polyhedron called")

    for mod in vars(fthresh).values():
        if getattr(mod, "newton_polyhedron", None) is newton.newton_polyhedron:
            monkeypatch.setattr(mod, "newton_polyhedron", broken)
    # a fresh ideal, so no facet cache could answer
    ideal = xy(3, [[5, 1, 0], [0, 4, 3], [2, 0, 7], [1, 2, 2]])
    want = fthreshold(OrdinaryPowers(ideal))
    assert want.kind == "exact" and want.certificate["route"] == "lp"
    assert "rees_valuations" not in want.certificate
    assert fthreshold(IntegralClosurePowers(ideal)).value == want.value
    assert fthreshold(CeilingPower(ideal, F(3, 2))).value == want.value / F(3, 2)
    res = skew_waldschmidt([1, 2, 0], IntegralClosurePowers(ideal))
    assert res.exact == 2 and res.method == "closure_exact"
    with pytest.raises(_NoFacets):
        rees_valuations(ideal)


def _reverse_weights(res):
    n = len(res.x) - 1  # (v_1..v_n, t)
    return type(res)(res.status, res.value, res.x[:n][::-1] + res.x[n:], res.duals)


def _double_duals(res):
    return type(res)(res.status, res.value, res.x, tuple(2 * d for d in res.duals))


@pytest.mark.parametrize(
    "corrupt, message",
    [(_double_duals, "multipliers"), (_reverse_weights, "weights")],
    ids=["multipliers", "weights"],
)
def test_threshold_lp_corrupt_certificate_is_internal_error(
    monkeypatch, capsys, corrupt, message
):
    solve = newton.solve_lp
    monkeypatch.setattr(newton, "solve_lp", lambda *a, **k: corrupt(solve(*a, **k)))
    with pytest.raises(InternalError, match=message):
        fthreshold(OrdinaryPowers(xy(2, [[2, 0], [0, 3]])))
    assert main(["fthreshold", "--ideal", "x1^2;x2^3"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "InternalError" and message in err["message"]


def test_bracket_certified():
    res = fthreshold_bracket(SymbolicSquarefree(TRIANGLE), 2, 4)
    assert res.lower == F(2 * 15, 16)
    assert res.upper == 2
    assert res.certificate["upper_method"] == "symbolic_squarefree"
    assert res.to_json()["e_max"] == 4


def test_bracket_product_filtration():
    # level r is (x1^2 x2^3)^r, so C is 1/3, from the body LP
    f = ProductFiltration(
        OrdinaryPowers(xy(2, [[2, 0]])), OrdinaryPowers(xy(2, [[0, 3]]))
    )
    res = fthreshold(f)
    assert res.kind == "exact" and res.method == "body_lp"
    assert res.value == F(1, 3) == fthreshold(OrdinaryPowers(xy(2, [[2, 3]]))).value
    bracket = fthreshold_bracket(f, 2, 4)
    assert bracket.upper == F(1, 3) and bracket.lower <= bracket.upper
    assert bracket.certificate["upper_method"] == "body_lp"


def test_pure_power_target_bracket():
    # (xy)^r is outside (x^(2q), y^(3q)) exactly while r < 2q: C = 2
    f = OrdinaryPowers(xy(2, [[1, 1]]))
    res = fthreshold(f, target=xy(2, [[2, 0], [0, 3]]))
    assert res.kind == "exact" and res.method == "body_lp" and res.value == 2
    bracket = fthreshold_bracket(f, 2, 5, target=xy(2, [[2, 0], [0, 3]]))
    assert bracket.lower == F(2 * 32 - 1, 32) and bracket.upper == 2
    # a non-pure target: (x^2 y) = (x^2) cap (y), components 2 and 1
    res = fthreshold(f, target=xy(2, [[2, 1]]))
    assert res.value == 2
    assert sorted(c["s_star"] for c in res.certificate["components"]) == ["1", "1/2"]


def test_veronese_reduce():
    # an annotation is answered as its base, never through its assertion
    base = OrdinaryPowers(xy(2, [[2, 0], [0, 3]]))
    res = fthreshold(VeroneseAnnotation(base, 3))
    assert res.method == "rees_valuation"
    assert res.value == fthreshold_ordinary(xy(2, [[2, 0], [0, 3]])).value
    bad = VeroneseAnnotation(SymbolicSquarefree(TRIANGLE), 1)
    assert not bad.verify()
    assert fthreshold(bad).value == 2
    # a composite base goes to the body LP
    inter = IntersectionFiltration(base, OrdinaryPowers(xy(2, [[1, 1]])))
    res = fthreshold(VeroneseAnnotation(inter, 2))
    assert res.method == "body_lp" and res == fthreshold(inter)


def test_veronese_check_depth_rejects_odd_cycle():
    # symbolic and ordinary powers of the 7-cycle's edge ideal first differ
    # at level 4, so a check to k = 3 would accept this annotation
    c7 = VeroneseAnnotation(SymbolicSquarefree(edge_ideal(Hypergraph.cycle(7))), 1)
    assert c7.verify(3) and not c7.verify()
    res = fthreshold(c7)
    assert res.value == 4 and res.method == "symbolic_squarefree"
    assert skew_waldschmidt([1] * 7, c7).method == "symbolic_lp"


# ------------------------------------------------------------------ #
# laws
# ------------------------------------------------------------------ #


def test_min_law():
    left = OrdinaryPowers(xy(2, [[2, 0], [1, 1]]))
    right = CeilingPower(MonomialIdeal.maximal(2), F(3, 2))
    rep = check_min_law(left, right, 2, 4)
    assert rep.ok and rep.law == "min"
    assert all(row["ok"] for row in rep.rows)
    with pytest.raises(AmbientMismatchError):
        check_min_law(left, SymbolicSquarefree(TRIANGLE), 2, 2)


def test_sum_product_laws():
    left = OrdinaryPowers(xy(2, [[2, 0], [1, 1]]))
    right = SymbolicSquarefree(xy(2, [[1, 0], [0, 1]]))
    rep = check_sum_product_laws(left, right, 2, 3)
    assert rep.ok
    for row in rep.rows:
        assert row["nu_binomial_sum"] == row["nu_left"] + row["nu_right"]
        assert row["nu_product"] == max(row["nu_left"], row["nu_right"])


# ------------------------------------------------------------------ #
# big height, splitting witnesses, attainment
# ------------------------------------------------------------------ #


def test_symbolic_bracket_containment_matches_materialized():
    q = 4
    for level in (1, 3, 2 * (q - 1), 2 * (q - 1) + 1):
        lib = symbolic_bracket_containment(
            TRIANGLE, level, MonomialIdeal.maximal(3), q
        )
        direct = MonomialIdeal.maximal(3).bracket_power(q).contains_ideal(
            SymbolicSquarefree(TRIANGLE).level(level)
        )
        assert lib == direct


def test_big_height_criterion_unmixed():
    rep = big_height_criterion(TRIANGLE, MonomialIdeal.maximal(3), 2, 4)
    assert rep.big_height == rep.height == 2
    assert rep.all_non_contained
    assert rep.upper_bound is None


def test_big_height_criterion_mixed():
    mixed = xy(3, [[1, 1, 0], [1, 0, 1]])  # (x) cap (y,z)
    rep = big_height_criterion(mixed, MonomialIdeal.maximal(3), 2, 3)
    assert rep.big_height == 2 and rep.height == 1
    assert not rep.all_non_contained
    assert rep.upper_bound == F(2) - F(1, 2)
    # and indeed the true symbolic threshold is the height, strictly
    # below the big height
    assert fthreshold_symbolic_squarefree(mixed).value == 1


def test_fsplit_witness():
    assert symbolic_fsplit_witness(TRIANGLE, 2)
    assert symbolic_fsplit_witness(TRIANGLE, 3)
    mixed = xy(3, [[1, 1, 0], [1, 0, 1]])
    assert not symbolic_fsplit_witness(mixed, 2)


def test_attainment_report():
    rep = threshold_attainment_report(MonomialIdeal.maximal(2))
    assert rep["attains_n_over_alpha"] and rep["product_power_in_closure"]
    assert rep["attains_height"] and rep["product_in_height_closure"]
    rep = threshold_attainment_report(xy(2, [[2, 0], [0, 3]]))
    assert rep["threshold"] == F(5, 6)
    assert rep["attains_n_over_alpha"] == rep["product_power_in_closure"] == False
    assert rep["attains_height"] == rep["product_in_height_closure"] == False
