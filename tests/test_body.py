"""The limiting Newton body LP: agreement with every closed form, the nu
bound, the finiteness criterion and the min law on random filtrations of
all eight rules; deep product chains against the powers they equal;
certificate corruption; and the Veronese annotation that no finite check
can verify (the 9-cycle), read as its base."""

import json
import random
from fractions import Fraction

import pytest

from fthresh import (
    BinomialSum,
    CeilingPower,
    IntegralClosurePowers,
    InternalError,
    IntersectionFiltration,
    MonomialIdeal,
    OrdinaryPowers,
    PrimePowerIntersection,
    ProductFiltration,
    SymbolicSquarefree,
    body,
    filtration_from_json,
    fthreshold,
    fthreshold_ordinary,
    nu_value,
    skew_waldschmidt,
)
from fthresh.cli import main
from fthresh.hypergraph import Hypergraph, edge_ideal

from conftest import corrupt_simplex, random_filtration, random_ideal, scale_duals, scale_x

F = Fraction
BASE_RULES = (
    OrdinaryPowers,
    SymbolicSquarefree,
    PrimePowerIntersection,
    IntegralClosurePowers,
    CeilingPower,
)


def _subfiltrations(f):
    yield f
    for child in ("left", "right"):
        if hasattr(f, child):
            yield from _subfiltrations(getattr(f, child))


def _lp_threshold(f):
    """C^m from the body LP alone (None for infinite)."""
    s, _ = body.component_threshold(f, frozenset(range(f.nvars)), (1,) * f.nvars)
    return None if s == 0 else 1 / s


def test_body_lp_differential():
    rng = random.Random(20261018)
    rules = set()
    infinite = nus = 0
    for _ in range(70):
        n = rng.randint(1, 3)
        f = random_filtration(rng, n, depth=2)
        weights = [F(rng.randint(0, 3)) for _ in range(n)]
        weights[rng.randrange(n)] += 1
        for sub in _subfiltrations(f):
            rules.add(type(sub).__name__)
            if isinstance(sub, BASE_RULES):
                # every closed form agrees with the body LP, for C and vhat
                assert fthreshold(sub).value == _lp_threshold(sub), sub
                assert skew_waldschmidt(weights, sub).exact == body.waldschmidt(
                    sub, tuple(weights)
                ), sub
            elif isinstance(sub, IntersectionFiltration):
                # the min law on the maximal ideal
                assert fthreshold(sub).value == min(
                    fthreshold(sub.left).value, fthreshold(sub.right).value
                ), sub
            elif isinstance(sub, (ProductFiltration, BinomialSum)):
                left = skew_waldschmidt(weights, sub.left).exact
                right = skew_waldschmidt(weights, sub.right).exact
                want = left + right if isinstance(sub, ProductFiltration) else min(left, right)
                assert skew_waldschmidt(weights, sub).exact == want, sub
        for target in (MonomialIdeal.maximal(n), random_ideal(rng, n, 3, 2)):
            res = fthreshold(f, target=target)
            s_stars = [F(c["s_star"]) for c in res.certificate.get("components", [])]
            # infinite exactly when some component has s* = 0, and exactly
            # when nu is infinite
            assert (res.kind == "infinite") == (0 in s_stars), (f, target)
            status = nu_value(f, target, 2, 0).status
            assert (status == "infinite") == (res.kind == "infinite"), (f, target)
            if res.kind == "infinite":
                infinite += 1
                continue
            for e in range(5):
                rec = nu_value(f, target, 2, e)
                assert rec.ratio <= res.value, (f, target, e)
                nus += 1
    assert rules == {
        "OrdinaryPowers", "SymbolicSquarefree", "PrimePowerIntersection",
        "IntegralClosurePowers", "CeilingPower", "ProductFiltration",
        "IntersectionFiltration", "BinomialSum",
    }
    assert infinite >= 10 and nus >= 300


def _chain_cases():
    rng = random.Random(20261021)
    yield MonomialIdeal.from_exponents(2, [[1, 1], [2, 0], [0, 3]]), 20
    found = 0
    while found < 2:  # two random ideals with at least three generators
        ideal = random_ideal(rng, 3, 4, 3)
        if ideal.num_generators() >= 3:
            found += 1
            yield ideal, 10


@pytest.mark.parametrize("ideal, k", list(_chain_cases()), ids=["k20", "random1", "random2"])
def test_deep_product_chain_is_the_power_of_its_ideal(ideal, k):
    """A k-deep product chain of OrdinaryPowers(I) has level r equal to
    (I^r)^k = (I^k)^r, so its body LP answers must be the closed forms of
    the ordinary powers of I^k: the threshold, and v(I^k) for the
    Waldschmidt constant."""
    chain = OrdinaryPowers(ideal)
    for _ in range(k - 1):
        chain = ProductFiltration(OrdinaryPowers(ideal), chain)
    power = ideal.power(k)
    res = fthreshold(chain)
    assert res.method == "body_lp"
    assert res.value == fthreshold_ordinary(power).value
    weights = [1, 2, 3][: ideal.nvars]
    assert skew_waldschmidt(weights, chain).exact == power.valuation(weights)


@pytest.mark.parametrize("corrupt", [scale_x, scale_duals], ids=["x", "duals"])
def test_body_lp_corrupt_certificate_is_internal_error(monkeypatch, capsys, corrupt):
    """A wrong body LP optimum is caught by solve_lp's certificate: the
    threshold and the Waldschmidt constant of a composite filtration raise,
    and the CLI reports it."""
    corrupt_simplex(monkeypatch, corrupt)
    prod = ProductFiltration(
        OrdinaryPowers(MonomialIdeal.from_exponents(2, [[2, 0], [0, 3]])),
        SymbolicSquarefree(MonomialIdeal.from_exponents(2, [[1, 1]])),
    )
    with pytest.raises(InternalError, match="LP certificate"):
        fthreshold(prod)
    with pytest.raises(InternalError, match="LP certificate"):
        skew_waldschmidt([1, 2], prod)
    assert main(["fthreshold", "--filtration", json.dumps(prod.to_json())]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "InternalError" and "LP certificate" in err["message"]


def test_c9_veronese_annotation_is_exact():
    # the 9-cycle's symbolic and ordinary powers first differ at level 5,
    # so a finite check of the annotation passes; the answer must not use it
    base = SymbolicSquarefree(edge_ideal(Hypergraph.cycle(9)))
    c9 = filtration_from_json({"rule": "veronese", "base": base.to_json(), "degree": 1})
    res = fthreshold(c9)
    assert res.kind == "exact" and res.value == 5
    assert skew_waldschmidt([1] * 9, c9).exact == F(9, 5)

