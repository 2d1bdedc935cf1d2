"""Answer checks, one per question kind.

Each check takes the question and the parsed JSON answer and returns None
when the answer is right, else a one-line reason.  Values come from the
oracles in ``oracles.py`` or from properties the method must have; where
a check needs a second value from the program (the min law, the
irreducible components of a target), it calls the library after the
timed phase through a different route than the question took.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

import oracles
from workloads import edge_gens
from fthresh.filtration import OrdinaryPowers, filtration_from_json
from fthresh.monomial import MonomialIdeal
from fthresh.nu import nu_value


def _frac(text) -> Fraction:
    return Fraction(str(text))


def _gens(rule) -> list[tuple[int, ...]]:
    return [tuple(g) for g in rule["ideal"]["generators"]]


def _dot(w, g) -> int:
    return sum(a * b for a, b in zip(w, g))


# ---------------------------------------------------------------------- #
# thresholds
# ---------------------------------------------------------------------- #


def _valuation_certificate(cert: dict, gens, value: Fraction) -> str | None:
    """A Rees-valuation certificate: weights w >= 0 whose ratio
    w(x1..xn) / w(I) reproduces the value."""
    w = [int(x) for x in cert["valuation"]["weights"]]
    if any(x < 0 for x in w):
        return f"negative valuation weight {w}"
    on_ideal = min(_dot(w, g) for g in gens)
    if _frac(cert["value_on_ideal"]) != on_ideal:
        return f"certificate value on ideal {cert['value_on_ideal']} != {on_ideal}"
    if _frac(cert["value_on_variable_product"]) != sum(w):
        return "certificate value on x1..xn is not the weight sum"
    if Fraction(sum(w), on_ideal) != value:
        return f"certificate ratio {sum(w)}/{on_ideal} != value {value}"
    return None


def _exact(answer: dict, want: Fraction) -> str | None:
    if answer.get("kind") != "exact":
        return f"kind {answer.get('kind')!r}, want exact"
    got = _frac(answer["value"])
    if got != want:
        return f"value {got} != oracle {want}"
    return None


def check_threshold_ordinary(q, answer):
    want = oracles.threshold(q.data["gens"])
    return _exact(answer, want) or _valuation_certificate(answer["certificate"], q.data["gens"], want)


check_threshold_closure = check_threshold_ordinary


def check_threshold_ceiling(q, answer):
    base = oracles.threshold(q.data["gens"])
    return _exact(answer, base / q.data["beta"]) or _valuation_certificate(
        answer["certificate"]["base_certificate"], q.data["gens"], base
    )


def check_rees(q, answer):
    gens = q.data["gens"]
    want = oracles.threshold(gens)
    if _frac(answer["threshold"]) != want:
        return f"threshold {answer['threshold']} != oracle {want}"
    ratios = []
    for facet in answer["rees_valuations"]:
        v, c = facet["normal"], facet["offset"]
        if any(a < 0 for a in v) or c <= 0:
            return f"facet {facet} is not an essential facet"
        if min(_dot(v, g) for g in gens) != c:
            return f"facet {facet} does not support NP(I)"
        ratios.append(Fraction(sum(v), c))
    if not ratios or min(ratios) != want:
        return f"least facet ratio {min(ratios, default=None)} != oracle {want}"
    return None


def check_waldschmidt(q, answer):
    """vhat = v(I) for ordinary and closure powers, beta * v(I) for
    ceiling powers, with v(I) = min over generators of <w, g>."""
    want = min(_dot(q.data["weights"], g) for g in q.data["gens"])
    if q.data["rule"]["rule"] == "ceiling":
        want *= _frac(q.data["rule"]["beta"])
    got = [answer["exact"], answer["lower"], answer["upper"]]
    if any(x is None or _frac(x) != want for x in got):
        return f"exact/lower/upper {got} != {want}"
    return None


def check_threshold_edge(q, answer):
    n, edges = q.data["n"], q.data["edges"]
    want = oracles.fractional_matching_number(n, edges)
    return _exact(answer, want) or _valuation_certificate(answer["certificate"], edge_gens(n, edges), want)


def check_threshold_symbolic(q, answer):
    n, supports = q.data["n"], q.data["supports"]
    tau = min(len(c) for c in oracles.minimal_vertex_covers(n, supports))
    bad = _exact(answer, Fraction(tau))
    if bad:
        return bad
    prime = set(answer["certificate"]["minimal_prime"])
    if len(prime) != tau or not all(prime & set(s) for s in supports):
        return f"certificate prime {sorted(prime)} is not a minimum transversal"
    return None


def check_hypergraph(q, answer):
    n, edges = q.data["n"], q.data["edges"]
    nu_f = oracles.fractional_matching_number(n, edges)
    tau = oracles.vertex_cover_number(n, edges)
    want = {
        "ordinary_threshold": nu_f,
        "fractional_matching_number": nu_f,
        "symbolic_threshold": tau,
        "vertex_cover_number": tau,
        "matching_number": oracles.matching_number(n, edges),
        "independence_number": n - tau,
    }
    for key, value in want.items():
        if _frac(answer[key]) != value:
            return f"{key} {answer[key]} != oracle {value}"
    chi_f = _frac(answer["fractional_chromatic"])
    lower = max(Fraction(oracles.clique_number(n, edges)), Fraction(n, n - tau))
    upper = oracles.chromatic_number(n, edges)
    if not lower <= chi_f <= upper:
        return f"fractional chromatic {chi_f} outside [{lower}, {upper}]"
    return None


def check_threshold_cover_chordal(q, answer):
    w = oracles.clique_number(q.data["n"], q.data["edges"])
    return _exact(answer, Fraction(w, w - 1))


# ---------------------------------------------------------------------- #
# nu values
# ---------------------------------------------------------------------- #


def nu_bounds(rule: dict, u) -> tuple[int, int]:
    """lo <= nu <= hi for the witness monomial x^u of a pure-power target;
    lo == hi where the rule has an exact formula."""
    kind = rule["rule"]
    n = len(u)
    if kind in ("ordinary", "ceiling"):
        # Briancon-Skoda: closure(I^{r+n-1}) is inside I^r inside closure(I^r)
        top = oracles.closure_level(_gens(rule), u)
        lo, hi = max(top - (n - 1), 0), top
        if kind == "ceiling":
            beta = _frac(rule["beta"])
            lo, hi = floor(lo / beta), floor(hi / beta)
        return lo, hi
    if kind == "integral_closure":
        top = oracles.closure_level(_gens(rule), u)
        return top, top
    if kind == "symbolic":
        supports = [[j for j, e in enumerate(g) if e] for g in _gens(rule)]
        v = min(sum(u[j] for j in p) for p in oracles.minimal_vertex_covers(n, supports))
        return v, v
    if kind == "prime_power_intersection":
        v = min(sum(u[j] for j in c["support"]) // c["weight"] for c in rule["components"])
        return v, v
    if kind == "intersection":
        a, b = nu_bounds(rule["left"], u), nu_bounds(rule["right"], u)
        return min(a[0], b[0]), min(a[1], b[1])
    raise ValueError(f"no bounds for rule {kind!r}")


def _record(rec: dict, e: int, p: int) -> tuple[int, str | None]:
    q = p**e
    if rec["e"] != e or rec["q"] != q or rec["status"] != "finite":
        return 0, f"record {rec} is not the finite record for e={e}"
    if _frac(rec["ratio"]) != Fraction(rec["nu"], q):
        return 0, f"ratio {rec['ratio']} != nu/q at e={e}"
    return rec["nu"], None


def _records(answer: dict, p: int, emax: int) -> tuple[list[int], str | None]:
    recs = answer["records"]
    if len(recs) != emax + 1:
        return [], f"{len(recs)} records, want {emax + 1}"
    out = []
    for e, rec in enumerate(recs):
        nu, bad = _record(rec, e, p)
        if bad:
            return [], bad
        out.append(nu)
    sup = max(Fraction(nu, p**e) for e, nu in enumerate(out))
    if _frac(answer["running_sup"]) != sup:
        return [], f"running_sup {answer['running_sup']} != {sup}"
    return out, None


def _pure_ideal(b) -> MonomialIdeal:
    return MonomialIdeal.from_exponents(len(b), oracles.pure_gens(b))


def _witness_value(rule: dict, b, p: int, e: int, nu: int) -> str | None:
    q = p**e
    u = tuple(q * x - 1 for x in b)
    lo, hi = nu_bounds(rule, u)
    if not lo <= nu <= hi:
        return f"nu({q}) = {nu} outside [{lo}, {hi}] for {rule['rule']}"
    if rule["rule"] == "intersection":
        target = _pure_ideal(b)
        parts = []
        for side in (rule["left"], rule["right"]):
            part = nu_value(filtration_from_json(side), target, p, e).nu
            plo, phi = nu_bounds(side, u)
            if not plo <= part <= phi:
                return f"component nu({q}) = {part} outside [{plo}, {phi}]"
            parts.append(part)
        if nu != min(parts):
            return f"min law: nu({q}) = {nu} != min{parts}"
    return None


def check_nu_witness(q, answer):
    d = q.data
    values, bad = _records(answer, d["p"], d["emax"])
    if bad:
        return bad
    for e, nu in enumerate(values):
        bad = _witness_value(d["rule"], d["target"], d["p"], e, nu)
        if bad:
            return bad
    return None


def check_nu_single(q, answer):
    d = q.data
    nu, bad = _record(answer, d["e"], d["p"])
    return bad or _witness_value(d["rule"], d["target"], d["p"], d["e"], nu)


def check_nu_general(q, answer):
    """nu^T = max_j nu^{Q_j} over the irreducible components Q_j of the
    m-primary target T, each Q_j generated by pure powers of all
    variables and so answered on the witness path."""
    d = q.data
    values, bad = _records(answer, d["p"], d["emax"])
    if bad:
        return bad
    tgens = d["target_gens"]
    comps = oracles.irreducible_components(tgens)
    box = [max(c[j] for c in comps) + 1 for j in range(d["n"])]
    union = set()
    for c in comps:
        union |= oracles.staircase(oracles.pure_gens(c), box)
    if union != oracles.staircase(tgens, box):
        return f"components {comps} do not intersect to the target"
    f = filtration_from_json(d["rule"])
    for e, nu in enumerate(values):
        want = max(nu_value(f, _pure_ideal(c), d["p"], e).nu for c in comps)
        if nu != want:
            return f"nu({d['p'] ** e}) = {nu} != max over components {want}"
    return None


def check_nu_composite(q, answer):
    """Products and binomial sums of ordinary powers are ordinary powers
    of I*J and I+J: the Briancon-Skoda band of that ideal must hold, and
    the witness path on it must give the same value."""
    d = q.data
    values, bad = _records(answer, d["p"], d["emax"])
    if bad:
        return bad
    left, right, n = d["left"], d["right"], d["n"]
    if d["rule"]["rule"] == "product":
        gens = sorted({tuple(a + b for a, b in zip(g, h)) for g in left for h in right})
    else:
        gens = sorted(set(left) | set(right))
    single = OrdinaryPowers(MonomialIdeal.from_exponents(n, gens))
    m = MonomialIdeal.maximal(n)
    for e, nu in enumerate(values):
        q_ = d["p"] ** e
        u = (q_ - 1,) * n
        top = oracles.closure_level(gens, u)
        if not top - (n - 1) <= nu <= top:
            return f"nu({q_}) = {nu} outside [{top - n + 1}, {top}]"
        other = nu_value(single, m, d["p"], e).nu
        if nu != other:
            return f"nu({q_}) = {nu} != {other} for the single ideal"
    return None


def check_laws(q, answer):
    d = q.data
    p, emax, n = d["p"], d["emax"], d["n"]
    for name in ("min_law", "disjoint_laws"):
        law = answer[name]
        if law["ok"] is not True or len(law["rows"]) != emax + 1:
            return f"{name} reports ok={law['ok']} with {len(law['rows'])} rows"
        for e, row in enumerate(law["rows"]):
            u = (p**e - 1,) * n
            for side, key in ((d["left"], "nu_left"), (d["right"], "nu_right")):
                lo, hi = nu_bounds(side, u)
                if not lo <= row[key] <= hi:
                    return f"{name} e={e}: {key} = {row[key]} outside [{lo}, {hi}]"
            a, b = row["nu_left"], row["nu_right"]
            if name == "min_law" and row["nu_intersection"] != min(a, b):
                return f"min law fails at e={e}: {row}"
            if name == "disjoint_laws" and (
                row["nu_binomial_sum"] != a + b or row["nu_product"] != max(a, b)
            ):
                return f"disjoint laws fail at e={e}: {row}"
    return None


CHECKS = {
    "threshold_ordinary": check_threshold_ordinary,
    "threshold_closure": check_threshold_closure,
    "threshold_ceiling": check_threshold_ceiling,
    "rees": check_rees,
    "waldschmidt": check_waldschmidt,
    "threshold_edge": check_threshold_edge,
    "threshold_symbolic": check_threshold_symbolic,
    "hypergraph": check_hypergraph,
    "threshold_cover_chordal": check_threshold_cover_chordal,
    "nu_witness": check_nu_witness,
    "nu_single": check_nu_single,
    "nu_general": check_nu_general,
    "nu_composite": check_nu_composite,
    "laws": check_laws,
}


def corrupt(answer: dict) -> None:
    """The negative control: make one answer wrong, but self-consistent,
    before it is checked, so that only the oracle can catch it."""
    if "value" in answer:
        answer["value"] = str(_frac(answer["value"]) + 1)
        return
    last = answer["records"][-1]
    last["nu"] += 1
    last["ratio"] = str(Fraction(last["nu"], last["q"]))
    answer["running_sup"] = str(max(_frac(r["ratio"]) for r in answer["records"]))
