"""The nu engine: level counts under Frobenius powers and F-thresholds.

For a filtration a_bullet, a target ideal I and q = p^e,

    nu(q) = sup { r >= 0 : a_r not contained in I^[q] },

and the F-threshold is the limit (= sup, by the doubling inequality
p * nu(p^e) <= nu(p^{e+1}) valid over polynomial rings) of nu(q)/q.

One evaluation path, for every monomial target.  Write the target as
the intersection of its irreducible components
Q_j = (x_i^{b_i} : i in S_j).  Then I^[q] = cap_j Q_j^[q], so
nu^I(q) = max_j nu^{Q_j}(q) (the form of nu^J in Mustata-Takagi-Watanabe).
A level a_r is not contained in Q_j^[q] exactly when the single witness
monomial x^(q*b_j - 1) on S_j lies in the restriction of a_r under
x_i -> 1 for i outside S_j, so nu^{Q_j}(q) is the witness level of that
monomial in the restricted filtration (exact closed forms per rule).
When some restriction is the unit ideal at every positive level, the
radical of the filtration is not inside the radical of the target and
the answer is +infinity, certified.

Exact threshold routes: the threshold LP (min over Rees valuations,
certified by its weights and multipliers, no facet enumeration) for
ordinary, integral-closure and, scaled by 1/beta, ceiling powers; height for
symbolic powers of square-free ideals; min(height_i / weight_i) for
prime-power intersections; the min law for intersections; and Veronese
reduction for annotated filtrations.  Everything else gets a certified bracket
[sup nu/q, min over valuations v of v(x1..xn)/vhat].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .errors import (
    AmbientMismatchError,
    CapabilityError,
    FThreshError,
    InternalError,
    UnsupportedInputError,
)
from .filtration import (
    BinomialSum,
    CeilingPower,
    Filtration,
    IntegralClosurePowers,
    IntersectionFiltration,
    OrdinaryPowers,
    PrimePowerIntersection,
    ProductFiltration,
    SymbolicSquarefree,
    VERONESE_VERIFY_DEPTH,
    VeroneseAnnotation,
)
from .monomial import Monomial, MonomialIdeal
from .newton import rees_valuations, threshold_lp
from .waldschmidt import skew_waldschmidt

__all__ = [
    "NuRecord",
    "NuSequence",
    "ThresholdResult",
    "nu_value",
    "nu_sequence",
    "fthreshold",
    "fthreshold_ordinary",
    "fthreshold_symbolic_squarefree",
    "fthreshold_prime_power_intersection",
    "fthreshold_bracket",
    "veronese_reduce",
    "check_min_law",
    "check_sum_product_laws",
    "LawReport",
    "big_height_criterion",
    "BigHeightReport",
    "symbolic_fsplit_witness",
    "symbolic_bracket_containment",
]

# bracket upper bounds add the Rees facets of a base ideal only while
# C(#gens + n, n) stays within this budget
_FACET_ROUTE_BUDGET = 5_000


def _require_prime(p: int) -> None:
    if p < 2:
        raise UnsupportedInputError(f"characteristic p = {p} is not a prime")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise UnsupportedInputError(f"characteristic p = {p} is not a prime")
        d += 1


# ---------------------------------------------------------------------- #
# nu records
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class NuRecord:
    e: int
    q: int
    status: str  # "finite" | "infinite" | "minus_infinite"
    nu: int | None
    ratio: Fraction | None
    note: str = ""

    @property
    def finite(self) -> bool:
        return self.status == "finite"

    def to_json(self) -> dict:
        return {
            "e": self.e,
            "q": self.q,
            "status": self.status,
            "nu": self.nu if self.finite else ("-inf" if self.status == "minus_infinite" else "inf"),
            "ratio": str(self.ratio) if self.ratio is not None else (
                "-inf" if self.status == "minus_infinite" else "inf"
            ),
            "note": self.note,
        }


@dataclass(frozen=True)
class NuSequence:
    records: tuple[NuRecord, ...]
    running_sup: Fraction | None

    def to_json(self) -> dict:
        return {
            "records": [r.to_json() for r in self.records],
            "running_sup": None if self.running_sup is None else str(self.running_sup),
        }


def nu_value(
    filtration: Filtration,
    target: MonomialIdeal,
    p: int,
    e: int,
) -> NuRecord:
    """nu_{a_bullet}^{target}(p^e), exact."""
    _require_prime(p)
    if e < 0:
        raise UnsupportedInputError("e must be >= 0")
    if target.nvars != filtration.nvars:
        raise AmbientMismatchError("target lives in a different ring")
    q = p**e

    if target.is_unit():
        # every level is inside R^[q] = R; sup of the empty set
        return NuRecord(e, q, "minus_infinite", None, None, "unit target")
    if target.is_zero():
        if filtration.radical().is_zero():
            return NuRecord(e, q, "finite", 0, Fraction(0), "zero filtration")
        return NuRecord(e, q, "infinite", None, None, "nonzero filtration, zero target")

    # restrict to every component first: one None decides nu = infinite
    # before any witness search runs
    n = filtration.nvars
    restricted = []
    for keep, b in target.irreducible_components():
        f = filtration if len(keep) == n else filtration.restrict(keep)
        if f is None:
            return NuRecord(
                e, q, "infinite", None, None,
                "radical of filtration not inside radical of target",
            )
        restricted.append((f, b))
    nu = max(
        f.witness_level(Monomial(max(q * x - 1, 0) for x in b))
        for f, b in restricted
    )
    return NuRecord(e, q, "finite", nu, Fraction(nu, q), "witness")


def nu_sequence(
    filtration: Filtration,
    target: MonomialIdeal,
    p: int,
    e_max: int,
) -> NuSequence:
    """nu records for e = 0..e_max; asserts the doubling inequality."""
    records = [nu_value(filtration, target, p, e) for e in range(e_max + 1)]
    for prev, cur in zip(records, records[1:]):
        # finite records carry nu; the others have nu None
        if prev.nu is not None and cur.nu is not None and p * prev.nu > cur.nu:
            raise FThreshError(
                f"doubling inequality violated: p*nu({prev.q}) = "
                f"{p * prev.nu} > nu({cur.q}) = {cur.nu}"
            )
    sup: Fraction | None = None
    for r in records:
        if r.finite and r.ratio is not None:
            sup = r.ratio if sup is None else max(sup, r.ratio)
    return NuSequence(tuple(records), sup)


# ---------------------------------------------------------------------- #
# thresholds
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ThresholdResult:
    kind: str  # "exact" | "bracket"
    method: str
    value: Fraction | None = None
    lower: Fraction | None = None
    upper: Fraction | None = None
    certificate: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "method": self.method}
        if self.kind == "exact":
            out["value"] = str(self.value)
        else:
            out["lower"] = None if self.lower is None else str(self.lower)
            out["upper"] = None if self.upper is None else str(self.upper)
            if "e_max" in self.certificate:
                out["e_max"] = self.certificate["e_max"]
        out["certificate"] = self.certificate
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _exact_value(res: ThresholdResult) -> Fraction:
    if res.kind != "exact" or res.value is None:
        raise InternalError(f"{res.method} returned no exact value")
    return res.value


def _maximal_target(nvars: int, target: MonomialIdeal | None) -> bool:
    return target is None or target.is_maximal_ideal()


def fthreshold_ordinary(
    ideal: MonomialIdeal,
    target: MonomialIdeal | None = None,
    *,
    p: int = 2,
    e_max: int = 6,
) -> ThresholdResult:
    """C^I(a^bullet) for ordinary powers.

    Exact for the maximal-ideal target, through `threshold_lp`: the value
    is min over Rees valuations v of v(x1..xn)/v(I), and the certificate
    is the valuation LP's weights w with w(x1..xn)/w(I) equal to it.  No
    facet is enumerated.  Other pure-power targets get a certified
    bracket: the witness-path sup nu/q from below, and max_exponent * C^m
    from above (bracket-power monotonicity).
    """
    if ideal.is_zero() or ideal.is_unit():
        raise UnsupportedInputError("threshold needs a nonzero proper ideal")
    if _maximal_target(ideal.nvars, target):
        value, facet = threshold_lp(ideal)
        cert = {
            "valuation": {"weights": [str(a) for a in facet.normal]},
            "value_on_ideal": str(facet.offset),
            "value_on_variable_product": str(sum(facet.normal)),
            "route": "lp",
        }
        return ThresholdResult("exact", "rees_valuation", value=value, certificate=cert)

    pure = target.pure_power_all_vars()
    if pure is None:
        raise UnsupportedInputError(
            "ordinary thresholds support the maximal ideal (exact) or "
            "pure-power targets (bracket)"
        )
    seq = nu_sequence(OrdinaryPowers(ideal), target, p, e_max)
    lower = seq.running_sup or Fraction(0)
    t = max(pure.values())
    upper = t * _exact_value(fthreshold_ordinary(ideal))
    return ThresholdResult(
        "bracket",
        "nu_supremum_bracket",
        lower=lower,
        upper=upper,
        certificate={"p": p, "e_max": e_max, "upper_route": f"{t} * C^m"},
        notes=("only the maximal-ideal target is exact; bracket returned",),
    )


def fthreshold_symbolic_squarefree(ideal: MonomialIdeal) -> ThresholdResult:
    """C^m of the symbolic-power filtration of a square-free ideal: the height."""
    if ideal.is_zero() or ideal.is_unit():
        raise UnsupportedInputError("threshold needs a nonzero proper ideal")
    if not ideal.is_square_free():
        raise UnsupportedInputError("symbolic threshold formula needs square-free input")
    primes = ideal.minimal_primes()
    ht = min(len(s) for s in primes)
    witness_prime = min(primes, key=lambda s: (len(s), sorted(s)))
    cert = {
        "height": ht,
        "big_height": max(len(s) for s in primes),
        "minimal_prime": sorted(witness_prime),
        "witness_chain": "nu(q) >= height*(q-1) via the monomial (x1..xn)^(q-1)",
    }
    return ThresholdResult(
        "exact", "symbolic_squarefree", value=Fraction(ht), certificate=cert
    )


def fthreshold_prime_power_intersection(
    filtration: PrimePowerIntersection,
) -> ThresholdResult:
    """C^m for intersections of prime powers: min over i of |S_i| / w_i."""
    supp, w = min(filtration.components, key=lambda c: Fraction(len(c[0]), c[1]))
    cert = {
        "component": {"support": sorted(supp), "weight": w},
        "formula": "min_i height(P_i) / weight_i",
    }
    return ThresholdResult(
        "exact", "prime_power_min", value=Fraction(len(supp), w), certificate=cert
    )


def veronese_reduce(annotated: VeroneseAnnotation) -> ThresholdResult:
    """C^m(a_bullet) = d * C^m((a_d)^bullet) for an annotation a_{kd} = (a_d)^k.

    The assertion is checked only finitely, for k <= VERONESE_VERIFY_DEPTH
    (the same depth `skew_waldschmidt` uses); an annotation that holds that
    far but fails later is taken at its word.
    """
    if not annotated.verify():
        raise UnsupportedInputError(
            f"Veronese assertion a_{{k*{annotated.degree}}} = (a_{annotated.degree})^k "
            f"fails for some k <= {VERONESE_VERIFY_DEPTH}"
        )
    d = annotated.degree
    level_ideal = annotated.base.level(d)
    inner = _exact_value(fthreshold_ordinary(level_ideal))
    cert = {
        "degree": d,
        "level_ideal": level_ideal.to_json(),
        "level_threshold": str(inner),
        "verified_k": VERONESE_VERIFY_DEPTH,
    }
    return ThresholdResult(
        "exact", "veronese_reduction", value=d * inner, certificate=cert
    )


def _candidate_valuations(filtration: Filtration) -> list[tuple[Fraction, ...]]:
    """Default valuations for bracket upper bounds: the degree valuation
    plus rule-specific supporting weights."""
    n = filtration.nvars
    out: list[tuple[Fraction, ...]] = [tuple(Fraction(1) for _ in range(n))]

    def add_indicator(supp: frozenset[int]) -> None:
        out.append(tuple(Fraction(1 if j in supp else 0) for j in range(n)))

    def walk(f: Filtration) -> None:
        if isinstance(f, SymbolicSquarefree):
            for prime in f.primes:
                add_indicator(prime)
        elif isinstance(f, PrimePowerIntersection):
            for supp, _ in f.components:
                add_indicator(supp)
        elif isinstance(f, (OrdinaryPowers, IntegralClosurePowers)):
            ideal = f.ideal
            if (
                not ideal.is_zero()
                and comb(ideal.num_generators() + n, n) <= _FACET_ROUTE_BUDGET
            ):
                for facet in rees_valuations(ideal):
                    out.append(tuple(Fraction(a) for a in facet.normal))
        elif isinstance(f, CeilingPower):
            walk(OrdinaryPowers(f.ideal))
        elif isinstance(f, (ProductFiltration, IntersectionFiltration, BinomialSum)):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, VeroneseAnnotation):
            walk(f.base)

    walk(filtration)
    seen = []
    for v in out:
        if v not in seen and any(x > 0 for x in v):
            seen.append(v)
    return seen[:64]


def fthreshold_bracket(
    filtration: Filtration,
    p: int,
    e_max: int,
    target: MonomialIdeal | None = None,
    valuations: Iterable[Sequence[Fraction | int]] | None = None,
) -> ThresholdResult:
    """Certified bracket for C^m(a_bullet): lower = sup over e <= e_max of
    nu/q; upper = min over valuations v with certified vhat > 0 of
    v(x1..xn)/vhat.  Upper bounds from merely-sampled vhat estimates are
    reported in the certificate but never used as bounds."""
    if target is not None and not target.is_maximal_ideal():
        raise UnsupportedInputError(
            "bracket upper bounds are available for the maximal-ideal target"
        )
    target = MonomialIdeal.maximal(filtration.nvars)
    seq = nu_sequence(filtration, target, p, e_max)
    lower = seq.running_sup if seq.running_sup is not None else Fraction(0)

    cand = (
        [tuple(Fraction(x) for x in v) for v in valuations]
        if valuations is not None
        else _candidate_valuations(filtration)
    )
    upper: Fraction | None = None
    upper_cert: dict | None = None
    heuristics: list[dict] = []
    for v in cand:
        res = skew_waldschmidt(v, filtration)
        v_on_ones = sum(v, Fraction(0))
        certified = res.exact if res.exact is not None else (
            res.lower if res.lower > 0 else None
        )
        if certified is not None and certified > 0:
            bound = v_on_ones / certified
            if upper is None or bound < upper:
                upper = bound
                upper_cert = {
                    "weights": [str(x) for x in v],
                    "vhat": str(certified),
                    "status": "exact" if res.exact is not None else "lower_bound",
                }
        elif res.upper is not None and res.upper > 0:
            heuristics.append(
                {
                    "weights": [str(x) for x in v],
                    "sampled_vhat_upper": str(res.upper),
                    "unverified_upper": str(v_on_ones / res.upper),
                }
            )
    if upper is not None and lower > upper:
        raise FThreshError(
            f"bracket inversion: lower {lower} > upper {upper} (internal error)"
        )
    cert: dict = {"p": p, "e_max": e_max, "nu_records": [r.to_json() for r in seq.records]}
    if upper_cert is not None:
        cert["upper_valuation"] = upper_cert
    if heuristics:
        cert["unverified_uppers"] = heuristics
    return ThresholdResult(
        "bracket", "nu_supremum_bracket", lower=lower, upper=upper, certificate=cert
    )


def fthreshold(
    filtration: Filtration,
    *,
    p: int | None = None,
    e_max: int | None = None,
    target: MonomialIdeal | None = None,
) -> ThresholdResult:
    """Router: exact closed form when one applies, else a certified bracket
    (which requires p and e_max)."""
    if target is not None and not target.is_maximal_ideal():
        raise UnsupportedInputError(
            "the threshold router supports the maximal-ideal target; "
            "use nu_sequence for per-q data against other targets"
        )
    f = filtration
    if isinstance(f, VeroneseAnnotation):
        try:
            return veronese_reduce(f)
        except UnsupportedInputError:
            f = f.base
    if isinstance(f, OrdinaryPowers):
        if f.ideal.is_zero():
            return ThresholdResult(
                "exact",
                "nu_supremum_bracket",
                value=Fraction(0),
                notes=("zero filtration: every nu vanishes",),
            )
        return fthreshold_ordinary(f.ideal)
    if isinstance(f, IntegralClosurePowers):
        res = fthreshold_ordinary(f.ideal)
        return ThresholdResult(
            "exact",
            res.method,
            value=res.value,
            certificate=res.certificate,
            notes=res.notes + ("closure-stable: same threshold as ordinary powers",),
        )
    if isinstance(f, SymbolicSquarefree):
        return fthreshold_symbolic_squarefree(f.ideal)
    if isinstance(f, PrimePowerIntersection):
        return fthreshold_prime_power_intersection(f)
    if isinstance(f, CeilingPower):
        base = fthreshold_ordinary(f.ideal)
        base_value = _exact_value(base)
        return ThresholdResult(
            "exact",
            "rees_valuation",
            value=base_value / f.beta,
            certificate={
                "base_threshold": str(base_value),
                "beta": str(f.beta),
                "scaling": "C(I^{ceil(beta r)}) = C(I^bullet)/beta",
                "base_certificate": base.certificate,
            },
        )
    if isinstance(f, IntersectionFiltration):
        left = fthreshold(f.left, p=p, e_max=e_max)
        right = fthreshold(f.right, p=p, e_max=e_max)
        if left.kind == "exact" and right.kind == "exact":
            lv, rv = _exact_value(left), _exact_value(right)
            return ThresholdResult(
                "exact",
                "prime_power_min",
                value=min(lv, rv),
                certificate={
                    "law": "C(intersection) = min(C_left, C_right)",
                    "left": str(lv),
                    "right": str(rv),
                },
            )
    if p is None or e_max is None:
        raise CapabilityError(
            "no exact closed form for this filtration; pass p and e_max "
            "for a certified bracket"
        )
    return fthreshold_bracket(filtration, p, e_max)


# ---------------------------------------------------------------------- #
# structural laws
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class LawReport:
    law: str
    ok: bool
    rows: tuple[dict, ...]

    def to_json(self) -> dict:
        return {"law": self.law, "ok": self.ok, "rows": list(self.rows)}


def check_min_law(
    left: Filtration, right: Filtration, p: int, e_max: int
) -> LawReport:
    """nu of the intersection filtration against m equals min of the nus."""
    if left.nvars != right.nvars:
        raise AmbientMismatchError("filtrations live in different rings")
    target = MonomialIdeal.maximal(left.nvars)
    inter = IntersectionFiltration(left, right)
    rows = []
    ok = True
    for e in range(e_max + 1):
        a = nu_value(left, target, p, e)
        b = nu_value(right, target, p, e)
        d = nu_value(inter, target, p, e)
        good = d.nu == min(a.nu, b.nu)
        ok = ok and good
        rows.append(
            {"e": e, "q": a.q, "nu_left": a.nu, "nu_right": b.nu,
             "nu_intersection": d.nu, "ok": good}
        )
    return LawReport("min", ok, tuple(rows))


def check_sum_product_laws(
    left: Filtration, right: Filtration, p: int, e_max: int
) -> LawReport:
    """Disjoint-variable laws.  left and right live in their own rings;
    they are placed on disjoint variable blocks of the joint ring, where

    * binomial sum against the joint maximal ideal adds the nus, and
    * product filtration against the product target (m_x * m_y) takes
      the max of the nus.
    """
    n1, n2 = left.nvars, right.nvars
    n = n1 + n2
    lf = left.embed(n, 0)
    rf = right.embed(n, n1)
    m1 = MonomialIdeal.maximal(n1)
    m2 = MonomialIdeal.maximal(n2)
    joint_target = MonomialIdeal.maximal(n)
    product_target = m1.embed(n, 0) * m2.embed(n, n1)
    sum_fil = BinomialSum(lf, rf)
    prod_fil = ProductFiltration(lf, rf)
    rows = []
    ok = True
    for e in range(e_max + 1):
        a = nu_value(left, m1, p, e)
        b = nu_value(right, m2, p, e)
        s = nu_value(sum_fil, joint_target, p, e)
        pr = nu_value(prod_fil, product_target, p, e)
        if a.nu is None or b.nu is None:
            raise InternalError("nu against the maximal ideal is not finite")
        sum_ok = s.nu == a.nu + b.nu
        prod_ok = pr.nu == max(a.nu, b.nu)
        ok = ok and sum_ok and prod_ok
        rows.append(
            {
                "e": e,
                "q": a.q,
                "nu_left": a.nu,
                "nu_right": b.nu,
                "nu_binomial_sum": s.nu,
                "sum_ok": sum_ok,
                "nu_product": pr.nu,
                "product_ok": prod_ok,
            }
        )
    return LawReport("disjoint_sum_product", ok, tuple(rows))


# ---------------------------------------------------------------------- #
# big-height criterion and the symbolic F-split witness
# ---------------------------------------------------------------------- #


def symbolic_bracket_containment(
    ideal: MonomialIdeal, level: int, target: MonomialIdeal, q: int
) -> bool:
    """Is the level-th symbolic power of the square-free ideal contained in
    target^[q] (target a radical monomial ideal)?

    Decided combinatorially: a monomial avoids target^[q] iff its
    coordinates below q form a transversal W of the target's generator
    supports, and the extremal such monomial (q-1 on a minimal W, huge
    elsewhere) lies in the symbolic power iff (q-1) * min{ |S| : S a
    minimal prime of the ideal inside W } >= level.
    """
    if not ideal.is_square_free() or not target.is_square_free():
        raise UnsupportedInputError("containment check needs radical monomial ideals")
    if level <= 0:
        return target.bracket_power(q).is_unit()
    primes = ideal.minimal_primes()
    for w in target.minimal_primes():
        inner = [s for s in primes if s <= w]
        if not inner:
            return False
        if (q - 1) * min(len(s) for s in inner) >= level:
            return False
    return True


@dataclass(frozen=True)
class BigHeightReport:
    big_height: int
    height: int
    rows: tuple[dict, ...]
    all_non_contained: bool
    upper_bound: Fraction | None  # C <= H - 1/q once containment holds

    def to_json(self) -> dict:
        return {
            "big_height": self.big_height,
            "height": self.height,
            "rows": list(self.rows),
            "all_non_contained": self.all_non_contained,
            "upper_bound": None if self.upper_bound is None else str(self.upper_bound),
        }


def big_height_criterion(
    ideal: MonomialIdeal, target: MonomialIdeal, p: int, e_max: int
) -> BigHeightReport:
    """Check a^{(H(q-1))} against target^[q] for e = 1..e_max, H = big height.

    Non-containment at every e is the criterion for C^target(symbolic) = H;
    the first containment certifies C <= H - 1/q.
    """
    _require_prime(p)
    if not target.contains_ideal(ideal):
        raise UnsupportedInputError("criterion requires the ideal inside the target")
    H = ideal.big_height()
    ht = ideal.height()
    rows = []
    all_non = True
    bound: Fraction | None = None
    for e in range(1, e_max + 1):
        q = p**e
        contained = symbolic_bracket_containment(ideal, H * (q - 1), target, q)
        rows.append({"e": e, "q": q, "level": H * (q - 1), "contained": contained})
        if contained:
            all_non = False
            if bound is None:
                bound = Fraction(H) - Fraction(1, q)
    return BigHeightReport(H, ht, tuple(rows), all_non, bound)


def symbolic_fsplit_witness(ideal: MonomialIdeal, p: int, e: int = 1) -> bool:
    """True iff a^{(H(p^e - 1))} is NOT contained in m^[p^e]; at e = 1 this
    witnesses symbolic F-splitness of the square-free ideal."""
    _require_prime(p)
    q = p**e
    m = MonomialIdeal.maximal(ideal.nvars)
    H = ideal.big_height()
    return not symbolic_bracket_containment(ideal, H * (q - 1), m, q)


# ---------------------------------------------------------------------- #
# attainment flags for the valuative criteria
# ---------------------------------------------------------------------- #


def threshold_attainment_report(ideal: MonomialIdeal) -> dict:
    """Exact flags tying C^m(I^bullet) to the two distinguished bounds:
    C = n/alpha iff (x1..xn)^alpha lies in the closure of I^n, and
    C = height iff x1..xn lies in the closure of I^height."""
    from .newton import integral_closure_contains

    n = ideal.nvars
    value = _exact_value(fthreshold_ordinary(ideal))
    alpha = ideal.alpha()
    ht = ideal.height()
    ones = Monomial([1] * n)
    return {
        "threshold": value,
        "n_over_alpha": Fraction(n, alpha),
        "height": ht,
        "attains_n_over_alpha": value == Fraction(n, alpha),
        "product_power_in_closure": integral_closure_contains(
            ideal, n, ones.power(alpha)
        ),
        "attains_height": value == Fraction(ht),
        "product_in_height_closure": integral_closure_contains(ideal, ht, ones),
    }
