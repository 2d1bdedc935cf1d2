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

Thresholds: one route per question.  Base rules against the maximal
ideal keep their closed forms: the threshold LP (min over Rees
valuations, certified by its weights and multipliers, no facet
enumeration) for ordinary, integral-closure and, scaled by 1/beta,
ceiling powers; the height for symbolic powers of square-free ideals;
min(height_i / weight_i) for prime-power intersections.  Every other
rule and every other target gets C^T = max over the irreducible
components Q of T of 1/s*_Q, one certified LP over the limiting Newton
body (`body.py`); s*_Q = 0 means C^T is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .body import component_threshold
from .errors import (
    AmbientMismatchError,
    FThreshError,
    InternalError,
    SizeGuardError,
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
)
from .monomial import Monomial, MonomialIdeal
from .newton import threshold_lp

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
    "check_min_law",
    "check_sum_product_laws",
    "LawReport",
    "big_height_criterion",
    "BigHeightReport",
    "symbolic_fsplit_witness",
    "symbolic_bracket_containment",
]

# Miller-Rabin on the 13 prime bases 2..41 is exact below this bound
# (Sorenson-Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _require_prime(p: int) -> None:
    if p >= _MR_BOUND:
        raise SizeGuardError(f"characteristic p = {p} is too large to certify prime")
    s = ((p - 1) & (1 - p)).bit_length() - 1 if p > 1 else 0
    d = (p - 1) >> s  # p - 1 = d * 2^s with d odd
    # base a proves p composite unless a^d = 1 or a^(d 2^i) = -1 for an i < s
    if p < 2 or p not in _MR_BASES and any(
        pow(a, d, p) != 1 and all(pow(a, d << i, p) != p - 1 for i in range(s))
        for a in _MR_BASES
    ):
        raise UnsupportedInputError(f"characteristic p = {p} is not a prime")


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

    nu = _witness_nu(filtration, target, q)
    if nu is None:
        return NuRecord(
            e, q, "infinite", None, None,
            "radical of filtration not inside radical of target",
        )
    return NuRecord(e, q, "finite", nu, Fraction(nu, q), "witness")


def _witness_nu(filtration: Filtration, target: MonomialIdeal, q: int) -> int | None:
    """nu^target(q) for a target that is not the unit ideal, as the max
    over its irreducible components of one witness level each; None when
    nu is infinite."""
    # restrict to every component first: one None decides nu = infinite
    # before any witness search runs
    n = filtration.nvars
    restricted = []
    for keep, b in target.irreducible_components():
        f = filtration if len(keep) == n else filtration.restrict(keep)
        if f is None:
            return None
        restricted.append((f, b))
    return max(
        f.witness_level(Monomial(max(q * x - 1, 0) for x in b))
        for f, b in restricted
    )


def nu_sequence(
    filtration: Filtration,
    target: MonomialIdeal,
    p: int,
    e_max: int,
) -> NuSequence:
    """nu records for e = 0..e_max; asserts the doubling inequality."""
    if e_max < 0:
        raise UnsupportedInputError("e_max must be >= 0")
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
    kind: str  # "exact" | "infinite" | "bracket"
    method: str
    value: Fraction | None = None
    lower: Fraction | None = None
    upper: Fraction | None = None
    certificate: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "method": self.method}
        if self.kind == "bracket":
            out["lower"] = None if self.lower is None else str(self.lower)
            out["upper"] = None if self.upper is None else str(self.upper)
            if "e_max" in self.certificate:
                out["e_max"] = self.certificate["e_max"]
        else:
            out["value"] = "inf" if self.value is None else str(self.value)
        out["certificate"] = self.certificate
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _exact_value(res: ThresholdResult) -> Fraction:
    if res.kind != "exact" or res.value is None:
        raise InternalError(f"{res.method} returned no exact value")
    return res.value


def fthreshold_ordinary(ideal: MonomialIdeal) -> ThresholdResult:
    """C^m(I^bullet) for ordinary powers, through `threshold_lp`.

    The value is min over Rees valuations v of v(x1..xn)/v(I), and the
    certificate is the valuation LP's weights w with w(x1..xn)/w(I) equal
    to it.  No facet is enumerated.
    """
    if ideal.is_zero() or ideal.is_unit():
        raise UnsupportedInputError("threshold needs a nonzero proper ideal")
    value, facet = threshold_lp(ideal)
    cert = {
        "valuation": {"weights": [str(a) for a in facet.normal]},
        "value_on_ideal": str(facet.offset),
        "value_on_variable_product": str(sum(facet.normal)),
        "route": "lp",
    }
    return ThresholdResult("exact", "rees_valuation", value=value, certificate=cert)


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


def _closed_form(f: Filtration) -> ThresholdResult | None:
    """C^m of a base rule by its closed form; None for every other rule."""
    if isinstance(f, OrdinaryPowers) and not f.ideal.is_zero():
        return fthreshold_ordinary(f.ideal)
    if isinstance(f, IntegralClosurePowers):
        res = fthreshold_ordinary(f.ideal)
        return replace(
            res, notes=res.notes + ("closure-stable: same threshold as ordinary powers",)
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
    return None


def _body_threshold(f: Filtration, target: MonomialIdeal) -> ThresholdResult:
    """C^T = max over the irreducible components Q of T of C^Q = 1/s*_Q,
    each s*_Q one certified LP over the limiting Newton body."""
    comps = []
    for keep, b in target.irreducible_components():
        opt = component_threshold(f, keep, b)
        if opt is None:
            return ThresholdResult(
                "exact",
                "zero_filtration",
                value=Fraction(0),
                certificate={"route": "body_lp", "body": "empty"},
                notes=("zero filtration: every nu vanishes",),
            )
        s, point = opt
        comp = {
            "support": sorted(keep),
            "exponents": list(b),
            "s_star": str(s),
            "point": [str(x) for x in point],
        }
        comps.append((s, comp))
    s = min(s for s, _ in comps)
    cert = {"route": "body_lp", "components": [c for _, c in comps]}
    if s == 0:
        return ThresholdResult(
            "infinite",
            "body_lp",
            certificate=cert,
            notes=("s* = 0: the filtration's radical is not inside the target's",),
        )
    return ThresholdResult("exact", "body_lp", value=1 / s, certificate=cert)


def fthreshold(
    filtration: Filtration, *, target: MonomialIdeal | None = None
) -> ThresholdResult:
    """C^T(a_bullet), exact (or infinite) for every shipped rule and every
    proper monomial target T (default: the maximal ideal).

    Base rules against the maximal ideal take their closed forms;
    everything else is one certified body LP per irreducible component
    of T."""
    if target is not None:
        if target.nvars != filtration.nvars:
            raise AmbientMismatchError("target lives in a different ring")
        if target.is_unit():
            raise UnsupportedInputError("the threshold against the unit ideal is undefined")
    if target is None or target.is_maximal_ideal():
        closed = _closed_form(filtration)
        if closed is not None:
            return closed
    return _body_threshold(filtration, target or MonomialIdeal.maximal(filtration.nvars))


def fthreshold_bracket(
    filtration: Filtration,
    p: int,
    e_max: int,
    target: MonomialIdeal | None = None,
) -> ThresholdResult:
    """The bracket [sup over e <= e_max of nu/q, C] around C^T(a_bullet)
    (target default: the maximal ideal).  The upper end is `fthreshold`'s
    value; it is None when that is infinite or when the filtration is a
    `Filtration` subclass with no Newton body."""
    if target is None:
        target = MonomialIdeal.maximal(filtration.nvars)
    if target.is_unit():
        raise UnsupportedInputError("the threshold against the unit ideal is undefined")
    seq = nu_sequence(filtration, target, p, e_max)
    lower = seq.running_sup if seq.running_sup is not None else Fraction(0)
    cert: dict = {"p": p, "e_max": e_max, "nu_records": [r.to_json() for r in seq.records]}
    try:
        threshold = fthreshold(filtration, target=target)
    except UnsupportedInputError:
        upper = None
    else:
        upper = threshold.value
        cert["upper_method"] = threshold.method
    if upper is not None and lower > upper:
        raise InternalError(f"bracket inversion: lower {lower} > upper {upper}")
    return ThresholdResult(
        "bracket", "nu_supremum_bracket", lower=lower, upper=upper, certificate=cert
    )


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
    if e_max < 0:
        raise UnsupportedInputError("e_max must be >= 0")
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
    if e_max < 0:
        raise UnsupportedInputError("e_max must be >= 0")
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

    A descending filtration's level r lies in target^[q] exactly when
    r > nu^target(q), so this is one nu evaluation of the symbolic powers,
    by the witness path of `nu_value`.
    """
    if not ideal.is_square_free() or not target.is_square_free():
        raise UnsupportedInputError("containment check needs radical monomial ideals")
    if level <= 0:
        return target.bracket_power(q).is_unit()
    if target.is_unit():
        # R^[q] = R contains every ideal
        return True
    nu = _witness_nu(SymbolicSquarefree(ideal), target, q)
    return nu is not None and nu < level


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
