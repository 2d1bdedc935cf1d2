"""Graded families (filtrations) of monomial ideals.

A filtration here is a rule assigning to each level r >= 0 a monomial
ideal a_r with a_0 = R, a_{r+1} subseteq a_r and a_i * a_j subseteq
a_{i+j}.  The architecture is membership-first: the dominant consumer
(the nu engine) only ever asks whether a single witness monomial lies in
a_r, and every shipped rule answers that with an exact closed form or a
bounded search -- generator sets are materialized lazily and cached only
when genuinely needed (axiom checks, containment certificates, composite
rules).

Shipped rules:

* ``OrdinaryPowers(I)``            a_r = I^r
* ``SymbolicSquarefree(I)``        a_r = r-th symbolic power of a
                                   square-free ideal (intersection of
                                   minimal-prime powers)
* ``PrimePowerIntersection``       a_r = intersection of P_i^{w_i r}
* ``IntegralClosurePowers(I)``     a_r = integral closure of I^r
* ``CeilingPower(I, beta)``        a_r = I^{ceil(beta*r)}
* ``ProductFiltration(F, G)``      c_r = F_r * G_r
* ``IntersectionFiltration(F, G)`` d_r = F_r cap G_r
* ``BinomialSum(F, G)``            e_r = sum_i F_i * G_{r-i}

``filtration_from_json`` also reads one annotation tag, which names no
rule of its own: it returns the annotated base.

Every rule restricts: ``restrict(S)`` is the filtration of the images
of the levels under x_j -> 1 for j outside S (restriction is a ring map,
so it commutes with products, sums, intersections and integral closure),
or None when every positive level maps to the unit ideal.  The nu engine
evaluates nu against each irreducible component of a target through the
restriction to the component's support.

Thresholds and Waldschmidt constants come from the limiting Newton body
of the filtration (``body.py``), which every rule above describes by
linear rows, not from its levels.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

from .errors import (
    AmbientMismatchError,
    InternalError,
    SizeGuardError,
    UnsupportedInputError,
    UnsupportedSymbolicPowerError,
    json_field,
)
from .monomial import Monomial, MonomialIdeal
from .newton import integral_closure_generators, integral_closure_level

__all__ = [
    "Filtration",
    "OrdinaryPowers",
    "SymbolicSquarefree",
    "PrimePowerIntersection",
    "IntegralClosurePowers",
    "CeilingPower",
    "ProductFiltration",
    "IntersectionFiltration",
    "BinomialSum",
    "symbolic_filtration",
    "verify_filtration_axioms",
    "AxiomReport",
    "filtration_from_json",
]

_BINSUM_LEVEL_GUARD = 4096
# the recursive methods spend a few frames per nested rule, so this bound
# keeps them well under the interpreter's recursion limit
MAX_DEPTH = 100
_TOO_DEEP = f"filtration rules nest more than {MAX_DEPTH} deep"


@lru_cache(maxsize=4096)
def _cached_level(filtration: "Filtration", r: int) -> MonomialIdeal:
    return filtration._level_impl(r)


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor_div_frac(s: int, beta: Fraction) -> int:
    # max integer r with beta * r <= s
    return (s * beta.denominator) // beta.numerator


class Filtration(ABC):
    """Abstract base; subclasses are frozen dataclasses, hashable and
    JSON round-trippable."""

    nvars: int
    depth = 1  # rules nested in this one, itself included; see `_compose`

    # -- levels ---------------------------------------------------------- #

    def level(self, r: int) -> MonomialIdeal:
        """Minimal generators of a_r (cached, LRU-bounded globally)."""
        if r < 0:
            raise UnsupportedInputError("filtration level must be >= 0")
        if r == 0:
            return MonomialIdeal.unit(self.nvars)
        return _cached_level(self, r)

    @abstractmethod
    def _level_impl(self, r: int) -> MonomialIdeal: ...

    # -- membership ------------------------------------------------------ #

    def member(self, r: int, u: Monomial) -> bool:
        """Is the monomial u in a_r?"""
        if u.nvars != self.nvars:
            raise AmbientMismatchError("monomial lives in a different ring")
        if r <= 0:
            return True
        return self.witness_level(u) >= r

    @abstractmethod
    def witness_level(self, u: Monomial) -> int:
        """Largest r >= 0 with u in a_r (finite for all shipped rules)."""

    # -- structure data --------------------------------------------------- #

    def radical(self) -> MonomialIdeal:
        """Radical of a_1 (= radical of every positive level)."""
        return self.level(1).radical()

    def restrict(self, keep: frozenset[int]) -> "Filtration | None":
        """Levels under x_j -> 1 for j outside keep, in the same ring; None
        when every positive level maps to the unit ideal (exactly when some
        generator of a_1 involves no variable of keep)."""
        raise UnsupportedInputError(
            f"{type(self).__name__} does not support restriction"
        )

    # -- serialization / embedding ---------------------------------------- #

    @abstractmethod
    def to_json(self) -> dict: ...

    @abstractmethod
    def embed(self, nvars: int, offset: int = 0) -> "Filtration": ...


# ---------------------------------------------------------------------- #
# base rules
# ---------------------------------------------------------------------- #


def _require_usable_base(ideal: MonomialIdeal, *, allow_zero: bool = True) -> None:
    if ideal.is_unit():
        raise UnsupportedInputError(
            "unit-ideal filtration is constantly R; not a useful filtration"
        )
    if ideal.is_zero() and not allow_zero:
        raise UnsupportedInputError("rule needs a nonzero ideal")


def _base_level(ideal: MonomialIdeal, u: Monomial) -> int:
    """Membership level of u in the powers of a rule's base ideal."""
    lvl = ideal.membership_level(u)
    if lvl is None:
        raise InternalError("a rule's base ideal is the unit ideal")
    return lvl


def _restrict_base(rule, keep: frozenset[int]) -> "Filtration | None":
    """restrict() of a rule given by one base ideal: the same rule on the
    restricted ideal."""
    ideal = rule.ideal.restrict(keep)
    return None if ideal.is_unit() else replace(rule, ideal=ideal)


@dataclass(frozen=True)
class OrdinaryPowers(Filtration):
    """a_r = I^r.  A zero base ideal gives the zero filtration."""

    ideal: MonomialIdeal

    def __post_init__(self):
        _require_usable_base(self.ideal)

    @property
    def nvars(self) -> int:
        return self.ideal.nvars

    def _level_impl(self, r: int) -> MonomialIdeal:
        return self.ideal.power(r)

    def witness_level(self, u: Monomial) -> int:
        return _base_level(self.ideal, u)

    restrict = _restrict_base

    def to_json(self) -> dict:
        return {"rule": "ordinary", "ideal": self.ideal.to_json()}

    def embed(self, nvars: int, offset: int = 0) -> "OrdinaryPowers":
        return OrdinaryPowers(self.ideal.embed(nvars, offset))


@dataclass(frozen=True)
class SymbolicSquarefree(Filtration):
    """Symbolic powers of a square-free monomial ideal:
    a_r = intersection over minimal primes P of P^r."""

    ideal: MonomialIdeal

    def __post_init__(self):
        _require_usable_base(self.ideal, allow_zero=False)
        if not self.ideal.is_square_free():
            raise UnsupportedSymbolicPowerError(
                "symbolic powers are implemented for square-free monomial "
                "ideals; for intersections of prime powers use "
                "PrimePowerIntersection, for pure-power ideals the ordinary "
                "powers coincide with the symbolic ones"
            )

    @property
    def nvars(self) -> int:
        return self.ideal.nvars

    @cached_property
    def primes(self) -> tuple[frozenset[int], ...]:
        return self.ideal.minimal_primes()

    def _level_impl(self, r: int) -> MonomialIdeal:
        # a nonzero proper ideal has at least one minimal prime
        return reduce(
            MonomialIdeal.intersect,
            (_prime_power(self.nvars, tuple(sorted(p)), r) for p in self.primes),
        )

    def witness_level(self, u: Monomial) -> int:
        return min(sum(u.exps[j] for j in p) for p in self.primes)

    # the restricted ideal is square-free and its minimal primes are the
    # minimal primes of the ideal inside keep
    restrict = _restrict_base

    def to_json(self) -> dict:
        return {"rule": "symbolic", "ideal": self.ideal.to_json()}

    def embed(self, nvars: int, offset: int = 0) -> "SymbolicSquarefree":
        return SymbolicSquarefree(self.ideal.embed(nvars, offset))


def symbolic_filtration(ideal: MonomialIdeal) -> Filtration:
    """Symbolic-power filtration of an ideal, when supported.

    Square-free ideals use the minimal-prime intersection; pure-power
    ideals (x1^a1, .., xk^ak) are m-primary on their support so symbolic
    and ordinary powers agree; everything else raises.
    """
    if ideal.is_square_free():
        return SymbolicSquarefree(ideal)
    if ideal.pure_power_map() is not None:
        return OrdinaryPowers(ideal)
    raise UnsupportedSymbolicPowerError(
        "symbolic powers of a non-square-free, non-pure-power monomial "
        "ideal are not supported"
    )


@lru_cache(maxsize=4096)
def _prime_power(nvars: int, variables: tuple[int, ...], r: int) -> MonomialIdeal:
    """P^r for the monomial prime on the given variables: all degree-r
    monomials in those variables."""
    gens = []
    for combo in itertools.combinations_with_replacement(variables, r):
        e = [0] * nvars
        for j in combo:
            e[j] += 1
        gens.append(Monomial(e))
    return MonomialIdeal(nvars, gens)


@dataclass(frozen=True)
class PrimePowerIntersection(Filtration):
    """a_r = intersection of P_i^{w_i * r} for monomial primes P_i."""

    nvars: int
    components: tuple[tuple[frozenset[int], int], ...]

    def __post_init__(self):
        if not self.components:
            raise UnsupportedInputError("need at least one prime-power component")
        canon = []
        for supp, w in self.components:
            supp = frozenset(int(j) for j in supp)
            w = int(w)
            if not supp:
                raise UnsupportedInputError("empty prime support")
            if any(not 0 <= j < self.nvars for j in supp):
                raise AmbientMismatchError("prime support out of range")
            if w < 1:
                raise UnsupportedInputError("prime-power weight must be >= 1")
            canon.append((supp, w))
        canon.sort(key=lambda c: (sorted(c[0]), c[1]))
        object.__setattr__(self, "components", tuple(canon))

    def _level_impl(self, r: int) -> MonomialIdeal:
        # components are nonempty by construction
        return reduce(
            MonomialIdeal.intersect,
            (
                _prime_power(self.nvars, tuple(sorted(supp)), w * r)
                for supp, w in self.components
            ),
        )

    def witness_level(self, u: Monomial) -> int:
        return min(
            sum(u.exps[j] for j in supp) // w for supp, w in self.components
        )

    def restrict(self, keep: frozenset[int]) -> "PrimePowerIntersection | None":
        # a prime with a variable outside keep maps to the unit ideal
        comps = tuple(c for c in self.components if c[0] <= keep)
        return PrimePowerIntersection(self.nvars, comps) if comps else None

    def to_json(self) -> dict:
        return {
            "rule": "prime_power_intersection",
            "vars": self.nvars,
            "components": [
                {"support": sorted(supp), "weight": w}
                for supp, w in self.components
            ],
        }

    def embed(self, nvars: int, offset: int = 0) -> "PrimePowerIntersection":
        comps = tuple(
            (frozenset(j + offset for j in supp), w) for supp, w in self.components
        )
        if any(j >= nvars for supp, _ in comps for j in supp):
            raise AmbientMismatchError("embedding does not fit in target ring")
        return PrimePowerIntersection(nvars, comps)


@dataclass(frozen=True)
class IntegralClosurePowers(Filtration):
    """a_r = integral closure of I^r (Newton polyhedron lattice points)."""

    ideal: MonomialIdeal

    def __post_init__(self):
        _require_usable_base(self.ideal, allow_zero=False)

    @property
    def nvars(self) -> int:
        return self.ideal.nvars

    def _level_impl(self, r: int) -> MonomialIdeal:
        return integral_closure_generators(self.ideal, r)

    def witness_level(self, u: Monomial) -> int:
        return integral_closure_level(self.ideal, u)

    restrict = _restrict_base

    def to_json(self) -> dict:
        return {"rule": "integral_closure", "ideal": self.ideal.to_json()}

    def embed(self, nvars: int, offset: int = 0) -> "IntegralClosurePowers":
        return IntegralClosurePowers(self.ideal.embed(nvars, offset))


@dataclass(frozen=True)
class CeilingPower(Filtration):
    """a_r = I^{ceil(beta * r)} for a positive rational beta."""

    ideal: MonomialIdeal
    beta: Fraction

    def __post_init__(self):
        _require_usable_base(self.ideal, allow_zero=False)
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.beta <= 0:
            raise UnsupportedInputError("ceiling exponent beta must be > 0")

    @property
    def nvars(self) -> int:
        return self.ideal.nvars

    def _level_impl(self, r: int) -> MonomialIdeal:
        return self.ideal.power(_ceil_frac(self.beta * r))

    def witness_level(self, u: Monomial) -> int:
        return _floor_div_frac(_base_level(self.ideal, u), self.beta)

    restrict = _restrict_base

    def to_json(self) -> dict:
        return {
            "rule": "ceiling",
            "ideal": self.ideal.to_json(),
            "beta": str(self.beta),
        }

    def embed(self, nvars: int, offset: int = 0) -> "CeilingPower":
        return CeilingPower(self.ideal.embed(nvars, offset), self.beta)


# ---------------------------------------------------------------------- #
# composite rules
# ---------------------------------------------------------------------- #


def _compose(rule) -> None:
    """Check a composite rule's sides and record its depth, raising past
    `MAX_DEPTH`."""
    if rule.left.nvars != rule.right.nvars:
        raise AmbientMismatchError("component filtrations live in different rings")
    depth = 1 + max(rule.left.depth, rule.right.depth)
    if depth > MAX_DEPTH:
        raise SizeGuardError(_TOO_DEEP)
    object.__setattr__(rule, "depth", depth)


def _restrict_unit_absorbing(rule, keep: frozenset[int]) -> "Filtration | None":
    """restrict() of a product or intersection: a side whose positive
    levels all map to the unit ideal drops out, leaving the other side."""
    left, right = rule.left.restrict(keep), rule.right.restrict(keep)
    if left is None or right is None:
        return right if left is None else left
    return type(rule)(left, right)


@dataclass(frozen=True)
class ProductFiltration(Filtration):
    """c_r = a_r * b_r."""

    left: Filtration
    right: Filtration

    def __post_init__(self):
        _compose(self)

    @property
    def nvars(self) -> int:
        return self.left.nvars

    def _level_impl(self, r: int) -> MonomialIdeal:
        return self.left.level(r) * self.right.level(r)

    def member(self, r: int, u: Monomial) -> bool:
        if u.nvars != self.nvars:
            raise AmbientMismatchError("monomial lives in a different ring")
        if r <= 0:
            return True
        return any(
            g.divides(u) and self.right.member(r, u.quotient(g))
            for g in self.left.level(r).gens
        )

    def witness_level(self, u: Monomial) -> int:
        hi = min(self.left.witness_level(u), self.right.witness_level(u))
        lo = 0
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.member(mid, u):
                lo = mid
            else:
                hi = mid - 1
        return lo

    def restrict(self, keep: frozenset[int]) -> "Filtration | None":
        return _restrict_unit_absorbing(self, keep)

    def to_json(self) -> dict:
        return {
            "rule": "product",
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }

    def embed(self, nvars: int, offset: int = 0) -> "ProductFiltration":
        return ProductFiltration(
            self.left.embed(nvars, offset), self.right.embed(nvars, offset)
        )


@dataclass(frozen=True)
class IntersectionFiltration(Filtration):
    """d_r = a_r cap b_r."""

    left: Filtration
    right: Filtration

    def __post_init__(self):
        _compose(self)

    @property
    def nvars(self) -> int:
        return self.left.nvars

    def _level_impl(self, r: int) -> MonomialIdeal:
        return self.left.level(r).intersect(self.right.level(r))

    def witness_level(self, u: Monomial) -> int:
        return min(self.left.witness_level(u), self.right.witness_level(u))

    def restrict(self, keep: frozenset[int]) -> "Filtration | None":
        return _restrict_unit_absorbing(self, keep)

    def to_json(self) -> dict:
        return {
            "rule": "intersection",
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }

    def embed(self, nvars: int, offset: int = 0) -> "IntersectionFiltration":
        return IntersectionFiltration(
            self.left.embed(nvars, offset), self.right.embed(nvars, offset)
        )


@dataclass(frozen=True)
class BinomialSum(Filtration):
    """e_r = sum over i of a_i * b_{r-i} (the binomial-sum filtration)."""

    left: Filtration
    right: Filtration

    def __post_init__(self):
        _compose(self)

    @property
    def nvars(self) -> int:
        return self.left.nvars

    def _level_impl(self, r: int) -> MonomialIdeal:
        out = MonomialIdeal.zero(self.nvars)
        for i in range(r + 1):
            out = out + (self.left.level(i) * self.right.level(r - i))
        return out

    def witness_level(self, u: Monomial) -> int:
        # u in e_r iff some i and generator g of a_i with g | u put u/g in
        # b_{r-i}; so the exact level is max_i max_g (i + wl_b(u/g)).
        hi_left = self.left.witness_level(u)
        if hi_left > _BINSUM_LEVEL_GUARD:
            raise SizeGuardError(
                "binomial-sum witness search too deep; reduce p^e or levels"
            )
        best = self.right.witness_level(u)  # the i = 0 term
        for i in range(1, hi_left + 1):
            for g in self.left.level(i).gens:
                if g.divides(u):
                    best = max(best, i + self.right.witness_level(u.quotient(g)))
        return best

    def restrict(self, keep: frozenset[int]) -> "BinomialSum | None":
        # e_r contains a_r and b_r, so a unit side makes every e_r the unit
        left, right = self.left.restrict(keep), self.right.restrict(keep)
        if left is None or right is None:
            return None
        return BinomialSum(left, right)

    def to_json(self) -> dict:
        return {
            "rule": "binomial_sum",
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }

    def embed(self, nvars: int, offset: int = 0) -> "BinomialSum":
        return BinomialSum(
            self.left.embed(nvars, offset), self.right.embed(nvars, offset)
        )


# ---------------------------------------------------------------------- #
# verification reports
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    levels_checked: int
    violations: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "levels_checked": self.levels_checked,
            "violations": list(self.violations),
        }


def verify_filtration_axioms(filtration: Filtration, r_max: int) -> AxiomReport:
    """Finite check of the filtration axioms up to level r_max:
    a_0 = R, descending levels, and a_i * a_j subseteq a_{i+j}."""
    violations: list[str] = []
    if not filtration.level(0).is_unit():
        violations.append("a_0 is not the unit ideal")
    levels = [filtration.level(r) for r in range(r_max + 1)]
    for r in range(1, r_max + 1):
        if not levels[r - 1].contains_ideal(levels[r]):
            violations.append(f"a_{r} is not contained in a_{r - 1}")
    for i in range(1, r_max + 1):
        for j in range(i, r_max - i + 1):
            if not levels[i + j].contains_ideal(levels[i] * levels[j]):
                violations.append(f"a_{i} * a_{j} not contained in a_{i + j}")
    return AxiomReport(not violations, r_max, tuple(violations))


# ---------------------------------------------------------------------- #
# JSON round trip
# ---------------------------------------------------------------------- #

def filtration_from_json(data: dict) -> Filtration:
    """The filtration a JSON descriptor names; a descriptor that is not an
    object, lacks a field or has a malformed one raises
    `UnsupportedInputError` naming the field, and one nested deeper than
    `MAX_DEPTH` raises `SizeGuardError` before any recursion.

    ``{"rule": "veronese", "base": F, "degree": d}`` (F with the assertion
    a_{kd} = (a_d)^k, d >= 1) returns F itself: the annotation changes no
    level, and no finite check proves the assertion (the 7-cycle's
    symbolic and ordinary powers first differ at k = 4, the 9-cycle's at
    k = 5), so no answer may rest on it."""
    stack = [(data, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise SizeGuardError(_TOO_DEEP)
        if isinstance(node, dict):
            stack += [(node[k], depth + 1) for k in ("left", "right", "base") if k in node]
    return _from_json(data)


def _from_json(data: dict) -> Filtration:
    if not isinstance(data, dict):
        raise UnsupportedInputError(
            f"a filtration descriptor is a JSON object, not {type(data).__name__}"
        )
    rule = data.get("rule")

    def field(key: str, convert):
        return json_field(data, key, convert, f"{rule} filtration")

    if rule == "ordinary":
        return OrdinaryPowers(field("ideal", MonomialIdeal.from_json))
    if rule == "symbolic":
        return symbolic_filtration(field("ideal", MonomialIdeal.from_json))
    if rule == "prime_power_intersection":

        def component(c) -> tuple[frozenset[int], int]:
            what = "prime-power component"
            supp = json_field(c, "support", lambda s: frozenset(map(int, s)), what)
            return supp, json_field(c, "weight", int, what)

        comps = field("components", lambda cs: tuple(map(component, cs)))
        return PrimePowerIntersection(field("vars", int), comps)
    if rule == "integral_closure":
        return IntegralClosurePowers(field("ideal", MonomialIdeal.from_json))
    if rule == "ceiling":
        return CeilingPower(
            field("ideal", MonomialIdeal.from_json), field("beta", Fraction)
        )
    if rule in ("product", "intersection", "binomial_sum"):
        cls = {
            "product": ProductFiltration,
            "intersection": IntersectionFiltration,
            "binomial_sum": BinomialSum,
        }[rule]
        return cls(field("left", _from_json), field("right", _from_json))
    if rule == "veronese":
        base = field("base", _from_json)
        if field("degree", int) < 1:
            raise UnsupportedInputError("Veronese degree must be >= 1")
        return base
    raise UnsupportedInputError(f"unknown filtration rule {rule!r}")
