"""Monomials and monomial ideals with exact integer arithmetic.

Everything here is deterministic: generator sets are stored as
divisibility-minimal antichains sorted lexicographically, so equal ideals
produce identical reprs, JSON payloads and iteration orders.

Conventions for the two degenerate ideals:

* the zero ideal is the empty generating set;
* the unit ideal is generated by the monomial 1 (the all-zero exponent
  vector).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    AmbientMismatchError,
    SizeGuardError,
    UnsupportedInputError,
    json_field,
)

__all__ = [
    "Monomial",
    "MonomialIdeal",
    "minimal_transversals",
    "max_power_membership",
]


class Monomial:
    """An exponent vector in a fixed ambient ring K[x1..xn].

    Immutable and hashable; ordering is lexicographic on the exponent
    tuple (used only to keep output deterministic).
    """

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[int]):
        t = tuple(int(e) for e in exps)
        for e in t:
            if e < 0:
                raise UnsupportedInputError(f"negative exponent in monomial: {t}")
        object.__setattr__(self, "exps", t)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Monomial is immutable")

    @property
    def nvars(self) -> int:
        return len(self.exps)

    def degree(self) -> int:
        return sum(self.exps)

    def support(self) -> frozenset[int]:
        return frozenset(j for j, e in enumerate(self.exps) if e > 0)

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exps)

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(max(a, b) for a, b in zip(self.exps, other.exps))

    def gcd(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(min(a, b) for a, b in zip(self.exps, other.exps))

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(a + b for a, b in zip(self.exps, other.exps))

    def power(self, k: int) -> "Monomial":
        if k < 0:
            raise UnsupportedInputError("negative monomial power")
        return Monomial(e * k for e in self.exps)

    def quotient(self, other: "Monomial") -> "Monomial":
        """Exact quotient self/other; requires other | self."""
        if not other.divides(self):
            raise UnsupportedInputError(f"{other} does not divide {self}")
        return Monomial(a - b for a, b in zip(self.exps, other.exps))

    def saturating_quotient(self, other: "Monomial") -> "Monomial":
        """Componentwise max(self - other, 0); the colon-by-monomial kernel."""
        self._check(other)
        return Monomial(max(a - b, 0) for a, b in zip(self.exps, other.exps))

    def embed(self, nvars: int, offset: int = 0) -> "Monomial":
        if offset < 0 or offset + self.nvars > nvars:
            raise AmbientMismatchError("embedding does not fit in target ring")
        exps = [0] * nvars
        exps[offset : offset + self.nvars] = self.exps
        return Monomial(exps)

    def weighted_value(self, weights: Sequence[int | Fraction]) -> Fraction:
        if len(weights) != self.nvars:
            raise AmbientMismatchError("weight vector has wrong length")
        return sum((Fraction(w) * e for w, e in zip(weights, self.exps)), Fraction(0))

    def _check(self, other: "Monomial") -> None:
        if self.nvars != other.nvars:
            raise AmbientMismatchError(
                f"monomials in different rings: {self.nvars} vs {other.nvars} variables"
            )

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __lt__(self, other: "Monomial") -> bool:
        return self.exps < other.exps

    def __le__(self, other: "Monomial") -> bool:
        return self.exps <= other.exps

    def __repr__(self) -> str:
        return f"Monomial({list(self.exps)})"

    def __str__(self) -> str:
        if self.is_one():
            return "1"
        parts = []
        for j, e in enumerate(self.exps):
            if e == 1:
                parts.append(f"x{j + 1}")
            elif e > 1:
                parts.append(f"x{j + 1}^{e}")
        return "*".join(parts)


def _minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Divisibility-minimal antichain of a generator list, sorted lex."""
    uniq = sorted(set(gens), key=lambda m: (m.degree(), m.exps))
    out: list[Monomial] = []
    for g in uniq:
        if not any(h.divides(g) for h in out):
            out.append(g)
    return tuple(sorted(out, key=lambda m: m.exps))


class MonomialIdeal:
    """A monomial ideal, stored by its unique minimal generating antichain."""

    __slots__ = ("nvars", "gens", "_hash")

    def __init__(self, nvars: int, gens: Iterable[Monomial] = ()):
        nvars = int(nvars)
        if nvars < 1:
            raise UnsupportedInputError("ambient ring needs at least one variable")
        glist = list(gens)
        for g in glist:
            if g.nvars != nvars:
                raise AmbientMismatchError(
                    f"generator {g!r} does not live in {nvars} variables"
                )
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "gens", _minimalize(glist))
        object.__setattr__(self, "_hash", hash((nvars, self.gens)))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MonomialIdeal is immutable")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def zero(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, ())

    @classmethod
    def unit(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, (Monomial([0] * nvars),))

    @classmethod
    def maximal(cls, nvars: int) -> "MonomialIdeal":
        gens = []
        for j in range(nvars):
            e = [0] * nvars
            e[j] = 1
            gens.append(Monomial(e))
        return cls(nvars, gens)

    @classmethod
    def from_exponents(cls, nvars: int, rows: Iterable[Iterable[int]]) -> "MonomialIdeal":
        return cls(nvars, (Monomial(r) for r in rows))

    # ------------------------------------------------------------------ #
    # predicates and basic data
    # ------------------------------------------------------------------ #

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_one()

    def is_proper(self) -> bool:
        return not self.is_unit()

    def is_square_free(self) -> bool:
        return all(all(e <= 1 for e in g.exps) for g in self.gens)

    def is_maximal_ideal(self) -> bool:
        return self == MonomialIdeal.maximal(self.nvars)

    def pure_power_map(self) -> dict[int, int] | None:
        """If every generator is a power of a single variable, return
        {variable: exponent}; else None.  (The zero/unit ideals return None.)"""
        if self.is_zero() or self.is_unit():
            return None
        out: dict[int, int] = {}
        for g in self.gens:
            supp = g.support()
            if len(supp) != 1:
                return None
            (j,) = supp
            out[j] = g.exps[j]
        return out

    def pure_power_all_vars(self) -> dict[int, int] | None:
        """pure_power_map() restricted to the case where every variable occurs."""
        pp = self.pure_power_map()
        if pp is not None and len(pp) == self.nvars:
            return pp
        return None

    def num_generators(self) -> int:
        return len(self.gens)

    def alpha(self) -> int:
        """Least total degree of a generator (the initial degree)."""
        if self.is_zero():
            raise UnsupportedInputError("alpha of the zero ideal is undefined")
        return min(g.degree() for g in self.gens)

    # ------------------------------------------------------------------ #
    # membership / containment
    # ------------------------------------------------------------------ #

    def contains_monomial(self, u: Monomial) -> bool:
        if u.nvars != self.nvars:
            raise AmbientMismatchError("monomial lives in a different ring")
        return any(g.divides(u) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """True iff other is a subideal of self."""
        self._check(other)
        return all(self.contains_monomial(g) for g in other.gens)

    def __le__(self, other: "MonomialIdeal") -> bool:
        return other.contains_ideal(self)

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(self.nvars, self.gens + other.gens)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.nvars)
        return MonomialIdeal(
            self.nvars, (g * h for g in self.gens for h in other.gens)
        )

    def power(self, r: int) -> "MonomialIdeal":
        if r < 0:
            raise UnsupportedInputError("negative ideal power")
        if r == 0:
            return MonomialIdeal.unit(self.nvars)
        # binary powering with intermediate minimalization; the lowest set
        # bit of r starts the result
        base = self
        while not r & 1:
            base, r = base * base, r >> 1
        result = base
        r >>= 1
        while r:
            base = base * base
            if r & 1:
                result = result * base
            r >>= 1
        return result

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.nvars)
        return MonomialIdeal(
            self.nvars, (g.lcm(h) for g in self.gens for h in other.gens)
        )

    def colon_monomial(self, u: Monomial) -> "MonomialIdeal":
        """(I : u) for a monomial u."""
        if u.nvars != self.nvars:
            raise AmbientMismatchError("monomial lives in a different ring")
        return MonomialIdeal(self.nvars, (g.saturating_quotient(u) for g in self.gens))

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """(I : J) = intersection of (I : g) over generators g of J."""
        self._check(other)
        if other.is_zero():
            return MonomialIdeal.unit(self.nvars)
        result = MonomialIdeal.unit(self.nvars)
        for g in other.gens:
            result = result.intersect(self.colon_monomial(g))
        return result

    def saturate(self, other: "MonomialIdeal | Monomial") -> "MonomialIdeal":
        """(I : J^infinity), computed by iterating the colon to a fixpoint."""
        current = self
        while True:
            if isinstance(other, Monomial):
                nxt = current.colon_monomial(other)
            else:
                nxt = current.colon(other)
            if nxt == current:
                return current
            current = nxt

    def bracket_power(self, q: int) -> "MonomialIdeal":
        """The Frobenius power I^[q]: scale every generator exponent by q."""
        if q < 1:
            raise UnsupportedInputError("bracket power needs q >= 1")
        return MonomialIdeal(self.nvars, (g.power(q) for g in self.gens))

    def radical(self) -> "MonomialIdeal":
        """Radical: replace each generator by its square-free support."""
        return MonomialIdeal(
            self.nvars,
            (Monomial(1 if e > 0 else 0 for e in g.exps) for g in self.gens),
        )

    def embed(self, nvars: int, offset: int = 0) -> "MonomialIdeal":
        return MonomialIdeal(nvars, (g.embed(nvars, offset) for g in self.gens))

    def restrict(self, keep: frozenset[int]) -> "MonomialIdeal":
        """Image under x_j -> 1 for every j outside keep, in the same ring."""
        return MonomialIdeal(
            self.nvars,
            (
                Monomial(e if j in keep else 0 for j, e in enumerate(g.exps))
                for g in self.gens
            ),
        )

    # ------------------------------------------------------------------ #
    # combinatorics of square-free ideals
    # ------------------------------------------------------------------ #

    def minimal_primes(self) -> tuple[frozenset[int], ...]:
        """Minimal monomial primes, as variable sets, for a square-free ideal.

        These are the minimal transversals of the generator supports.
        """
        if not self.is_square_free():
            raise UnsupportedInputError(
                "minimal_primes implemented for square-free ideals only"
            )
        if self.is_zero():
            return ()
        if self.is_unit():
            raise UnsupportedInputError("the unit ideal has no minimal primes")
        supports = [g.support() for g in self.gens]
        return minimal_transversals(supports)

    def height(self) -> int:
        """Height = min size of a minimal prime of the radical."""
        if self.is_zero() or self.is_unit():
            raise UnsupportedInputError("height undefined for zero/unit ideal")
        return min(len(p) for p in self.radical().minimal_primes())

    def big_height(self) -> int:
        """Max size of a minimal prime (square-free ideals)."""
        if not self.is_square_free():
            raise UnsupportedInputError("big_height implemented for square-free ideals")
        return max(len(p) for p in self.minimal_primes())

    def irreducible_components(
        self,
    ) -> tuple[tuple[frozenset[int], tuple[int, ...]], ...]:
        """The irredundant irreducible decomposition I = cap_j Q_j.

        Each component Q_j = (x_i^{b_i} : i in S_j) is returned as the pair
        (S_j, b_j) with b_j an exponent vector that is zero outside S_j.
        The unit ideal has no components; the zero ideal is its own single
        component, with empty support.
        """
        if self.is_unit():
            return ()
        return _irreducible_components(self)

    # ------------------------------------------------------------------ #
    # membership level (largest r with u in I^r)
    # ------------------------------------------------------------------ #

    def membership_level(self, u: Monomial) -> int | None:
        """Largest r >= 0 with u in I^r; None means unbounded (unit ideal)."""
        if u.nvars != self.nvars:
            raise AmbientMismatchError("monomial lives in a different ring")
        if self.is_unit():
            return None
        if self.is_zero():
            return 0
        pp = self.pure_power_map()
        if pp is not None:
            return sum(u.exps[j] // a for j, a in pp.items())
        return max_power_membership(self, u)

    def valuation(self, weights: Sequence[int | Fraction]) -> Fraction:
        """min over generators of the weighted exponent sum v(I)."""
        if self.is_zero():
            raise UnsupportedInputError("valuation of the zero ideal is undefined")
        return min(g.weighted_value(weights) for g in self.gens)

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def _check(self, other: "MonomialIdeal") -> None:
        if self.nvars != other.nvars:
            raise AmbientMismatchError(
                f"ideals in different rings: {self.nvars} vs {other.nvars} variables"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.nvars == other.nvars
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.gens)

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.nvars}, {[list(g.exps) for g in self.gens]})"

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"

    def to_json(self) -> dict:
        return {
            "vars": self.nvars,
            "generators": [list(g.exps) for g in self.gens],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MonomialIdeal":
        nvars = json_field(data, "vars", int, "ideal")
        gens = json_field(
            data, "generators", lambda rows: [Monomial(r) for r in rows], "ideal"
        )
        return cls(nvars, gens)


def minimal_transversals(
    edge_sets: Sequence[frozenset[int]],
) -> tuple[frozenset[int], ...]:
    """All minimal transversals (hitting sets) of a family of vertex sets.

    Berge multiplication: fold edges in one at a time, keeping the
    antichain of minimal transversals of the prefix.  Exponential in the
    worst case, fine at desk scale.
    """
    current: list[frozenset[int]] = [frozenset()]
    for edge in edge_sets:
        if not edge:
            raise UnsupportedInputError("empty edge has no transversal")
        nxt: set[frozenset[int]] = set()
        for t in current:
            if t & edge:
                nxt.add(t)
            else:
                for v in edge:
                    nxt.add(t | {v})
        # keep minimal elements only
        pruned: list[frozenset[int]] = []
        for t in sorted(nxt, key=lambda s: (len(s), sorted(s))):
            if not any(p <= t for p in pruned):
                pruned.append(t)
        current = pruned
    return tuple(sorted(current, key=lambda s: (len(s), sorted(s))))


def _max_power_dp(
    gens: tuple[tuple[int, ...], ...],
    memo: dict[tuple[tuple[int, ...], int], int],
    res: tuple[int, ...],
    i: int,
) -> int:
    """Max number of generators from gens[i:] whose product divides x^res.

    A module-level function rather than a closure over memo: a closure
    that calls itself is a reference cycle, which would keep each call's
    memo alive until the next full garbage collection.
    """
    if i == len(gens):
        return 0
    key = (res, i)
    hit = memo.get(key)
    if hit is not None:
        return hit
    # skip generator i
    out = _max_power_dp(gens, memo, res, i + 1)
    g = gens[i]
    if all(a <= b for a, b in zip(g, res)):
        rest = tuple(b - a for a, b in zip(g, res))
        out = max(out, 1 + _max_power_dp(gens, memo, rest, i))
    memo[key] = out
    return out


@lru_cache(maxsize=1024)
def _irreducible_components(
    ideal: MonomialIdeal,
) -> tuple[tuple[frozenset[int], tuple[int, ...]], ...]:
    """Split on a mixed generator x_j^a * m' (a = its x_j exponent, m' != 1):
    I = (I + x_j^a) cap (I + m'), until every generator is a pure power;
    then drop each component that contains another (irreducible monomial
    ideals are meet-prime, so what is left is irredundant).
    Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 5."""
    n = ideal.nvars
    found: set[tuple[int, ...]] = set()
    stack = [ideal]
    while stack:
        cur = stack.pop()
        mixed = next((g for g in cur.gens if len(g.support()) > 1), None)
        if mixed is None:
            b = [0] * n
            for g in cur.gens:
                (j,) = g.support()
                b[j] = g.exps[j]
            found.add(tuple(b))
            continue
        j = min(mixed.support())
        head = [0] * n
        head[j] = mixed.exps[j]
        tail = list(mixed.exps)
        tail[j] = 0
        stack.append(cur + MonomialIdeal(n, (Monomial(head),)))
        stack.append(cur + MonomialIdeal(n, (Monomial(tail),)))

    def inside(b: tuple[int, ...], c: tuple[int, ...]) -> bool:
        # Q_b subseteq Q_c: every x_i^{b_i} is divisible by x_i^{c_i}
        return all(c[i] and c[i] <= b[i] for i in range(n) if b[i])

    kept = [c for c in found if not any(b != c and inside(b, c) for b in found)]
    kept.sort(key=lambda b: (sorted(i for i in range(n) if b[i]), b))
    return tuple((frozenset(i for i in range(n) if b[i]), b) for b in kept)


@lru_cache(maxsize=16384)
def _max_power_cached(ideal: MonomialIdeal, u: Monomial) -> int:
    return _max_power_dp(tuple(g.exps for g in ideal.gens), {}, u.exps, 0)


def max_power_membership(ideal: MonomialIdeal, u: Monomial) -> int:
    """Exact max r with u in I^r for a nonzero proper monomial ideal.

    Solved as a bounded integer program by memoized recursion over the
    residual exponent vector (generator order fixed to avoid permutation
    blowup).  The recursion is one frame deep per generator used, so a
    witness of very high degree raises ``SizeGuardError``.
    """
    if ideal.is_zero() or ideal.is_unit():
        raise UnsupportedInputError("max_power_membership needs a nonzero proper ideal")
    try:
        return _max_power_cached(ideal, u)
    except RecursionError:
        raise SizeGuardError(
            f"membership search for a monomial of degree {u.degree()} in a "
            f"non-pure-power ideal is too deep; reduce p^e"
        ) from None
