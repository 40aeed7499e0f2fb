"""Elliptic curves over Q: Weierstrass invariants, reduction types at p >= 5,
split/non-split multiplicative detection, local root numbers, and the
semistable global root number.

At 2 and 3 no Tate algorithm is run: reduction data there must be declared by
the caller (the artifact's workflows always supply it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import TOP_VALUE, Rational, _prime_divisors, is_prime, legendre, valuation


class CurveError(ValueError):
    pass


class UnsupportedPrime(CurveError):
    pass


class MissingLocalData(CurveError):
    pass


GOOD = "good"
SPLIT_MULT = "split_mult"
NONSPLIT_MULT = "nonsplit_mult"
ADDITIVE = "additive"
DECLARED = "declared"
UNKNOWN_23 = "unknown_23"  # p in {2,3} dividing disc, nothing declared
FINITE_TYPES = (GOOD, SPLIT_MULT, NONSPLIT_MULT, ADDITIVE, DECLARED, UNKNOWN_23)


@dataclass(frozen=True)
class EllipticCurveData:
    """Weierstrass model [a1, a2, a3, a4, a6] with derived invariants, each
    computed once per curve (the class is frozen but has no slots, so a
    cached_property can store its value)."""

    a1: Rational
    a2: Rational
    a3: Rational
    a4: Rational
    a6: Rational

    @classmethod
    def from_coeffs(cls, a1, a2, a3, a4, a6) -> EllipticCurveData:
        E = cls(Fraction(a1), Fraction(a2), Fraction(a3), Fraction(a4), Fraction(a6))
        if E.disc == 0:
            raise CurveError("singular Weierstrass model (discriminant 0)")
        if 1728 * E.disc != E.c4**3 - E.c6**2:
            raise CurveError("invariant relation 1728*disc = c4^3 - c6^2 failed")
        return E

    @cached_property
    def b2(self) -> Rational:
        return self.a1**2 + 4 * self.a2

    @cached_property
    def b4(self) -> Rational:
        return 2 * self.a4 + self.a1 * self.a3

    @cached_property
    def b6(self) -> Rational:
        return self.a3**2 + 4 * self.a6

    @cached_property
    def b8(self) -> Rational:
        return (
            self.a1**2 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3**2
            - self.a4**2
        )

    @cached_property
    def c4(self) -> Rational:
        return self.b2**2 - 24 * self.b4

    @cached_property
    def c6(self) -> Rational:
        return -(self.b2**3) + 36 * self.b2 * self.b4 - 216 * self.b6

    @cached_property
    def disc(self) -> Rational:
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6

    def coefficients(self) -> tuple[Rational, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def rescale(self, u: Rational) -> EllipticCurveData:
        """(x, y) -> (u^2 x, u^3 y): a_i -> a_i / u^i."""
        u = Fraction(u)
        return EllipticCurveData(
            self.a1 / u,
            self.a2 / u**2,
            self.a3 / u**3,
            self.a4 / u**4,
            self.a6 / u**6,
        )


@dataclass(frozen=True)
class LocalReductionData:
    """Reduction data at one finite prime. The archimedean sign is read where
    it is used: (-1)^(r1+r2) over a field F, and -1 over Q."""

    prime: int
    type: str
    declared_root_number: int | None = None

    def __post_init__(self):
        if self.type not in FINITE_TYPES:
            raise CurveError(f"unknown reduction type {self.type!r}")
        if self.type == DECLARED and self.declared_root_number not in (1, -1):
            raise CurveError("declared reduction requires a declared root number +-1")

    @property
    def is_multiplicative(self) -> bool:
        return self.type in (SPLIT_MULT, NONSPLIT_MULT)


def _minimal_invariants(E: EllipticCurveData, p: int) -> tuple[Rational, Rational, Rational]:
    """(c4, c6, disc) of a p-minimal model, p >= 5: strip u = p^k while
    v(c4) >= 4k, v(c6) >= 6k, v(disc) >= 12k."""
    c4, c6, disc = E.c4, E.c6, E.disc
    vd = valuation(disc, p)  # disc != 0, so an integer
    v4 = valuation(c4, p)
    v6 = valuation(c6, p)
    k = vd // 12
    if isinstance(v4, int):
        k = min(k, v4 // 4)
    if isinstance(v6, int):
        k = min(k, v6 // 6)
    if k > 0:
        c4 = c4 / Fraction(p) ** (4 * k)
        c6 = c6 / Fraction(p) ** (6 * k)
        disc = disc / Fraction(p) ** (12 * k)
    return c4, c6, disc


def classify_reduction(E: EllipticCurveData, p: int) -> LocalReductionData:
    """Reduction type at a prime p >= 5 from the minimal (c4, c6, disc):
    good iff v(disc) = 0; multiplicative iff v(disc) > 0 = v(c4), split iff
    -c6 is a square mod p; additive otherwise."""
    if not is_prime(p):
        raise CurveError(f"{p} is not prime")
    if p in (2, 3):
        raise UnsupportedPrime(
            f"no reduction classification at p={p}: supply declared local data"
        )
    for a in E.coefficients():
        v = valuation(a, p)
        if v is not TOP_VALUE and v < 0:
            raise CurveError(f"model is not {p}-integral")
    c4, c6, disc = _minimal_invariants(E, p)
    if valuation(disc, p) == 0:
        return LocalReductionData(p, GOOD)
    if valuation(c4, p) == 0:
        num = -c6
        res = num.numerator * pow(num.denominator, -1, p) % p
        if legendre(res, p) == 1:
            return LocalReductionData(p, SPLIT_MULT)
        return LocalReductionData(p, NONSPLIT_MULT)
    return LocalReductionData(p, ADDITIVE)


def local_root_number(L: LocalReductionData) -> int:
    """-1 at split multiplicative primes, +1 at good and non-split
    multiplicative primes, the declared value where declared."""
    if L.type == GOOD:
        return 1
    if L.type == SPLIT_MULT:
        return -1
    if L.type == NONSPLIT_MULT:
        return 1
    if L.declared_root_number is not None:
        return L.declared_root_number
    raise MissingLocalData(
        f"no local root number at p={L.prime} ({L.type} without a declared value)"
    )


def global_root_semistable(bad_prime_data: list[LocalReductionData]) -> int:
    """W(E/Q) = (-1)^(1+s) over Q (one archimedean place), s counting split
    multiplicative primes; declared primes contribute their declared values.

    Cross-checked against the plain product of local root numbers.
    """
    s = 0
    product = -1  # the single archimedean place of Q
    for L in bad_prime_data:
        product *= local_root_number(L)
        if L.type == SPLIT_MULT:
            s += 1
        elif L.type in (DECLARED, ADDITIVE) and L.declared_root_number == -1:
            s += 1  # a declared -1 at a semistable prime means split multiplicative
    formula = -1 if (1 + s) % 2 == 1 else 1
    if formula != product:
        raise CurveError("parity formula disagrees with the local product")
    return formula


@dataclass(frozen=True)
class CurveLocalData:
    """Reduction data at the bad primes of a curve: declarations as given,
    every other bad prime >= 5 of the model classified automatically, and
    undeclared bad 2/3 kept as explicit unknowns (they fail loudly if used).
    The rank-gain search without a curve holds an assumed multiplicative type
    at q alone."""

    local: tuple[LocalReductionData, ...]

    @classmethod
    def build(
        cls, curve: EllipticCurveData, declared: list[LocalReductionData] | None = None
    ) -> CurveLocalData:
        by_prime: dict[int, LocalReductionData] = {}
        for L in declared or []:
            if L.prime in by_prime:
                raise CurveError(f"duplicate declaration at p={L.prime}")
            by_prime[L.prime] = L
        out = dict(by_prime)
        for p in _prime_divisors(curve.disc):
            if p in out:
                continue
            if p >= 5:
                out[p] = classify_reduction(curve, p)
            else:
                out[p] = LocalReductionData(p, UNKNOWN_23)
        data = tuple(L for _, L in sorted(out.items()) if L.type != GOOD)
        return cls(data)

    def reduction_at(self, p: int) -> LocalReductionData | None:
        for L in self.local:
            if L.prime == p:
                return L
        return None

    def bad_primes(self) -> list[int]:
        return [L.prime for L in self.local]
