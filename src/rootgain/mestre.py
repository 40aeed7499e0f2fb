"""Pencils f(X) - t g(X) (and general Q(t)-coefficient families), the exact
identity f'g - g'f = r^2, the odd-quintic solver, specialization with p-adic
constraints, alternating-group certificates, and the rank-gain search.

All arithmetic is exact; specializations are cleared to primitive integral
polynomials, which changes discriminants by rational squares only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .algebra import (
    NotASquare,
    PolyFacts,
    PolyQ,
    Rational,
    is_prime,
    iter_primes,
    poly_sqrt_exact,
    rational_roots,
    rational_sqrt,
    valuation,
)
from .ellcurve import SPLIT_MULT, CurveLocalData
from .extension import (
    DecompositionPair,
    ExtensionProfile,
    build_profile,
    certify_irreducible,
    profile_from_decomposition,
    root_number_over_extension,
    root_number_ratio,
    split_count_from_profile,
)
from .permgroup import perm_order, transitive_typesets

CONDITIONAL_TOKEN = "conditional-on-parity-conjecture"


class MestreError(ValueError):
    pass


class SpecializationError(MestreError):
    pass


# ---------------------------------------------------------------- pencils


@dataclass(frozen=True)
class BranchPoint:
    """Declared branch-point record: location ('inf' or a rational), ramification
    index, optional inertia class label and decomposition data."""

    location: object  # Fraction or the string "inf"
    ramification_index: int
    inertia_class: str | None = None
    pair: DecompositionPair | None = None

    def __post_init__(self):
        if self.ramification_index < 2:
            raise MestreError("branch points have ramification index >= 2")
        if self.pair is not None and self.inertia_class is not None:
            orders = {perm_order(g) for g in self.pair.inertia_gens}
            if orders and self.ramification_index not in orders:
                raise MestreError(
                    "ramification index does not match the declared inertia generators"
                )


@dataclass(frozen=True)
class Pencil:
    """F(t, X) with X-coefficients given as rational functions num(t)/den(t)."""

    coefficients: tuple[tuple[PolyQ, PolyQ], ...]  # ascending X powers
    branch_points: tuple[BranchPoint, ...] = ()
    name: str = ""

    @property
    def degree_x(self) -> int:
        return len(self.coefficients) - 1

    def branch_locations(self) -> set:
        return {bp.location for bp in self.branch_points}


def mestre_form_pencil(f: PolyQ, g: PolyQ, branch_points=()) -> Pencil:
    """f(X) - t*g(X); requires deg g < deg f and separable f."""
    if g.degree >= f.degree:
        raise MestreError("Mestre form needs deg g < deg f")
    if not f.is_separable():
        raise MestreError("f must be separable")
    coeffs = []
    for i in range(f.degree + 1):
        coeffs.append((PolyQ([f[i], -g[i]]), PolyQ([1])))
    return Pencil(tuple(coeffs), tuple(branch_points), name="mestre-form")


def psl2_11_degree12_pencil() -> Pencil:
    """The degree-12 family A(X) - 9 s(t) B(X) - 3 s(t)^2 (X - 11) with
    s(t) = 2^8 * 3^5 / (11 t^2 + 1); branch points of index 2, 11, 11 with the
    index-2 one at t = infinity carrying a Klein-four decomposition pair built
    from a fixed-point-free involution in PSL2(11) and a commuting involution."""
    A3 = PolyQ([-308, -66, 0, 1])
    A = A3 * A3 * A3 * A3
    B = PolyQ([103763, 57358, 1892, -1573, -44, 11])
    C = PolyQ([-11, 1])
    s_num = 62208
    den1 = PolyQ([1, 0, 11])  # 11 t^2 + 1
    den2 = den1 * den1
    coeffs = []
    for i in range(13):
        # A_i + (-9 s B_i) / den1 + (-3 s^2 C_i) / den2, over the common den2
        num = PolyQ([A[i]]) * den2 + PolyQ([-9 * s_num * B[i]]) * den1 + PolyQ(
            [-3 * s_num * s_num * C[i]]
        )
        coeffs.append((num, den2))
    from .permgroup import centralizer_scan, perm_order, psl2_natural

    G = psl2_natural(11)
    c = next(g for g in G.elements if perm_order(g) == 2)
    Ccent = centralizer_scan(G, c)
    x = next(g for g in Ccent if perm_order(g) == 2 and g != c)
    pair = DecompositionPair(12, (c, x), (c,))
    bps = (
        BranchPoint("inf", 2, inertia_class="2A", pair=pair),
        # the two index-11 branch points are conjugate irrational points of
        # 11 t^2 + 1 = 0; recorded with location markers only
        BranchPoint("poles-of-s", 11, inertia_class="11A"),
    )
    return Pencil(tuple(coeffs), bps, name="psl2-11-degree12")


def specialize(P: Pencil, t0: Rational) -> PolyQ:
    """F(t0, X) cleared to a primitive integral polynomial (positive leading
    coefficient); rejects declared branch points, coefficient poles, degree
    drops and inseparable fibers."""
    t0 = Fraction(t0)
    if t0 in P.branch_locations():
        raise SpecializationError(f"t0 = {t0} is a declared branch point")
    vals = []
    for num, den in P.coefficients:
        d = den(t0)
        if d == 0:
            raise SpecializationError(f"coefficient pole at t0 = {t0}")
        vals.append(num(t0) / d)
    h = PolyQ(vals)
    if h.degree != P.degree_x:
        raise SpecializationError(
            f"degree drop at t0 = {t0}: got {h.degree}, expected {P.degree_x}"
        )
    if not h.is_separable():
        raise SpecializationError(f"inseparable specialization at t0 = {t0}")
    return h.primitive_integral()


# ---------------------------------------------------------------- Mestre identity


def mestre_verify(f: PolyQ, g: PolyQ) -> PolyQ:
    """The exact r with f'g - g'f = r^2; raises NotASquare otherwise."""
    if not f.is_separable():
        raise MestreError("f must be separable")
    if g.degree >= f.degree:
        raise MestreError("requires deg g < deg f")
    h = f.derivative() * g - g.derivative() * f
    return poly_sqrt_exact(h)


class _Poly2:
    """Sparse bivariate polynomial over Q in (B, C), for the solver only."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for k, v in (terms or {}).items():
            v = Fraction(v)
            if v:
                self.terms[k] = v

    @classmethod
    def const(cls, c):
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def var_b(cls):
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def var_c(cls):
        return cls({(0, 1): Fraction(1)})

    def __add__(self, o):
        t = dict(self.terms)
        for k, v in o.terms.items():
            t[k] = t.get(k, Fraction(0)) + v
        return _Poly2(t)

    def __sub__(self, o):
        t = dict(self.terms)
        for k, v in o.terms.items():
            t[k] = t.get(k, Fraction(0)) - v
        return _Poly2(t)

    def __mul__(self, o):
        if isinstance(o, (int, Fraction)):
            return _Poly2({k: v * o for k, v in self.terms.items()})
        t = {}
        for (i, j), v in self.terms.items():
            for (k, l), w in o.terms.items():
                key = (i + k, j + l)
                t[key] = t.get(key, Fraction(0)) + v * w
        return _Poly2(t)

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def degree_c(self):
        return max((j for _, j in self.terms), default=0)

    def coeff_of_c(self, j) -> PolyQ:
        """Coefficient of C^j, as a polynomial in B."""
        out = {}
        for (i, jj), v in self.terms.items():
            if jj == j:
                out[i] = v
        if not out:
            return PolyQ([])
        return PolyQ([out.get(i, Fraction(0)) for i in range(max(out) + 1)])

    def eval_b(self, b0: Fraction) -> PolyQ:
        """Substitute B = b0; result is a polynomial in C."""
        out = {}
        for (i, j), v in self.terms.items():
            out[j] = out.get(j, Fraction(0)) + v * b0**i
        if not out:
            return PolyQ([])
        return PolyQ([out.get(j, Fraction(0)) for j in range(max(out) + 1)])


def _resultant_in_c(p1: _Poly2, p2: _Poly2) -> PolyQ:
    """Res_C of (linear in C, quadratic in C) via the 3x3 Sylvester determinant,
    with entries polynomials in B."""
    a1 = p1.coeff_of_c(1)
    a0 = p1.coeff_of_c(0)
    b2 = p2.coeff_of_c(2)
    b1 = p2.coeff_of_c(1)
    b0 = p2.coeff_of_c(0)
    # | a1 a0 0 |
    # | 0  a1 a0|
    # | b2 b1 b0|
    return (
        a1 * (a1 * b0 - a0 * b1)
        + a0 * (a0 * b2)
    )


def mestre_solve_odd_quintic(f: PolyQ) -> list[tuple[PolyQ, PolyQ]]:
    """All monic even quartics g = X^4 + B X^2 + C with f'g - g'f a square,
    for odd separable quintics f.

    The formal top-down square root of the (even, degree-8) difference leaves
    two residual coefficient conditions in (B, C); these are eliminated by a
    resultant in C, rational roots of the resulting sextic in B are extracted,
    and back-substitution plus exact verification yields the solutions.
    """
    if f.degree != 5:
        raise MestreError("solver handles degree-5 polynomials")
    if f.compose_neg() != -f:
        raise MestreError("solver handles odd f only")
    if not f.is_separable():
        raise MestreError("f must be separable")
    lc = f.leading()
    if rational_sqrt(lc) is None:
        return []  # r^2 would need a square leading coefficient
    fa = Fraction(f[3] / lc)
    fb = Fraction(f[1] / lc)

    B = _Poly2.var_b()
    C = _Poly2.var_c()
    one = _Poly2.const(1)
    zero = _Poly2()
    # expand h = f0'g - g'f0 for monic f0 = X^5 + aX^3 + bX and g = X^4+BX^2+C,
    # as X-coefficient lists with bivariate entries
    f0 = [zero, _Poly2.const(fb), zero, _Poly2.const(fa), zero, one]
    f0d = [_Poly2.const(fb), zero, _Poly2.const(3 * fa), zero, _Poly2.const(5)]
    gC = [C, zero, B, zero, one]
    gCd = [zero, 2 * B, zero, _Poly2.const(4)]

    def xmul(u, v):
        out = [zero] * (len(u) + len(v) - 1)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                out[i + j] = out[i + j] + ui * vj
        return out

    prod1 = xmul(f0d, gC)
    prod2 = xmul(gCd, f0)
    h = [p - q for p, q in zip(prod1, prod2)]
    if any(not h[k].is_zero() for k in range(1, 9, 2)):
        raise MestreError("difference is not even (violated parity bookkeeping)")
    if (h[8] - one).terms:
        raise MestreError("leading coefficient of the difference is not 1")
    # top-down square root r = X^4 + r2 X^2 + r0 (r4 = 1 since h8 = 1):
    half = Fraction(1, 2)
    r2 = h[6] * half
    r0 = (h[4] - r2 * r2) * half
    # residual conditions from the X^2 and X^0 coefficients:
    cond1 = h[2] - 2 * r2 * r0
    cond2 = h[0] - r0 * r0
    if cond1.degree_c() != 1 or cond2.degree_c() != 2:
        raise MestreError("unexpected elimination shape")
    res_b = _resultant_in_c(cond1, cond2)
    if res_b.is_zero():
        raise MestreError("degenerate elimination (unexpected for separable f)")
    out = []
    seen = set()
    for b0 in rational_roots(res_b):
        p1 = cond1.eval_b(b0)
        p2 = cond2.eval_b(b0)
        candidates: list[Fraction] = []
        if p1.degree == 1:
            candidates.append(-p1[0] / p1[1])
        elif p1.is_zero() and not p2.is_zero():
            candidates.extend(rational_roots(p2))
        for c0 in candidates:
            if p2(c0) != 0 or p1(c0) != 0:
                continue
            if (b0, c0) in seen:
                continue
            seen.add((b0, c0))
            g = PolyQ([c0, 0, b0, 0, 1])
            try:
                r = mestre_verify(f, g)
            except (NotASquare, MestreError):
                continue
            out.append((g, r))
    out.sort(key=lambda gr: (gr[0][2], gr[0][0]))
    return out


# ---------------------------------------------------------------- A_n certificates


@dataclass(frozen=True)
class AnCertificate:
    contained_in_alternating: bool
    patterns: tuple[tuple[int, ...], ...]
    verdict: str  # "alternating-consistent" | "patterns-insufficient" | "heuristic"
    ruled_out: int  # proper transitive subgroup typesets excluded


def an_certificate(h: PolyQ | PolyFacts, pattern_primes: int = 100) -> AnCertificate:
    """Square-discriminant test plus a Frobenius-pattern verdict.

    The pattern stage compares factor-degree multisets mod good primes against
    the cycle-type sets of proper transitive subgroups of A_n (exhaustive table
    for n <= 7; larger degrees report patterns with verdict "heuristic").
    """
    facts = PolyFacts.of(h)
    cert = certify_irreducible(facts)
    if not cert.certified:
        raise MestreError(
            "an_certificate requires an irreducibility certificate "
            f"(status: {cert.status})"
        )
    square = rational_sqrt(facts.disc) is not None
    uniq = tuple(sorted({pattern for _, pattern in facts.frobenius(pattern_primes)}))
    n = facts.poly.degree
    if not square:
        return AnCertificate(False, uniq, "patterns-insufficient", 0)
    if n > 7:
        return AnCertificate(True, uniq, "heuristic", 0)
    tables = transitive_typesets(n)
    ruled = sum(1 for ts in tables if any(pat not in ts for pat in uniq))
    verdict = "alternating-consistent" if ruled == len(tables) else "patterns-insufficient"
    return AnCertificate(True, uniq, verdict, ruled)


def distinctness_fingerprint(
    h1: PolyQ | PolyFacts, h2: PolyQ | PolyFacts, max_primes: int = 200
) -> str:
    """'distinct' iff some good prime separates the factor-degree multisets of
    h1 and h2 among the first max_primes primes; else 'indistinguishable'."""
    f1, f2 = PolyFacts.of(h1), PolyFacts.of(h2)
    if f1.poly.degree != f2.poly.degree:
        raise MestreError("fingerprints compare polynomials of equal degree")
    if f1.disc == 0 or f2.disc == 0:
        raise MestreError("fingerprints compare polynomials of nonzero discriminant")
    count = 0
    for p in iter_primes():
        if count >= max_primes:
            break
        if not (f1.is_good(p) and f2.is_good(p)):
            continue
        count += 1
        if f1.pattern(p) != f2.pattern(p):
            return "distinct"
    return "indistinguishable"


# ---------------------------------------------------------------- search


VALUATION_EQUALS = "valuation_of_t0_equals"
CONGRUENT_TO = "t0_congruent_to"
UNRAMIFIED_AT = "unramified_at"


@dataclass(frozen=True)
class PrimeCondition:
    prime: int
    kind: str
    value: Rational | int | None = None
    modulus_exponent: int = 0

    def __post_init__(self):
        if self.kind not in (VALUATION_EQUALS, CONGRUENT_TO, UNRAMIFIED_AT):
            raise MestreError(f"unknown condition kind {self.kind!r}")
        if not is_prime(self.prime):
            raise MestreError(f"{self.prime} is not prime")
        if self.kind == CONGRUENT_TO and self.modulus_exponent < 1:
            raise MestreError("congruence condition needs a positive modulus exponent")


@dataclass(frozen=True)
class SearchConstraints:
    conditions: tuple[PrimeCondition, ...] = ()
    height_bound: int = 100
    excluded_primes: tuple[int, ...] = ()

    def __post_init__(self):
        primes = [c.prime for c in self.conditions]
        if len(set(primes)) != len(primes):
            raise MestreError("conditions must reference distinct primes")
        if self.height_bound < 1:
            raise MestreError("height bound must be >= 1")


def _satisfies_exact(t0: Fraction, cond: PrimeCondition) -> bool:
    if cond.kind == VALUATION_EQUALS:
        return valuation(t0, cond.prime) == cond.value
    if cond.kind == CONGRUENT_TO:
        # an exact hit gives TOP_VALUE, which compares above every exponent
        return valuation(t0 - Fraction(cond.value), cond.prime) >= cond.modulus_exponent
    return True  # UNRAMIFIED_AT is checked on the fiber (_unramified_as_required)


def enumerate_t0(constraints: SearchConstraints, branch_locations=frozenset()):
    """Rationals a/b in lowest terms by ascending height max(|a|, b), filtered
    by the exact per-prime conditions; deterministic order.

    Congruence-to-zero conditions force the numerator to be a multiple of
    prod q^m; the loops step accordingly (the order of surviving candidates is
    unchanged), so large moduli do not cost quadratic enumeration time.
    """
    conds = constraints.conditions
    H = constraints.height_bound
    step = 1
    for c in conds:
        if c.kind == CONGRUENT_TO and Fraction(c.value) == 0:
            step *= c.prime**c.modulus_exponent
    for height in range(1, H + 1):
        b_values = range(1, height + 1) if height % step == 0 else (height,)
        for b in b_values:
            if b == height:
                lo = -(height // step) * step
                a_values = range(lo, height + 1, step)
            else:
                a_values = (-height, height)
            for a in a_values:
                if max(abs(a), b) != height or gcd(abs(a), b) != 1:
                    continue
                t0 = Fraction(a, b)
                if t0 in branch_locations:
                    continue
                if all(_satisfies_exact(t0, c) for c in conds):
                    yield t0


@dataclass(frozen=True)
class SpecializationRecord:
    t0: Rational
    poly: PolyQ
    profile: ExtensionProfile
    role: str  # "reference" | "candidate"
    ratio: int | None = None
    rank_gain_flag: str | None = None
    fingerprint: str | None = None
    full_root_number: int | None = None


def _unramified_as_required(facts: PolyFacts, conditions) -> bool:
    """v_p(disc) = 0 at the prime of every unramified_at condition."""
    return all(valuation(facts.disc, c.prime) == 0 for c in conditions if c.kind == UNRAMIFIED_AT)


def find_reference_specialization(
    P: Pencil,
    q: int,
    constraints: SearchConstraints,
    matched_profiles: dict[int, list[tuple[int, int]]] | None = None,
) -> SpecializationRecord:
    """A specialization unramified at q (q does not divide the cleared fiber's
    discriminant), found by scanning small t0 subject to the constraints.

    Only the ramification-forcing valuation condition at q is dropped;
    congruence (closeness) and unramified conditions still bind the reference
    side.
    """
    base = replace(
        constraints,
        conditions=tuple(
            c for c in constraints.conditions if not (c.prime == q and c.kind == VALUATION_EQUALS)
        ),
    )
    declared = dict(matched_profiles or {})
    for t0 in enumerate_t0(base, P.branch_locations()):
        try:
            facts = PolyFacts(specialize(P, t0))
        except SpecializationError:
            continue
        if valuation(facts.disc, q) != 0:
            continue
        if not _unramified_as_required(facts, base.conditions):
            continue
        try:
            prof = build_profile(facts, declared=declared, primes=[q])
        except ValueError:
            continue
        if not (prof.irreducibility and prof.irreducibility.certified):
            continue
        return SpecializationRecord(t0, facts.poly, prof, "reference")
    raise SpecializationError(
        f"no reference specialization unramified at {q} below height {base.height_bound}"
    )


def _evaluate_candidate(
    P: Pencil,
    t0: Fraction,
    q: int,
    declared: dict[int, list[tuple[int, int]]],
    reference: SpecializationRecord,
    curve: CurveLocalData | None,
    reduction: str,
    conditions: tuple[PrimeCondition, ...],
) -> SpecializationRecord | None:
    """One t0, already through enumerate_t0's exact conditions, through the
    full pipeline; None when any check fails."""
    try:
        facts = PolyFacts(specialize(P, t0))
    except SpecializationError:
        return None
    if not _unramified_as_required(facts, conditions):
        return None
    try:
        prof = build_profile(facts, declared=declared)
    except ValueError:
        return None
    if prof.signature != reference.profile.signature:
        return None
    if not (prof.irreducibility and prof.irreducibility.certified):
        return None
    s_candidate = split_count_from_profile(declared[q], reduction)
    s_reference = split_count_from_profile(reference.profile.profile_at(q), reduction)
    ratio = (-1) ** (s_candidate + s_reference)
    full = None
    if curve is not None:
        ratio = root_number_ratio(curve, prof, reference.profile, q)
        try:
            full = root_number_over_extension(curve, prof)
        except ValueError:
            pass
    fp = distinctness_fingerprint(prof.facts, reference.profile.facts or reference.poly)
    flag = (
        f"opposite-root-numbers {CONDITIONAL_TOKEN}"
        if ratio == -1
        else f"equal-root-numbers {CONDITIONAL_TOKEN}"
    )
    return SpecializationRecord(
        t0,
        facts.poly,
        prof,
        "candidate",
        ratio=ratio,
        rank_gain_flag=flag,
        fingerprint=fp,
        full_root_number=full,
    )


def search_rank_gain(
    P: Pencil,
    curve: CurveLocalData | None,
    constraints: SearchConstraints,
    target: DecompositionPair,
    designated_prime: int,
    reference: SpecializationRecord | None = None,
    matched_profiles: dict[int, list[tuple[int, int]]] | None = None,
    assumed_reduction: str = "split",
    limit: int = 5,
) -> list[SpecializationRecord]:
    """Height-ordered specializations satisfying the constraints, each compared
    against a reference specialization: emits (t0, polynomial, profiles, ratio,
    conditional-rank-gain flag, distinctness fingerprint).

    The profile at the designated prime on the candidate side is declared from
    the target decomposition pair and consistency-checked (tame bound, exact
    valuation recheck); the reference side is computed from factorization.
    """
    q = designated_prime
    if q in constraints.excluded_primes:
        raise MestreError(f"designated prime {q} lies in the excluded set")
    if curve is not None:
        L = curve.reduction_at(q)
        if L is None or not L.is_multiplicative:
            raise MestreError(
                f"designated prime {q} is not multiplicative for the curve"
            )
        reduction = "split" if L.type == SPLIT_MULT else "nonsplit"
    else:
        reduction = assumed_reduction
    declared = dict(matched_profiles or {})
    declared[q] = profile_from_decomposition(target)
    if reference is None:
        reference = find_reference_specialization(
            P, q, constraints, matched_profiles=matched_profiles
        )
    out = [reference]
    for t0 in enumerate_t0(constraints, P.branch_locations()):
        if len(out) > limit:
            break
        rec = _evaluate_candidate(
            P, t0, q, declared, reference, curve, reduction, constraints.conditions
        )
        if rec is not None:
            out.append(rec)
    return out
