"""Pencils f(X) - t g(X) (and general Q(t)-coefficient families), the exact
identity f'g - g'f = r^2, the odd-quintic solver, specialization with p-adic
constraints, alternating-group certificates, and the rank-gain search.

All arithmetic is exact; specializations are cleared to primitive integral
polynomials, which changes discriminants by rational squares only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property
from itertools import islice
from math import gcd, lcm

from .algebra import (
    NotASquare,
    PolyFacts,
    PolyQ,
    Rational,
    _primitive,
    _valuation,
    iter_primes,
    poly_sqrt_exact,
    rational_roots,
    rational_sqrt,
    unproven_prime_reason,
    valuation,
)
from .ellcurve import NONSPLIT_MULT, SPLIT_MULT, CurveLocalData, LocalReductionData
from .extension import (
    DecompositionPair,
    ExtensionProfile,
    _check_certifiable,
    build_profile,
    irreducibility_settled,
    profile_from_decomposition,
    root_number_ratio,
)
from .jacobian import CONDITIONAL_TOKEN
from .permgroup import perm_from_cycles, perm_order, transitive_typesets


class MestreError(ValueError):
    pass


class SpecializationError(MestreError):
    pass


# ---------------------------------------------------------------- pencils


@dataclass(frozen=True)
class BranchPoint:
    """Declared branch-point record: location ('inf' or a rational), ramification
    index and optional decomposition data; when the pair lists inertia
    generators, one of them must have order e."""

    location: object  # Fraction or the string "inf"
    ramification_index: int
    pair: DecompositionPair | None = None

    def __post_init__(self):
        if self.ramification_index < 2:
            raise MestreError("branch points have ramification index >= 2")
        if self.pair is not None:
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

    @cached_property
    def integer_models(self) -> tuple[tuple[list[int], list[int], int], ...]:
        """(N, D, deg D - deg N) per coefficient num/den, with integer
        polynomials N and D such that num/den = N/D (deg N read as 0 when num
        is 0): num = N0/n and den = D0/d for integer N0, D0 and the common
        denominators n, d, so N = d N0 and D = n D0. Computed once per
        pencil."""
        out = []
        for num, den in self.coefficients:
            (N0, n), (D0, d) = num.integer_model(), den.integer_model()
            out.append(([c * d for c in N0], [c * n for c in D0], den.degree - max(num.degree, 0)))
        return tuple(out)


def mestre_form_pencil(f: PolyQ, g: PolyQ, branch_points=()) -> Pencil:
    """f(X) - t*g(X); requires deg g < deg f, separable f, and g nonzero and
    prime to f (otherwise every fiber is f, or shares the factor gcd(f, g))."""
    if g.degree >= f.degree:
        raise MestreError("Mestre form needs deg g < deg f")
    if not f.is_separable():
        raise MestreError("f must be separable")
    if g.is_zero():
        raise MestreError("g must be nonzero: every fiber would be f")
    if f.gcd(g).degree > 0:
        raise MestreError("f and g must be coprime: gcd(f, g) divides every fiber")
    coeffs = []
    for i in range(f.degree + 1):
        coeffs.append((PolyQ([f[i], -g[i]]), PolyQ([1])))
    return Pencil(tuple(coeffs), tuple(branch_points), name="mestre-form")


@cache
def psl2_11_degree12_pencil() -> Pencil:
    """The degree-12 family A(X) - 9 s(t) B(X) - 3 s(t)^2 (X - 11) with
    s(t) = 2^8 * 3^5 / (11 t^2 + 1); branch points of index 2, 11, 11 with the
    index-2 one at t = infinity carrying a Klein-four decomposition pair built
    from a fixed-point-free involution in PSL2(11) and a commuting involution.
    Built once per process: it has no inputs, and the pencil is immutable."""
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
    # the first involution of psl2_natural(11) and the first other involution
    # of its centralizer, in element order
    c = perm_from_cycles("(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)", 12)
    x = perm_from_cycles("(1,8)(2,10)(3,5)(4,12)(6,9)(7,11)", 12)
    pair = DecompositionPair(12, (c, x), (c,))
    bps = (
        BranchPoint("inf", 2, pair=pair),
        # the two index-11 branch points are conjugate irrational points of
        # 11 t^2 + 1 = 0; recorded with location markers only
        BranchPoint("poles-of-s", 11),
    )
    return Pencil(tuple(coeffs), bps, name="psl2-11-degree12")


def _homogeneous(c: list[int], a: int, b: int) -> int:
    """b^deg c(a/b) = the sum of c_j a^j b^(deg - j), by Horner in integers;
    0 for the zero polynomial."""
    if not c:
        return 0
    acc, b_power = c[-1], 1
    for x in reversed(c[:-1]):
        b_power *= b
        acc = acc * a + x * b_power
    return acc


def specialize(P: Pencil, t0: Rational) -> PolyQ:
    """F(t0, X) cleared to a primitive integral polynomial (positive leading
    coefficient); rejects declared branch points, coefficient poles and degree
    drops. An inseparable fiber is returned: its discriminant is 0, which the
    search reads off its PolyFacts.

    At t0 = a/b, each coefficient N(t0)/D(t0) of the pencil's integer models
    is u/v = N^h(a, b) b^e / D^h(a, b) for e = deg D - deg N >= 0 (the power
    of b moves to v when e < 0), with N^h and D^h homogenized, so no
    `Fraction` is built: the fiber is the primitive part of the integers u
    times L/v, for L the lcm of the |v|."""
    t0 = Fraction(t0)
    if t0 in P.branch_locations():
        raise SpecializationError(f"t0 = {t0} is a declared branch point")
    a, b = t0.numerator, t0.denominator
    pairs = []
    for N, D, e in P.integer_models:
        v = _homogeneous(D, a, b)
        if v == 0:
            raise SpecializationError(f"coefficient pole at t0 = {t0}")
        u = _homogeneous(N, a, b)
        pairs.append((u * b**e, v) if e >= 0 else (u, v * b**-e))
    common = lcm(*(abs(v) for _, v in pairs))
    ints = [u * (common // v) for u, v in pairs]
    while ints and ints[-1] == 0:
        ints.pop()
    if len(ints) - 1 != P.degree_x:
        raise SpecializationError(
            f"degree drop at t0 = {t0}: got {len(ints) - 1}, expected {P.degree_x}"
        )
    ints = _primitive(ints)
    if ints and ints[-1] < 0:
        ints = [-c for c in ints]
    return PolyQ(ints)


# ---------------------------------------------------------------- Mestre identity


def mestre_verify(f: PolyQ, g: PolyQ) -> PolyQ:
    """The exact r with f'g - g'f = r^2; raises NotASquare otherwise."""
    if not f.is_separable():
        raise MestreError("f must be separable")
    if g.degree >= f.degree:
        raise MestreError("requires deg g < deg f")
    return _mestre_root(f, g)


def _mestre_root(f: PolyQ, g: PolyQ) -> PolyQ:
    """mestre_verify for a separable f and deg g < deg f, unchecked."""
    return poly_sqrt_exact(f.derivative() * g - g.derivative() * f)


def mestre_solve_odd_quintic(f: PolyQ) -> list[tuple[PolyQ, PolyQ]]:
    """All monic even quartics g = X^4 + B X^2 + C with f'g - g'f a square,
    for odd separable quintics f.

    With f = lc * f0, f0 = X^5 + aX^3 + bX, the difference is lc times
        f0'g - g'f0 = X^8 + (3B - a)X^6 + (5C + aB - 3b)X^4 + (3aC - bB)X^2 + bC,
    so lc must be a square. The top-down square root X^4 + r2 X^2 + r0 has
    r2 = (3B - a)/2 and r0 = 5C/2 + s with s = (aB - 3b - r2^2)/2, which
    leaves two conditions with coefficients in Q[B]:
        X^2:  a1 C + a0 = 0,           a1 = 3a - 5 r2, a0 = -(bB + 2 r2 s);
        X^0:  b2 C^2 + b1 C + b0 = 0,  b2 = -25/4, b1 = b - 5s, b0 = -s^2.
    Their resultant in C, a1 (a1 b0 - a0 b1) + a0^2 b2, is a sextic in B; its
    rational roots, back-substitution and exact verification give the solutions.
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
    a = f[3] / lc
    b = f[1] / lc
    half = Fraction(1, 2)
    r2 = PolyQ([-a, 3]) * half
    s = (PolyQ([-3 * b, a]) - r2 * r2) * half
    a1 = PolyQ([3 * a]) - r2 * 5
    a0 = -(PolyQ([0, b]) + r2 * s * 2)
    b2 = Fraction(-25, 4)
    b1 = PolyQ([b]) - s * 5
    b0 = -(s * s)
    res_b = a1 * (a1 * b0 - a0 * b1) + a0 * a0 * b2
    if res_b.is_zero():
        raise MestreError("degenerate elimination (unexpected for separable f)")
    out = []
    seen = set()
    for beta in rational_roots(res_b):
        lin1, lin0 = a1(beta), a0(beta)
        quad = PolyQ([b0(beta), b1(beta), b2])
        if lin1:
            candidates = [-lin0 / lin1]
        elif lin0 == 0:
            candidates = rational_roots(quad)
        else:
            candidates = []
        for gamma in candidates:
            if quad(gamma) != 0 or (beta, gamma) in seen:
                continue
            seen.add((beta, gamma))
            g = PolyQ([gamma, 0, beta, 0, 1])
            try:
                r = _mestre_root(f, g)  # f was checked above, and deg g = 4
            except NotASquare:
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


# good primes whose patterns an A_n certificate reads
_AN_PATTERN_PRIMES = 100


def an_certificate(h: PolyQ | PolyFacts) -> AnCertificate:
    """Square-discriminant test plus a Frobenius-pattern verdict.

    The pattern stage compares the factor-degree multisets at the first 100
    good primes with the cycle-type sets of proper transitive subgroups of A_n
    (exhaustive table for n <= 7; larger degrees report verdict "heuristic").
    """
    facts = PolyFacts.of(h)
    _check_certifiable(facts)
    # the patterns first, so that the irreducibility bit reads its 50 from the cache
    patterns = facts.patterns(facts.good_primes(_AN_PATTERN_PRIMES))
    if not irreducibility_settled(facts):
        raise MestreError(
            "an_certificate requires an irreducibility certificate (status: unverified)"
        )
    square = rational_sqrt(facts.disc) is not None
    uniq = tuple(sorted(set(patterns)))
    n = facts.poly.degree
    if not square:
        return AnCertificate(False, uniq, "patterns-insufficient", 0)
    if n > 7:
        return AnCertificate(True, uniq, "heuristic", 0)
    tables = transitive_typesets(n)
    ruled = sum(1 for ts in tables if any(pat not in ts for pat in uniq))
    verdict = "alternating-consistent" if ruled == len(tables) else "patterns-insufficient"
    return AnCertificate(True, uniq, verdict, ruled)


# common good primes a distinctness fingerprint reads before it gives up
_FINGERPRINT_PRIMES = 200


def distinctness_fingerprint(h1: PolyQ | PolyFacts, h2: PolyQ | PolyFacts) -> str:
    """'distinct' iff some good prime separates the factor-degree multisets of
    h1 and h2 among their first 200 common good primes; else 'indistinguishable'.
    The answer does not depend on the order the primes are read in, so they
    are read one at a time in the order of PolyFacts.blocks, those above the
    degree first, whose patterns the irreducibility readers' blocks hold."""
    f1, f2 = PolyFacts.of(h1), PolyFacts.of(h2)
    n = f1.poly.degree
    if f2.poly.degree != n:
        raise MestreError("fingerprints compare polynomials of equal degree")
    if f1.disc == 0 or f2.disc == 0:
        raise MestreError("fingerprints compare polynomials of nonzero discriminant")
    good = (p for p in iter_primes() if f1.is_good(p) and f2.is_good(p))
    low = []  # the common good primes at or below the degree, read last
    for p in islice(good, _FINGERPRINT_PRIMES):
        if p <= n:
            low.append(p)
        elif f1.patterns([p]) != f2.patterns([p]):
            return "distinct"
    if any(f1.patterns([p]) != f2.patterns([p]) for p in low):
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
        reason = unproven_prime_reason(self.prime)
        if reason:
            raise MestreError(reason)
        if self.kind == VALUATION_EQUALS and not isinstance(self.value, int):
            raise MestreError("valuation condition needs an integer value")
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
    # cond.prime was proven prime when the condition was made
    if cond.kind == VALUATION_EQUALS:
        return _valuation(t0, cond.prime) == cond.value
    if cond.kind == CONGRUENT_TO:
        # an exact hit gives TOP_VALUE, which compares above every exponent
        return _valuation(t0 - Fraction(cond.value), cond.prime) >= cond.modulus_exponent
    return True  # UNRAMIFIED_AT is checked on the fiber (_unramified_as_required)


def enumerate_t0(constraints: SearchConstraints, branch_locations=frozenset()):
    """Rationals a/b in lowest terms by ascending height max(|a|, b), then b,
    then a, that satisfy the exact per-prime conditions; deterministic order.

    Each condition at p pins the p-part of t0 = a/b. valuation_of_t0_equals v
    needs v_p(t0) = v; t0_congruent_to c mod p^k needs v_p(t0) = v_p(c) when
    v_p(c) < k and v_p(t0) >= k otherwise (c = 0 included). With w the pinned
    value (v, or min(k, v_p(c))), b must have v_p(b) = max(0, -w) exactly and
    p^max(0, w) must divide a. So a row whose b breaks a rule is never visited,
    numerators step by the product of the powers of p, and only the surviving
    pairs become Fractions, each still filtered by the exact conditions.
    """
    conds = constraints.conditions
    H = constraints.height_bound
    step = 1
    b_rules = []  # (p, p^e): v_p(b) = e
    for c in conds:
        if c.kind == VALUATION_EQUALS:
            w = c.value
        elif c.kind == CONGRUENT_TO:
            w = min(c.modulus_exponent, _valuation(Fraction(c.value), c.prime))
        else:
            continue
        b_rules.append((c.prime, c.prime ** max(0, -w)))
        step *= c.prime ** max(0, w)
    denominators = []  # the admissible b below the height walked to

    def rows(height: int):
        """(a, b) coprime with max(|a|, b) = height, step | a and b admissible."""
        if height % step == 0:
            for b in denominators:
                if gcd(height, b) == 1:
                    yield -height, b
                    yield height, b
        if all(height % pe == 0 and height // pe % p for p, pe in b_rules):
            denominators.append(height)
            for a in range(-(height // step) * step, height + 1, step):
                if gcd(a, height) == 1:
                    yield a, height

    for height in range(1, H + 1):
        for a, b in rows(height):
            t0 = Fraction(a, b)
            if t0 not in branch_locations and all(_satisfies_exact(t0, c) for c in conds):
                yield t0


@dataclass(frozen=True)
class SpecializationRecord:
    t0: Rational
    profile: ExtensionProfile
    role: str  # "reference" | "candidate"
    ratio: int | None = None
    rank_gain_flag: str | None = None
    fingerprint: str | None = None


def _unramified_as_required(facts: PolyFacts, conditions) -> bool:
    """v_p(disc) = 0 at the prime of every unramified_at condition."""
    return all(valuation(facts.disc, c.prime) == 0 for c in conditions if c.kind == UNRAMIFIED_AT)


def _fibers(P: Pencil, constraints: SearchConstraints):
    """(t0, cleared fiber) along enumerate_t0, past the t0 specialize rejects."""
    for t0 in enumerate_t0(constraints, P.branch_locations()):
        try:
            yield t0, specialize(P, t0)
        except SpecializationError:
            continue


def _certified_fiber(
    h: PolyQ, declared: dict, conditions, primes: list[int] | None = None
) -> ExtensionProfile | None:
    """A cleared fiber through the unramified_at conditions, the irreducibility
    bit and build_profile (profiles computed at `primes`); None on any
    failure, when the fiber is inseparable, or when its irreducibility is not
    certified. The bit comes first: it reads its good primes in blocks, up to
    the block that settles it, and a profile at a prime of those blocks then
    reads the cached pattern."""
    facts = PolyFacts(h)
    if facts.disc == 0 or not _unramified_as_required(facts, conditions):
        return None
    if not irreducibility_settled(facts):
        return None
    try:
        return build_profile(facts, declared=declared, primes=primes)
    except ValueError:
        return None


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
    conditions = base.conditions + (PrimeCondition(q, UNRAMIFIED_AT),)
    declared = dict(matched_profiles or {})
    for t0, h in _fibers(P, base):
        prof = _certified_fiber(h, declared, conditions, primes=[q])
        if prof is not None:
            return SpecializationRecord(t0, prof, "reference")
    raise SpecializationError(
        f"no reference specialization unramified at {q} below height {base.height_bound}"
    )


def _evaluate_candidate(
    t0: Fraction,
    h: PolyQ,
    q: int,
    declared: dict[int, list[tuple[int, int]]],
    reference: SpecializationRecord,
    local: CurveLocalData,
    conditions: tuple[PrimeCondition, ...],
) -> SpecializationRecord | None:
    """The fiber h at one t0, already through enumerate_t0's exact conditions,
    through the full pipeline; None when any check fails."""
    prof = _certified_fiber(h, declared, conditions)
    if prof is None or prof.signature != reference.profile.signature:
        return None
    ratio = root_number_ratio(local, prof, reference.profile, q)
    fp = distinctness_fingerprint(prof.facts, reference.profile.facts)
    flag = (
        f"opposite-root-numbers {CONDITIONAL_TOKEN}"
        if ratio == -1
        else f"equal-root-numbers {CONDITIONAL_TOKEN}"
    )
    return SpecializationRecord(
        t0,
        prof,
        "candidate",
        ratio=ratio,
        rank_gain_flag=flag,
        fingerprint=fp,
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
    conditional-rank-gain flag, distinctness fingerprint). Each cleared fiber
    polynomial is emitted once, at its first t0; a repeat does not count
    toward `limit`.

    The profile at the designated prime on the candidate side is declared from
    the target decomposition pair and consistency-checked (tame bound, exact
    valuation recheck); the reference side is computed from factorization.
    Every ratio is root_number_ratio over the curve's local data or, without
    a curve, over q alone with the assumed reduction type.
    """
    q = designated_prime
    if limit < 1:
        raise MestreError(f"limit must be >= 1, got {limit}")
    if q in constraints.excluded_primes:
        raise MestreError(f"designated prime {q} lies in the excluded set")
    if curve is None:  # q alone, multiplicative of the assumed type
        types = {"split": SPLIT_MULT, "nonsplit": NONSPLIT_MULT}
        if assumed_reduction not in types:
            raise MestreError("assumed reduction must be 'split' or 'nonsplit'")
        curve = CurveLocalData((LocalReductionData(q, types[assumed_reduction]),))
    L = curve.reduction_at(q)
    if L is None or not L.is_multiplicative:
        raise MestreError(f"designated prime {q} is not multiplicative for the curve")
    declared = dict(matched_profiles or {})
    declared[q] = profile_from_decomposition(target)
    if reference is None:
        reference = find_reference_specialization(
            P, q, constraints, matched_profiles=matched_profiles
        )
    out = [reference]
    # the record of a fiber depends on its polynomial alone, so a repeat (the
    # fiber at -t0 of a pencil in t^2) is skipped without a second evaluation
    seen = {reference.profile.poly}
    for t0, h in _fibers(P, constraints):
        if h in seen:
            continue
        seen.add(h)
        rec = _evaluate_candidate(t0, h, q, declared, reference, curve, constraints.conditions)
        if rec is not None:
            out.append(rec)
            if len(out) > limit:
                break
    return out
