"""Degree-n extensions F/Q as defining polynomials: irreducibility from
Frobenius patterns, archimedean signature, decomposition profiles at
unramified primes, declared profiles at ramified primes (with a tame
consistency guard), Klein-four local analysis of biquadratic fields, and the
root-number-over-extension evaluator.

Patterns are read only through PolyFacts' public readers, one cache for the
certificate, the search's irreducibility bit and the profiles; the certificate
and the bit read the same 50 good primes in the blocks of PolyFacts.blocks.

At a multiplicative prime the sign over F is that of the nodal cubic, the
one-node case of the Jacobian engine `jacobian.root_number_after_extension`.

A profile at p is a list of (e, f) pairs, one per prime of F above p. Ramified
primes are never factored p-adically here; their profiles are declared inputs,
checked against Sum e*f = n and the tame different bound v_p(disc) >= Sum f(e-1).
A declaration at a good prime must be the profile computed there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    TOP_VALUE,
    PolyFacts,
    PolyQ,
    is_prime,
    legendre,
    sturm_real_roots,
    valuation,
)
from .ellcurve import (
    SPLIT_MULT,
    UNKNOWN_23,
    CurveLocalData,
    LocalReductionData,
    local_root_number,
)
from .jacobian import StableModelData, root_number_after_extension
from .permgroup import GroupError, check_decomposition_pair, orbits

COMPUTED_UNRAMIFIED = "computed_unramified"
DECLARED_PROFILE = "declared"


class ExtensionError(ValueError):
    pass


class RequiresDeclaredProfile(ExtensionError):
    pass


class Incomputable(ExtensionError):
    """Root number over the extension cannot be evaluated; names the prime."""

    def __init__(self, prime, why):
        self.prime = prime
        self.why = why
        super().__init__(f"incomputable at p={prime}: {why}")


class PreconditionViolated(ExtensionError):
    pass


# ---------------------------------------------------------------- irreducibility


@dataclass(frozen=True)
class IrreducibilityCertificate:
    status: str  # "irreducible_mod_p" | "pattern_incompatible" | "unverified"
    witness_prime: int | None


# good primes an irreducibility certificate reads before it gives up
_CERTIFICATE_PRIMES = 50


def _split_sizes(n: int) -> int:
    """Bitmask of the split sizes a in [1, n/2] of a degree-n polynomial."""
    return (1 << (n // 2 + 1)) - 2


def _subset_sums(pattern: tuple[int, ...]) -> int:
    """Bitmask of the sums of sub-multisets of the factor degrees."""
    reachable = 1
    for d in pattern:
        reachable |= reachable << d
    return reachable


def _check_certifiable(facts: PolyFacts) -> None:
    if facts.poly.degree < 1:
        raise ExtensionError("constant polynomial")
    if facts.disc == 0:
        raise ExtensionError("inseparable polynomial is reducible")


def certify_irreducible(h: PolyQ | PolyFacts) -> IrreducibilityCertificate:
    """Certify irreducibility over Q from mod-p factor patterns.

    Either some good prime has h irreducible mod p, or the observed patterns
    admit no common split n = a + (n-a); otherwise status "unverified" (never
    silently assumed irreducible). Reads the first 50 good primes in the
    blocks of PolyFacts.blocks, skipping those above the degree after the
    first block that holds an irreducible reduction, and names the least such
    prime it read as the witness: every prime at or below the degree is read
    (they come last), and the blocks above it ascend, so that prime is the
    least witness among the 50.
    """
    facts = PolyFacts.of(h)
    _check_certifiable(facts)
    n = facts.poly.degree
    if n == 1:
        return IrreducibilityCertificate("irreducible_mod_p", None)
    # h = h1*h2 with deg h1 = a forces every mod-p pattern to split as a + (n-a)
    splits = _split_sizes(n)
    witnesses = []
    for block in facts.blocks(facts.good_primes(_CERTIFICATE_PRIMES)):
        if witnesses and block[0] > n:
            continue
        for p, pattern in zip(block, facts.patterns(block)):
            if pattern == (n,):
                witnesses.append(p)
            splits &= _subset_sums(pattern)
    if witnesses:
        return IrreducibilityCertificate("irreducible_mod_p", min(witnesses))
    return IrreducibilityCertificate("unverified" if splits else "pattern_incompatible", None)


def irreducibility_settled(h: PolyQ | PolyFacts) -> bool:
    """certify_irreducible(h).status != "unverified", from the same first 50
    good primes: that holds iff their patterns, taken together, leave no split
    size (the full-degree pattern (n,) allows none), which does not depend on
    the order they are read in. So it reads the blocks of PolyFacts.blocks up
    to the first one after which no split size is left. Each pattern read
    stays in the shared cache."""
    facts = PolyFacts.of(h)
    _check_certifiable(facts)
    splits = _split_sizes(facts.poly.degree)
    if not splits:
        return True
    for block in facts.blocks(facts.good_primes(_CERTIFICATE_PRIMES)):
        for pattern in facts.patterns(block):
            splits &= _subset_sums(pattern)
        if not splits:
            return True
    return False


# ---------------------------------------------------------------- profiles


@dataclass(frozen=True)
class ExtensionProfile:
    """Degree-n extension of Q: defining polynomial (with its PolyFacts when
    made by build_profile), signature, prime profiles."""

    poly: PolyQ
    signature: tuple[int, int]  # (r1, r2)
    prime_profiles: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)
    provenance: dict[int, str] = field(default_factory=dict)
    facts: PolyFacts | None = field(default=None, compare=False, repr=False)

    @property
    def degree(self) -> int:
        return self.poly.degree

    def profile_at(self, p: int) -> tuple[tuple[int, int], ...] | None:
        return self.prime_profiles.get(p)


def profile_at_unramified(h: PolyQ | PolyFacts, p: int) -> list[tuple[int, int]]:
    """[(1, f_i)] from the irreducible factor degrees of h mod p; only valid
    when p divides neither disc(h) nor the leading coefficient."""
    facts = PolyFacts.of(h)
    if not facts.is_good(p):
        raise RequiresDeclaredProfile(
            f"p={p} divides disc or leading coefficient; declare the profile"
        )
    return [(1, d) for d in facts.patterns([p])[0]]


def check_declared_profile(
    h: PolyQ | PolyFacts, p: int, declared: list[tuple[int, int]]
) -> tuple[bool, str]:
    """Accept iff Sum e*f = deg h, v_p(disc h) >= Sum f*(e-1) (tame bound) and,
    at a good prime p, the declaration is the computed profile [(1, f) per
    factor degree f of h mod p]."""
    facts = PolyFacts.of(h)
    n = facts.poly.degree
    total = sum(e * f for e, f in declared)
    if total != n:
        return False, f"sum of e*f is {total}, expected the degree {n}"
    if any(e < 1 or f < 1 for e, f in declared):
        return False, "ramification indices and residue degrees must be >= 1"
    bound = sum(f * (e - 1) for e, f in declared)
    vd = valuation(facts.disc, p)
    if not (vd is TOP_VALUE or vd >= bound):
        return False, f"v_{p}(disc) = {vd} is below the tame bound {bound}"
    if facts.is_good(p):
        computed = profile_at_unramified(facts, p)
        if sorted(declared) != computed:
            text = ",".join(f"{e}:{f}" for e, f in computed)
            return False, f"p={p} is good and its computed profile is [{text}]"
    return True, "accepted"


def build_profile(
    h: PolyQ | PolyFacts,
    declared: dict[int, list[tuple[int, int]]] | None = None,
    primes: list[int] | None = None,
) -> ExtensionProfile:
    """Assemble an ExtensionProfile: Sturm signature, computed profiles at the
    requested unramified primes, declared (and checked) profiles elsewhere."""
    facts = PolyFacts.of(h)
    h = facts.poly
    if h.degree < 1:
        raise ExtensionError("defining polynomial must be nonconstant")
    r1 = sturm_real_roots(facts)
    if (h.degree - r1) % 2 != 0:
        raise ExtensionError("parity of real-root count contradicts the degree")
    r2 = (h.degree - r1) // 2
    declared = dict(declared or {})
    profiles: dict[int, tuple[tuple[int, int], ...]] = {}
    provenance: dict[int, str] = {}
    for p, pairs in sorted(declared.items()):
        ok, why = check_declared_profile(facts, p, list(pairs))
        if not ok:
            raise ExtensionError(f"declared profile at p={p} rejected: {why}")
        profiles[p] = tuple(sorted(pairs))
        provenance[p] = DECLARED_PROFILE
    for p in sorted(primes or []):
        if p in profiles:
            continue
        profiles[p] = tuple(sorted(profile_at_unramified(facts, p)))
        provenance[p] = COMPUTED_UNRAMIFIED
    return ExtensionProfile(
        poly=h,
        signature=(r1, r2),
        prime_profiles=profiles,
        provenance=provenance,
        facts=facts,
    )


def archimedean_place_count(profile: ExtensionProfile) -> int:
    """u = r1 + r2: places of F over the single archimedean place of Q."""
    r1, r2 = profile.signature
    return r1 + r2


# ---------------------------------------------------------------- decomposition pairs


@dataclass(frozen=True)
class DecompositionPair:
    """Generators of a decomposition group D and its inertia subgroup I <| D
    inside S_n. D/I is the Galois group of the residue-field extension, so it
    is cyclic for every pair, tame or wild. Construction checks that I lies in
    D, that I is normal in D and that D/I is cyclic."""

    degree: int
    decomposition_gens: tuple[tuple[int, ...], ...]
    inertia_gens: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_decomposition_pair(self.degree, self.decomposition_gens, self.inertia_gens)


def profile_from_decomposition(pair: DecompositionPair) -> list[tuple[int, int]]:
    """(e, f) per D-orbit: f = number of I-orbits inside, e = |orbit| / f."""
    n = pair.degree
    d_orbits = orbits(pair.decomposition_gens, n)
    i_orbits = orbits(pair.inertia_gens, n)
    out = []
    for O in d_orbits:
        pts = set(O)
        f = sum(1 for io in i_orbits if set(io) <= pts)
        if len(O) % f:
            raise GroupError("inertia orbits do not tile the decomposition orbit")
        out.append((len(O) // f, f))
    return sorted(out)


# ---------------------------------------------------------------- root numbers over F


def _contribution_at(L: LocalReductionData, F: ExtensionProfile) -> int:
    """The sign over F from L's prime, a bad one: bundles drop good primes."""
    p = L.prime
    pairs = F.profile_at(p)
    if L.is_multiplicative:
        if pairs is None:
            raise Incomputable(p, "multiplicative prime with no profile for F")
        # the nodal cubic: one rational node, whose branches are rational iff
        # the reduction is split
        tau = 1 if L.type == SPLIT_MULT else -1
        node = StableModelData(((1, tau),))
        return root_number_after_extension(node, [f for _, f in pairs])
    # remaining cases need p split completely and a known local root number
    if pairs is None:
        raise Incomputable(p, f"{L.type} prime with no profile for F")
    if any((e, f) != (1, 1) for e, f in pairs):
        raise Incomputable(
            p, f"{L.type} prime must split completely in F (profile {list(pairs)})"
        )
    if L.type == UNKNOWN_23:
        raise Incomputable(p, "prime 2 or 3 divides the discriminant and is undeclared")
    if L.declared_root_number is None:
        raise Incomputable(p, f"{L.type} prime with no declared local root number")
    w = local_root_number(L)
    return w ** F.degree


def root_number_over_extension(bundle: CurveLocalData, F: ExtensionProfile) -> int:
    """W(E/F) = (-1)^(r1+r2) * prod over bad primes of their contributions.

    Multiplicative p contributes the node engine's sign over the residue
    degrees f of its (e, f) profile, (-1)^(s_p) with s_p the primes above p
    that stay split; a declared/additive p must split completely and
    contributes its declared local root number to the power [F:Q].
    """
    w = -1 if archimedean_place_count(F) % 2 else 1
    for L in bundle.local:
        w *= _contribution_at(L, F)
    return w


def root_number_ratio(
    bundle: CurveLocalData,
    F1: ExtensionProfile,
    F2: ExtensionProfile,
    designated: int,
) -> int:
    """W(E/F1) * W(E/F2) from the differing contributions at the designated
    prime only; every other bad prime (and the signature) must match."""
    if F1.signature != F2.signature:
        raise PreconditionViolated(
            f"signatures differ: {F1.signature} vs {F2.signature}"
        )
    L = bundle.reduction_at(designated)
    if L is None or not L.is_multiplicative:
        raise PreconditionViolated(
            f"designated prime {designated} is not multiplicative for the curve"
        )
    for other in bundle.local:
        if other.prime == designated:
            continue
        p1 = F1.profile_at(other.prime)
        p2 = F2.profile_at(other.prime)
        if p1 != p2:
            raise PreconditionViolated(
                f"profiles differ at non-designated bad prime {other.prime}"
            )
    return _contribution_at(L, F1) * _contribution_at(L, F2)


# ---------------------------------------------------------------- quadratic fields


def quadratic_local(d: int, p: int) -> str:
    """Behavior of p in Q(sqrt(d)): 'split', 'inert' or 'ramified'."""
    if d in (0, 1):
        raise ExtensionError("d must be a squarefree integer != 0, 1")
    # squarefree check (desk scale)
    m = abs(d)
    q = 2
    while q * q <= m:
        if m % (q * q) == 0:
            raise ExtensionError(f"{d} is not squarefree")
        q += 1
    if not is_prime(p):
        raise ExtensionError(f"{p} is not prime")
    if p == 2:
        r = d % 8
        if r == 1:
            return "split"
        if r == 5:
            return "inert"
        return "ramified"  # d even or d = 2, 3 mod 4: 2 divides the field discriminant
    if d % p == 0:
        return "ramified"
    return "split" if legendre(d, p) == 1 else "inert"


@dataclass(frozen=True)
class KleinFourLocalData:
    """Local shape of the biquadratic field Q(sqrt(d1), sqrt(d2)) at p."""

    e: int
    f: int
    g: int
    decomposition_order: int
    inertia_order: int
    subfield_behavior: tuple[str, str, str]  # at d1, d2, d3 = d1*d2 / square part


def klein_four_local(d1: int, d2: int, p: int) -> KleinFourLocalData:
    """Decomposition of p in the V4 field from the three quadratic subfields.

    e = 2 iff p ramifies in some subfield, f = 2 iff p is inert in some
    subfield; |D| = e*f, |I| = e, and g = 4 / (e*f).
    """
    from math import gcd

    d3 = d1 * d2 // gcd(d1, d2) ** 2
    bs = tuple(quadratic_local(d, p) for d in (d1, d2, d3))
    e = 2 if "ramified" in bs else 1
    f = 2 if "inert" in bs else 1
    return KleinFourLocalData(
        e=e, f=f, g=4 // (e * f), decomposition_order=e * f, inertia_order=e,
        subfield_behavior=bs,
    )
