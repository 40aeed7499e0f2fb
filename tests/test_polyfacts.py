"""Differential tests of the shared per-polynomial record (PolyFacts).

Every function that reads the record is compared with a reference computed
here prime by prime, straight from the coefficients reduced mod p and sympy's
factorization over F_p, sharing nothing between calls.
"""

import pickle
import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, islice

import pytest

import rootgain.algebra as algebra_module
import rootgain.extension as extension_module
import rootgain.mestre as mestre_module
from rootgain.algebra import (
    AlgebraError,
    PolyFacts,
    PolyQ,
    discriminant,
    iter_primes,
    rational_sqrt,
    sturm_real_roots,
    valuation,
)
from rootgain.extension import (
    build_profile,
    ExtensionError,
    RequiresDeclaredProfile,
    certify_irreducible,
    irreducibility_settled,
    profile_at_unramified,
)
from rootgain.mestre import (
    MestreError,
    an_certificate,
    distinctness_fingerprint,
    psl2_11_degree12_pencil,
    specialize,
)
from rootgain.permgroup import transitive_typesets

# ---------------------------------------------------------------- reference


def good_primes(h):
    disc = discriminant(h)
    for p in iter_primes():
        if valuation(h.leading(), p) == 0 and valuation(disc, p) == 0:
            yield p


@lru_cache(maxsize=None)
def pattern(h, p):
    """Sorted factor degrees of h mod p, with multiplicity, by sympy."""
    sympy = pytest.importorskip("sympy")
    f = [c.numerator * pow(c.denominator, -1, p) % p for c in h.coeffs]
    _, factors = sympy.Poly(f[::-1], sympy.Symbol("x"), modulus=p).factor_list()
    return tuple(sorted(g.degree() for g, m in factors for _ in range(m)))


@lru_cache(maxsize=None)
def ref_certificate(h, max_primes=50):
    """(status, witness_prime) of certify_irreducible."""
    n = h.degree
    patterns = []
    for p in islice(good_primes(h), max_primes):
        if pattern(h, p) == (n,):
            return "irreducible_mod_p", p
        patterns.append(pattern(h, p))

    def splits(pat, a):
        return any(sum(c) == a for k in range(len(pat) + 1) for c in combinations(pat, k))

    if patterns and not any(all(splits(pat, a) for pat in patterns) for a in range(1, n // 2 + 1)):
        return "pattern_incompatible", None
    return "unverified", None


def ref_an_certificate(h, pattern_primes):
    """(contained, patterns, verdict, ruled_out), or None when uncertified."""
    if ref_certificate(h)[0] == "unverified":
        return None
    uniq = tuple(sorted({pattern(h, p) for p in islice(good_primes(h), pattern_primes)}))
    if rational_sqrt(discriminant(h)) is None:
        return False, uniq, "patterns-insufficient", 0
    if h.degree > 7:
        return True, uniq, "heuristic", 0
    tables = transitive_typesets(h.degree)
    ruled = sum(1 for ts in tables if any(pat not in ts for pat in uniq))
    verdict = "alternating-consistent" if ruled == len(tables) else "patterns-insufficient"
    return True, uniq, verdict, ruled


def ref_fingerprint(h1, h2, max_primes):
    d1, d2 = discriminant(h1), discriminant(h2)
    count = 0
    for p in iter_primes():
        if count >= max_primes:
            break
        if any(valuation(x, p) != 0 for x in (d1, d2, h1.leading(), h2.leading())):
            continue
        count += 1
        if pattern(h1, p) != pattern(h2, p):
            return "distinct"
    return "indistinguishable"


def ref_profile(h, p):
    if valuation(h.leading(), p) != 0 or valuation(discriminant(h), p) != 0:
        return None
    return [(1, d) for d in pattern(h, p)]


# ---------------------------------------------------------------- inputs


def random_polys():
    """Seeded separable polynomials of degree 2-8; every third one a product
    of two factors, so reducible; leading coefficients 1-3."""
    rng = random.Random(20210214)
    out = []
    while len(out) < 21:
        degree = 2 + len(out) % 7
        if len(out) % 3 == 2:
            a = rng.randint(1, degree - 1)
            parts = [[rng.randint(-9, 9) for _ in range(d)] + [1] for d in (a, degree - a)]
            h = PolyQ(parts[0]) * PolyQ(parts[1]) * rng.randint(1, 3)
        else:
            h = PolyQ([rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 3)])
        if discriminant(h) != 0:
            out.append(h)
    return out


SPECIAL = [
    PolyQ([1, 0, 1]),  # X^2 + 1: irreducible mod 3
    PolyQ([-1, -1, 0, 0, 0, 1]),  # X^5 - X - 1: irreducible mod 5
    PolyQ([-1, -3, 0, 1]),  # square discriminant 81 (C3)
    PolyQ([12, 8, 0, 0, 1]),  # square discriminant (A4)
    PolyQ([16, 20, 0, 0, 0, 1]),  # square discriminant (A5)
    PolyQ([F(1, 2), 0, -3, 0, 2]),  # non-integral, leading coefficient 2
    PolyQ([-4, 0, 0, 0, 1]),  # (X^2 - 2)(X^2 + 2): every pattern splits 2 + 2
]
POLYS = random_polys() + SPECIAL


def check_against_reference(monkeypatch, facts, h, pattern_primes=(10, 40, 100)):
    # a profile at a large prime first, so the record holds a pattern beyond
    # its contiguous run of good primes before certification reads that run
    for p in (101, 2, 3, 5, 7):
        expected = ref_profile(h, p)
        if expected is None:
            with pytest.raises(RequiresDeclaredProfile):
                profile_at_unramified(facts, p)
        else:
            assert profile_at_unramified(facts, p) == expected
    cert = certify_irreducible(facts)
    assert (cert.status, cert.witness_prime) == ref_certificate(h)
    with monkeypatch.context() as patch:
        patch.setattr(extension_module, "_CERTIFICATE_PRIMES", 7)
        short = certify_irreducible(h)
        assert (short.status, short.witness_prime) == ref_certificate(h, 7)
        assert certify_irreducible(facts) == short
    for count in pattern_primes:
        expected = ref_an_certificate(h, count)
        with monkeypatch.context() as patch:
            patch.setattr(mestre_module, "_AN_PATTERN_PRIMES", count)
            if expected is None:
                with pytest.raises(MestreError, match=r"\(status: unverified\)"):
                    an_certificate(facts)
                continue
            got = an_certificate(facts)
        assert (got.contained_in_alternating, got.patterns, got.verdict, got.ruled_out) == expected


@pytest.mark.parametrize("index", range(len(POLYS)))
def test_record_matches_prime_by_prime_reference(monkeypatch, index):
    h = POLYS[index]
    facts = PolyFacts(h)
    check_against_reference(monkeypatch, facts, h)
    assert facts.disc == discriminant(h)


def test_fingerprints_match_reference(monkeypatch):
    by_degree = {}
    for h in POLYS:
        by_degree.setdefault(h.degree, []).append(h)
    for group in by_degree.values():
        records = [PolyFacts(h) for h in group]
        for (h1, f1), (h2, f2) in zip(zip(group, records), zip(group[1:], records[1:])):
            assert distinctness_fingerprint(f1, f2) == ref_fingerprint(h1, h2, 200)
        with monkeypatch.context() as patch:
            patch.setattr(mestre_module, "_FINGERPRINT_PRIMES", 30)
            for h, f in zip(group, records):
                assert distinctness_fingerprint(f, h) == "indistinguishable"


@pytest.mark.parametrize("t0", [1, -1])
def test_degree_12_fibers_match_reference(monkeypatch, t0):
    h = specialize(psl2_11_degree12_pencil(), t0)
    facts = PolyFacts(h)
    check_against_reference(monkeypatch, facts, h)
    other = specialize(psl2_11_degree12_pencil(), -t0)
    assert distinctness_fingerprint(facts, other) == ref_fingerprint(h, other, 200)
    # the grown record pickles and keeps its facts
    copy = pickle.loads(pickle.dumps(facts))
    primes = facts.good_primes(60)
    assert copy.good_primes(60) == primes and copy.patterns(primes) == facts.patterns(primes)


def test_fingerprint_reads_the_patterns_both_records_hold_first(monkeypatch):
    # the irreducibility blocks cache both fibers' patterns at primes above 12,
    # and 19 separates them; the fingerprint reads the common good primes
    # above the degree first, so the common good prime 7 is never factored
    P = psl2_11_degree12_pencil()
    h1, h2 = specialize(P, F(-5)), specialize(P, F(2, 3))
    f1, f2 = PolyFacts(h1), PolyFacts(h2)
    assert irreducibility_settled(f1) and irreducibility_settled(f2)
    assert f1._patterns[19] != f2._patterns[19] and f1.is_good(7) and f2.is_good(7)
    calls = []
    real = algebra_module._distinct_degree
    monkeypatch.setattr(
        algebra_module, "_distinct_degree", lambda f, p: calls.append(p) or real(f, p)
    )
    assert distinctness_fingerprint(f1, f2) == "distinct"
    assert calls == []
    # 19 is the fourth common good prime: a held prime beyond the first
    # _FINGERPRINT_PRIMES of them is not read
    got = []
    for count in range(1, 6):
        monkeypatch.setattr(mestre_module, "_FINGERPRINT_PRIMES", count)
        got.append(distinctness_fingerprint(f1, f2))
    assert got == [ref_fingerprint(h1, h2, count) for count in range(1, 6)]
    assert got == ["indistinguishable"] * 3 + ["distinct"] * 2


def test_patterns_reads_two_or_more_uncached_primes_above_the_degree_in_one_block(monkeypatch):
    calls = []
    real = algebra_module._frobenius_patterns
    monkeypatch.setattr(
        algebra_module, "_frobenius_patterns", lambda c, ps: calls.append(ps) or real(c, ps)
    )
    facts = PolyFacts(PolyQ([-1, -1, 0, 0, 0, 1]))  # X^5 - X - 1, disc 19 * 151
    primes = facts.good_primes(8)
    assert primes == [2, 3, 5, 7, 11, 13, 17, 23]
    facts.patterns([23, 3])  # one prime above the degree: the scalar read
    assert calls == [] and sorted(facts._patterns) == [3, 23]
    assert facts.patterns(primes) == [pattern(facts.poly, p) for p in primes]
    assert calls == [[7, 11, 13, 17]]


def test_moduli_checked_where_outside_primes_enter():
    # the good-prime test, like the valuations it reads, takes primes only
    with pytest.raises(AlgebraError):
        PolyFacts(PolyQ([1, 0, 1])).is_good(6)
    with pytest.raises(AlgebraError):
        profile_at_unramified(PolyQ([1, 0, 1]), 6)


def test_pattern_refuses_a_bad_prime():
    # X^4 - 4 has disc -2^14, and reduces to X^4 mod 2
    facts = PolyFacts(PolyQ([-4, 0, 0, 0, 1]))
    with pytest.raises(RequiresDeclaredProfile):
        profile_at_unramified(facts, 2)
    assert profile_at_unramified(facts, 3) == [(1, 1), (1, 1), (1, 2)]
    assert sorted(facts._patterns) == [3]  # nothing cached at 2
    # 2X^2 - 1: the leading coefficient vanishes mod 2
    with pytest.raises(RequiresDeclaredProfile):
        profile_at_unramified(PolyQ([-1, 0, 2]), 2)


def test_zero_discriminant_raises_instead_of_seeking_a_good_prime():
    h = PolyQ([0, 0, 1])  # X^2: no prime is good
    with pytest.raises(AlgebraError):
        PolyFacts(h).good_primes(1)
    for arg in (h, PolyFacts(h)):
        with pytest.raises(ExtensionError):
            certify_irreducible(arg)
        with pytest.raises(ExtensionError):
            an_certificate(arg)
        with pytest.raises(MestreError):
            distinctness_fingerprint(arg, PolyQ([1, 0, 1]))
        with pytest.raises(MestreError):
            distinctness_fingerprint(PolyQ([1, 0, 1]), arg)


def test_disc_and_signature_share_one_remainder_sequence(monkeypatch):
    h = specialize(psl2_11_degree12_pencil(), F(-7, 19))
    calls = []
    prs = algebra_module._prs
    monkeypatch.setattr(algebra_module, "_prs", lambda a, b: calls.append(a) or prs(a, b))
    facts = PolyFacts(h)
    # the declared profile's tame bound reads disc, the signature the chain
    profile = build_profile(facts, declared={19: [(2, 2), (2, 2), (2, 2)]})
    real_roots, disc = sturm_real_roots(facts), facts.disc
    assert discriminant(facts) == disc
    assert len(calls) == 1
    assert profile.signature == (real_roots, 6) == (0, 6)
    assert disc == discriminant(h)
