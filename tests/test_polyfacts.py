"""Differential tests of the shared per-polynomial record (PolyFacts).

Every function that reads the record is compared with a reference computed
here prime by prime, straight from PolyFp.reduce, factor_degrees and
is_irreducible_mod_p, sharing nothing between calls.
"""

import pickle
import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, islice

import pytest

from rootgain.algebra import (
    AlgebraError,
    PolyFacts,
    PolyFp,
    PolyQ,
    discriminant,
    factor_degrees,
    is_irreducible_mod_p,
    iter_primes,
    rational_sqrt,
    valuation,
)
from rootgain.extension import (
    ExtensionError,
    RequiresDeclaredProfile,
    certify_irreducible,
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
    return tuple(factor_degrees(PolyFp.reduce(h, p)))


@lru_cache(maxsize=None)
def ref_certificate(h, max_primes=50):
    """(status, witness_prime, patterns) of certify_irreducible."""
    n = h.degree
    patterns = []
    for p in islice(good_primes(h), max_primes):
        if is_irreducible_mod_p(PolyFp.reduce(h, p)):
            return "irreducible_mod_p", p, tuple(sorted(set(patterns)))
        patterns.append(pattern(h, p))
    uniq = tuple(sorted(set(patterns)))

    def splits(pat, a):
        return any(sum(c) == a for k in range(len(pat) + 1) for c in combinations(pat, k))

    if uniq and not any(all(splits(pat, a) for pat in uniq) for a in range(1, n // 2 + 1)):
        return "pattern_incompatible", None, uniq
    return "unverified", None, uniq


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


def check_against_reference(facts, h, pattern_primes=(10, 40, 100)):
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
    assert (cert.status, cert.witness_prime, cert.patterns) == ref_certificate(h)
    assert certify_irreducible(h, max_primes=7) == certify_irreducible(facts, max_primes=7)
    for count in pattern_primes:
        expected = ref_an_certificate(h, count)
        if expected is None:
            with pytest.raises(MestreError):
                an_certificate(facts, pattern_primes=count)
            continue
        got = an_certificate(facts, pattern_primes=count)
        assert (got.contained_in_alternating, got.patterns, got.verdict, got.ruled_out) == expected


@pytest.mark.parametrize("index", range(len(POLYS)))
def test_record_matches_prime_by_prime_reference(index):
    h = POLYS[index]
    facts = PolyFacts(h)
    check_against_reference(facts, h)
    assert facts.disc == discriminant(h)


def test_fingerprints_match_reference():
    by_degree = {}
    for h in POLYS:
        by_degree.setdefault(h.degree, []).append(h)
    for group in by_degree.values():
        records = [PolyFacts(h) for h in group]
        for (h1, f1), (h2, f2) in zip(zip(group, records), zip(group[1:], records[1:])):
            assert distinctness_fingerprint(f1, f2) == ref_fingerprint(h1, h2, 200)
        for h, f in zip(group, records):
            assert distinctness_fingerprint(f, h, max_primes=30) == "indistinguishable"


@pytest.mark.parametrize("t0", [1, -1])
def test_degree_12_fibers_match_reference(t0):
    h = specialize(psl2_11_degree12_pencil(), t0)
    facts = PolyFacts(h)
    check_against_reference(facts, h)
    other = specialize(psl2_11_degree12_pencil(), -t0)
    assert distinctness_fingerprint(facts, other) == ref_fingerprint(h, other, 200)
    # the grown record pickles and keeps its facts
    copy = pickle.loads(pickle.dumps(facts))
    assert list(copy.frobenius(60)) == list(facts.frobenius(60))


def test_moduli_checked_where_polyfp_enters():
    with pytest.raises(AlgebraError):
        PolyFp(6, [1, 1])
    with pytest.raises(AlgebraError):
        PolyFp.reduce(PolyQ([1, 1]), 6)
    with pytest.raises(AlgebraError):
        PolyFp.reduce(PolyQ([F(1, 2), 1]), 6)
    # the good-prime test, like the valuations it reads, takes primes only
    with pytest.raises(AlgebraError):
        PolyFacts(PolyQ([1, 0, 1])).is_good(6)
    with pytest.raises(AlgebraError):
        profile_at_unramified(PolyQ([1, 0, 1]), 6)


def test_zero_discriminant_raises_instead_of_seeking_a_good_prime():
    h = PolyQ([0, 0, 1])  # X^2: no prime is good
    with pytest.raises(AlgebraError):
        list(PolyFacts(h).frobenius(1))
    for arg in (h, PolyFacts(h)):
        with pytest.raises(ExtensionError):
            certify_irreducible(arg)
        with pytest.raises(ExtensionError):
            an_certificate(arg)
        with pytest.raises(MestreError):
            distinctness_fingerprint(arg, PolyQ([1, 0, 1]))
        with pytest.raises(MestreError):
            distinctness_fingerprint(PolyQ([1, 0, 1]), arg)
