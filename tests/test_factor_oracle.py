"""Frobenius patterns checked against sympy, which shares no code with
rootgain: the patterns of PolyFacts agree with the factor degrees of sympy's
Poly(..., modulus=p).factor_list(), at every good prime, on products of
equal-degree irreducibles, and on non-monic fibers with non-integral
coefficients at the primes up to their degree, which the one-prime kernel
reads off the integer model. That packed distinct-degree kernel is compared
with sympy's gf_ddf_zassenhaus block by block, and with gf_factor_sqf at
primes up to 2^89 - 1, whose packed slots are wider than 64 bits. The batched
Frobenius-trace kernel behind PolyFacts.patterns is compared with the
per-prime path and with sympy, on both sides of its int64 bound
n * p^2 < 2^63."""

import random
from fractions import Fraction as F
from functools import reduce
from math import isqrt
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootgain.algebra import (
    AlgebraError,
    PolyFacts,
    PolyQ,
    _distinct_degree,
    _frobenius_patterns,
)
from rootgain.mestre import psl2_11_degree12_pencil, specialize

sympy = pytest.importorskip("sympy")
X = sympy.symbols("x")
gf = pytest.importorskip("sympy.polys.galoistools")
ZZ = sympy.ZZ

PRIMES = (2, 3, 5, 7, 13, 101)


def reduce_mod(h: PolyQ, p: int) -> list[int]:
    """h mod p as a reduced ascending int list (denominators prime to p)."""
    return [c.numerator * pow(c.denominator, -1, p) % p for c in h.coeffs]


def sympy_poly(f, p: int):
    """The ascending int list f as a sympy polynomial over F_p."""
    return sympy.Poly(list(reversed(f)), X, modulus=p)


def oracle_degrees(f, p: int) -> list[int]:
    _, factors = sympy_poly(f, p).factor_list()
    return sorted(g.degree() for g, m in factors for _ in range(m))


def gf_product(factors, p: int) -> list[int]:
    """The product over F_p of ascending int lists, by sympy's galoistools."""
    out = [1]
    for g in factors:
        out = gf.gf_mul(out, list(reversed(g)), p, ZZ)
    return [int(c) for c in reversed(out)]


def seeded_polys():
    """Degrees 1-12, leading coefficients 1, 2, 3, 7, 9, integer coefficients
    in [-20, 20]; products of two or three factors among them."""
    rng = random.Random(20261018)
    out = []
    for degree in range(1, 13):
        for lc in (1, 2, 3, 7, 9):
            out.append(PolyQ([rng.randint(-20, 20) for _ in range(degree)] + [lc]))
    for _ in range(20):
        parts = [
            PolyQ([rng.randint(-5, 5) for _ in range(d)] + [rng.choice((1, 2, 3))])
            for d in rng.sample(range(1, 5), rng.choice((2, 3)))
        ]
        out.append(reduce(mul, parts))
    return out


POLYS = seeded_polys()


@pytest.mark.parametrize("p", PRIMES)
def test_degrees_and_irreducibility_match_sympy(p):
    """The pattern at every good p is sympy's; it is (n,) iff f is
    irreducible mod p."""
    good = [h for h in POLYS if PolyFacts(h).is_good(p)]
    assert len(good) > len(POLYS) // 4
    for h in good:
        assert list(PolyFacts(h).patterns([p])[0]) == oracle_degrees(reduce_mod(h, p), p), (h, p)


def irreducibles(p: int, d: int, count: int, rng: random.Random) -> list[list[int]]:
    """`count` distinct monic irreducibles of degree d mod p, by sympy."""
    found: list[list[int]] = []
    while len(found) < count:
        g = [rng.randrange(p) for _ in range(d)] + [1]
        if sympy_poly(g, p).is_irreducible and g not in found:
            found.append(g)
    return found


def irreducible_count(p: int, d: int) -> int:
    """Monic irreducibles of degree d over F_p: p^d = sum over e | d of e N(e)."""
    return (p**d - sum(e * irreducible_count(p, e) for e in range(1, d) if d % e == 0)) // d


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_products_of_equal_degree_irreducibles(p):
    """One distinct-degree part holding k irreducibles of degree d gives k
    parts of degree d, alone and next to a factor of degree d + 1."""
    rng = random.Random(p)
    for d, k in ((1, 2), (1, 4), (2, 3), (2, 6), (3, 2), (3, 4), (4, 3)):
        k = min(k, irreducible_count(p, d))
        gs = irreducibles(p, d, k, rng)
        for lead, extra in ((1, []), (p - 1, irreducibles(p, d + 1, 1, rng))):
            f = gf_product(gs + extra + [[lead]], p)
            expected = sorted([d] * k + [len(e) - 1 for e in extra])
            assert oracle_degrees(f, p) == expected
            assert list(PolyFacts(PolyQ(f)).patterns([p])[0]) == expected


def test_scalar_reads_of_non_monic_rational_polys_at_primes_up_to_the_degree():
    """The good primes at or below the degree are read one at a time, off the
    integer model times the inverse of its leading coefficient mod p. Non-monic
    polynomials with non-integral coefficients, reduced coefficient by
    coefficient here and factored by sympy; at such small primes a block often
    holds several irreducibles of one degree."""
    rng = random.Random(33)
    reads = 0
    for _ in range(300):
        degree = rng.randint(2, 10)
        coeffs = [F(rng.randint(-40, 40), rng.choice((1, 2, 11, 13, 17))) for _ in range(degree)]
        h = PolyQ(coeffs + [F(rng.choice((3, 4, 11, 13, 17)), rng.choice((1, 11, 13)))])
        facts = PolyFacts(h)
        for p in [p for p in (2, 3, 5, 7) if p <= degree and facts.is_good(p)]:
            reduced = [c.numerator * pow(c.denominator, -1, p) % p for c in reversed(h.coeffs)]
            _, factors = sympy.Poly(reduced, X, modulus=p).factor_list()
            expected = tuple(sorted(g.degree() for g, m in factors for _ in range(m)))
            assert facts.patterns([p]) == [expected], (h, p)
            reads += 1
    assert reads > 200


def scalar_reads(facts, count):
    """(p, pattern) at the first `count` good primes, one scalar read each."""
    return [(p, facts.patterns([p])[0]) for p in facts.good_primes(count)]


def block_read(facts, count):
    """scalar_reads, with the patterns above the degree in one block."""
    primes = facts.good_primes(count)
    return list(zip(primes, facts.patterns(primes)))


@pytest.mark.parametrize("t0", [F(-18, 19), F(-17, 19)])
def test_degree_12_fiber_patterns_match_sympy(t0):
    h = specialize(psl2_11_degree12_pencil(), t0)
    for p, pattern in scalar_reads(PolyFacts(h), 50):
        assert list(pattern) == oracle_degrees(reduce_mod(h, p), p), p


# ---------------------------------------------------------------- the kernel

KERNEL_PRIMES = (2, 3, 5, 101, 2**31 - 1, 10**9 + 7, 2**61 - 1, 2**89 - 1)
LARGE_PRIMES = KERNEL_PRIMES[-3:]


def squarefree_monic(p: int, rng: random.Random, max_degree: int = 16) -> list[list[int]]:
    """For each degree 1..max_degree: a random monic polynomial and a product
    of random monic factors of degree <= 4 (several blocks even at large p),
    each the first of its kind drawn that sympy finds squarefree mod p."""

    def monic(d):
        return [rng.randrange(p) for _ in range(d)] + [1]

    def product(d):
        parts = []
        while sum(parts) < d:
            parts.append(min(rng.randint(1, 4), d - sum(parts)))
        return gf_product(map(monic, parts), p)

    out = []
    for degree in range(1, max_degree + 1):
        for make in (monic, product):
            f = make(degree)
            while not gf.gf_sqf_p(list(reversed(f)), p, ZZ):
                f = make(degree)
            out.append(f)
    return out


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_distinct_degree_matches_gf_ddf_zassenhaus(p):
    rng = random.Random(p)
    for f in squarefree_monic(p, rng):
        blocks = gf.gf_ddf_zassenhaus(list(reversed(f)), p, ZZ)
        # each block: its product g of degree-d irreducibles gives deg(g) / d entries d
        expected = tuple(d for g, d in blocks for _ in range((len(g) - 1) // d))
        assert _distinct_degree(f, p) == expected, f


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_distinct_degree_at_large_primes_matches_sympy(p):
    """The factor degrees mod p that _distinct_degree reads are those of
    sympy's gf_factor_sqf, and a seeded irreducible reads as (degree,)."""
    rng = random.Random(p + 1)
    for f in squarefree_monic(p, rng, max_degree=8):
        _, factors = gf.gf_factor_sqf(list(reversed(f)), p, ZZ)
        expected = tuple(sorted(len(g) - 1 for g in factors))
        assert _distinct_degree(f, p) == expected, f
    # seeded irreducibles, as sympy finds them
    for degree in (2, 3, 5, 8):
        g = [rng.randrange(p) for _ in range(degree)] + [1]
        while not gf.gf_irreducible_p(list(reversed(g)), p, ZZ):
            g = [rng.randrange(p) for _ in range(degree)] + [1]
        assert _distinct_degree(g, p) == (degree,)


# ---------------------------------------------------------------- the block kernel


@st.composite
def polys_over_q(draw):
    """Degree 1-9, leading coefficient 1, 2, 3, 7 or 9, coefficients in
    [-30, 30] over denominators 1, 2, 3 or 5."""
    degree = draw(st.integers(1, 9))
    den = draw(st.sampled_from((1, 1, 2, 3, 5)))
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=degree, max_size=degree))
    return PolyQ([F(c, den) for c in coeffs] + [draw(st.sampled_from((1, 2, 3, 7, 9)))])


SEPARABLE = polys_over_q().filter(lambda h: PolyFacts(h).disc != 0)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(h=SEPARABLE, count=st.integers(1, 40))
@example(h=PolyQ([-1, -1, 0, 0, 0, 1]), count=12)  # X^5 - X - 1: 2, 3 and 5 are good
@example(h=PolyQ([F(1, 2), 3]), count=30)  # degree 1
def test_frobenius_patterns_match_the_lazy_reads_and_sympy(h, count):
    expected = scalar_reads(PolyFacts(h), count)
    block = block_read(PolyFacts(h), count)
    assert block == expected
    # half filled: the lazy reads first, and one pattern past them
    facts = PolyFacts(h)
    scalar_reads(facts, count // 2)
    facts.patterns([expected[-1][0]])
    assert block_read(facts, count) == expected
    for p, pattern in block:
        assert list(pattern) == oracle_degrees(reduce_mod(h, p), p), (h, p)


@pytest.mark.parametrize("t0", [F(-18, 19), F(-17, 19)])
def test_degree_12_fiber_blocks_match_the_lazy_reads(t0):
    h = specialize(psl2_11_degree12_pencil(), t0)
    expected = scalar_reads(PolyFacts(h), 100)
    assert expected[0][0] < 12  # the block holds primes below the degree
    assert block_read(PolyFacts(h), 100) == expected
    facts = PolyFacts(h)
    scalar_reads(facts, 30)
    assert block_read(facts, 100) == expected
    for p, pattern in expected[:60:6]:
        assert list(pattern) == oracle_degrees(reduce_mod(h, p), p), p


def widest_int64_prime(n: int) -> int:
    """The largest prime p with n * p^2 < 2^63."""
    p = isqrt(((1 << 63) - 1) // n)
    while not sympy.isprime(p):
        p -= 1
    return p


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(degree=st.integers(1, 12), data=st.data())
def test_frobenius_patterns_at_large_primes_match_sympy(degree, data):
    """The kernel alone: one block at the largest int64 prime for the degree,
    and one at the next prime, 2^61 - 1 and 10^18 + 3, in object arrays."""
    edge = widest_int64_prime(degree)
    for block in ([edge, 1000003], [int(sympy.nextprime(edge)), 2**61 - 1, 10**18 + 3]):
        big = st.integers(-(10**20), 10**20)
        coeffs = data.draw(st.lists(big, min_size=degree, max_size=degree))
        coeffs.append(data.draw(st.sampled_from((1, 2, 3, 10**19 + 1))))
        primes = [
            p for p in block
            if coeffs[-1] % p and gf.gf_sqf_p([c % p for c in reversed(coeffs)], p, ZZ)
        ]
        if not primes:
            continue
        for p, pattern in zip(primes, _frobenius_patterns(coeffs, primes)):
            assert list(pattern) == oracle_degrees([c % p for c in coeffs], p), (coeffs, p)


def test_frobenius_patterns_refuse_exactly_the_non_squarefree_reductions():
    """The kernel alone, one prime at a time and in blocks: it refuses a
    (polynomial, prime) pair iff f mod p has a repeated factor (sympy's
    gf_sqf_p), and otherwise reads sympy's factor degrees. Small primes make
    repeated factors common."""
    rng = random.Random(2026)
    refused = 0
    for _ in range(700):
        degree = rng.randint(2, 12)
        coeffs = [rng.randint(-6, 6) for _ in range(degree)] + [rng.choice([1, 2, 3, -1])]
        primes = [p for p in rng.sample(range(degree + 1, 60), 6) if sympy.isprime(p)]
        primes = [p for p in primes if coeffs[-1] % p]
        squarefree = {p: gf.gf_sqf_p([c % p for c in reversed(coeffs)], p, ZZ) for p in primes}
        for p in primes:
            if squarefree[p]:
                (pattern,) = _frobenius_patterns(coeffs, [p])
                assert list(pattern) == oracle_degrees([c % p for c in coeffs], p), (coeffs, p)
            else:
                refused += 1
                with pytest.raises(AlgebraError):
                    _frobenius_patterns(coeffs, [p])
        if primes and not all(squarefree.values()):
            with pytest.raises(AlgebraError):
                _frobenius_patterns(coeffs, primes)
    assert refused > 50


def test_frobenius_patterns_refuse_what_polyfacts_refuses():
    for h in (PolyQ([0, 0, 1]), PolyQ([4, -4, 1]) * PolyQ([1, 1])):  # disc 0
        with pytest.raises(AlgebraError):
            PolyFacts(h).good_primes(3)
    # the kernel itself: no prime up to the degree, no repeated factor mod p
    with pytest.raises(AlgebraError):
        _frobenius_patterns([-1, -1, 0, 0, 0, 1], [5, 7])
    with pytest.raises(AlgebraError):
        _frobenius_patterns([1, -2, 1], [5, 7])
