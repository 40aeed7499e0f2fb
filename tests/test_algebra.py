import hashlib
import random
from fractions import Fraction as F
from itertools import islice
from math import isqrt

import pytest

from rootgain import algebra
from rootgain.algebra import (
    TOP_VALUE,
    AlgebraError,
    NotASquare,
    PolyFacts,
    PolyQ,
    discriminant,
    is_prime,
    iter_primes,
    legendre,
    poly_from_descending_string,
    poly_sqrt_exact,
    rational_roots,
    resultant,
    sturm_real_roots,
    valuation,
)


# ---------------------------------------------------------------- oracles


def all_monic_polys(p, degree):
    """Every monic polynomial of the exact given degree over F_p, as an
    ascending int list."""
    for k in range(p**degree):
        cs = []
        for _ in range(degree):
            cs.append(k % p)
            k //= p
        yield cs + [1]


def gf_divmod(f, g, p):
    """(quotient, remainder) of ascending int lists over F_p, by sympy's
    galoistools (which shares no code with rootgain)."""
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy import ZZ

    q, r = galoistools.gf_div(f[::-1], g[::-1], p, ZZ)
    return [int(c) for c in q[::-1]], [int(c) for c in r[::-1]]


def gf_monic(f, p):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy import ZZ

    return [int(c) for c in galoistools.gf_monic(f[::-1], p, ZZ)[1][::-1]]


def trial_division_factor(f, p):
    """Exhaustive factorization oracle for small degree/modulus: (monic
    irreducible factor, multiplicity) pairs of the ascending int list f."""
    out = []
    g = gf_monic(f, p)
    d = 1
    while len(g) > 1:
        if d > len(g) - 1:
            raise AssertionError("oracle ran out of candidate degrees")
        hit = False
        for cand in all_monic_polys(p, d):
            q, r = gf_divmod(g, cand, p)
            if not r and trial_irreducible(cand, p):
                mult = 1
                g = q
                while True:
                    q2, r2 = gf_divmod(g, cand, p)
                    if not r2:
                        mult += 1
                        g = q2
                    else:
                        break
                out.append((cand, mult))
                hit = True
                break
        if not hit:
            d += 1
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def trial_irreducible(f, p):
    """Irreducibility by exhaustive trial division (degree <= 4 intended)."""
    degree = len(f) - 1
    if degree <= 1:
        return degree == 1
    for d in range(1, degree // 2 + 1):
        for cand in all_monic_polys(p, d):
            if not gf_divmod(f, cand, p)[1]:
                return False
    return True


def bisection_real_roots(f, roots_bound):
    """Sign-change count on a half-integer grid; valid when all real roots are
    integers of absolute value <= roots_bound (they are planted that way)."""
    grid = [F(2 * k + 1, 2) for k in range(-roots_bound - 1, roots_bound + 1)]
    vals = [f(x) for x in grid]
    assert all(v != 0 for v in vals)
    return sum(1 for a, b in zip(vals, vals[1:]) if (a < 0) != (b < 0))


# ---------------------------------------------------------------- Frobenius patterns


def trial_division_pattern(f, p):
    """Sorted factor degrees of f with multiplicity, by trial division."""
    return tuple(sorted(len(g) - 1 for g, m in trial_division_factor(f, p) for _ in range(m)))


def test_factor_x2_plus_1_mod_5():
    f = [1, 0, 1]
    fac = trial_division_factor(f, 5)
    assert fac == [([2, 1], 1), ([3, 1], 1)]
    assert PolyFacts(PolyQ(f)).patterns([5]) == [trial_division_pattern(f, 5)] == [(1, 1)]


def test_factor_x2_plus_1_mod_7_irreducible():
    f = [1, 0, 1]
    assert trial_irreducible(f, 7)
    assert PolyFacts(PolyQ(f)).patterns([7]) == [trial_division_pattern(f, 7)] == [(2,)]


def test_factor_quartic_mod_7_against_trial_division():
    h = PolyQ([2304, 0, -164, 0, 1])
    f = [int(c) % 7 for c in h.coeffs]
    assert PolyFacts(h).is_good(7)
    assert PolyFacts(h).patterns([7]) == [trial_division_pattern(f, 7)]


# ---------------------------------------------------------------- legendre


def test_legendre_examples():
    assert legendre(4, 7) == 1
    assert legendre(3, 7) == -1
    for q in (3, 7, 11, 19, 23):
        assert legendre(-1, q) == -1


def test_legendre_multiplicative():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        for a in range(1, p):
            for b in range(1, p):
                assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)


def test_legendre_rejects_bad_modulus():
    with pytest.raises(AlgebraError):
        legendre(3, 2)
    with pytest.raises(AlgebraError):
        legendre(3, 15)


# ---------------------------------------------------------------- sturm


def test_sturm_examples():
    assert sturm_real_roots(PolyQ([-2, 0, 1])) == 2
    assert sturm_real_roots(PolyQ([1, 0, 1])) == 0
    # X(X^2-1)(X^2-4): roots 0, +-1, +-2
    f = PolyQ([0, 4, 0, -5, 0, 1])
    assert sturm_real_roots(f) == 5
    # repeated roots count once: the chain need not start from a squarefree f
    x2m2, xp1 = PolyQ([-2, 0, 1]), PolyQ([1, 1])
    assert sturm_real_roots(x2m2 * x2m2 * xp1 * xp1 * xp1) == 3
    assert sturm_real_roots(PolyQ([1, 0, 1]) * PolyQ([1, 0, 1])) == 0
    assert sturm_real_roots(PolyQ([-1, 1]) ** 4 * PolyQ([1, 0, 1])) == 1
    assert sturm_real_roots(PolyQ([5])) == 0


def test_sturm_zero_poly_rejected():
    with pytest.raises(AlgebraError):
        sturm_real_roots(PolyQ([]))


def test_sturm_against_bisection_on_planted_roots():
    rng = random.Random(7)
    for _ in range(200):
        deg = rng.choice([3, 4])
        roots = rng.sample(range(-6, 7), deg)
        f = PolyQ([1])
        for r in roots:
            f = f * PolyQ([-r, 1])
        assert sturm_real_roots(f) == bisection_real_roots(f, 6) == deg


# ---------------------------------------------------------------- poly sqrt


def test_poly_sqrt_examples():
    assert poly_sqrt_exact(PolyQ([1, 2, 1])) == PolyQ([1, 1])
    with pytest.raises(NotASquare):
        poly_sqrt_exact(PolyQ([1, 0, 1]))
    # 5X^4 has non-square leading coefficient over Q
    with pytest.raises(NotASquare):
        poly_sqrt_exact(PolyQ([0, 0, 0, 0, 5]))


def test_poly_sqrt_roundtrip_random():
    rng = random.Random(99)
    for _ in range(500):
        deg = rng.randint(0, 6)
        r = PolyQ(
            [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg)]
            + [F(rng.randint(1, 9), rng.randint(1, 5))]
        )
        s = poly_sqrt_exact(r * r)
        assert s == r or s == -r
        assert s.leading() > 0


# ---------------------------------------------------------------- disc / valuation


def test_discriminant_examples():
    assert discriminant(PolyQ([-2, 0, 1])) == 8
    # poly disc of the cubic X^3-6X^2+5X via the root-difference oracle
    cubic = PolyQ([0, 5, -6, 1])
    roots = [0, 1, 5]
    oracle = 1
    for i in range(3):
        for j in range(i + 1, 3):
            oracle *= (roots[i] - roots[j]) ** 2
    assert oracle == 400
    assert discriminant(cubic) == 400
    # the Y^2 = cubic curve discriminant is 16 * 400 = 6400, checked in ellcurve tests
    assert valuation(6400, 5) == 2


def test_valuation_of_zero_is_top():
    v = valuation(0, 7)
    assert v == TOP_VALUE
    assert v >= 100 and v > 100


def test_resultant_scaling():
    f = PolyQ([F(1, 2), 0, 1])
    g = PolyQ([1, 1])
    # Res(f, g) = lc(f)^0 * f evaluated at the root of g, up to sign convention
    assert resultant(f, g) == f(F(-1))


def test_resultant_and_gcd_edge_cases():
    zero, three, c = PolyQ([]), PolyQ([3]), PolyQ([F(-5, 2)])
    f = PolyQ([1, 0, 1])
    cubic = PolyQ([F(1, 3), -2, 0, F(-7, 4)])
    # a zero argument gives 0
    assert resultant(zero, f) == resultant(f, zero) == resultant(zero, zero) == 0
    assert resultant(zero, three) == 0
    # Res(c, g) = c^deg g and Res(f, c) = c^deg f, also for two constants
    assert resultant(three, f) == 9
    assert resultant(f, c) == F(25, 4)
    assert resultant(c, cubic) == resultant(cubic, c) == F(-125, 8)
    assert resultant(three, c) == 1
    # gcd with 0 is the other argument made monic; with a constant it is 1
    assert f.gcd(zero) == f
    assert zero.gcd(cubic) == cubic.monic() == PolyQ([F(-4, 21), F(8, 7), 0, 1])
    assert zero.gcd(zero) == zero
    assert cubic.gcd(c) == three.gcd(zero) == zero.gcd(c) == PolyQ([1])
    assert three.is_separable() and c.is_separable() and not zero.is_separable()
    # negative leading coefficients and Fraction coefficients, a square factor
    g = PolyQ([F(-1, 2), 0, F(-3, 5)]) * PolyQ([1, F(2, 7), F(-9, 4)]) ** 2
    assert resultant(g, cubic) == resultant(cubic, g) == F(-7026593370101, 56646696960)
    assert discriminant(g) == 0 and discriminant(cubic) == F(-1043, 16)
    assert sturm_real_roots(g) == 2 and sturm_real_roots(cubic) == 1
    assert g.gcd(g.derivative()) == PolyQ([F(-4, 9), F(-8, 63), 1])
    assert g.squarefree_part() == PolyQ([F(-10, 27), F(-20, 189), F(7, 18), F(-8, 63), 1])
    assert not g.is_separable()


def _corpus_poly(rng, degree):
    """A seeded polynomial of the given degree (-1 for 0): integer or
    sparse numerators over small or large denominators, leading coefficient
    of either sign."""
    if degree < 0:
        return PolyQ([])
    numerators = rng.choice([range(-30, 31), [0, 0, 0, 1, -1, 2, -3]])
    denominators = [1, 1, 2, 3, 7, 10**6 + 3]
    coeffs = [F(rng.choice(numerators), rng.choice(denominators)) for _ in range(degree)]
    return PolyQ(coeffs + [F(rng.choice([-5, -2, -1, 1, 3]), rng.choice([1, 4, 9]))])


# sha256 of resultant, discriminant, sturm_real_roots and gcd over the corpus
# below, pinned from a Sylvester-matrix determinant and a Euclidean gcd over Q,
# two other algorithms for the same values
CORPUS_DIGEST = "3372167d96422a9a94c64027cbe27b1632e27f0e30b56eded65820cf15663ae2"


def _corpus_digest(disc_and_sturm) -> str:
    """The digest of the corpus lines, with disc and the Sturm count of each
    a of positive degree from disc_and_sturm(a)."""
    rng = random.Random(20261020)
    lines = []
    for i in range(400):
        a, b = _corpus_poly(rng, rng.randint(-1, 9)), _corpus_poly(rng, rng.randint(-1, 9))
        if i % 3 == 0:  # a shared factor: resultant 0, a gcd of positive degree
            shared = _corpus_poly(rng, rng.randint(0, 3))
            a, b = a * shared, b * shared
        if i % 5 == 0:  # a repeated factor: discriminant 0
            a = a * _corpus_poly(rng, rng.randint(1, 2)) ** 2
        line = [resultant(a, b), resultant(b, a), a.gcd(b), b.gcd(a)]
        if a.degree >= 1:
            line += [*disc_and_sturm(a), a.gcd(a.derivative())]
        lines.append(" ".join(map(str, line)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_remainder_sequence_outputs_match_the_pinned_digest():
    assert _corpus_digest(lambda a: (discriminant(a), sturm_real_roots(a))) == CORPUS_DIGEST


def test_polyfacts_disc_and_sturm_count_match_the_pinned_digest():
    # both read the one chain that a PolyFacts keeps
    def from_facts(a):
        facts = PolyFacts(a)
        return facts.disc, sturm_real_roots(facts)

    assert _corpus_digest(from_facts) == CORPUS_DIGEST


# ---------------------------------------------------------------- rational roots


def test_rational_roots_simple():
    f = PolyQ([-1, 3]) * PolyQ([2, 1]) * PolyQ([-6, 1]) * PolyQ([0, 1])
    assert rational_roots(f) == [F(-2), F(0), F(1, 3), F(6)]


def test_rational_roots_large_coefficients():
    # (12249 X + 559076)(X - 2304) has a root with multi-digit denominator
    f = PolyQ([559076, 12249]) * PolyQ([-2304, 1])
    assert rational_roots(f) == [F(-559076, 12249), F(2304)]


def test_rational_roots_none():
    assert rational_roots(PolyQ([1, 0, 1])) == []
    assert rational_roots(PolyQ([-2, 0, 1])) == []


# ---------------------------------------------------------------- parsing / misc


def test_poly_parse_descending():
    f = poly_from_descending_string("1,0,-164,0,2304,0")
    assert f == PolyQ([0, 2304, 0, -164, 0, 1])


def test_prime_walks_sieve_no_bound_twice(monkeypatch):
    bounds = []
    sieve = algebra.primes_up_to
    monkeypatch.setattr(algebra, "primes_up_to", lambda bound: bounds.append(bound) or sieve(bound))
    first = list(islice(iter_primes(), 1000))
    second = list(islice(iter_primes(), 1000))
    assert first == second == sieve(7919)  # 7919 is the 1000th prime
    assert bounds == sorted(set(bounds))


def test_is_prime_reads_the_shared_sieve_and_miller_rabin_past_it(monkeypatch):
    """is_prime is membership in the shared sieve up to its last prime, and
    agrees with trial division on both sides of it: before any walk (an empty
    sieve), and after walks extend it."""
    monkeypatch.setattr(algebra, "_sieved_primes", [])

    def trial_division(n):
        return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

    for count in (0, 10, 100, 1000):
        for _ in islice(iter_primes(), count):
            pass
        end = algebra._sieved_primes[-1] if count else 0
        assert [n for n in range(end + 1) if is_prime(n)] == algebra._sieved_primes
        assert [n for n in range(-2, end + 500) if is_prime(n)] == [
            n for n in range(-2, end + 500) if trial_division(n)
        ], end


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(39732 // 4 * 0 + 1361)
    assert not is_prime(12249)
