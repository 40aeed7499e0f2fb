"""Exact polynomial invariants checked against sympy, which shares no code with
rootgain: discriminant (also as PolyFacts.disc) and resultant against sympy's,
PolyQ.gcd, squarefree_part and is_separable against sympy's gcd, sqf_part and
is_sqf, sturm_real_roots (of a PolyQ and of a PolyFacts) against
Poly.count_roots and rational_roots against the
linear factors of sympy's factorization over Q, on derandomized polynomials of
degree <= 8 with rational coefficients, including products with repeated and
shared factors. is_prime
is checked against sympy's isprime at the strong pseudoprimes psi_12 and
psi_13 and on seeded products of two 12-digit primes, iter_primes against
primerange, _prime_divisors against factorint on seeded products of primes
with 6 to 14 digits, and the F_p division and gcd kernels on int lists
against sympy's galoistools."""

import random
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootgain.algebra import (
    TRIAL_DIVISION_BOUND,
    FactoringIncomplete,
    PolyFacts,
    PolyQ,
    _divmod_list,
    _gcd_list,
    _prime_divisors,
    discriminant,
    is_prime,
    iter_primes,
    rational_roots,
    resultant,
    sturm_real_roots,
)
from rootgain.mestre import psl2_11_degree12_pencil, specialize

sympy = pytest.importorskip("sympy")
galoistools = pytest.importorskip("sympy.polys.galoistools")
X = sympy.symbols("x")

MAX_DEGREE = 8
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)
nonzero = coefficients.filter(lambda c: c != 0)


@st.composite
def factors(draw, max_degree=4):
    degree = draw(st.integers(1, max_degree))
    return PolyQ(draw(st.lists(coefficients, min_size=degree, max_size=degree)) + [draw(nonzero)])


@st.composite
def products(draw, max_degree=MAX_DEGREE):
    """A nonzero constant times up to three factors, each taken once or twice
    while the degree stays within max_degree (the first always fits)."""
    out = PolyQ([draw(nonzero)])
    for f in draw(st.lists(factors(), min_size=1, max_size=3)):
        for _ in range(draw(st.integers(1, 2))):
            if out.degree + f.degree <= max_degree:
                out = out * f
    return out


def to_sympy(f: PolyQ):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], X)


def to_fraction(r) -> F:
    r = sympy.Rational(r)
    return F(int(r.p), int(r.q))


ORACLE = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@ORACLE
@given(products())
def test_discriminant_matches_sympy(f):
    assert discriminant(f) == to_fraction(sympy.discriminant(to_sympy(f)))


# Mostly-zero coefficients make chains whose degree drops by two, where lc^3
# and |lc|^3 differ in sign when lc < 0; each coefficient has its own large
# denominator, so the integer model is far from the rational one
sparse_numerators = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3])
large_denominators = st.integers(10**6, 10**12)


@st.composite
def sparse_negative_leading(draw, max_degree=8):
    degree = draw(st.integers(2, max_degree))
    coeffs = [F(draw(sparse_numerators), draw(large_denominators)) for _ in range(degree)]
    return PolyQ(coeffs + [F(-draw(st.integers(1, 3)), draw(large_denominators))])


# either kind, each of its own degree up to 8
polynomials = products() | sparse_negative_leading()


def from_sympy(f) -> PolyQ:
    return PolyQ([to_fraction(c) for c in reversed(f.all_coeffs())])


def sympy_resultant(f: PolyQ, g: PolyQ) -> F:
    """sympy's Res(f, g), asked with the larger degree first: sympy 1.14
    swaps a pair with deg f < deg g and drops the sign (-1)^(deg f deg g)
    of Res(f, g) = (-1)^(deg f deg g) Res(g, f), as its own Sylvester
    determinant shows."""
    if f.degree < g.degree:
        return (-1) ** (f.degree * g.degree) * sympy_resultant(g, f)
    return to_fraction(sympy.resultant(to_sympy(f), to_sympy(g)))


@ORACLE
@given(polynomials, polynomials, st.none() | factors(max_degree=2))
def test_resultant_matches_sympy(f, g, shared):
    if shared is not None:
        # a common factor makes the resultant vanish
        f, g = f * shared, g * shared
    assert resultant(f, g) == sympy_resultant(f, g)


@ORACLE
@given(polynomials, polynomials, st.none() | factors(max_degree=2), st.integers(1, 3))
def test_gcd_and_squarefree_part_match_sympy(f, g, shared, power):
    if shared is not None:
        # a shared factor, repeated in f
        f, g = f * shared**power, g * shared
    assert f.gcd(g) == from_sympy(sympy.gcd(to_sympy(f), to_sympy(g)).monic())
    assert f.squarefree_part() == from_sympy(to_sympy(f).sqf_part().monic())
    assert f.is_separable() == to_sympy(f).is_sqf


@ORACLE
@given(products())
def test_sturm_real_roots_matches_count_roots(f):
    assert sturm_real_roots(f) == to_sympy(f).count_roots()


@ORACLE
@given(sparse_negative_leading(), st.none() | factors(max_degree=2), st.integers(2, 3))
def test_sturm_real_roots_matches_count_roots_on_sparse_negative_leading(f, repeated, power):
    if repeated is not None:
        f = f * repeated.monic() ** power
    assert f.leading() < 0
    assert sturm_real_roots(f) == to_sympy(f).count_roots()


@ORACLE
@given(polynomials)
def test_polyfacts_disc_and_sturm_count_match_sympy(f):
    # both read the PolyFacts' one chain of the integer model d f and its
    # derivative, whose denominator d enters Res(f, f') as d^(2n - 1)
    facts = PolyFacts(f)
    assert sturm_real_roots(facts) == to_sympy(f).count_roots()
    assert facts.disc == to_fraction(sympy.discriminant(to_sympy(f)))


@pytest.mark.parametrize("a", [-18, -7, -1, 1, 5, 20, 37])
def test_sturm_real_roots_matches_count_roots_on_psl2_11_fibers(a):
    h = specialize(psl2_11_degree12_pencil(), F(a, 19))
    assert h.degree == 12
    assert sturm_real_roots(h) == to_sympy(h).count_roots()
    assert discriminant(h) == to_fraction(sympy.discriminant(to_sympy(h)))
    facts = PolyFacts(h)
    assert (facts.disc, sturm_real_roots(facts)) == (discriminant(h), sturm_real_roots(h))


@ORACLE
@given(products(), st.lists(coefficients, max_size=2))
def test_rational_roots_match_sympy(f, roots):
    for r in roots:
        if f.degree < MAX_DEGREE:
            f = f * PolyQ([-r, 1])
    _, parts = to_sympy(f).factor_list()
    linear = [g for g, _ in parts if g.degree() == 1]
    expected = sorted(-to_fraction(g.nth(0)) / to_fraction(g.nth(1)) for g in linear)
    assert rational_roots(f) == expected


@pytest.mark.parametrize(
    "coeffs", [[-1, 0, 0, 1], [-8, 0, 0, 1], [-243, 0, 0, 0, 0, 1]], ids=["X^3-1", "X^3-8", "X^5-243"]
)
def test_rational_roots_where_the_derivative_vanishes_mod_p(coeffs):
    """f' = 3X^2 is 0 mod 3, the first prime rational_roots tries, for X^3 - 1
    and X^3 - 8. X^5 - 243 is X^5 mod 3, not squarefree, so 3 is skipped, and
    f' = 5X^4 is 0 mod 5. The gcd kernel takes f' mod p trimmed, here to 0."""
    f = PolyQ(coeffs)
    expected = sorted(to_fraction(r) for r in sympy.roots(to_sympy(f), filter="Q"))
    assert rational_roots(f) == expected != []


# psi_12 and psi_13: the least composites that are strong pseudoprimes to every
# prime base up to 37 and up to 41
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_matches_isprime_at_the_pseudoprimes_and_on_semiprimes():
    assert PSI_12 == 399165290221 * 798330580441
    rng = random.Random(20261018)
    twelve_digit = [int(sympy.nextprime(rng.randrange(10**11, 10**12))) for _ in range(40)]
    semiprimes = [a * b for a, b in zip(twelve_digit[::2], twelve_digit[1::2])]
    nearby = [int(sympy.nextprime(n)) for n in (PSI_12, PSI_13 - 10**6)] + [PSI_12 - 2, PSI_12 + 2]
    for n in [PSI_12, PSI_13 - 2, *semiprimes, *twelve_digit, *nearby]:
        assert is_prime(n) == sympy.isprime(n), n
    assert not is_prime(PSI_12)


def _expected_prime_divisors(n: int) -> list[int] | None:
    """factorint's primes of n, or None where _prime_divisors must refuse: the
    part of n with no prime below the bound is at least the bound squared, and
    it is composite or not below psi_13."""
    factors = sympy.factorint(n)
    cofactor = 1
    for p, e in factors.items():
        if p >= TRIAL_DIVISION_BOUND:
            cofactor *= p**e
    proven = cofactor < TRIAL_DIVISION_BOUND**2 or (sympy.isprime(cofactor) and cofactor < PSI_13)
    return sorted(factors) if proven else None


def _check_prime_divisors(x: F) -> None:
    expected = _expected_prime_divisors(abs(x.numerator * x.denominator))
    if expected is None:
        with pytest.raises(FactoringIncomplete, match="not proven prime"):
            _prime_divisors(x)
    else:
        assert _prime_divisors(x) == expected, x


@pytest.mark.parametrize(
    "x",
    [
        F(1),
        F(-12, 35),
        F(999983**2 * 7),  # the largest prime below the bound, found by trial division
        F(10**12 + 39),  # a prime cofactor just past the bound squared
        F(2 * (2**61 - 1), 3 * 999983),  # a prime cofactor in the denominator
        F((10**6 + 3) ** 2),  # a composite cofactor with no factor below the bound
        F(PSI_12 * 5),  # composite, and no base up to 37 tells
        F(PSI_13),  # composite, and is_prime takes it
        F(int(sympy.nextprime(PSI_13))),  # prime, but past the proven range
        F(int(sympy.prevprime(PSI_13)), 11),
    ],
)
def test_prime_divisors_match_factorint_at_fixed_cases(x):
    _check_prime_divisors(x)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    digits=st.lists(st.integers(6, 14), min_size=1, max_size=2),
    seed=st.integers(0, 2**32),
    small=st.integers(1, 10**4),
    square=st.booleans(),
)
def test_prime_divisors_match_factorint_on_products(digits, seed, small, square):
    rng = random.Random(seed)
    primes = [int(sympy.nextprime(rng.randrange(10 ** (d - 1), 10**d))) for d in digits]
    n = small * primes[0] ** (1 + square)
    for p in primes[1:]:
        n *= p
    _check_prime_divisors(F(n))


def test_iter_primes_matches_primerange():
    first = list(islice(iter_primes(), 5000))
    assert first == list(sympy.primerange(2, sympy.prime(5000) + 1))


@pytest.mark.parametrize("p", [2, 3, 101, 2**61 - 1])
def test_divmod_and_gcd_lists_match_galoistools(p):
    """_divmod_list and _gcd_list on seeded reduced, trimmed, ascending lists
    of degree -1 (zero) to 9, so zero operands and a divisor of higher degree
    occur, and products with a shared factor, so that gcds are not all 1.
    Each kernel is asked only within its preconditions: a nonzero divisor, and
    a nonzero first operand of the gcd."""
    ZZ = sympy.polys.domains.ZZ
    rng = random.Random(p)

    def poly(degree):
        if degree < 0:
            return []
        return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]

    def desc(f):
        return f[::-1]

    def asc(f):
        return [int(c) for c in reversed(f)]

    for i in range(300):
        a, b = poly(rng.randint(-1, 9)), poly(rng.randint(-1, 9))
        if i % 3 == 0:
            shared = desc(poly(rng.randint(1, 3)))
            a, b = (asc(galoistools.gf_mul(desc(f), shared, p, ZZ)) for f in (a, b))
        if a:
            assert _gcd_list(a, b, p) == asc(galoistools.gf_gcd(desc(a), desc(b), p, ZZ)), (a, b)
        if b:
            q, r = galoistools.gf_div(desc(a), desc(b), p, ZZ)
            assert _divmod_list(a, b, p) == (asc(q), asc(r)), (a, b)
