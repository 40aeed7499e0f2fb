"""Mod-p factorization checked against sympy, which shares no code with
rootgain: the Frobenius patterns of PolyFacts, factor_degrees,
is_irreducible_mod_p and factor_mod_p all agree with the factor degrees of
sympy's Poly(..., modulus=p).factor_list(). The packed distinct-degree kernel
is compared block by block with sympy's gf_ddf_zassenhaus, and factor_mod_p
factor by factor with gf_factor_sqf, at primes up to 2^89 - 1, whose packed
slots are wider than 64 bits."""

import random
from fractions import Fraction as F
from functools import reduce
from operator import mul

import pytest

from rootgain.algebra import (
    PolyFacts,
    PolyFp,
    PolyQ,
    _distinct_degree,
    factor_degrees,
    factor_mod_p,
    is_irreducible_mod_p,
)
from rootgain.mestre import psl2_11_degree12_pencil, specialize

sympy = pytest.importorskip("sympy")
X = sympy.symbols("x")
gf = pytest.importorskip("sympy.polys.galoistools")
ZZ = sympy.ZZ

PRIMES = (2, 3, 5, 7, 13, 101)


def sympy_poly(f: PolyFp):
    return sympy.Poly(list(reversed(f.coeffs)), X, modulus=f.p)


def oracle_degrees(f: PolyFp) -> list[int]:
    _, factors = sympy_poly(f).factor_list()
    return sorted(g.degree() for g, m in factors for _ in range(m))


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
    for h in POLYS:
        f = PolyFp.reduce(h, p)
        if f.degree < 1:
            continue
        expected = oracle_degrees(f)
        assert factor_degrees(f) == expected, (h, p)
        assert is_irreducible_mod_p(f) == (expected == [f.degree]), (h, p)
        facts = PolyFacts(h)
        if facts.is_good(p):
            assert list(facts.pattern(p)) == expected, (h, p)


def irreducibles(p: int, d: int, count: int, rng: random.Random) -> list[PolyFp]:
    """`count` distinct monic irreducibles of degree d mod p, by sympy."""
    found: list[PolyFp] = []
    while len(found) < count:
        g = PolyFp(p, [rng.randrange(p) for _ in range(d)] + [1])
        if sympy_poly(g).is_irreducible and g not in found:
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
            f = reduce(mul, gs + extra) * lead
            expected = sorted([d] * k + [e.degree for e in extra])
            assert oracle_degrees(f) == expected
            assert factor_degrees(f) == expected
            assert list(PolyFacts(PolyQ(f.coeffs)).pattern(p)) == expected


@pytest.mark.parametrize("t0", [F(-18, 19), F(-17, 19)])
def test_degree_12_fiber_patterns_match_sympy(t0):
    h = specialize(psl2_11_degree12_pencil(), t0)
    facts = PolyFacts(h)
    for p, pattern in facts.frobenius(50):
        assert list(pattern) == oracle_degrees(PolyFp.reduce(h, p)), p


@pytest.mark.parametrize("p", PRIMES)
def test_factor_mod_p_gives_irreducibles_whose_product_is_the_input(p):
    for h in POLYS:
        f = PolyFp.reduce(h, p)
        if f.degree < 1:
            continue
        factors = factor_mod_p(f)
        for g, m in factors:
            assert g.coeffs[-1] == 1 and m >= 1
            assert sympy_poly(g).is_irreducible, (h, p, g)
        product = reduce(mul, (g for g, m in factors for _ in range(m)))
        assert product * f.coeffs[-1] == f
        assert sorted(g.degree for g, m in factors for _ in range(m)) == oracle_degrees(f)


# ---------------------------------------------------------------- the kernel

KERNEL_PRIMES = (2, 3, 5, 101, 2**31 - 1, 10**9 + 7, 2**61 - 1, 2**89 - 1)
LARGE_PRIMES = KERNEL_PRIMES[-3:]


def squarefree_monic(p: int, rng: random.Random, max_degree: int = 16) -> list[PolyFp]:
    """For each degree 1..max_degree: a random monic polynomial and a product
    of random monic factors of degree <= 4 (several blocks even at large p),
    each the first of its kind drawn that sympy finds squarefree mod p."""

    def monic(d):
        return PolyFp(p, [rng.randrange(p) for _ in range(d)] + [1])

    def product(d):
        parts = []
        while sum(parts) < d:
            parts.append(min(rng.randint(1, 4), d - sum(parts)))
        return reduce(mul, map(monic, parts))

    out = []
    for degree in range(1, max_degree + 1):
        for make in (monic, product):
            f = make(degree)
            while not gf.gf_sqf_p(list(reversed(f.coeffs)), p, ZZ):
                f = make(degree)
            out.append(f)
    return out


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_distinct_degree_matches_gf_ddf_zassenhaus(p):
    rng = random.Random(p)
    for f in squarefree_monic(p, rng):
        expected = gf.gf_ddf_zassenhaus(list(reversed(f.coeffs)), p, ZZ)
        # each block: the product's exact coefficients, and d
        assert [(list(reversed(g.coeffs)), d) for g, d in _distinct_degree(f)] == expected, f


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_factor_mod_p_and_irreducibility_at_large_primes(p):
    rng = random.Random(p + 1)
    for f in squarefree_monic(p, rng, max_degree=8):
        _, expected = gf.gf_factor_sqf(list(reversed(f.coeffs)), p, ZZ)
        got = factor_mod_p(f)
        assert sorted(list(reversed(g.coeffs)) for g, _ in got) == sorted(expected), f
        assert all(m == 1 for _, m in got)
        assert is_irreducible_mod_p(f) == (len(expected) == 1), f
    # seeded irreducibles, as sympy finds them, alone and squared
    for degree in (2, 3, 5, 8):
        g = PolyFp(p, [rng.randrange(p) for _ in range(degree)] + [1])
        while not gf.gf_irreducible_p(list(reversed(g.coeffs)), p, ZZ):
            g = PolyFp(p, [rng.randrange(p) for _ in range(degree)] + [1])
        assert is_irreducible_mod_p(g)
        assert not is_irreducible_mod_p(g * g)
        assert factor_mod_p(g * g) == [(g, 2)]
