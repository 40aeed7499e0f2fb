"""Mod-p factorization checked against sympy, which shares no code with
rootgain: the Frobenius patterns of PolyFacts, factor_degrees,
is_irreducible_mod_p and factor_mod_p all agree with the factor degrees of
sympy's Poly(..., modulus=p).factor_list()."""

import random
from fractions import Fraction as F
from functools import reduce
from operator import mul

import pytest

from rootgain.algebra import (
    PolyFacts,
    PolyFp,
    PolyQ,
    factor_degrees,
    factor_mod_p,
    is_irreducible_mod_p,
)
from rootgain.mestre import psl2_11_degree12_pencil, specialize

sympy = pytest.importorskip("sympy")
X = sympy.symbols("x")

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

