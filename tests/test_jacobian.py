import random

import pytest

from rootgain.algebra import (
    PolyQ,
    legendre,
    primes_up_to,
    valuation,
)
from rootgain.jacobian import (
    JacobianError,
    NodePrimeRecord,
    StableModelData,
    alternating_profiles,
    find_node_primes,
    hyperelliptic_rank_gain_report,
    local_root_number_bks,
    orbit_simulation_root_number,
    root_number_after_extension,
    tau_sign,
)


def model(orbits):
    return StableModelData(orbit_list=tuple(orbits))


# ---------------------------------------------------------------- node primes


def reduce_mod(f: PolyQ, p):
    """f mod p as a reduced, trimmed, ascending int list (denominators prime
    to p)."""
    out = [c.numerator * pow(c.denominator, -1, p) % p for c in f.coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def factor_list_mod_p(cs, p):
    """[(g, m)]: the monic irreducible factors over F_p of the ascending int
    list cs, each a reduced ascending tuple, with their multiplicities, by
    sympy."""
    sympy = pytest.importorskip("sympy")
    _, factors = sympy.Poly(cs[::-1], sympy.Symbol("x"), modulus=p).factor_list()
    return [(tuple(int(c) % p for c in g.all_coeffs()[::-1]), m) for g, m in factors]


def node_pattern_oracle(f, p):
    """Directly factor f mod p and test for exactly one double linear factor
    with everything else simple and away from the node."""
    fp = reduce_mod(f, p)
    if len(fp) - 1 != f.degree:
        return None
    fac = factor_list_mod_p(fp, p)
    doubles = [(g, m) for g, m in fac if m == 2 and len(g) == 2]
    if len(doubles) != 1:
        return None
    if any(m != 1 for g, m in fac if (g, m) != doubles[0]):
        return None
    g, _ = doubles[0]
    a = (-g[0]) % p
    rest = [h for h, m in fac if h != g]
    if any(sum(c * a**i for i, c in enumerate(h)) % p == 0 for h in rest):
        return None
    # cofactor separable: distinct irreducible factors, all multiplicity one
    if len(set(rest)) != len(rest):
        return None
    return a


def test_find_node_primes_against_factorization_oracle():
    # X^5 - X has disc 2^8, so no node prime; X^5 + X + 1 has three below 50
    for f, count in ((PolyQ([0, -1, 0, 0, 0, 1]), 0), (PolyQ([1, 1, 0, 0, 0, 1]), 3)):
        found = {rec.prime: rec.node for rec in find_node_primes(f, 50)}
        expected = {}
        for p in primes_up_to(50):
            if p == 2:
                continue
            a = node_pattern_oracle(f, p)
            if a is not None:
                expected[p] = a
        assert found == expected
        assert len(found) == count


def test_find_node_primes_simple_disc_root():
    # f = X^5 + X + 1: disc = 3381 = 3 * 7^2 * 23, so 3 and 23 are simple
    f = PolyQ([1, 1, 0, 0, 0, 1])
    recs = find_node_primes(f, 200)
    assert {r.prime for r in recs} == {3, 7, 23}
    for r in recs:
        assert len(r.cofactor) - 1 == f.degree - 2


def test_triple_root_prime_excluded():
    # X^5 + X^2 has a triple root at 0 mod any p; use a separable shift with a
    # planted triple root mod 7: (X-1)^3 * (X^2+X+3) mod 7
    lift = (PolyQ([-1, 1]) ** 3) * PolyQ([3, 1, 1]) + PolyQ([7])
    assert lift.is_separable()
    recs = find_node_primes(lift, 7)
    assert all(r.prime != 7 for r in recs)


def node_primes_full_check(f, bound):
    """find_node_primes with every check spelled out in sympy's galoistools
    (descending lists): divide by X - a twice, then require a cofactor that is
    nonzero at a and separable."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy import ZZ

    def gcd_with_derivative(g, p):
        return gt.gf_gcd(g, gt.gf_diff(g, p, ZZ), p, ZZ)

    out = []
    for p in primes_up_to(bound):
        if p == 2 or valuation(f.leading(), p) != 0:
            continue
        fp = reduce_mod(f, p)[::-1]
        g = gcd_with_derivative(fp, p)
        if len(g) != 2:
            continue
        a = -g[1] % p
        lin = [1, -a % p]
        q1, r1 = gt.gf_div(fp, lin, p, ZZ)
        q2, r2 = gt.gf_div(q1, lin, p, ZZ)
        if not r1 and not r2 and gt.gf_eval(q2, a, p, ZZ) and len(gcd_with_derivative(q2, p)) == 1:
            out.append((p, a, tuple(int(c) for c in reversed(q2))))
    return out


def test_find_node_primes_matches_the_full_check():
    # a linear gcd(f, f') at an odd prime already forces the node shape; the
    # planted cases have a root of multiplicity 3 mod 7, and mod 3 (where the
    # derivative keeps all three factors)
    rng = random.Random(20261018)
    polys = [
        (PolyQ([-1, 1]) ** 3) * PolyQ([3, 1, 1]) + PolyQ([7]),
        (PolyQ([-1, 1]) ** 3) * PolyQ([2, 1, 1]) + PolyQ([3]),
    ]
    while len(polys) < 1000:
        degree = rng.randint(5, 8)
        f = PolyQ([rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((1, 1, 2, 3, -1))])
        if f.is_separable():
            polys.append(f)
    nodes = 0
    for f in polys:
        got = [(r.prime, r.node, r.cofactor) for r in find_node_primes(f, 60)]
        assert got == node_primes_full_check(f, 60), f
        nodes += len(got)
    assert nodes > 500


def test_inseparable_rejected():
    with pytest.raises(JacobianError):
        find_node_primes(PolyQ([0, 0, 1, 2, 1]) * PolyQ([0, 1]), 50)


# ---------------------------------------------------------------- tau


def test_tau_examples():
    rec = NodePrimeRecord(7, 0, (1, 0, 0, 1))
    assert rec.cofactor[0] == 1  # the value at the node 0
    assert tau_sign(rec) == 1
    rec2 = NodePrimeRecord(7, 0, (3, 0, 0, 1))
    assert tau_sign(rec2) == -1  # 3 is a non-residue mod 7


@pytest.mark.parametrize(
    "prime, node, cofactor",
    [
        (7, 0, (0, 1)),  # X at 0
        (7, 2, (5, 1)),  # X + 5 at 2: 7
        (11, 3, (2, 0, 1)),  # X^2 + 2 at 3: 11
        (5, 1, ()),  # the zero polynomial
    ],
)
def test_record_refuses_a_cofactor_vanishing_at_the_node(prime, node, cofactor):
    # so tau_sign only ever reads a unit mod p
    with pytest.raises(JacobianError, match="vanishes at the node"):
        NodePrimeRecord(prime, node, cofactor)


def test_tau_against_quadratic_splitting_oracle():
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy import ZZ

    rng = random.Random(1234)
    count = 0
    while count < 500:
        p = rng.choice([3, 5, 7, 11, 13, 17])
        a = rng.randrange(p)
        coeffs = [rng.randrange(p) for _ in range(3)] + [1]
        value = int(gt.gf_eval(coeffs[::-1], a, p, ZZ))  # the cofactor at a
        if value == 0:
            continue
        count += 1
        rec = NodePrimeRecord(p, a, tuple(coeffs))
        # oracle: Y^2 - value splits into linears iff value is a square
        split = all(len(g) == 2 for g, _ in factor_list_mod_p([-value % p, 0, 1], p))
        assert (tau_sign(rec) == 1) == split


# ---------------------------------------------------------------- base formula


def test_bks_direct_cases():
    assert local_root_number_bks(model([(1, -1)])) == 1
    assert local_root_number_bks(model([(1, 1)])) == -1
    assert local_root_number_bks(model([])) == 1  # smooth degenerate encoding


def test_bks_multi_orbit():
    assert local_root_number_bks(model([(1, 1), (2, -1)])) == (-1) ** (2 + 1 + 1) * -1


# ---------------------------------------------------------------- extension engine


def test_trivial_extension_matches_base():
    for orbits in ([(1, 1)], [(1, -1)], [(2, -1), (3, 1)], []):
        M = model(orbits)
        assert root_number_after_extension(M, [1]) == local_root_number_bks(M)


def test_case_b_flip_example():
    M = model([(1, -1)])  # ground sign tau = -1, omega = +1, base W = +1
    assert local_root_number_bks(M) == 1
    assert root_number_after_extension(M, [2]) == -1


def test_engine_matches_simulation_exhaustively():
    mismatches = []
    for tau in (1, -1):
        for dz in range(1, 13):
            for d in range(1, 13):
                M = model([(dz, tau)])
                e = root_number_after_extension(M, [d])
                o = orbit_simulation_root_number(M, [d])
                if e != o:
                    mismatches.append((tau, dz, d, e, o))
    assert mismatches == []


def test_case_a_biconditional_literal():
    # ground sign -tau = -1 means tau = +1: the orbit part of W_q equals +1
    # exactly when d and d(z) are both even
    for dz in range(1, 13):
        for d in range(1, 13):
            M = model([(dz, 1)])
            omega_q = orbit_simulation_root_number(M, [d])  # s = 1: W_q = omega_q
            assert (omega_q == 1) == (d % 2 == 0 and dz % 2 == 0)


def test_multiplicativity_over_degree_lists():
    rng = random.Random(77)
    for _ in range(100):
        orbits = [
            (rng.randint(1, 6), rng.choice([1, -1])) for _ in range(rng.randint(1, 3))
        ]
        M = model(orbits)
        d1 = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        d2 = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        assert root_number_after_extension(M, d1 + d2) == root_number_after_extension(
            M, d1
        ) * root_number_after_extension(M, d2)


def test_empty_degree_list_rejected():
    with pytest.raises(JacobianError):
        root_number_after_extension(model([(1, 1)]), [])


@pytest.mark.parametrize("degrees", [[0], [2, 0], [-1]])
def test_residue_degree_below_one_rejected(degrees):
    with pytest.raises(JacobianError):
        root_number_after_extension(model([(1, 1)]), degrees)


# ---------------------------------------------------------------- reports


def test_profiles_shape():
    assert alternating_profiles(4) == ([2], [1, 1, 1, 1])
    assert alternating_profiles(5) == ([2, 1], [1] * 5)


def test_report_flips_always():
    f = PolyQ([1, 1, 0, 0, 0, 1])
    rows = hyperelliptic_rank_gain_report(f, 5, 200)
    assert rows
    for row in rows:
        assert row.verdict == "flip"
        assert row.profile_a_w == -row.profile_b_w


def test_report_verdict_independent_of_degree():
    f = PolyQ([1, 1, 0, 0, 0, 1])
    r4 = hyperelliptic_rank_gain_report(f, 4, 200)
    r6 = hyperelliptic_rank_gain_report(f, 6, 200)
    assert [(row.prime, row.verdict) for row in r4] == [
        (row.prime, row.verdict) for row in r6
    ]


def test_random_quintics_sextics_flip():
    rng = random.Random(20240640)
    found = 0
    tried = 0
    while found < 20 and tried < 500:
        tried += 1
        deg = rng.choice([5, 6])
        coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [1]
        f = PolyQ(coeffs)
        if not f.is_separable():
            continue
        rows = hyperelliptic_rank_gain_report(f, 5, 100)
        if not rows:
            continue
        found += 1
        for row in rows:
            assert row.profile_a_w == -row.profile_b_w
    assert found == 20
