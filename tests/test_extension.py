import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootgain.algebra import PolyFacts, PolyQ, discriminant, primes_up_to, valuation
from rootgain.ellcurve import (
    NONSPLIT_MULT,
    SPLIT_MULT,
    CurveLocalData,
    EllipticCurveData,
    LocalReductionData,
)
from rootgain.extension import (
    DecompositionPair,
    ExtensionError,
    ExtensionProfile,
    Incomputable,
    PreconditionViolated,
    RequiresDeclaredProfile,
    archimedean_place_count,
    build_profile,
    certify_irreducible,
    check_declared_profile,
    irreducibility_settled,
    klein_four_local,
    profile_at_unramified,
    profile_from_decomposition,
    quadratic_local,
    root_number_over_extension,
    root_number_ratio,
)
from rootgain.inputfmt import ParseError, parse_pencil_file
from rootgain.mestre import psl2_11_degree12_pencil, specialize
from rootgain.permgroup import (
    GroupError,
    PermGroup,
    alternating_group,
    compose,
    inverse,
    perm_from_cycles,
    symmetric_group,
)


def v4_pair(n=5):
    c = perm_from_cycles("(1,2)(3,4)", n)
    x = perm_from_cycles("(1,3)(2,4)", n)
    return DecompositionPair(n, (c, x), (c,))


def paper_bundle():
    E = EllipticCurveData.from_coeffs(0, -6, 0, 5, 0)
    return CurveLocalData.build(E, [LocalReductionData(2, "declared", 1)])


# ---------------------------------------------------------------- profiles


def test_profile_unramified_quadratic():
    assert profile_at_unramified(PolyQ([-17, 0, 1]), 5) == [(1, 2)]


def test_profile_requires_declaration_on_disc_divisor():
    # disc(X^2 - 65) = 260, so p = 2 needs a declared profile
    with pytest.raises(RequiresDeclaredProfile):
        profile_at_unramified(PolyQ([-65, 0, 1]), 2)


def test_profile_quartic_mod_7_matches_factorization():
    h = PolyQ([2304, 0, -164, 0, 1])
    prof = profile_at_unramified(h, 7)
    assert sum(f for _, f in prof) == 4
    assert all(e == 1 for e, _ in prof)


def test_check_declared_profile_tame_bound():
    h = PolyQ([0, 4, 0, -5, 0, 1]) + PolyQ([1])  # X^5-5X^3+4X+1, squarefree quintic
    ok, _ = check_declared_profile(h, 5, [(2, 1), (1, 1), (1, 1), (1, 1)])
    vd = valuation(discriminant(h), 5)
    assert ok == (vd >= 1)
    bad, why = check_declared_profile(h, 5, [(2, 1), (1, 3)])
    if bad:
        # only acceptable when the disc valuation clears the tame bound
        assert valuation(discriminant(h), 5) >= 1
    assert sum(e * f for e, f in [(2, 1), (1, 3)]) == 5


def test_check_declared_profile_wrong_degree_sum():
    h = PolyQ([-2, 0, 0, 0, 0, 1])
    ok, why = check_declared_profile(h, 3, [(2, 2)])
    assert not ok and "degree" in why


def test_declared_profile_at_a_good_prime_must_be_the_computed_one():
    h = PolyQ([-1, -1, 0, 0, 0, 1])  # X^5 - X - 1, disc 2869 = 19 * 151
    assert profile_at_unramified(h, 11) == [(1, 5)]
    ok, why = check_declared_profile(h, 11, [(1, 1), (1, 1), (1, 1), (1, 2)])
    assert not ok and why == "p=11 is good and its computed profile is [1:5]"
    assert check_declared_profile(h, 11, [(1, 5)]) == (True, "accepted")
    # h mod 7 has factor degrees 2 and 3; the declared order is free
    assert check_declared_profile(h, 7, [(1, 3), (1, 2)]) == (True, "accepted")
    assert not check_declared_profile(h, 7, [(1, 1), (1, 1), (1, 3)])[0]
    with pytest.raises(ExtensionError, match="p=3 rejected"):
        build_profile(h, declared={3: [(1, 1)] * 5})
    # at a bad prime only the tame bound is checked: v_19(disc) = 1
    assert check_declared_profile(h, 19, [(2, 1), (1, 1), (1, 1), (1, 1)])[0]
    assert check_declared_profile(h, 19, [(1, 1)] * 5)[0]


def test_build_profile_signature_and_provenance():
    h = PolyQ([-2, 0, 0, 0, 0, 1])  # X^5 - 2: one real root, two complex pairs
    prof = build_profile(h, declared=None, primes=[7, 11])
    assert prof.signature == (1, 2)
    assert archimedean_place_count(prof) == 3
    assert prof.provenance[7] == "computed_unramified"
    assert sum(f for _, f in prof.profile_at(7)) == 5


def test_archimedean_count_examples():
    assert build_profile(PolyQ([1, 0, 1])).signature == (0, 1)
    # squarefree quintic with 5 real roots
    h = PolyQ([0, 4, 0, -5, 0, 1]) - PolyQ([F(1, 100)])
    prof = build_profile(h)
    assert prof.signature == (5, 0)
    assert archimedean_place_count(prof) == 5


# ---------------------------------------------------------------- multiplicative signs
#
# At a multiplicative prime q, W(E/F) picks up (-1)^(s_q), s_q counting the
# primes of F above q where E stays split: all of them under split reduction,
# those of even residue degree under non-split reduction. The evaluator takes
# this sign from the one-node Jacobian engine; the plain loop counts.


def _multiplicative_sign(pairs, split):
    """W(E/F) times the archimedean sign, for E with bad reduction at q = 7
    only (split or not) and F with the (e, f) profile `pairs` at 7."""
    q, n = 7, sum(e * f for e, f in pairs)
    bundle = CurveLocalData((LocalReductionData(q, SPLIT_MULT if split else NONSPLIT_MULT),))
    # only the profile at q and the place count r1 + r2 = n are read
    F = ExtensionProfile(PolyQ([0] * n + [1]), (n, 0), {q: tuple(pairs)})
    return root_number_over_extension(bundle, F) * (-1) ** n


def _plain_split_sign(pairs, split):
    split_primes = 0
    for _, f in pairs:
        if split or f % 2 == 0:
            split_primes += 1
    return (-1) ** split_primes


def test_split_prime_count_trivial():
    pairs = profile_from_decomposition(DecompositionPair(5, (), ()))
    assert pairs == [(1, 1)] * 5
    assert _multiplicative_sign(pairs, split=True) == -1  # 5 split primes
    assert _multiplicative_sign(pairs, split=False) == 1  # none


def test_split_prime_count_klein_four():
    pairs = profile_from_decomposition(v4_pair())
    assert _multiplicative_sign(pairs, split=True) == 1  # 2 split primes
    # orbit {1,2,3,4} holds two inertia orbits (even), {5} holds one (odd)
    assert _multiplicative_sign(pairs, split=False) == -1


def test_profile_from_decomposition_matches_counts():
    pairs = profile_from_decomposition(v4_pair())
    assert pairs == [(1, 1), (2, 2)]
    for split in (True, False):
        assert _multiplicative_sign(pairs, split) == _plain_split_sign(pairs, split)


def test_profile_decomposition_equivalence_psl2_11():
    from rootgain.permgroup import centralizer_scan, perm_order, psl2_natural

    G = psl2_natural(11)
    c = next(g for g in G.elements if perm_order(g) == 2)
    C = centralizer_scan(G, c)
    x = next(g for g in C if perm_order(g) == 2 and g != c)
    pair = DecompositionPair(12, (c, x), (c,))
    pairs = profile_from_decomposition(pair)
    assert pairs == [(2, 2), (2, 2), (2, 2)]
    for split in (True, False):
        assert _multiplicative_sign(pairs, split) == _plain_split_sign(pairs, split) == -1


PROFILE_SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]


@pytest.mark.parametrize("split", [True, False], ids=["split", "nonsplit"])
def test_multiplicative_sign_matches_plain_split_count(split):
    # every profile of 1 to 4 primes above q, each multiset in every order: 1554
    checked = 0
    for k in range(1, 5):
        for pairs in product(PROFILE_SHAPES, repeat=k):
            assert _multiplicative_sign(pairs, split) == _plain_split_sign(pairs, split), pairs
            checked += 1
    assert checked == 1554


def test_inertia_must_be_normal():
    c = perm_from_cycles("(1,2,3)", 4)
    x = perm_from_cycles("(1,2)", 4)
    with pytest.raises(Exception):
        DecompositionPair(4, (x, c), (x,))


# ---------------------------------------------------------------- pair check oracle
#
# The check `DecompositionPair` made before it read element rows: element sets,
# normality by compose loops, and D/I cyclic iff some x in D generates D
# together with I, one closure per x.


def _closure_verdict(degree, d_gens, i_gens):
    D = PermGroup(degree, d_gens)
    dset = frozenset(D.elements)
    iset = frozenset(PermGroup(degree, i_gens).elements)
    # Dixon: a solvable subgroup of S_n has order at most 24^((n-1)/3)
    if len(dset) ** 3 > 24 ** (degree - 1):
        return "D not solvable"
    if len(iset) ** 3 > 24 ** (degree - 1):
        return "I not solvable"
    if not iset <= dset:
        return "not a subgroup"
    for g in d_gens:
        gi = inverse(g)
        if any(compose(compose(g, s), gi) not in iset for s in iset):
            return "not normal"
    if not any(
        frozenset(PermGroup(degree, list(i_gens) + [x]).elements) == dset for x in D.elements
    ):
        return "not cyclic"
    return "ok"


VERDICTS = {
    "decomposition group is not solvable": "D not solvable",
    "inertia group is not solvable": "I not solvable",
    "inertia subgroup not contained in decomposition group": "not a subgroup",
    "inertia subgroup is not normal in decomposition group": "not normal",
    "D/I is not cyclic": "not cyclic",
}


def _row_verdict(degree, d_gens, i_gens):
    try:
        DecompositionPair(degree, tuple(d_gens), tuple(i_gens))
    except GroupError as exc:
        return VERDICTS[str(exc)]
    return "ok"


def _random_pair(rng):
    """Generators of a D in S_4..S_6 moving a random set of points, and of an I
    drawn from D's elements and powers, now and then from outside D."""
    n = rng.randint(4, 6)

    def perm_on(points):
        images = list(range(n))
        shuffled = rng.sample(points, len(points))
        for a, b in zip(points, shuffled):
            images[a] = b
        return tuple(images)

    d_gens = [perm_on(rng.sample(range(n), rng.randint(2, n))) for _ in range(rng.randint(1, 2))]
    elements = PermGroup(n, d_gens).elements
    i_gens = []
    for _ in range(rng.randint(0, 2)):
        pick = rng.random()
        if pick < 0.1:
            i_gens.append(perm_on(list(range(n))))
        elif pick < 0.4:
            g = rng.choice(d_gens)
            i_gens.append(compose(g, g))
        elif pick < 0.6 and len(d_gens) == 2:
            a, b = d_gens
            i_gens.append(compose(compose(a, b), compose(inverse(a), inverse(b))))
        else:
            i_gens.append(rng.choice(elements))
    return n, d_gens, i_gens


def test_pair_check_matches_closure_oracle_on_random_pairs():
    rng = random.Random(16)
    seen = set()
    for _ in range(600):
        n, d_gens, i_gens = _random_pair(rng)
        verdict = _closure_verdict(n, d_gens, i_gens)
        assert _row_verdict(n, d_gens, i_gens) == verdict, (n, d_gens, i_gens)
        seen.add(verdict)
    assert seen == {"ok", *VERDICTS.values()}


def _transposition(n, i):
    return tuple(2 * i + 1 - j % 2 if j // 2 == i else j for j in range(n))


def test_pair_check_accepts_groups_past_the_base_index():
    # 12 disjoint transpositions on 24 points: a base of 12 points, so the
    # dense index would need 24^12 codes; D/I is cyclic of order 2
    d_gens = [_transposition(24, i) for i in range(12)]
    with pytest.raises(GroupError):
        PermGroup(24, d_gens).base_index
    assert _row_verdict(24, d_gens, d_gens[:11]) == "ok"
    assert _closure_verdict(24, d_gens, d_gens[:11]) == "ok"
    # S_9 with I trivial: too large for the index, and past Dixon's bound
    with pytest.raises(GroupError):
        symmetric_group(9).base_index
    assert _row_verdict(9, symmetric_group(9).generators, []) == "D not solvable"


def test_pair_check_refuses_groups_past_dixons_bound():
    # A5 is normal in S5 with cyclic quotient, but |S5|^3 = 1728000 > 24^4
    S5, A5 = symmetric_group(5).generators, alternating_group(5).generators
    assert _closure_verdict(5, S5, A5) == _row_verdict(5, S5, A5) == "D not solvable"
    assert _row_verdict(5, (), S5) == "I not solvable"
    # |S4|^3 = 24^3 meets the bound, and (S4, A4) is a pair
    S4, A4 = symmetric_group(4).generators, alternating_group(4).generators
    assert _closure_verdict(4, S4, A4) == _row_verdict(4, S4, A4) == "ok"


def test_s8_branch_record_is_rejected_at_its_line():
    text = (
        "form: general\ndegree: 8\ncoeff: k=0 num=1\ncoeff: k=8 num=1\n"
        "branch: location=inf e=2 degree=8 D=(1,2,3,4,5,6,7,8);(1,2)\n"
    )
    with pytest.raises(ParseError) as info:
        parse_pencil_file(text)
    assert info.value.lineno == 5
    assert str(info.value) == "line 5: decomposition group is not solvable"


def test_split_count_monotone_and_bounded():
    from rootgain.permgroup import centralizer_scan, orbit_count, perm_order, psl2_natural

    pairs = [DecompositionPair(5, (), ()), v4_pair()]
    G = psl2_natural(11)
    c = next(g for g in G.elements if perm_order(g) == 2)
    x = next(
        g for g in centralizer_scan(G, c) if perm_order(g) == 2 and g != c
    )
    pairs.append(DecompositionPair(12, (c, x), (c,)))
    pairs.append(DecompositionPair(12, (c,), (c,)))
    for pair in pairs:
        profile = profile_from_decomposition(pair)
        # split reduction keeps every prime above q, one per D-orbit, split;
        # non-split reduction keeps at most those
        orbits = orbit_count(pair.decomposition_gens, pair.degree)
        assert len(profile) == orbits
        assert _multiplicative_sign(profile, split=True) == (-1) ** orbits
        even = sum(1 for _, f in profile if f % 2 == 0)
        assert even <= orbits
        assert _multiplicative_sign(profile, split=False) == (-1) ** even


# ---------------------------------------------------------------- W(E/F)


def k1_profile():
    """The worked quintic field: 2 splits completely, two primes above 5,
    signature (5, 0); built over an admissible specialization of the
    Klein-four-seeded quintic pencil."""
    from rootgain.mestre import mestre_form_pencil, specialize

    f = PolyQ([0, 2304, 0, -164, 0, 1])
    g = PolyQ([F(2975047936, 16670889), 0, F(-559076, 12249), 0, 1])
    h = specialize(mestre_form_pencil(f, g), F(160000, 177147))
    return build_profile(
        h,
        declared={2: [(1, 1)] * 5, 5: [(2, 2), (1, 1)]},
    )


def test_root_number_trivial_extension():
    bundle = paper_bundle()
    triv = build_profile(PolyQ([-1, 1]), declared={2: [(1, 1)], 5: [(1, 1)]})
    assert root_number_over_extension(bundle, triv) == 1  # = W(E/Q)


def test_root_number_paper_worked_example():
    bundle = paper_bundle()
    prof = k1_profile()
    assert prof.signature == (5, 0)
    assert root_number_over_extension(bundle, prof) == -1


def test_root_number_nonsplit_all_odd_degrees():
    E = EllipticCurveData.from_coeffs(0, -3, 0, -3, 0)  # nonsplit at 7
    bundle = CurveLocalData.build(
        E,
        [
            LocalReductionData(2, "declared", 1),
            LocalReductionData(3, "declared", 1),
        ],
    )
    assert bundle.reduction_at(7).type == "nonsplit_mult"
    h = PolyQ([-2, 0, 0, 1])  # X^3 - 2: signature (1,1)
    prof = build_profile(
        h, declared={2: [(1, 1)] * 3, 3: [(1, 1)] * 3, 7: [(1, 3)]}
    )
    # all residue degrees above 7 odd: contribution +1; u = 2; W = (+1)(+1)(+1)
    assert root_number_over_extension(bundle, prof) == 1


def test_root_number_incomputable_names_prime():
    E = EllipticCurveData.from_coeffs(0, -6, 0, 5, 0)
    bundle = CurveLocalData.build(E)  # nothing declared at 2
    prof = k1_profile()
    with pytest.raises(Incomputable) as err:
        root_number_over_extension(bundle, prof)
    assert err.value.prime == 2


# ---------------------------------------------------------------- ratios


def test_ratio_equal_profiles_is_plus_one():
    bundle = paper_bundle()
    prof = k1_profile()
    assert root_number_ratio(bundle, prof, prof, 5) == 1


def test_ratio_a5_case():
    bundle = paper_bundle()
    prof1 = k1_profile()
    # the reference side: 5 split completely, same signature and 2-profile
    from rootgain.mestre import mestre_form_pencil, specialize

    f2 = PolyQ([0, 4, 0, -5, 0, 1])
    g2 = PolyQ([F(21316, 21025), 0, F(-73, 29), 0, 1])
    h2 = specialize(mestre_form_pencil(f2, g2), F(160000, 177147))
    prof2 = build_profile(h2, declared={2: [(1, 1)] * 5}, primes=[5])
    assert prof2.profile_at(5) == ((1, 1),) * 5
    assert root_number_ratio(bundle, prof1, prof2, 5) == -1


def test_ratio_rejects_mismatched_other_primes():
    bundle = paper_bundle()
    prof1 = k1_profile()
    h = prof1.poly
    prof_bad = build_profile(h, declared={2: [(1, 1), (2, 2)], 5: [(2, 2), (1, 1)]})
    with pytest.raises(PreconditionViolated):
        root_number_ratio(bundle, prof1, prof_bad, 5)


# ---------------------------------------------------------------- quadratic fields


def test_quadratic_local_examples():
    assert quadratic_local(65, 5) == "ramified"
    assert quadratic_local(17, 5) == "inert"
    assert quadratic_local(65, 2) == "split"
    assert quadratic_local(17, 2) == "split"
    assert quadratic_local(1105, 2) == "split"
    assert quadratic_local(-1, 3) == "inert"
    assert quadratic_local(5, 11) == "split"


def test_quadratic_local_matches_dedekind_kummer():
    # p ramifies iff it divides the field discriminant D; otherwise it splits
    # iff the minimal polynomial of the integral generator has a root mod p:
    # X^2 - X - (d-1)/4 when d = 1 mod 4 (D = d), X^2 - d otherwise (D = 4d)
    for d in (-15, -7, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 11, 13, 17, 21, 65):
        disc, b, c = (d, -1, -(d - 1) // 4) if d % 4 == 1 else (4 * d, 0, -d)
        for p in primes_up_to(60):
            if disc % p == 0:
                expected = "ramified"
            elif any((x * x + b * x + c) % p == 0 for x in range(p)):
                expected = "split"
            else:
                expected = "inert"
            assert quadratic_local(d, p) == expected, (d, p)


def test_quadratic_local_rejects_nonsquarefree():
    for d in (12, 9, 4, -4, 18, 75, 0, 1):
        with pytest.raises(ExtensionError):
            quadratic_local(d, 5)


def test_klein_four_local_seed_field():
    at5 = klein_four_local(65, 17, 5)
    assert (at5.e, at5.f, at5.g) == (2, 2, 1)
    assert at5.decomposition_order == 4 and at5.inertia_order == 2
    at2 = klein_four_local(65, 17, 2)
    assert (at2.e, at2.f, at2.g) == (1, 1, 4)
    # (65/47) = (17/47) = 1: 47 splits in all three quadratic subfields
    at47 = klein_four_local(65, 17, 47)
    assert at47.subfield_behavior == ("split", "split", "split")
    assert (at47.e, at47.f, at47.g) == (1, 1, 4)
    assert at47.decomposition_order == 1 and at47.inertia_order == 1
    # (65/7) = 1, (17/7) = -1: the residue degree is 2
    at7 = klein_four_local(65, 17, 7)
    assert at7.subfield_behavior == ("split", "inert", "inert")
    assert (at7.e, at7.f, at7.g) == (1, 2, 2)
    # Q(sqrt(6), sqrt(10)): the third subfield is Q(sqrt(15)), squarefree part
    # of 60; at 5, 6 splits and 10 and 15 ramify; at 11, 15 splits where 6,
    # 10 (and 30) stay inert
    at5 = klein_four_local(6, 10, 5)
    assert at5.subfield_behavior == ("split", "ramified", "ramified")
    assert (at5.e, at5.f, at5.g) == (2, 1, 2)
    at11 = klein_four_local(6, 10, 11)
    assert at11.subfield_behavior == ("inert", "inert", "split")
    assert (at11.e, at11.f, at11.g) == (1, 2, 2)


# ---------------------------------------------------------------- irreducibility


def test_certify_irreducible_quintic():
    cert = certify_irreducible(PolyQ([-2, 0, 0, 0, 0, 1]))
    assert cert.status == "irreducible_mod_p"


def test_certify_reducible_stays_unverified():
    h = PolyQ([-1, 0, 1])  # (X-1)(X+1)
    cert = certify_irreducible(h)
    assert (cert.status, cert.witness_prime) == ("unverified", None)


def certified(h):
    return certify_irreducible(h).status != "unverified"


@st.composite
def monic_products(draw):
    """A monic integer polynomial of degree 1..12, or the product of two."""
    degree = draw(st.integers(1, 12))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=degree, max_size=degree))
    h = PolyQ(coeffs + [1])
    if degree < 12 and draw(st.booleans()):
        other = draw(st.integers(1, 12 - degree))
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=other, max_size=other))
        h = h * PolyQ(coeffs + [1])
    return h


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(monic_products())
# PSL2(11) fibers have no irreducible reduction: certified by incompatible patterns
@example(specialize(psl2_11_degree12_pencil(), F(-1)))
@example(specialize(psl2_11_degree12_pencil(), F(-18, 19)))
@example(PolyQ([6, -5, 0, 0, 0, 1]))
def test_irreducibility_settled_is_the_certified_bit(h):
    if discriminant(h) == 0:
        for check in (certify_irreducible, irreducibility_settled):
            with pytest.raises(ExtensionError):
                check(h)
        return
    assert irreducibility_settled(h) == certified(h)


def test_irreducibility_settles_before_the_witness_prime():
    # X^5 - 5X + 6: the patterns (1,2,2) at 3, (1,4) at 7 and (2,3) at 11 leave
    # no split size, while the first irreducible reduction is at 23. The bit
    # reads the first block, the first 8 good primes above the degree, and
    # never the good prime 3 at or below it
    facts = PolyFacts(PolyQ([6, -5, 0, 0, 0, 1]))
    assert irreducibility_settled(facts)
    assert sorted(facts._patterns) == [7, 11, 17, 19, 23, 29, 31, 37]
    cert = certify_irreducible(facts)
    assert (cert.status, cert.witness_prime) == ("irreducible_mod_p", 23)


def test_certificate_reads_the_blocks_up_to_its_witness():
    # the certificate reads the blocks of the bit, so it caches the first
    # block 7..37, which holds its witness 23, and the good prime 3 at or
    # below the degree (2 and 5 divide the discriminant), and no further
    facts = PolyFacts(PolyQ([6, -5, 0, 0, 0, 1]))
    cert = certify_irreducible(facts)
    assert (cert.status, cert.witness_prime) == ("irreducible_mod_p", 23)
    assert sorted(facts._patterns) == [3, 7, 11, 17, 19, 23, 29, 31, 37]
    assert facts.blocks(facts.good_primes(9)) == [[7, 11, 17, 19, 23, 29, 31, 37], [3]]
    assert facts.patterns([3, 7, 11]) == [(1, 2, 2), (1, 4), (2, 3)]


def test_certificate_witness_at_or_below_the_degree_beats_the_first_block():
    # X^5 - X - 1 is irreducible mod 3 and 5, at or below the degree, and mod
    # 11 and 13 in the first block; the primes at or below the degree are
    # read after that block, and the least witness is named
    facts = PolyFacts(PolyQ([-1, -1, 0, 0, 0, 1]))
    cert = certify_irreducible(facts)
    assert (cert.status, cert.witness_prime) == ("irreducible_mod_p", 3)
    assert sorted(facts._patterns) == [2, 3, 5, 7, 11, 13, 17, 23, 29, 31, 37]
    assert facts.patterns([2, 3, 5, 7, 11, 13]) == [(2, 3), (5,), (5,), (2, 3), (5,), (5,)]


def seeded_polys(count=60):
    """Seeded polynomials of degree 2-12 with rational coefficients and
    leading coefficients other than 1; every third one a product of two
    factors, so reducible. Only nonzero discriminants are kept."""
    rng = random.Random(3012)

    def part(degree):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
        return PolyQ(coeffs + [F(rng.randint(1, 5), rng.randint(1, 3))])

    out = []
    while len(out) < count:
        degree = rng.randint(2, 12)
        if len(out) % 3 == 0:
            a = rng.randint(1, degree - 1)
            h = part(a) * part(degree - a)
        else:
            h = part(degree)
        if discriminant(h) != 0:
            out.append(h)
    return out


@pytest.mark.parametrize("h", seeded_polys())
def test_irreducibility_settled_is_the_certified_bit_on_seeded_polynomials(h):
    assert irreducibility_settled(h) == certified(h)


@pytest.mark.parametrize("a", range(1, 37))
def test_irreducibility_settled_is_the_certified_bit_on_psl2_11_fibers(a):
    h = specialize(psl2_11_degree12_pencil(), F(a, 19))
    facts = PolyFacts(h)
    assert irreducibility_settled(facts)
    assert certify_irreducible(h).status == "pattern_incompatible"


def test_irreducibility_settled_by_a_prime_at_or_below_the_degree():
    # X^2 - X + (1 - d)/4 has disc d, with d = 1 mod every odd prime up to 300
    # and d = 5 mod 8: every odd prime up to 300 is good and splits, so the
    # blocks of primes above the degree leave the split 1 + 1, and only the
    # good prime 2, where the reduction is X^2 + X + 1, settles the bit
    odd = 1
    for p in range(3, 300, 2):
        if all(p % q for q in range(3, p, 2)):
            odd *= p
    d = 1 + odd * (4 * pow(odd, -1, 8) % 8)
    assert d % 8 == 5 and all(d % p == 1 for p in (3, 5, 229, 293))
    facts = PolyFacts(PolyQ([F(1 - d, 4), -1, 1]))
    assert facts.disc == d
    assert irreducibility_settled(facts)
    primes = facts.good_primes(50)
    assert sorted(facts._patterns) == primes and primes[0] == 2 and primes[-1] == 229
    assert all(facts._patterns[p] == (1, 1) for p in primes[1:])
    cert = certify_irreducible(facts)
    assert (cert.status, cert.witness_prime) == ("irreducible_mod_p", 2)


# ---------------------------------------------------------------- cross-module


def test_unramified_profile_degrees_sum_to_n():
    import random

    from rootgain.algebra import discriminant, valuation

    rng = random.Random(2718)
    checked = 0
    while checked < 60:
        deg = rng.randint(2, 7)
        h = PolyQ([rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 5)])
        if h.degree != deg or not h.is_separable():
            continue
        p = rng.choice([5, 7, 11, 13, 17])
        if valuation(discriminant(h), p) != 0 or valuation(h.leading(), p) != 0:
            continue
        checked += 1
        prof = profile_at_unramified(h, p)
        assert sum(f for _, f in prof) == deg
        assert all(e == 1 for e, _ in prof)


def test_trivial_extension_matches_semistable_global_root():
    """n = 1 evaluation agrees with the semistable parity formula."""
    import random

    from rootgain.algebra import valuation
    from rootgain.ellcurve import global_root_semistable

    rng = random.Random(65537)
    checked = 0
    attempts = 0
    while checked < 50:
        attempts += 1
        assert attempts < 20000
        # a1, a3 vary over {0, 1} so that odd discriminants actually occur
        a1, a3 = rng.randint(0, 1), rng.randint(0, 1)
        a2, a4, a6 = (rng.randint(-9, 9) for _ in range(3))
        try:
            E = EllipticCurveData.from_coeffs(a1, a2, a3, a4, a6)
        except Exception:
            continue
        if valuation(E.disc, 2) != 0 or valuation(E.disc, 3) != 0:
            continue
        bundle = CurveLocalData.build(E)
        if any(L.type == "additive" for L in bundle.local):
            continue
        checked += 1
        declared = {L.prime: [(1, 1)] for L in bundle.local}
        triv = build_profile(PolyQ([-1, 1]), declared=declared)
        assert root_number_over_extension(bundle, triv) == global_root_semistable(
            list(bundle.local)
        )
