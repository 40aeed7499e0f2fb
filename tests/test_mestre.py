import random
from fractions import Fraction as F
from functools import reduce
from itertools import islice
from math import factorial, gcd
from operator import and_

import pytest

from rootgain.algebra import NotASquare, PolyQ, discriminant, rational_sqrt, valuation
from rootgain.ellcurve import CurveLocalData, EllipticCurveData, LocalReductionData
from rootgain.extension import (
    DecompositionPair,
    certify_irreducible,
    profile_from_decomposition,
    root_number_over_extension,
)
from rootgain.extension import _split_sizes, _subset_sums
from rootgain.inputfmt import parse_pencil_file
from rootgain.mestre import (
    CONDITIONAL_TOKEN,
    CONGRUENT_TO,
    UNRAMIFIED_AT,
    VALUATION_EQUALS,
    BranchPoint,
    MestreError,
    PrimeCondition,
    SearchConstraints,
    SpecializationError,
    an_certificate,
    distinctness_fingerprint,
    enumerate_t0,
    find_reference_specialization,
    mestre_form_pencil,
    mestre_solve_odd_quintic,
    mestre_verify,
    psl2_11_degree12_pencil,
    search_rank_gain,
    specialize,
)
from rootgain.mestre import _certified_fiber, _satisfies_exact
from rootgain.permgroup import centralizer_scan, perm_from_cycles, perm_order, psl2_natural

F1 = PolyQ([0, 2304, 0, -164, 0, 1])  # X(X^4 - 164X^2 + 2304)
G1 = PolyQ([F(2975047936, 16670889), 0, F(-559076, 12249), 0, 1])
F2 = PolyQ([0, 4, 0, -5, 0, 1])  # X(X^2-1)(X^2-4)
G2 = PolyQ([F(21316, 21025), 0, F(-73, 29), 0, 1])


# ---------------------------------------------------------------- identities


def test_verify_first_quartet():
    r = mestre_verify(F1, G1)
    assert r.degree == 4
    assert r * r == F1.derivative() * G1 - G1.derivative() * F1


def test_verify_second_quartet():
    r = mestre_verify(F2, G2)
    assert r * r == F2.derivative() * G2 - G2.derivative() * F2


def test_verify_non_square():
    # f = X^5, g = 1: f'g - g'f = 5X^4, not a square over Q
    with pytest.raises(MestreError):
        mestre_verify(PolyQ([0, 0, 0, 0, 0, 1]), PolyQ([1]))  # inseparable f
    with pytest.raises(NotASquare):
        mestre_verify(PolyQ([0, 4, 0, 0, 0, 5]), PolyQ([1]))


def test_solver_recovers_both_printed_quartics():
    sols1 = mestre_solve_odd_quintic(F1)
    assert any(g == G1 for g, _ in sols1)
    sols2 = mestre_solve_odd_quintic(F2)
    assert any(g == G2 for g, _ in sols2)


def test_solver_identities_hold_memberwise():
    for f in (F1, F2, PolyQ([0, -1, 0, 0, 0, 1])):
        for g, r in mestre_solve_odd_quintic(f):
            assert f.derivative() * g - g.derivative() * f == r * r
            assert r.leading() > 0


def _groebner_solutions(f: PolyQ) -> list[tuple[F, F]]:
    """Every rational (B, C) with f'g - g'f = lc (X^4 + uX^2 + v)^2 for
    g = X^4 + BX^2 + C, from a lex Groebner basis in sympy."""
    sp = pytest.importorskip("sympy")
    X, B, C, u, v = sp.symbols("X B C u v")
    q = [sp.Rational(c.numerator, c.denominator) for c in f.coeffs]
    fx = sum(c * X**i for i, c in enumerate(q))
    g = X**4 + B * X**2 + C
    diff = sp.diff(fx, X) * g - sp.diff(g, X) * fx - q[-1] * (X**4 + u * X**2 + v) ** 2
    basis = sp.groebner(sp.Poly(sp.expand(diff), X).coeffs(), u, v, C, B, order="lex")
    sols = sp.solve(list(basis), [u, v, C, B], dict=True)
    return sorted(
        (F(int(s[B].p), int(s[B].q)), F(int(s[C].p), int(s[C].q)))
        for s in sols
        if s[B].is_rational and s[C].is_rational
    )


def _seeded_square_lc_quintics(count: int, seed: int) -> list[PolyQ]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lc = rng.choice([1, 4, F(9, 4), 25])
        if rng.random() < 0.5:  # roots 0, +-s, +-t
            s, t = rng.randint(1, 12), rng.randint(1, 12)
            a, b = -(s * s + t * t), s * s * t * t
        else:
            a, b = rng.randint(-60, 60), rng.randint(-400, 400)
        f = PolyQ([0, b, 0, a, 0, 1]) * lc
        if b and f.is_separable():
            out.append(f)
    return out


@pytest.mark.parametrize(
    "f",
    [F1, F2, F1 * 9, *_seeded_square_lc_quintics(6, seed=7)],
    ids=lambda f: ",".join(map(str, f.coeffs[::-2])),
)
def test_solver_matches_groebner_oracle(f):
    got = [(g[2], g[0]) for g, _ in mestre_solve_odd_quintic(f)]
    assert got == _groebner_solutions(f)


@pytest.mark.parametrize("lc", [2, -1, F(3, 4), -4])
def test_solver_non_square_leading_coefficient_is_empty(lc):
    for f in (F1, F2, *_seeded_square_lc_quintics(4, seed=11)):
        assert mestre_solve_odd_quintic(f * lc) == []


def test_solver_rejects_bad_shapes():
    with pytest.raises(MestreError):
        mestre_solve_odd_quintic(PolyQ([1, 0, 0, 0, 0, 1]))  # not odd
    with pytest.raises(MestreError):
        mestre_solve_odd_quintic(PolyQ([0, 1, 0, 1]))  # not degree 5


# ---------------------------------------------------------------- pencils


def test_specialize_at_zero_returns_seed():
    P = mestre_form_pencil(F1, G1)
    assert specialize(P, 0) == F1.primitive_integral()


def test_specialize_psl2_11_at_one():
    P = psl2_11_degree12_pencil()
    h = specialize(P, 1)
    assert h.degree == 12
    # s(1) = 62208 / 12 = 5184 feeds the family; the cleared fiber is integral
    assert all(c.denominator == 1 for c in h.coeffs)


def test_psl2_11_pencil_involutions_match_the_group():
    # the pencil writes the pair as literals; derive it from PSL2(11): the first
    # involution in element order and the first other involution commuting with it
    G = psl2_natural(11)
    c = next(g for g in G.elements if perm_order(g) == 2)
    x = next(g for g in centralizer_scan(G, c) if perm_order(g) == 2 and g != c)
    bp = psl2_11_degree12_pencil().branch_points[0]
    assert bp.pair.decomposition_gens == (c, x)
    assert bp.pair.inertia_gens == (c,)


def test_psl2_11_pencil_is_built_once_and_left_unchanged():
    pencil = psl2_11_degree12_pencil()
    assert psl2_11_degree12_pencil() is pencil
    assert parse_pencil_file("family: psl2-11-degree12\n") is pencil
    cons = SearchConstraints((PrimeCondition(19, VALUATION_EQUALS, -1),), 40, (2, 3, 5, 7, 11))
    records = search_rank_gain(pencil, None, cons, pencil.branch_points[0].pair, 19, limit=2)
    assert [r.role for r in records] == ["reference", "candidate", "candidate"]
    assert pencil == psl2_11_degree12_pencil.__wrapped__()


def test_specialize_rejects_branch_point_and_degree_drop():
    bp = BranchPoint(F(3), 2)
    P = mestre_form_pencil(F1, G1, branch_points=(bp,))
    with pytest.raises(SpecializationError):
        specialize(P, 3)
    # general pencil with leading X-coefficient (1 - t): degree drops at t0 = 1
    from rootgain.mestre import Pencil

    one = PolyQ([1])
    Q = Pencil(
        (
            (PolyQ([0]), one),
            (one, one),
            (PolyQ([0]), one),
            (PolyQ([1, -1]), one),
        )
    )
    with pytest.raises(SpecializationError):
        specialize(Q, 1)


def test_disc_square_along_both_pencils():
    rng = random.Random(31337)
    for f, g in ((F1, G1), (F2, G2)):
        P = mestre_form_pencil(f, g)
        done = 0
        while done < 50:
            t0 = F(rng.randint(-500, 500), rng.randint(1, 60))
            try:
                h = specialize(P, t0)
            except SpecializationError:
                continue
            done += 1
            assert rational_sqrt(discriminant(h)) is not None


def test_branch_point_order_consistency():
    c = perm_from_cycles("(1,2)(3,4)", 5)
    pair = DecompositionPair(5, (c,), (c,))
    with pytest.raises(MestreError):
        BranchPoint(F(0), 3, pair=pair)


# ---------------------------------------------------------------- certificates


def test_an_certificate_cyclic_cubic():
    cert = an_certificate(PolyQ([-1, -3, 0, 1]))  # X^3 - 3X - 1, disc 81
    assert cert.contained_in_alternating
    assert cert.verdict == "alternating-consistent"  # empty table at n = 3


def test_an_certificate_non_square_disc():
    cert = an_certificate(PolyQ([-2, 0, 1]))
    assert not cert.contained_in_alternating


def test_an_certificate_specialized_quintic():
    P = mestre_form_pencil(F1, G1)
    h = specialize(P, F(400, 6561))
    cert = an_certificate(h)
    assert cert.contained_in_alternating
    assert cert.verdict == "alternating-consistent"
    assert cert.ruled_out == 2  # the two proper transitive typesets of A5


def test_an_certificate_matches_sympy_galois_group():
    """Seeded monic irreducible polynomials of degree 3 to 6 (coefficients in
    [-4, 4]), six with a square discriminant and four without per degree,
    against sympy's galois_group: the alternating bit must agree, and
    'alternating-consistent' must name A_n itself. Polynomials whose
    irreducibility certify_irreducible cannot certify (such as Klein-four
    quartics, whose every pattern splits 2 + 2) are skipped: an_certificate
    refuses them."""
    sympy = pytest.importorskip("sympy")
    galois = pytest.importorskip("sympy.polys.numberfields.galoisgroups")
    x = sympy.symbols("x")
    for n in (3, 4, 5, 6):
        rng = random.Random(f"an-certificate/{n}")
        wanted = {True: 6, False: 4}
        verdicts = set()
        while any(wanted.values()):
            h = PolyQ([rng.randint(-4, 4) for _ in range(n)] + [1])
            disc = discriminant(h)
            square = rational_sqrt(disc) is not None
            if disc == 0 or not wanted[square]:
                continue
            poly = sympy.Poly([int(c) for c in reversed(h.coeffs)], x)
            if not poly.is_irreducible or certify_irreducible(h).status == "unverified":
                continue
            wanted[square] -= 1
            group, alternating = galois.galois_group(poly)
            cert = an_certificate(h)
            assert cert.contained_in_alternating == alternating, h
            if cert.verdict == "alternating-consistent":
                assert group.order() == factorial(n) // 2, h
            verdicts.add((cert.verdict, group.order() == factorial(n) // 2))
        assert ("alternating-consistent", True) in verdicts


def test_an_certificate_degree_12_heuristic():
    h = specialize(psl2_11_degree12_pencil(), 1)
    cert = an_certificate(h)
    assert cert.contained_in_alternating
    assert cert.verdict == "heuristic"
    # every observed pattern must be a PSL2(11) cycle type on 12 points
    allowed = {
        (1,) * 12,
        (2,) * 6,
        (3,) * 4,
        (6, 6),
        (1, 1, 5, 5),
        (1, 11),
    }
    assert set(cert.patterns) <= allowed


# ---------------------------------------------------------------- fingerprints


def test_fingerprint_distinct_quadratics():
    assert distinctness_fingerprint(PolyQ([-2, 0, 1]), PolyQ([-3, 0, 1])) == "distinct"


def test_fingerprint_self():
    h = PolyQ([-2, 0, 1])
    assert distinctness_fingerprint(h, h) == "indistinguishable"


def test_fingerprint_two_specializations():
    P = mestre_form_pencil(F1, G1)
    h1 = specialize(P, F(400, 6561))
    h2 = specialize(P, F(160000, 177147))
    assert distinctness_fingerprint(h1, h2) == "distinct"


# ---------------------------------------------------------------- enumeration


def test_enumerate_t0_height_one():
    cons = SearchConstraints(height_bound=1)
    assert list(enumerate_t0(cons)) == [F(-1), F(0), F(1)]


def test_enumerate_t0_respects_branch_points():
    cons = SearchConstraints(height_bound=1)
    assert list(enumerate_t0(cons, frozenset({F(0)}))) == [F(-1), F(1)]


def test_enumerate_t0_valuation_condition():
    cons = SearchConstraints(
        conditions=(PrimeCondition(19, "valuation_of_t0_equals", -1),),
        height_bound=25,
    )
    vals = list(enumerate_t0(cons))
    assert vals
    assert all(valuation(t, 19) == -1 for t in vals)
    assert vals[0] == F(-18, 19)  # ascending height, then denominator, then numerator


def test_enumerate_t0_congruence_condition():
    cons = SearchConstraints(
        conditions=(PrimeCondition(2, "t0_congruent_to", 0, 3),),
        height_bound=16,
    )
    vals = list(enumerate_t0(cons))
    assert F(8) in vals and F(8, 3) in vals and F(0) in vals
    assert all(valuation(t, 2) >= 3 or t == 0 for t in vals)


def full_scan_t0(constraints, branch_locations):
    """Every a/b in lowest terms by (height, b, a), minus the branch locations,
    filtered by the exact conditions."""
    out = []
    for height in range(1, constraints.height_bound + 1):
        for b in range(1, height + 1):
            for a in range(-height, height + 1) if b == height else (-height, height):
                t0 = F(a, b)
                if gcd(a, b) != 1 or t0 in branch_locations:
                    continue
                if all(_satisfies_exact(t0, c) for c in constraints.conditions):
                    out.append(t0)
    return out


def seeded_condition(rng, p):
    if rng.random() < 0.4:
        return PrimeCondition(p, VALUATION_EQUALS, rng.randint(-2, 2))
    units = [u for u in range(1, 12) if u % p]
    # a congruence value of valuation -2 to 2 at p, or 0
    v = rng.randint(-2, 2)
    unit = F(rng.choice([-1, 1]) * rng.choice(units), rng.choice(units))
    value = 0 if v == 2 and rng.random() < 0.5 else unit * F(p) ** v
    return PrimeCondition(p, CONGRUENT_TO, value, rng.randint(1, 2))


@pytest.mark.parametrize("seed", range(12))
def test_enumerate_t0_matches_the_full_scan(seed):
    rng = random.Random(f"enumerate_t0/{seed}")
    locations = [F(0), F(1), F(-1, 2), F(2, 3), F(-5, 4), F(9, 25), "inf"]
    for _ in range(8):
        primes = rng.sample([2, 3, 5, 7], rng.randint(1, 2))
        cons = SearchConstraints(
            tuple(seeded_condition(rng, p) for p in primes), rng.randint(1, 60)
        )
        branch = frozenset(rng.sample(locations, rng.randint(0, 3)))
        assert list(enumerate_t0(cons, branch)) == full_scan_t0(cons, branch), cons


def test_constraints_validation():
    with pytest.raises(MestreError):
        SearchConstraints(
            conditions=(
                PrimeCondition(5, "unramified_at"),
                PrimeCondition(5, "valuation_of_t0_equals", -1),
            )
        )
    with pytest.raises(MestreError):
        PrimeCondition(4, "unramified_at")
    with pytest.raises(MestreError, match="integer value"):
        PrimeCondition(5, "valuation_of_t0_equals", F(1, 2))


# ---------------------------------------------------------------- search


def paper_curve_bundle():
    E = EllipticCurveData.from_coeffs(0, -6, 0, 5, 0)
    return CurveLocalData.build(E, [LocalReductionData(2, "declared", 1)])


def klein_four_target(n=5):
    c = perm_from_cycles("(1,2)(3,4)", n)
    x = perm_from_cycles("(1,3)(2,4)", n)
    return DecompositionPair(n, (c, x), (c,))


def test_search_quintic_pipeline_flip():
    """Klein-four-seeded pencil vs trivially-seeded pencil at the split prime 5."""
    bundle = paper_curve_bundle()
    # v5(t0) >= 4 keeps the trivially-split seed behavior visible mod 5 (the
    # second quartic carries 5^2 in its denominators); v2(t0) >= 4 is the
    # 2-adic closeness backing the declared split-completely profile
    cons = SearchConstraints(
        conditions=(
            PrimeCondition(2, "t0_congruent_to", 0, 4),
            PrimeCondition(5, "t0_congruent_to", 0, 4),
        ),
        height_bound=12000,
        excluded_primes=(),
    )
    reference = find_reference_specialization(
        mestre_form_pencil(F2, G2),
        5,
        cons,
        matched_profiles={2: [(1, 1)] * 5},
    )
    assert reference.profile.profile_at(5) == ((1, 1),) * 5
    records = search_rank_gain(
        mestre_form_pencil(F1, G1),
        bundle,
        cons,
        klein_four_target(),
        5,
        reference=reference,
        matched_profiles={2: [(1, 1)] * 5},
        limit=1,
    )
    candidates = [r for r in records if r.role == "candidate"]
    assert candidates
    cand = candidates[0]
    assert cand.ratio == -1
    # W(E/K1) = -1: rank gain side
    assert root_number_over_extension(bundle, cand.profile) == -1
    assert CONDITIONAL_TOKEN in cand.rank_gain_flag
    assert cand.fingerprint == "distinct"


def test_search_psl2_smoke_small():
    pencil = psl2_11_degree12_pencil()
    cons = SearchConstraints(
        conditions=(PrimeCondition(19, "valuation_of_t0_equals", -1),),
        height_bound=40,
        excluded_primes=(2, 3, 5, 7, 11),
    )
    target = pencil.branch_points[0].pair
    records = search_rank_gain(
        pencil, None, cons, target, 19, assumed_reduction="split", limit=1
    )
    assert [r.role for r in records][:1] == ["reference"]
    candidates = [r for r in records if r.role == "candidate"]
    assert candidates
    cand = candidates[0]
    assert valuation(cand.t0, 19) == -1
    assert cand.ratio == -1
    assert valuation(discriminant(cand.profile.poly), 19) >= 6  # three (e=2, f=2) primes
    assert cand.fingerprint == "distinct"


def test_search_reproducible():
    pencil = psl2_11_degree12_pencil()
    cons = SearchConstraints(
        conditions=(PrimeCondition(19, "valuation_of_t0_equals", -1),),
        height_bound=40,
        excluded_primes=(2, 3, 5, 7, 11),
    )
    target = pencil.branch_points[0].pair
    a = search_rank_gain(pencil, None, cons, target, 19, limit=1)
    b = search_rank_gain(pencil, None, cons, target, 19, limit=1)
    assert [(r.t0, r.profile.poly, r.ratio) for r in a] == [
        (r.t0, r.profile.poly, r.ratio) for r in b
    ]


def test_search_enforces_unramified_conditions():
    pencil = psl2_11_degree12_pencil()
    target = pencil.branch_points[0].pair
    unramified_23 = PrimeCondition(23, "unramified_at")
    cons = SearchConstraints(
        (PrimeCondition(19, "valuation_of_t0_equals", -1), unramified_23),
        40,
        (2, 3, 5, 7, 11),
    )
    records = search_rank_gain(pencil, None, cons, target, 19, limit=1)
    assert [r.role for r in records] == ["reference", "candidate"]
    # the first t0 of the enumeration, -18/19, has v_23(disc) = 6
    assert records[1].t0 == F(-17, 19)
    assert all(valuation(discriminant(r.profile.poly), 23) == 0 for r in records)
    # t0 = 2, the first reference t0 congruent to 2 mod 13, has v_23(disc) = 2
    cons = SearchConstraints(
        (
            PrimeCondition(19, "valuation_of_t0_equals", -1),
            PrimeCondition(13, "t0_congruent_to", 2, 1),
            unramified_23,
        ),
        40,
        (2, 3, 5, 7, 11),
    )
    reference = find_reference_specialization(pencil, 19, cons)
    assert valuation(reference.t0 - 2, 13) >= 1
    assert valuation(discriminant(reference.profile.poly), 23) == 0


def fraction_horner_specialize(P, t0):
    """specialize by its definition: each coefficient num(t0) / den(t0) by
    Fraction Horner, then the primitive integral model."""
    t0 = F(t0)
    if t0 in P.branch_locations():
        raise SpecializationError(f"t0 = {t0} is a declared branch point")
    vals = []
    for num, den in P.coefficients:
        d = den(t0)
        if d == 0:
            raise SpecializationError(f"coefficient pole at t0 = {t0}")
        vals.append(num(t0) / d)
    h = PolyQ(vals)
    if h.degree != P.degree_x:
        raise SpecializationError(
            f"degree drop at t0 = {t0}: got {h.degree}, expected {P.degree_x}"
        )
    return h.primitive_integral()


def _rational_poly_text(rng, degree, roots=()):
    """A descending coefficient list of a polynomial in t with rational
    coefficients: random of the given degree, times t - r for each r in
    roots."""
    poly = PolyQ([F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)])
    poly = poly + PolyQ([0] * degree + [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))])
    for r in roots:
        poly = poly * PolyQ([-r, 1])
    return ",".join(str(c) for c in reversed(poly.coeffs))


def general_pencil_texts(count=40):
    """Seeded `form: general` pencil files over Q(t): coefficients with unequal
    denominators, zero coefficients, poles and leading-coefficient zeros (so
    degree drops) at small t0, and branch points there."""
    rng = random.Random(2102)
    special = [F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3)]
    texts = []
    for _ in range(count):
        degree = rng.randint(1, 6)
        lines = ["form: general", f"degree: {degree}"]
        for k in range(degree + 1):
            if k < degree and rng.random() < 0.2:
                num = "0"
            else:
                roots = [rng.choice(special)] if k == degree and rng.random() < 0.5 else []
                num = _rational_poly_text(rng, rng.randint(0, 3), roots)
            den_roots = [rng.choice(special)] if rng.random() < 0.3 else []
            den = _rational_poly_text(rng, rng.randint(0, 2), den_roots)
            lines.append(f"coeff: k={k} num={num} den={den}")
        if rng.random() < 0.3:
            lines.append(f"branch: location={rng.choice(special)} e=2")
        texts.append("\n".join(lines) + "\n")
    return texts


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SpecializationError as exc:
        return str(exc)


def test_specialize_matches_the_fraction_horner_definition():
    t0s = [F(a, b) for b in range(1, 7) for a in range(-12, 13) if gcd(a, b) == 1]
    kinds = ("branch point", "pole", "degree drop")
    outcomes = set()
    for text in general_pencil_texts():
        pencil = parse_pencil_file(text)
        for t0 in t0s:
            expected = _outcome(fraction_horner_specialize, pencil, t0)
            assert _outcome(specialize, pencil, t0) == expected, (text, t0)
            outcomes.add(next((k for k in kinds if k in str(expected)), "fiber"))
    # every kind of outcome is reached
    assert outcomes == {"fiber", "branch point", "pole", "degree drop"}


def test_specialize_matches_the_fraction_horner_definition_on_the_psl2_11_pencil():
    pencil = psl2_11_degree12_pencil()
    for t0 in [F(0), F(-1), F(7, 19), F(-40, 19), F(1000003, 7), F(-1, 4)]:
        assert specialize(pencil, t0) == fraction_horner_specialize(pencil, t0)


def test_search_fibers_read_primes_only_until_irreducibility_settles():
    # PSL2(11) on 12 points has no 12-cycle, so no fiber is irreducible mod p
    # and the full certificate reads 50 good primes; the search reads the good
    # primes above the degree in blocks of 8 and then 16, and stops after the
    # first block whose patterns leave no split size
    pencil = psl2_11_degree12_pencil()
    q = 19
    reference = _certified_fiber(
        specialize(pencil, F(-1)), {}, (PrimeCondition(q, UNRAMIFIED_AT),), primes=[q]
    )
    fibers = [reference]
    cons = SearchConstraints((PrimeCondition(q, VALUATION_EQUALS, -1),), 40, (2, 3, 5, 7, 11))
    declared = {q: profile_from_decomposition(pencil.branch_points[0].pair)}
    for t0 in islice(enumerate_t0(cons, pencil.branch_locations()), 6):
        fibers.append(_certified_fiber(specialize(pencil, t0), declared, cons.conditions))
    for prof in fibers:
        facts = prof.facts
        above = [p for p in facts.good_primes(50) if p > 12]
        first = facts.patterns(above[:8])
        settled_by_first_block = not (_split_sizes(12) & reduce(and_, map(_subset_sums, first)))
        expected = above[:8] if settled_by_first_block else above[:24]
        assert sorted(facts._patterns) == expected
        assert certify_irreducible(facts).status == "pattern_incompatible"


def test_reference_error_names_the_height_searched():
    # every fiber of F1 - t G1 has 13^2 dividing its discriminant
    with pytest.raises(SpecializationError, match="below height 60"):
        find_reference_specialization(
            mestre_form_pencil(F1, G1), 13, SearchConstraints(height_bound=60)
        )


def test_search_rejects_excluded_designated_prime():
    pencil = psl2_11_degree12_pencil()
    cons = SearchConstraints(
        conditions=(PrimeCondition(11, "valuation_of_t0_equals", -1),),
        height_bound=20,
        excluded_primes=(2, 3, 5, 7, 11),
    )
    with pytest.raises(MestreError):
        search_rank_gain(pencil, None, cons, pencil.branch_points[0].pair, 11)


def test_search_rejects_a_limit_below_one():
    pencil = psl2_11_degree12_pencil()
    cons = SearchConstraints((PrimeCondition(19, VALUATION_EQUALS, -1),), 20, (2, 3, 5, 7, 11))
    with pytest.raises(MestreError, match="limit must be >= 1, got 0"):
        search_rank_gain(pencil, None, cons, pencil.branch_points[0].pair, 19, limit=0)


def test_search_rejects_unknown_assumed_reduction():
    pencil = psl2_11_degree12_pencil()
    cons = SearchConstraints(
        conditions=(PrimeCondition(19, "valuation_of_t0_equals", -1),),
        height_bound=20,
        excluded_primes=(2, 3, 5, 7, 11),
    )
    with pytest.raises(MestreError, match="assumed reduction must be 'split' or 'nonsplit'"):
        search_rank_gain(
            pencil, None, cons, pencil.branch_points[0].pair, 19, assumed_reduction="additive"
        )
