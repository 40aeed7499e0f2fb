import random
from fractions import Fraction as F

import pytest

from rootgain.algebra import NotASquare, PolyQ, discriminant, rational_sqrt, valuation
from rootgain.ellcurve import CurveLocalData, EllipticCurveData, LocalReductionData
from rootgain.extension import DecompositionPair, root_number_over_extension
from rootgain.mestre import (
    CONDITIONAL_TOKEN,
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
from rootgain.permgroup import perm_from_cycles

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
        BranchPoint(F(0), 3, inertia_class="2A", pair=pair)


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
    assert cand.full_root_number == -1  # W(E/K1) = -1: rank gain side
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
    assert valuation(discriminant(cand.poly), 19) >= 6  # three (e=2, f=2) primes
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
    assert [(r.t0, r.poly, r.ratio) for r in a] == [(r.t0, r.poly, r.ratio) for r in b]


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
    assert all(valuation(discriminant(r.poly), 23) == 0 for r in records)
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
    assert valuation(discriminant(reference.poly), 23) == 0


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
