import random
from fractions import Fraction as F

import pytest

from rootgain.ellcurve import (
    ADDITIVE,
    DECLARED,
    GOOD,
    NONSPLIT_MULT,
    SPLIT_MULT,
    CurveError,
    CurveLocalData,
    EllipticCurveData,
    LocalReductionData,
    MissingLocalData,
    UnsupportedPrime,
    classify_reduction,
    global_root_semistable,
    local_root_number,
)


def paper_curve():
    # Y^2 = X(X-1)(X-5) = X^3 - 6X^2 + 5X
    return EllipticCurveData.from_coeffs(0, -6, 0, 5, 0)


# ---------------------------------------------------------------- invariants


def test_invariants_of_paper_curve():
    E = paper_curve()
    assert E.c4 == 336
    assert E.c6 == 5184
    assert E.disc == 6400  # 16 * disc(X^3 - 6X^2 + 5X) = 16 * 400
    assert 1728 * E.disc == E.c4**3 - E.c6**2


def test_singular_model_rejected():
    with pytest.raises(CurveError):
        EllipticCurveData.from_coeffs(0, 0, 0, 0, 0)


def test_invariant_identity_on_random_curves():
    rng = random.Random(5)
    built = 0
    while built < 50:
        a1, a2, a3, a4, a6 = (rng.randint(-8, 8) for _ in range(5))
        try:
            E = EllipticCurveData.from_coeffs(a1, a2, a3, a4, a6)
        except CurveError:
            continue
        built += 1
        assert 1728 * E.disc == E.c4**3 - E.c6**2


# ---------------------------------------------------------------- classification


def test_split_multiplicative_at_5():
    # v5(disc) = 2, v5(c4) = 0, -c6 = -5184 = 1 mod 5, a square
    L = classify_reduction(paper_curve(), 5)
    assert L.type == SPLIT_MULT


def test_good_at_7():
    assert classify_reduction(paper_curve(), 7).type == GOOD


def test_additive_example():
    E = EllipticCurveData.from_coeffs(0, 0, 0, -25, 25)
    assert classify_reduction(E, 5).type == ADDITIVE


def test_nonsplit_example():
    # Y^2 = X^3 - 3X^2 - 3X: disc = 3024 = 2^4 * 3^3 * 7, c4 = 288, c6 = 4320
    E = EllipticCurveData.from_coeffs(0, -3, 0, -3, 0)
    assert E.disc == 3024
    L = classify_reduction(E, 7)
    assert L.is_multiplicative
    # -c6 = -4320 = 6 mod 7; squares mod 7 are {1,2,4}
    assert (-E.c6) % 7 == 6
    assert L.type == NONSPLIT_MULT


def test_unsupported_primes_2_3():
    with pytest.raises(UnsupportedPrime):
        classify_reduction(paper_curve(), 2)
    with pytest.raises(UnsupportedPrime):
        classify_reduction(paper_curve(), 3)


def test_minimality_rescaling():
    E = paper_curve()
    blown = E.rescale(F(1, 5))  # a_i -> a_i * 5^i, disc * 5^12
    assert blown.disc == 6400 * 5**12
    assert classify_reduction(blown, 5).type == SPLIT_MULT
    assert classify_reduction(blown, 7).type == GOOD


def test_classification_invariant_under_coordinate_change():
    rng = random.Random(11)
    built = 0
    while built < 100:
        a1, a2, a3, a4, a6 = (rng.randint(-6, 6) for _ in range(5))
        try:
            E = EllipticCurveData.from_coeffs(a1, a2, a3, a4, a6)
        except CurveError:
            continue
        built += 1
        for p in (5, 7, 11, 13):
            base = classify_reduction(E, p).type
            for u in (2, 3):
                if u % p == 0:
                    continue
                assert classify_reduction(E.rescale(u), p).type == base


# ---------------------------------------------------------------- local root numbers


def test_local_root_number_table():
    assert local_root_number(LocalReductionData(5, SPLIT_MULT)) == -1
    assert local_root_number(LocalReductionData(5, NONSPLIT_MULT)) == 1
    assert local_root_number(LocalReductionData(5, GOOD)) == 1
    assert local_root_number(LocalReductionData(2, DECLARED, 1)) == 1


def test_local_root_number_additive_undeclared():
    with pytest.raises(MissingLocalData):
        local_root_number(LocalReductionData(5, ADDITIVE))


# ---------------------------------------------------------------- global root number


def test_global_root_no_split_primes():
    assert global_root_semistable([]) == -1


def test_global_root_paper_curve():
    E = paper_curve()
    data = [LocalReductionData(2, DECLARED, 1), classify_reduction(E, 5)]
    # product (+1)(-1)(-1) = +1: the rank-0 curve
    assert global_root_semistable(data) == 1


def test_global_root_one_split_one_nonsplit():
    data = [LocalReductionData(7, SPLIT_MULT), LocalReductionData(11, NONSPLIT_MULT)]
    assert global_root_semistable(data) == 1


def test_global_root_declared_minus_one_counts_as_split():
    # a declared -1 at a semistable prime is split multiplicative: s = 1
    assert global_root_semistable([LocalReductionData(2, DECLARED, -1)]) == 1
    data = [LocalReductionData(2, DECLARED, -1), LocalReductionData(7, SPLIT_MULT)]
    assert global_root_semistable(data) == -1


def test_global_root_missing_data():
    with pytest.raises(MissingLocalData):
        global_root_semistable([LocalReductionData(5, ADDITIVE)])


# ---------------------------------------------------------------- curve bundles


def test_curve_local_data_build():
    bundle = CurveLocalData.build(paper_curve(), [LocalReductionData(2, DECLARED, 1)])
    assert bundle.bad_primes() == [2, 5]
    assert bundle.reduction_at(5).type == SPLIT_MULT
    assert bundle.reduction_at(2).declared_root_number == 1
    assert bundle.reduction_at(7) is None


def test_curve_local_data_unknown_2():
    bundle = CurveLocalData.build(paper_curve())
    L2 = bundle.reduction_at(2)
    assert L2 is not None
    with pytest.raises(MissingLocalData):
        local_root_number(L2)
