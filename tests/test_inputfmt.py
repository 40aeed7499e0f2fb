from fractions import Fraction as F

import pytest

from rootgain.algebra import PolyQ
from rootgain.inputfmt import (
    ParseError,
    parse_curve_file,
    parse_extension_file,
    parse_pencil_file,
    read_records,
)
from rootgain.mestre import psl2_11_degree12_pencil, specialize


def test_read_records_comments_and_blanks():
    recs = read_records("# header\n\na1: 3  # trailing\n local: p=2 type=good\n")
    assert recs == [(3, "a1", "3"), (4, "local", "p=2 type=good")]


def test_read_records_bad_line_number():
    with pytest.raises(ParseError) as err:
        read_records("a1: 0\njunk\n")
    assert err.value.lineno == 2


def test_parse_curve_roundtrip():
    bundle = parse_curve_file(
        "a1: 0\na2: -6\na3: 0\na4: 5\na6: 0\nlocal: p=2 type=declared w=+1\n"
    )
    assert bundle.bad_primes() == [2, 5]
    assert bundle.reduction_at(2).declared_root_number == 1
    assert bundle.reduction_at(5).type == "split_mult"


def test_parse_curve_missing_coefficient():
    with pytest.raises(ParseError):
        parse_curve_file("a1: 0\na2: -6\n")


def test_parse_curve_bad_rational():
    with pytest.raises(ParseError) as err:
        parse_curve_file("a1: x\na2: 0\na3: 0\na4: 0\na6: 1\n")
    assert err.value.lineno == 1


def test_parse_extension_profiles():
    poly, declared = parse_extension_file(
        "poly: 1, 0, -164, 0, 2304, 0\n"
        "profile: p=5 pairs=2:2,1:1\n"
        "profile: p=2 pairs=1:1,1:1,1:1,1:1,1:1\n"
    )
    assert poly == PolyQ([0, 2304, 0, -164, 0, 1])
    assert declared[5] == [(2, 2), (1, 1)]
    assert len(declared[2]) == 5


def test_parse_extension_duplicate_profile_rejected():
    with pytest.raises(ParseError):
        parse_extension_file("poly: 1,0,-2\nprofile: p=5 pairs=1:2\nprofile: p=5 pairs=2:1\n")


def test_parse_pencil_family_builtin():
    P = parse_pencil_file("family: psl2-11-degree12\n")
    assert P.degree_x == 12
    assert P.branch_points[0].pair is not None


def test_parse_pencil_mestre_form():
    P = parse_pencil_file(
        "form: mestre\nf: 1,0,-5,0,4,0\ng: 1,0,-73/29,0,21316/21025\n"
    )
    assert specialize(P, 0) == PolyQ([0, 4, 0, -5, 0, 1]).primitive_integral()


def test_parse_pencil_general_form_matches_builtin():
    builtin = psl2_11_degree12_pencil()
    lines = ["form: general", f"degree: {builtin.degree_x}"]
    for k, (num, den) in enumerate(builtin.coefficients):
        num_s = ",".join(str(c) for c in reversed(num.coeffs)) if num.coeffs else "0"
        den_s = ",".join(str(c) for c in reversed(den.coeffs))
        lines.append(f"coeff: k={k} num={num_s} den={den_s}")
    P = parse_pencil_file("\n".join(lines) + "\n")
    for t0 in (F(1), F(-2), F(3, 7)):
        assert specialize(P, t0) == specialize(builtin, t0)


def test_parse_pencil_branch_with_decomposition():
    text = (
        "form: mestre\n"
        "f: 1,0,-164,0,2304,0\n"
        "g: 1,0,-559076/12249,0,2975047936/16670889\n"
        "branch: location=0 e=2 class=2A degree=5 D=(1,2)(3,4);(1,3)(2,4) I=(1,2)(3,4)\n"
    )
    P = parse_pencil_file(text)
    bp = P.branch_points[0]
    assert bp.location == 0
    assert bp.ramification_index == 2
    assert bp.pair is not None and bp.pair.degree == 5
    # the declared location is now excluded from specialization
    with pytest.raises(Exception):
        specialize(P, 0)


def test_parse_pencil_general_missing_coeff():
    with pytest.raises(ParseError):
        parse_pencil_file("form: general\ndegree: 2\ncoeff: k=0 num=1\ncoeff: k=2 num=1\n")


def test_parse_pencil_unknown_family():
    with pytest.raises(ParseError):
        parse_pencil_file("family: nonexistent\n")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("form: general\ndegree: two\n", 2),
        ("form: general\ndegree: 1\ncoeff: k=x num=1\n", 3),
        ("form: general\ndegree: 1\ncoeff: k=0 num=1,q\n", 3),
        ("form: general\ndegree: 1\ncoeff: k=0 num=1 den=1/0\n", 3),
        ("form: mestre\nf: 1,0,y\n", 2),
        ("form: mestre\nf: 1,0,0\ng: 1,,z\n", 3),
        ("form: mestre\nf: 1,0,0\ng: 1\nbranch: location=inf e=two\n", 4),
        ("form: mestre\nf: 1,0,0\ng: 1\nbranch: location=inf e=2 degree=x D=(1,2)\n", 4),
        ("form: general\nbranch: location=inf e=1\n", 2),
        ("form: general\nbranch: location=inf e=2 degree=3 D=(1,2) I=(1,2,3)\n", 2),
        # a branch degree other than the pencil's X-degree
        ("form: mestre\nf: 1,0,-3\ng: 1\nbranch: location=inf e=2 degree=5 D=(1,2)(3,4)\n", 4),
        (
            "form: general\nbranch: location=inf e=2 degree=5 D=(1,2)(3,4)\ndegree: 1\n"
            "coeff: k=0 num=1\ncoeff: k=1 num=1\n",
            2,
        ),
    ],
)
def test_parse_pencil_malformed_numbers_name_the_line(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_pencil_file(text)
    assert err.value.lineno == lineno
