import hashlib
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootgain
from rootgain.algebra import PolyQ
from rootgain.cli import main
from rootgain.mestre import an_certificate, mestre_form_pencil, specialize

# psi_13 = 1287836182261 * 2575672364521 is a strong pseudoprime to every base
# 2..41, so no input prime at or above it is taken as proven
PSI_13_MESSAGE = (
    "3317044064679887385961981 is beyond the proven primality range"
    " (p < 3317044064679887385961981)"
)

CURVE_TEXT = """\
# Y^2 = X(X-1)(X-5)
a1: 0
a2: -6
a3: 0
a4: 5
a6: 0
local: p=2 type=declared w=+1
"""


# 11a3, y^2 + y = x^3 - x^2
CURVE_11A3 = "a1: 0\na2: -1\na3: 1\na4: 0\na6: 0\n"


def k1_extension_text():
    f = PolyQ([0, 2304, 0, -164, 0, 1])
    g = PolyQ([F(2975047936, 16670889), 0, F(-559076, 12249), 0, 1])
    h = specialize(mestre_form_pencil(f, g), F(160000, 177147))
    desc = ",".join(str(c) for c in reversed(h.coeffs))
    return (
        f"poly: {desc}\n"
        "profile: p=2 pairs=1:1,1:1,1:1,1:1,1:1\n"
        "profile: p=5 pairs=2:2,1:1\n"
    )


@pytest.fixture
def curve_file(tmp_path):
    p = tmp_path / "curve.txt"
    p.write_text(CURVE_TEXT)
    return str(p)


@pytest.fixture
def extension_file(tmp_path):
    p = tmp_path / "ext.txt"
    p.write_text(k1_extension_text())
    return str(p)


@pytest.fixture
def pencil_file(tmp_path):
    p = tmp_path / "psl11.pencil"
    p.write_text("family: psl2-11-degree12\n")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------- orbit-search


def test_orbit_search_an5_contains_klein_candidate(capsys):
    code, out = run(capsys, ["orbit-search", "an", "5"])
    assert code == 0
    assert "(1,2)(3,4)\t(1,3)(2,4)" in out


def test_orbit_search_deg55_empty_exit_3(capsys):
    code, out = run(capsys, ["orbit-search", "psl2", "11", "--action", "deg55"])
    assert code == 3
    assert "candidates with degree - |orb(<I,x>)| odd: 0" in out


def test_orbit_search_psl2_11_natural_nonempty(capsys):
    code, out = run(capsys, ["orbit-search", "psl2", "11"])
    assert code == 0


def test_orbit_search_generators_literal(capsys):
    code, out = run(
        capsys,
        ["orbit-search", "gens", "--degree", "5", "--generators", "(1,2)(3,4);(1,3)(2,4)"],
    )
    assert code == 0  # the Klein four-group on 5 points has odd-orbit pairs


def test_orbit_search_s1_empty_exit_3(capsys):
    code, out = run(capsys, ["orbit-search", "sn", "1"])
    assert code == 3
    assert out.startswith("# group: S1 degree=1 order=1\n")
    assert "candidates with degree - |orb(<I,x>)| odd: 0" in out


def test_orbit_search_cap_exceeded_exit_2(capsys):
    code, _ = run(capsys, ["orbit-search", "sn", "12", "--cap", "1000"])
    assert code == 2


# Pair counts of `orbit-search psl2 p`, taken once from the matrix enumeration
# odd_orbit_pairs(psl2_elements(p), p + 1) of perfbench/expected.py, which
# builds PSL2(p) from 2x2 matrices and counts with plain compose loops.
PSL2_PAIR_COUNTS = {17: 1224, 19: 3420, 23: 6072}


@pytest.mark.parametrize("p", sorted(PSL2_PAIR_COUNTS))
def test_orbit_search_psl2_pair_counts(capsys, p):
    code, out = run(capsys, ["orbit-search", "psl2", str(p)])
    count = PSL2_PAIR_COUNTS[p]
    lines = out.splitlines()
    assert code == 0
    assert lines[1] == f"# candidates with degree - |orb(<I,x>)| odd: {count}"
    assert len(lines) == 3 + count


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (
            ["an", "7"],
            5043,
            "2a25f3777df5c9271354a1347d502340ffa647bc687b33b75402ac583aaefe22",
        ),
        (
            ["psl2", "17"],
            1227,
            "4d54db929880a4bb00dc027600d0d3766a69f8f67ae8b1ba8b0b0f7891a2f256",
        ),
        # x permutes <c>-orbits of several sizes
        (
            ["gens", "--degree", "7", "--generators", "(1,2,3)(4,5);(1,2)(6,7)"],
            51,
            "366b7fbfed26ea28516226bf7742d3f69dbc952833b46f81954a74684bd68bb5",
        ),
        (
            ["gens", "--degree", "8", "--generators", "(1,2,3,4)(5,6);(1,3)(7,8);(5,7)(6,8)"],
            195,
            "56a51ac7aff4303a7ab0500dc3bd7c2d8b1c7b8ebabcb9eadda3246fa9142f9e",
        ),
        (
            ["sn", "6", "--require-even-inertia"],
            1443,
            "5f6e5fe397afc1653d6ba6d8d0f9990dcd83f21163ef3c44071e65102b0a272c",
        ),
        (
            ["psl2", "13", "--require-even-inertia"],
            1095,
            "a23b92da648b75da4cd15effa51b0c044186cfd90aa1b4e61f355e70782fbea9",
        ),
    ],
    ids=["an-7", "psl2-17", "gens-7", "gens-8", "sn-6-even", "psl2-13-even"],
)
def test_orbit_search_reports_are_pinned(capsys, argv, lines, digest):
    # reports are byte-identical across versions unless a change says otherwise
    code, out = run(capsys, ["orbit-search", *argv])
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_orbit_search_require_even_inertia_drops_odd_classes(capsys):
    _, every = run(capsys, ["orbit-search", "sn", "4"])
    code, even = run(capsys, ["orbit-search", "sn", "4", "--require-even-inertia"])
    assert code == 0
    assert "candidates with degree - |orb(<I,x>)| odd: 60" in every
    assert "candidates with degree - |orb(<I,x>)| odd: 24" in even
    rows = [line.split("\t") for line in every.splitlines()[3:]]
    kept = ["\t".join(row) for row in rows if row[5] == "true"]
    assert even.splitlines()[3:] == kept


# ---------------------------------------------------------------- root-number


def test_root_number_worked_example(capsys, curve_file, extension_file):
    code, out = run(
        capsys, ["root-number", "--curve", curve_file, "--extension", extension_file]
    )
    assert code == 0
    assert out == (
        "# every rank-gain verdict below is conditional-on-parity-conjecture; "
        "root numbers are unconditional\n"
        "# extension degree 5, signature (5,0)\n"
        "# irreducibility: irreducible_mod_p\n"
        "# profile p=2 [1:1,1:1,1:1,1:1,1:1] (declared)\n"
        "# profile p=5 [1:1,2:2] (declared)\n"
        "W(E/F) = -1\n"
    )


def test_root_number_trivial_extension(capsys, curve_file, tmp_path):
    ext = tmp_path / "triv.txt"
    ext.write_text("poly: 1,-1\nprofile: p=2 pairs=1:1\nprofile: p=5 pairs=1:1\n")
    code, out = run(capsys, ["root-number", "--curve", curve_file, "--extension", str(ext)])
    assert code == 0
    assert "W(E/F) = +1" in out  # W(E/Q) for the rank-0 curve


def test_root_number_incomputable_names_prime(capsys, tmp_path, extension_file):
    curve = tmp_path / "curve2.txt"
    curve.write_text(CURVE_TEXT.replace("local: p=2 type=declared w=+1\n", ""))
    code, out = run(capsys, ["root-number", "--curve", str(curve), "--extension", extension_file])
    assert code == 3
    assert "Incomputable" in out and "p=2" in out


def test_root_number_parse_error_line_number(capsys, tmp_path, extension_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("a1: 0\nnot a record\n")
    code = main(["root-number", "--curve", str(bad), "--extension", extension_file])
    assert code == 4


@pytest.mark.parametrize(
    "curve_line, extension_text, line",
    [
        ("local: p=abc type=declared w=+1", None, 7),
        ("local: p=2 type=declared w=x", None, 7),
        (None, "poly: 1,0,-2\nprofile: p=2 pairs=a:b\n", 2),
        (None, "# comment\npoly: 1,x,2\n", 2),
        ("local: p=4 type=declared w=+1", None, 7),
        ("local: p=2 type=bogus w=+1", None, 7),
        (None, "poly: 1,0,-2\nprofile: p=6 pairs=1:2\n", 2),
        ("local: p=2 type=declared w=+1\nlocal: p=2 type=declared w=-1", None, 8),
        ("local: p=3317044064679887385961981 type=declared w=+1", None, 7),
        (None, "poly: 1,0,-2\nprofile: p=3317044064679887385961981 pairs=1:2\n", 2),
        (None, "poly: 1,0,-2\npoly: 1,0,-3\n", 2),
    ],
)
def test_malformed_numbers_exit_4_with_line(
    capsys, tmp_path, curve_file, extension_file, curve_line, extension_text, line
):
    if curve_line is not None:
        curve_file = tmp_path / "bad-curve.txt"
        curve_file.write_text(CURVE_TEXT.replace("local: p=2 type=declared w=+1", curve_line))
    if extension_text is not None:
        extension_file = tmp_path / "bad-ext.txt"
        extension_file.write_text(extension_text)
    code = main(["root-number", "--curve", str(curve_file), "--extension", str(extension_file)])
    err = capsys.readouterr().err
    assert code == 4
    assert f"parse error: line {line}:" in err


@pytest.mark.parametrize(
    "curve_text, pencil_text, message",
    [
        (
            "a1: 0\na2: 0\na3: 0\na4: 0\na6: 0\n",
            None,
            "singular Weierstrass model (discriminant 0)",
        ),
        ("a1: 0\na2: 0\na3: 0\na4: 1/5\na6: 1\n", None, "model is not 5-integral"),
        (None, "form: mestre\nf: 1,0,0\ng: 1\n", "f must be separable"),
        # every fiber is f, which has the root -1
        (
            None,
            "form: mestre\nf: -2,-5,-4,-3,-2\ng: 0\n",
            "g must be nonzero: every fiber would be f",
        ),
        # X^2 - 1 divides both, so every fiber
        (
            None,
            "form: mestre\nf: 1,0,-5,0,4,0\ng: 1,0,0,0,-1\n",
            "f and g must be coprime: gcd(f, g) divides every fiber",
        ),
        # a bad record is reported at its own line, a bad model at line 0
        (
            None,
            "form: general\ndegree: 1\ncoeff: k=0 num=1\ncoeff: k=1 num=1\n"
            "branch: location=0 e=2 degree=0 d= i=\n",
            "line 5: branch degree must be >= 1",
        ),
        # a repeated key, a coefficient row the degree does not read and a key
        # the pencil's family or form does not read are errors at their line
        ("a1: 0\na1: 1\na2: 0\na3: 0\na4: 0\na6: 1\n", None, "line 2: duplicate key 'a1'"),
        (
            None,
            "family: psl2-11-degree12\nfamily: psl2-11-degree12\n",
            "line 2: duplicate key 'family'",
        ),
        (None, "form: mestre\nf: 1,0,-3\nf: 1,0,-5\ng: 1\n", "line 3: duplicate key 'f'"),
        (
            None,
            "form: general\ndegree: 1\ndegree: 2\ncoeff: k=0 num=1,0\ncoeff: k=1 num=1\n",
            "line 3: duplicate key 'degree'",
        ),
        (
            None,
            "form: general\ndegree: 1\ncoeff: k=0 num=1,0\ncoeff: k=1 num=1\ncoeff: k=0 num=2,0\n",
            "line 5: duplicate coeff k=0",
        ),
        (
            None,
            "form: general\ndegree: 2\ncoeff: k=0 num=1,0\ncoeff: k=1 num=0\ncoeff: k=2 num=1\n"
            "coeff: k=3 num=7\n",
            "line 6: coeff k=3 lies outside 0..2",
        ),
        (
            None,
            "form: general\ndegree: 1\ncoeff: k=-1 num=7\ncoeff: k=0 num=1,0\ncoeff: k=1 num=1\n",
            "line 3: coeff k=-1 lies outside 0..1",
        ),
        # every t0 would be a pole
        (
            None,
            "form: general\ndegree: 1\ncoeff: k=0 num=1,0 den=0\ncoeff: k=1 num=1\n",
            "line 3: coeff den= must be nonzero",
        ),
        (
            None,
            "family: psl2-11-degree12\nbranch: location=0 e=2\n",
            "line 2: key 'branch' is not read by a family pencil",
        ),
        (
            None,
            "family: psl2-11-degree12\nform: mestre\n",
            "line 2: key 'form' is not read by a family pencil",
        ),
        (
            None,
            "form: mestre\nf: 1,0,-3\ng: 1\ncoeff: k=0 num=1\n",
            "line 4: key 'coeff' is not read by a mestre pencil",
        ),
        (
            None,
            "form: general\nf: 1,0,-3\ng: 1\ndegree: 1\ncoeff: k=0 num=1,0\ncoeff: k=1 num=1\n",
            "line 2: key 'f' is not read by a general pencil",
        ),
        # a malformed record and an unknown key are errors at their line, in a
        # curve file and in a pencil file; a pencil file without a family or
        # form is a model error
        (
            "a1: 0\na2: 0\na3: 0\na4: 0\na6: 1\nlocal: p=2 declared\n",
            None,
            "line 6: expected attr=value, got 'declared'",
        ),
        (
            "a1: 0\na2: 0\na3: 0\na4: 0\na6: 1\nlocal: p=2\n",
            None,
            "line 6: local record needs p= and type=",
        ),
        ("a1: 0\na2: 0\na3: 0\na4: 0\na5: 1\na6: 1\n", None, "line 5: unknown curve key 'a5'"),
        # 11a3 is split multiplicative at 11: a declaration at p >= 5 is the
        # computed type, and only an additive prime takes type=declared or w=
        (
            CURVE_11A3 + "local: p=11 type=good\n",
            None,
            "line 6: type=good at p=11, whose computed reduction is split_mult",
        ),
        (
            CURVE_11A3 + "local: p=11 type=declared w=-1\n",
            None,
            "line 6: type=declared at p=11, whose computed reduction is split_mult",
        ),
        (
            CURVE_11A3 + "local: p=11 type=split_mult w=-1\n",
            None,
            "line 6: w= at p=11, whose computed reduction is split_mult, not additive",
        ),
        (
            None,
            "form: mestre\nf: 1,0,-3\ng: 1\nbranch: location=inf e=2 degree=3 D=(1,4)\n",
            "line 4: bad permutation '(1,4)': bad cycle '1,4' for degree 3",
        ),
        (
            None,
            "form: mestre\nf: 1,0,-3\ng: 1\nbranch: e=2\n",
            "line 4: branch record needs location= and e=",
        ),
        (
            None,
            "form: mestre\nf: 1,0,-3\ng: 1\nbranch: location=inf e=2 D=(1,2)\n",
            "line 4: branch with D=/I= needs degree=",
        ),
        (
            None,
            "form: general\ndegree: 1\ncoeff: num=1\n",
            "line 3: coeff record needs k= and num=",
        ),
        (None, "form: mestre\nbogus: 1\n", "line 2: unknown pencil key 'bogus'"),
        (None, "f: 1,0,-3\ng: 1\n", "pencil file needs family: or form: mestre|general"),
        # 11a3 has discriminant -11: at 2 and 3 its model is integral with a unit
        # discriminant, so the reduction is good, and a record must say so
        *(
            (
                CURVE_11A3 + f"local: p={p} {record}\n",
                None,
                f"line 6: {record} at p={p}, where the model is {p}-integral and {p} does not"
                " divide its discriminant: the reduction is good, with w=+1",
            )
            for p in (2, 3)
            for record in (
                "type=declared w=-1",
                "type=good w=+1",
                "type=good w=-1",
                "type=split_mult",
                "type=nonsplit_mult",
                "type=additive",
                "type=additive w=-1",
                "type=unknown_23",
            )
        ),
    ],
)
def test_bad_curve_and_pencil_models_exit_4(
    capsys, tmp_path, extension_file, curve_text, pencil_text, message
):
    if curve_text is not None:
        curve = tmp_path / "curve.txt"
        curve.write_text(curve_text)
        argv = ["root-number", "--curve", str(curve), "--extension", extension_file]
    else:
        pencil = tmp_path / "bad.pencil"
        pencil.write_text(pencil_text)
        argv = ["specialize", "--pencil", str(pencil), "--q", "19"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 4
    where = "" if message.startswith("line ") else "line 0: "
    assert captured.err == f"parse error: {where}{message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "record, code, out",
    [
        # once taken, and printed W(E/F) = -1 with exit 0
        ("local: p=2 type=declared w=-1\n", 4, None),
        ("", 0, "W(E/F) = +1\n"),
        ("local: p=2 type=good\n", 0, "W(E/F) = +1\n"),
        ("local: p=3 type=declared w=+1\n", 0, "W(E/F) = +1\n"),
    ],
)
def test_11a3_over_q_reads_good_reduction_at_2_and_3(capsys, tmp_path, record, code, out):
    curve = tmp_path / "curve.txt"
    curve.write_text(CURVE_11A3 + record)
    ext = tmp_path / "ext.txt"
    ext.write_text("poly: 1,-1\n")
    assert main(["root-number", "--curve", str(curve), "--extension", str(ext)]) == code
    printed = capsys.readouterr().out
    assert printed.endswith(out) if code == 0 else printed == ""


def test_specialize_branch_degree_other_than_pencil_degree_exits_4(capsys, tmp_path):
    pencil = tmp_path / "quadratic.pencil"
    pencil.write_text(
        "form: mestre\nf: 1,0,-3\ng: 1\nbranch: location=inf e=2 degree=5 D=(1,2)(3,4)\n"
    )
    argv = ["specialize", "--pencil", str(pencil), "--q", "5", "--height", "6", "--limit", "1"]
    code = main(argv + ["--exclude", "2,3"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "parse error: line 4: branch degree 5 != pencil X-degree 2\n"
    assert captured.out == ""


def test_specialize_branch_past_the_enumeration_cap_exits_4(capsys, tmp_path):
    # D = S_10 is past Dixon's bound for a solvable subgroup of S_10, so its
    # enumeration stops at 24^3 = 13824 rows, before the default cap of 10^6
    pencil = tmp_path / "s10.pencil"
    pencil.write_text(
        "form: general\ndegree: 10\ncoeff: k=0 num=1\ncoeff: k=10 num=1\n"
        "branch: location=inf e=2 degree=10 D=(1,2,3,4,5,6,7,8,9,10);(1,2)\n"
    )
    code = main(["specialize", "--pencil", str(pencil), "--q", "19"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "parse error: line 5: decomposition group is not solvable\n"
    assert captured.out == ""


def test_root_number_undeclared_additive_prime_is_incomputable(capsys, tmp_path):
    # y^2 + xy = x^3 + x^2 + 5 has additive reduction at 5, found automatically
    curve = tmp_path / "curve.txt"
    curve.write_text("a1: 1\na2: 1\na3: 0\na4: 0\na6: 5\n")
    ext = tmp_path / "ext.txt"
    ext.write_text("poly: 1,-1\n")
    code, out = run(capsys, ["root-number", "--curve", str(curve), "--extension", str(ext)])
    assert code == 3
    assert out.endswith(
        "W(E/F) = Incomputable: incomputable at p=5: additive prime with no declared"
        " local root number\n"
    )


@pytest.mark.parametrize(
    "curve_text, code, out, err",
    [
        # the additive prime 5 of y^2 + xy = x^3 + x^2 + 5 takes a declared
        # root number; v_5(disc) = 2 and v_5(j) >= 0, so w_5 = (-1/5) = +1
        # (Rohrlich, e = 6)
        (
            "a1: 1\na2: 1\na3: 0\na4: 0\na6: 5\nlocal: p=5 type=declared w=+1\n",
            0,
            "W(E/F) = -1\n",
            "",
        ),
        # disc = -432 a6^2, a6 = 1000003 * 1000033: a composite cofactor past
        # trial division
        (
            "a1: 0\na2: 0\na3: 0\na4: 0\na6: 1000036000099\n",
            3,
            "",
            "Incomputable: trial division below 1000000 leaves a cofactor not proven prime:"
            f" {1000036000099**2} is not prime\n",
        ),
    ],
    ids=["additive-declared", "cofactor-unproven"],
)
def test_root_number_at_a_declared_additive_or_unfactored_prime(
    capsys, tmp_path, curve_text, code, out, err
):
    curve = tmp_path / "curve.txt"
    curve.write_text(curve_text)
    ext = tmp_path / "ext.txt"
    ext.write_text("poly: 1,-1\n")
    assert main(["root-number", "--curve", str(curve), "--extension", str(ext)]) == code
    captured = capsys.readouterr()
    assert captured.out.endswith(out)
    assert bool(captured.out) == bool(out)
    assert captured.err == err


def test_specialize_without_reference_fiber_exits_3(capsys, tmp_path):
    # every fiber is x^2 + 13, ramified at 13
    pencil = tmp_path / "ramified.pencil"
    pencil.write_text(
        "form: general\ndegree: 2\ncoeff: k=0 num=13\ncoeff: k=1 num=0\ncoeff: k=2 num=1\n"
        "branch: location=inf e=2 degree=2 D=(1,2)\n"
    )
    code = main(["specialize", "--pencil", str(pencil), "--q", "13", "--height", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "no reference specialization unramified at 13 below height 3\n"
    assert captured.out == ""


def _both_commands(curve_file, extension_file):
    return [
        ["profile", "--extension", str(extension_file), "--primes", "3,7"],
        ["root-number", "--curve", str(curve_file), "--extension", str(extension_file)],
    ]


@pytest.mark.parametrize(
    "extension_text, line, message",
    [
        ("poly: 0\n", 1, "poly: must have degree >= 1"),
        ("poly: 5\n", 1, "poly: must have degree >= 1"),
        ("# x^2\npoly: 1,0,0\n", 2, "poly: has a repeated root"),
        ("poly: 1,0,-4,0,4\n", 1, "poly: has a repeated root"),
        ("poly: 1,0,-2\nprofile: p=2 pairs=1:5\n", 2, "sum of e*f is 5, expected the degree 2"),
        ("profile: p=2 pairs=1:1\npoly: 1,0,-2\n", 1, "sum of e*f is 1, expected the degree 2"),
        ("poly: 1,0,-2\nprofile: p=2 pairs=0:1,1:2\n", 2, "profile pair '0:1' needs e, f >= 1"),
        ("poly: 1,0,-2\nprofile: p=2\n", 2, "profile record needs p= and pairs="),
        ("poly: 1,0,-2\ndegree: 2\n", 2, "unknown extension key 'degree'"),
        ("# no poly\nprofile: p=2 pairs=1:2\n", 0, "extension file missing poly:"),
    ],
)
def test_bad_extension_files_exit_4_in_both_commands(
    capsys, tmp_path, curve_file, extension_text, line, message
):
    ext = tmp_path / "bad-ext.txt"
    ext.write_text(extension_text)
    for argv in _both_commands(curve_file, ext):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 4, argv[0]
        assert captured.err == f"parse error: line {line}: {message}\n"
        assert captured.out == ""


def test_profile_tame_bound_rejection_exits_3(capsys, tmp_path, curve_file):
    ext = tmp_path / "tame.txt"
    ext.write_text("poly: 1,0,-2\nprofile: p=3 pairs=2:1\n")
    why = "declared profile at p=3 rejected: v_3(disc) = 0 is below the tame bound 1"
    profile, root_number = _both_commands(curve_file, ext)
    assert main(profile) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"Incomputable: {why}\n")
    code, out = run(capsys, root_number)
    assert code == 3
    assert out.endswith(f"W(E/F) = Incomputable: {why}\n")


def test_a_declaration_contradicted_at_a_good_prime_exits_3(capsys, tmp_path):
    # 11 and 3 are good for X^5 - X - 1 (disc 19 * 151), whose reduction is
    # irreducible at both: declaring another profile there is refused in both
    # commands, and undeclared, 11a3's root number over the field is +1
    curve = tmp_path / "11a3.txt"
    curve.write_text("a1: 0\na2: -1\na3: 1\na4: 0\na6: 0\n")
    ext = tmp_path / "quintic.txt"
    ext.write_text("poly: 1,0,0,0,-1,-1\n")
    argv = ["root-number", "--curve", str(curve), "--extension", str(ext)]
    code, out = run(capsys, argv)
    assert code == 0 and out.endswith("W(E/F) = +1\n")
    for p, pairs in ((11, "1:1,1:1,1:1,1:2"), (3, "1:1,1:1,1:1,1:1,1:1")):
        ext.write_text(f"poly: 1,0,0,0,-1,-1\nprofile: p={p} pairs={pairs}\n")
        why = f"declared profile at p={p} rejected: p={p} is good and its computed profile is [1:5]"
        code, out = run(capsys, argv)
        assert code == 3
        assert out.endswith(f"W(E/F) = Incomputable: {why}\n")
        assert main(["profile", "--extension", str(ext)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"Incomputable: {why}\n")


def test_profile_primes_are_read_once_each(capsys, tmp_path):
    ext = tmp_path / "quintic.txt"
    ext.write_text("poly: 1,0,0,0,-1,-1\n")
    code, out = run(capsys, ["profile", "--extension", str(ext), "--primes", "19,19,3,3"])
    assert code == 0
    assert out.splitlines()[3:] == [
        "profile p=3 [1:5] (computed_unramified)",
        "profile p=19 requires-declared-profile (divides disc or leading coefficient)",
    ]
    assert run(capsys, ["profile", "--extension", str(ext), "--primes", "3,19"]) == (code, out)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["specialize", "--pencil", "PENCIL", "--q", "4"], "4 is not prime"),
        (
            ["specialize", "--pencil", "PENCIL", "--q", "19", "--height", "0"],
            "height bound must be >= 1",
        ),
        (["profile", "--extension", "EXT", "--primes", "3,4"], "4 is not prime"),
        (["orbit-search", "psl2", "4"], "psl2_natural needs an odd prime, got 4"),
        (["orbit-search", "an", "2"], "alternating group needs degree >= 3"),
        (
            ["orbit-search", "psl2", "13", "--action", "deg55"],
            "the degree-55 action is built for p = 11 only",
        ),
        (["jacobian", "--f", "1,0,0,0,1,1", "--n", "0"], "target degree must be >= 4"),
        (["jacobian", "--f", "1,0,1", "--n", "5"], "hyperelliptic input needs degree >= 5"),
        (["mestre", "solve", "--odd-quintic", "1,0,1"], "solver handles degree-5 polynomials"),
        (["mestre", "solve", "--odd-quintic", "1,0,0,0,0,1"], "solver handles odd f only"),
        (["mestre", "verify", "--f", "1,0,1,0,0,0", "--g", "1,0,0,0,1"], "f must be separable"),
        (
            ["specialize", "--pencil", "PENCIL", "--q", "5"],
            "designated prime 5 lies in the excluded set",
        ),
        (
            ["specialize", "--pencil", "PENCIL", "--q", "19", "--curve", "CURVE"],
            "designated prime 19 is not multiplicative for the curve",
        ),
        (
            ["jacobian", "--f", "1,0,0,0,1,1", "--n", "5", "--bound", "10", "--p", "23"],
            "--p 23 lies above --bound 10",
        ),
        (["jacobian", "--f", "1,0,0,0,1,1", "--n", "5", "--p", "4"], "--p 4 is not prime"),
        (
            ["jacobian", "--f", "1,0,0,0,1,1", "--n", "5", "--bound", "60", "--p", "2"],
            "--p 2: the node-prime scan covers odd primes only",
        ),
        (
            ["profile", "--extension", "EXT", "--primes", "3317044064679887385961981"],
            PSI_13_MESSAGE,
        ),
        (["specialize", "--pencil", "PENCIL", "--q", "3317044064679887385961981"], PSI_13_MESSAGE),
        (
            ["jacobian", "--f", "1,0,0,0,1,1", "--n", "5", "--p", "3317044064679887385961981"],
            f"--p {PSI_13_MESSAGE}",
        ),
        (["orbit-search", "psl2", "11", "--cap", "0"], "--cap must be >= 1, got 0"),
        (["orbit-search", "psl2", "11", "--cap", "-3"], "--cap must be >= 1, got -3"),
        (
            ["specialize", "--pencil", "PENCIL", "--q", "19", "--limit", "0"],
            "--limit must be >= 1, got 0",
        ),
        (
            ["specialize", "--pencil", "PENCIL", "--q", "19", "--limit", "-1"],
            "--limit must be >= 1, got -1",
        ),
        # the node-prime scan covers odd primes only, so a bound below 3 scans none
        (
            ["jacobian", "--f", "1,0,0,0,1,1", "--n", "5", "--bound", "2"],
            "--bound must be >= 3, got 2",
        ),
        (
            ["jacobian", "--f", "1,0,0,0,1,1", "--n", "5", "--bound", "0", "--p", "3"],
            "--bound must be >= 3, got 0",
        ),
        (["orbit-search", "foo", "5"], "unknown group spec 'foo'"),
        (["orbit-search", "gens"], "gens needs --generators and --degree"),
        (
            ["orbit-search", "gens", "--degree", "4", "--generators", "(1,5)"],
            "bad generator literal: bad cycle '1,5' for degree 4",
        ),
        (["orbit-search", "sn", "0"], "group spec 'sn' needs a positive degree or prime"),
    ],
)
def test_invalid_option_values_exit_4(
    capsys, pencil_file, extension_file, curve_file, argv, message
):
    files = {"EXT": extension_file, "PENCIL": pencil_file, "CURVE": curve_file}
    code = main([files.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert code == 4
    assert err == f"parse error: line 0: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["mestre", "verify", "--f", "1,a", "--g", "1"],
        ["mestre", "verify", "--f", "1,0", "--g", "1/0"],
        ["mestre", "solve", "--odd-quintic", "1,0,x,0,1,0"],
        ["jacobian", "--f", "1,z", "--n", "5"],
        ["profile", "--extension", "EXT", "--primes", "3,x"],
        ["specialize", "--pencil", "PENCIL", "--q", "19", "--exclude", "2,3,y"],
    ],
)
def test_malformed_number_options_exit_4(capsys, pencil_file, extension_file, argv):
    files = {"EXT": extension_file, "PENCIL": pencil_file}
    code = main([files.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("parse error: line 0: malformed")


@pytest.mark.parametrize(
    "argv",
    [
        # a negative leading coefficient after a space reads as an option
        ["jacobian", "--f", "-1,0,0,0,1,1", "--n", "5"],
        ["mestre", "solve", "--odd-quintic", "-1,0,5,0,-4,0"],
        ["mestre", "verify", "--f", "1,0,1,0,1,0", "--g", "-1,0,0"],
        ["mestre", "factor"],
        ["orbit-search", "psl2", "eleven"],
        ["specialize", "--q", "19"],
        [],
        # an input file that does not exist
        ["root-number", "--curve", "no-such-curve.txt", "--extension", "no-such-ext.txt"],
    ],
)
def test_usage_errors_exit_4(capsys, argv):
    code = main(argv)
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_negative_leading_coefficient_attached_with_equals(capsys):
    code, out = run(capsys, ["mestre", "solve", "--odd-quintic=-1,0,5,0,-4,0"])
    assert code == 3  # -1 is not a square
    assert out.startswith("# f = -1,0,5,0,-4,0 (leading first); solutions: 0\n")
    code, out = run(capsys, ["jacobian", "--f=-1,0,0,0,1,1", "--n", "5"])
    assert code == 0


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["mestre", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "value, message",
    [
        ("13:a:1", "line 0: malformed 'a'"),
        ("x:0:1", "line 0: malformed 'x'"),
        ("13:0", "--congruent takes p:value:exponent"),
        ("13:0:1:2", "--congruent takes p:value:exponent"),
        ("4:0:1", "line 0: 4 is not prime"),
        ("3317044064679887385961981:0:1", f"line 0: {PSI_13_MESSAGE}"),
    ],
)
def test_malformed_congruent_option_exit_4(capsys, pencil_file, value, message):
    code = main(["specialize", "--pencil", pencil_file, "--q", "19", "--congruent", value])
    err = capsys.readouterr().err
    assert code == 4
    assert message in err


# ---------------------------------------------------------------- mestre


def test_mestre_solve_includes_printed_quartic(capsys):
    code, out = run(capsys, ["mestre", "solve", "--odd-quintic", "1,0,-164,0,2304,0"])
    assert code == 0
    assert "1,0,-559076/12249,0,2975047936/16670889" in out


def test_mestre_verify_roundtrip(capsys):
    code, out = run(
        capsys,
        [
            "mestre",
            "verify",
            "--f",
            "1,0,-5,0,4,0",
            "--g",
            "1,0,-73/29,0,21316/21025",
        ],
    )
    assert code == 0
    assert out.startswith("r = ")


def test_mestre_verify_not_square_exit_3(capsys):
    # f = 5X^5 + 4X, g = 1: f'g - g'f = 25X^4 + 4, not a square
    code, out = run(capsys, ["mestre", "verify", "--f", "5,0,0,0,4,0", "--g", "1"])
    assert code == 3
    assert "NotASquare" in out


_NUMBER = st.one_of(
    st.integers(-300, 300).map(str),
    st.tuples(st.integers(-300, 300), st.integers(-9, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
)
_ENTRY = st.one_of(
    _NUMBER,
    st.sampled_from(["", "1/0", "x", "-", "--", "1.5", "1e3", " 2", "nan", "inf", "-h", "0/0"]),
    st.text(max_size=3),
)
_COEFFS = st.one_of(
    st.lists(_ENTRY, max_size=7).map(",".join),
    # odd quintics, so the solver and the identity check run too
    st.tuples(_NUMBER, _NUMBER, _NUMBER).map(lambda t: f"{t[0]},0,{t[1]},0,{t[2]},0"),
)


def _option(name, value, attached):
    return [f"{name}={value}"] if attached else [name, value]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # only --help may exit, with 0
        return exc.code


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(f=_COEFFS, attached=st.booleans())
def test_mestre_solve_fuzz_ends_in_0_3_or_4(f, attached):
    assert _exit_code(["mestre", "solve", *_option("--odd-quintic", f, attached)]) in (0, 3, 4)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(f=_COEFFS, g=_COEFFS, attached=st.booleans())
def test_mestre_verify_fuzz_ends_in_0_3_or_4(f, g, attached):
    argv = ["mestre", "verify", *_option("--f", f, attached), *_option("--g", g, attached)]
    assert _exit_code(argv) in (0, 3, 4)


@st.composite
def _extension_lines(draw):
    """A poly: line (random, with a square factor, constant, or malformed) and
    up to two profile: lines, whose pairs often sum to the degree."""
    unit = st.integers(1, 9) | st.integers(-9, -1)
    coeffs = [draw(unit), *draw(st.lists(st.integers(-9, 9), max_size=4)), draw(unit)]
    a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    shapes = [
        ",".join(map(str, coeffs)),
        f"1,{2 * a},{a * a + 2 * b},{2 * a * b},{b * b}",
        f"0,1,{2 * a},{a * a}",
        str(b),
        draw(st.lists(_ENTRY, max_size=6).map(",".join)),
    ]
    poly = shapes[draw(st.sampled_from([0, 0, 0, 0, 1, 2, 3, 4, 4]))]
    lines = [f"poly: {poly}"]
    for _ in range(draw(st.integers(0, 2))):
        prime = draw(st.sampled_from(["2", "3", "5", "7", "4", "x", "-3"]))
        if draw(st.booleans()):  # e*f summing to len(coeffs) - 1
            pairs, rest = [], len(coeffs) - 1
            while rest > 0:
                e = draw(st.integers(1, rest))
                f = draw(st.integers(1, rest // e))
                pairs.append(f"{e}:{f}")
                rest -= e * f
            text = ",".join(pairs)
        else:
            text = draw(
                st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=4).map(
                    lambda ps: ",".join(f"{e}:{f}" for e, f in ps)
                )
                | st.sampled_from(["1", "1:", "a:b", "1:1,,1:1", "99999:99999", "1:1:1"])
            )
        lines.append(f"profile: p={prime} pairs={text}")
    return draw(st.permutations(lines))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lines=_extension_lines())
def test_extension_file_fuzz_ends_in_0_3_or_4(tmp_path_factory, lines):
    workdir = tmp_path_factory.mktemp("fuzz")
    ext = workdir / "ext.txt"
    ext.write_text("\n".join(lines) + "\n")
    curve = workdir / "curve.txt"
    curve.write_text(CURVE_TEXT)
    for argv in _both_commands(curve, ext):
        assert _exit_code(argv) in (0, 3, 4), argv[0]


@st.composite
def _curve_lines(draw):
    """a1..a6 (small numbers, now and then malformed or missing, sometimes all
    zero so the model is singular) and up to two local: lines."""
    zero = draw(st.integers(0, 5)) == 0
    lines = []
    for key in ("a1", "a2", "a3", "a4", "a6"):
        num, den = draw(st.integers(-9, 9)), draw(st.sampled_from([1] * 9 + [2, 3, 5]))
        value = "0" if zero else f"{num}/{den}"
        lines.append(f"{key}: {draw(st.sampled_from([value] * 18 + ['x', '1/0']))}")
    for _ in range(draw(st.integers(0, 2))):
        prime = draw(st.sampled_from(["2", "3", "5", "7"] * 3 + ["4", "x"]))
        kinds = ["declared"] * 3 + ["good", "split_mult", "additive", "bogus"]
        kind = draw(st.sampled_from(kinds))
        w = draw(st.sampled_from([" w=+1", " w=-1"] * 3 + ["", " w=0", " w=x"]))
        lines.append(f"local: p={prime} type={kind}{w}")
    lines = [line for line in lines if draw(st.sampled_from([True] * 19 + [False]))]
    return draw(st.permutations(lines))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lines=_curve_lines(), poly=st.sampled_from(["1,-1", "1,0,-2", "1,0,0,-2"]))
def test_curve_file_fuzz_ends_in_0_3_or_4(tmp_path_factory, lines, poly):
    workdir = tmp_path_factory.mktemp("fuzz")
    curve = workdir / "curve.txt"
    curve.write_text("\n".join(lines) + "\n")
    ext = workdir / "ext.txt"
    ext.write_text(f"poly: {poly}\n")
    assert _exit_code(["root-number", "--curve", str(curve), "--extension", str(ext)]) in (0, 3, 4)


# valid branch records (drawn most often) and invalid ones
_BRANCHES = (
    *3 * (
        "branch: location=inf e=2 degree=5 D=(1,2)(3,4)",
        "branch: location=0 e=2 degree=3 D=(1,2)",
        "branch: location=1/2 e=3 degree=4 D=(1,2,3) I=(1,2,3)",
    ),
    "branch: location=inf e=1 degree=5 D=(1,2)(3,4)",
    "branch: location=inf e=2 degree=3 D=(1,2) I=(1,2,3)",
    "branch: location=inf e=2 degree=4 D=(1,2,3,4) I=(1,3)",
    "branch: location=inf e=2",
)


@st.composite
def _pencil_lines(draw):
    """A form: mestre pencil (random f and g, f with a square factor, or
    malformed) or a form: general one (random coeff: rows, some missing or with
    a zero denominator), with branch: lines valid or not; a line is now and
    then left out."""

    def coeffs(lo, hi):
        return ",".join(map(str, draw(st.lists(st.integers(-5, 5), min_size=lo, max_size=hi))))

    if draw(st.booleans()):
        a = draw(st.integers(-3, 3))
        f = draw(st.sampled_from([coeffs(3, 6)] * 6 + [f"1,{2 * a},{a * a}", "1,0,0", "1,x"]))
        lines = ["form: mestre", f"f: {f}", f"g: {coeffs(1, 3)}"]
    else:
        degree = draw(st.integers(1, 4))
        lines = ["form: general", f"degree: {degree}"]
        for k in range(degree + 1):
            den = draw(st.sampled_from(["", "", "", " den=1,1", " den=0", " den=1,0"]))
            lines.append(f"coeff: k={k} num={coeffs(1, 3)}{den}")
    lines += draw(st.lists(st.sampled_from(_BRANCHES), min_size=1, max_size=2))
    lines = [line for line in lines if draw(st.sampled_from([True] * 19 + [False]))]
    return draw(st.permutations(lines))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lines=_pencil_lines(), q=st.sampled_from(["5", "5", "7", "13", "4"]))
def test_pencil_file_fuzz_ends_in_0_3_or_4(tmp_path_factory, lines, q):
    pencil = tmp_path_factory.mktemp("fuzz") / "fuzz.pencil"
    pencil.write_text("\n".join(lines) + "\n")
    # height 6 reaches candidates t0 with v_q(t0) = -1 for q = 5 only, so q is
    # taken out of the default excluded set
    argv = ["specialize", "--pencil", str(pencil), "--q", q, "--height", "6", "--limit", "1"]
    argv += ["--exclude", "2,3"]
    assert _exit_code(argv) in (0, 3, 4)


# ---------------------------------------------------------------- jacobian


def test_jacobian_report(capsys):
    code, out = run(capsys, ["jacobian", "--f", "1,0,0,0,1,1", "--n", "5", "--bound", "60"])
    assert code == 0
    assert "conditional-on-parity-conjecture" in out
    rows = [l for l in out.splitlines() if l and not l.startswith("#") and "\t" in l]
    assert any(l.startswith("3\t") for l in rows[1:])
    for l in rows[1:]:
        assert "flip" in l


def test_jacobian_smooth_prime_rejected(capsys):
    code, out = run(
        capsys, ["jacobian", "--f", "1,0,0,0,1,1", "--n", "5", "--bound", "60", "--p", "11"]
    )
    assert code == 3
    assert "rejected" in out


def test_jacobian_p_restricts_the_report_to_a_node_prime(capsys):
    # 23 is a node prime; with --bound 10 the same --p is an option error
    code, out = run(
        capsys, ["jacobian", "--f", "1,0,0,0,1,1", "--n", "5", "--bound", "30", "--p", "23"]
    )
    assert code == 0
    assert [l.split("\t")[0] for l in out.splitlines()[3:]] == ["23"]


# ---------------------------------------------------------------- specialize


def test_specialize_smoke(capsys, pencil_file):
    argv = [
        "specialize",
        "--pencil",
        pencil_file,
        "--q",
        "19",
        "--height",
        "40",
        "--limit",
        "1",
    ]
    code, out = run(capsys, argv)
    assert code == 0
    assert "conditional-on-parity-conjecture" in out
    lines = out.splitlines()
    cand = [l for l in lines if l.startswith("candidate\t")]
    assert cand
    fields = cand[0].split("\t")
    assert fields[4] == "-1"  # ratio
    assert fields[6] == "distinct"
    assert fields[7] == "square-disc"


def test_specialize_deterministic_same_seed(capsys, pencil_file):
    argv = [
        "specialize",
        "--pencil",
        pencil_file,
        "--q",
        "19",
        "--height",
        "40",
        "--limit",
        "1",
        "--seed",
        "7",
    ]
    _, out1 = run(capsys, argv)
    _, out2 = run(capsys, argv)
    assert out1 == out2


# y^2 = x(x+1)(x - 19): split multiplicative at 19, 2 and 3 declared
SPLIT_AT_19_CURVE = (
    "a1: 0\na2: -18\na3: 0\na4: -19\na6: 0\n"
    "local: p=2 type=declared w=+1\nlocal: p=3 type=declared w=+1\n"
)
MESTRE_PENCIL = (
    "form: mestre\nf: 1,0,-164,0,2304,0\ng: 1,0,-559076/12249,0,2975047936/16670889\n"
    "branch: location=inf e=2 degree=5 D=(1,2)(3,4)\n"
)
# y^2 = x(x+2)(x - 38): nonsplit multiplicative at 5 and 19, 2 declared
NONSPLIT_AT_19_CURVE = "a1: 0\na2: -36\na3: 0\na4: -76\na6: 0\nlocal: p=2 type=declared w=+1\n"
# X^2 + t, ramified at 13 when v_13(t0) = -1: one prime above 13 with f = 1, so
# the ratio is -1 when 13 is split multiplicative and +1 when nonsplit
X2_PLUS_T_PENCIL = (
    "form: general\ndegree: 2\ncoeff: k=0 num=1,0\ncoeff: k=1 num=0\ncoeff: k=2 num=1\n"
    "branch: location=inf e=2 degree=2 D=(1,2) I=(1,2)\n"
)
PSL11_PLAIN_DIGEST = "8ab73973f5cf6ae5ded113610f92ba6d07f6a8b18fbb54debc72934e3c00dd22"
MESTRE_DIGEST = "2a82782afc733302915946d73a345e3cd64fa41ebb6c782efc71999e4dd7feb2"
Q19_PSL11 = ["--q", "19", "--height", "200"]
Q19_MESTRE = ["--q", "19", "--height", "100"]
Q13_X2_PLUS_T = ["--q", "13", "--height", "30"]


@pytest.mark.parametrize(
    "pencil_text, options, digest",
    [
        ("family: psl2-11-degree12\n", Q19_PSL11, PSL11_PLAIN_DIGEST),
        # at a split multiplicative q the root-number ratio is the split-count one
        ("family: psl2-11-degree12\n", [*Q19_PSL11, "--curve", "SPLIT"], PSL11_PLAIN_DIGEST),
        (
            "family: psl2-11-degree12\n",
            [*Q19_PSL11, "--congruent", "13:2:1"],
            "b0f38ce4c043941506ae6e4577b2a25010eb14bb4708ef11525ab07803e96889",
        ),
        (MESTRE_PENCIL, Q19_MESTRE, MESTRE_DIGEST),
        # every profile at 19 below has an even number of parts with odd f, so
        # split and nonsplit give one ratio
        (
            "family: psl2-11-degree12\n",
            [*Q19_PSL11, "--assume-reduction", "nonsplit"],
            PSL11_PLAIN_DIGEST,
        ),
        ("family: psl2-11-degree12\n", [*Q19_PSL11, "--curve", "NONSPLIT"], PSL11_PLAIN_DIGEST),
        (MESTRE_PENCIL, [*Q19_MESTRE, "--assume-reduction", "nonsplit"], MESTRE_DIGEST),
        (MESTRE_PENCIL, [*Q19_MESTRE, "--curve", "NONSPLIT"], MESTRE_DIGEST),
        (
            X2_PLUS_T_PENCIL,
            Q13_X2_PLUS_T,
            "13054e2a5bab18fdf8a0e65a5c3b40633ae4409f8fb2bb76fd82c6b6823d94c0",
        ),
        (
            X2_PLUS_T_PENCIL,
            [*Q13_X2_PLUS_T, "--assume-reduction", "nonsplit"],
            "7804ea184212393954ab5f7e61cbc75b730fb024f47d0d75653ad0c85455f8b8",
        ),
    ],
    ids=[
        "psl2-11",
        "psl2-11-curve",
        "psl2-11-congruent",
        "mestre",
        "psl2-11-nonsplit",
        "psl2-11-nonsplit-curve",
        "mestre-nonsplit",
        "mestre-nonsplit-curve",
        "x2-plus-t-split",
        "x2-plus-t-nonsplit",
    ],
)
def test_specialize_reports_are_pinned(capsys, tmp_path, pencil_text, options, digest):
    # reports are byte-identical across versions unless a change says otherwise
    pencil = tmp_path / "p.pencil"
    pencil.write_text(pencil_text)
    curves = {"SPLIT": SPLIT_AT_19_CURVE, "NONSPLIT": NONSPLIT_AT_19_CURVE}
    for name, text in curves.items():
        (tmp_path / name).write_text(text)
    options = [str(tmp_path / o) if o in curves else o for o in options]
    argv = ["specialize", "--pencil", str(pencil), "--limit", "2", *options]
    code, out = run(capsys, argv)
    assert code == 0
    assert len(out.splitlines()) == 6
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _quartic_pencil(tmp_path, branch):
    """X^4 + 2X^2 - 19t, whose fiber at t0 = -1/19 is (X^2 + 1)^2."""
    pencil = tmp_path / "p.pencil"
    pencil.write_text(
        "form: general\ndegree: 4\ncoeff: k=0 num=-19,0\ncoeff: k=1 num=0\n"
        f"coeff: k=2 num=2\ncoeff: k=3 num=0\ncoeff: k=4 num=1\nbranch: {branch}\n"
    )
    return str(pencil)


def test_specialize_skips_an_inseparable_fiber(capsys, tmp_path):
    # the candidates t0 = -k/19 come in height order, so the search reaches the
    # inseparable fiber (X^2 + 1)^2 at -1/19, past the valuation condition, and
    # skips it before -20/19
    pencil = _quartic_pencil(tmp_path, "location=inf e=2 degree=4 D=(1,2)(3,4) I=(1,2)(3,4)")
    argv = [
        "specialize", "--pencil", pencil, "--q", "19",
        "--height", "30", "--limit", "2", "--exclude", "2,3",
    ]
    code, out = run(capsys, argv)
    assert code == 0
    flag = "conditional-on-parity-conjecture"
    assert out == (
        f"# every rank-gain verdict below is {flag}; root numbers are unconditional\n"
        "# pencil general, designated prime 19, height bound 30, seed 0\n"
        "role\tt0\tpolynomial\tprofiles\tratio\tflag\tfingerprint\tan_parity\n"
        "reference\t-18/19\t1,0,2,0,18\tp=19[1:4]\t\treference\t-\tnonsquare-disc\n"
        f"candidate\t-20/19\t1,0,2,0,20\tp=19[2:1,2:1]\t-1\topposite-root-numbers {flag}"
        "\tdistinct\tnonsquare-disc\n"
    )


@pytest.mark.parametrize("valuation", ["1", "-2"])
def test_specialize_refuses_a_valuation_that_misses_the_target_inertia(
    capsys, pencil_file, valuation
):
    # psl2-11-degree12's pair sits at inf with e = 2. A t0 with v_19(t0) = 1
    # meets t = 0, which is not a branch point, and one with v_19(t0) = -2
    # meets inf twice: either way the fiber is unramified at 19, so the
    # declared profile and the ratio -1 printed for it (at t0 = -19, -19/2 and
    # -19/3 for v = 1) were wrong
    argv = [
        "specialize", "--pencil", pencil_file, "--q", "19", "--valuation", valuation,
        "--height", "200", "--limit", "3",
    ]
    code, out = run(capsys, argv)
    assert (code, out) == (4, "")


@pytest.mark.parametrize(
    "branch, valuation, reached",
    [
        ("location=1/2 e=2 degree=4 D=(1,2)(3,4) I=(1,2)(3,4)", "-1", False),
        ("location=1/2 e=2 degree=4 D=(1,2)(3,4) I=(1,2)(3,4)", "1", False),
        ("location=0 e=2 degree=4 D=(1,2)(3,4) I=(1,2)(3,4)", "-1", False),
        ("location=0 e=2 degree=4 D=(1,2)(3,4) I=(1,2)(3,4)", "1", True),
        ("location=0 e=2 degree=4 D=(1,2)(3,4) I=(1,2)(3,4)", "2", False),
        ("location=inf e=3 degree=4 D=(1,2,3) I=(1,2,3)", "-3", False),
        ("location=inf e=3 degree=4 D=(1,2,3) I=(1,2,3)", "-2", True),
    ],
)
def test_specialize_valuation_must_reach_the_pair_branch_point(
    capsys, tmp_path, branch, valuation, reached
):
    # v_q(t0) = v meets inf with multiplicity -v and 0 with multiplicity v; the
    # inertia is the pair's only when that multiplicity is positive and prime
    # to e, and no valuation reaches a branch point elsewhere
    argv = [
        "specialize", "--pencil", _quartic_pencil(tmp_path, branch), "--q", "19",
        "--valuation", valuation, "--height", "30", "--limit", "2", "--exclude", "2,3",
    ]
    code, out = run(capsys, argv)
    assert (code != 4) == reached
    assert out.startswith("# every rank-gain verdict") == reached


@pytest.mark.parametrize("label", ["", " class=3A"])
def test_branch_e_must_be_the_order_of_an_inertia_generator(capsys, tmp_path, label):
    # I = <(1,2)(3,4)> has order 2, not e = 3: the record is refused at its
    # line with or without a class label, before --valuation -2 (prime to
    # e = 3 at inf) could search with the wrong e
    pencil = tmp_path / "k1.pencil"
    pencil.write_text(
        "form: mestre\nf: 1,0,-164,0,2304,0\ng: 1,0,-559076/12249,0,2975047936/16670889\n"
        f"branch: location=inf e=3{label} degree=5 D=(1,2)(3,4) I=(1,2)(3,4)\n"
    )
    argv = [
        "specialize", "--pencil", str(pencil), "--q", "19", "--valuation", "-2",
        "--height", "30", "--limit", "2", "--exclude", "2,3",
    ]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "parse error: line 4: ramification index does not match the declared inertia generators\n"
    )


def test_specialize_prints_each_fiber_polynomial_once(capsys, pencil_file):
    # the pencil depends on t only through t^2, so the fibers at 1/19 and 2/19
    # repeat those at -1/19 and -2/19; the search skips them and goes on to
    # -20/19 and -21/19 for the 20 candidates
    argv = ["specialize", "--pencil", pencil_file, "--q", "19", "--height", "2000"]
    code, out = run(capsys, [*argv, "--limit", "20"])
    assert code == 0
    records = [l.split("\t") for l in out.splitlines() if l.startswith(("reference\t", "candidate\t"))]
    assert [r[0] for r in records] == ["reference"] + ["candidate"] * 20
    assert len({r[2] for r in records}) == 21
    assert [r[1] for r in records[-3:]] == ["-1/19", "-20/19", "-21/19"]


@pytest.mark.parametrize(
    "pencil_text, options",
    [
        ("family: psl2-11-degree12\n", ["--height", "200"]),
        # an S3 family: every record has a nonsquare discriminant
        (
            "form: mestre\nf: 1,0,-1,-1\ng: 1,0,1\nbranch: location=inf e=2 degree=3 D=(1,2)\n",
            ["--height", "100", "--exclude", "2,3"],
        ),
    ],
    ids=["psl2-11-degree12", "cubic"],
)
def test_specialize_parity_column_matches_an_certificate(capsys, tmp_path, pencil_text, options):
    pencil = tmp_path / "p.pencil"
    pencil.write_text(pencil_text)
    argv = ["specialize", "--pencil", str(pencil), "--q", "19", "--limit", "2", *options]
    code, out = run(capsys, argv)
    assert code == 0
    records = [l.split("\t") for l in out.splitlines() if l.startswith(("reference\t", "candidate\t"))]
    assert len(records) == 3
    for record in records:
        poly = PolyQ.from_descending([F(c) for c in record[2].split(",")])
        square = an_certificate(poly).contained_in_alternating
        assert record[7] == ("square-disc" if square else "nonsquare-disc")


# ---------------------------------------------------------------- profile


def test_profile_report(capsys, extension_file):
    code, out = run(capsys, ["profile", "--extension", extension_file, "--primes", "3,7"])
    assert code == 0
    assert "signature: (5,0)" in out
    assert "profile p=5 [1:1,2:2] (declared)" in out
    assert "profile p=7" in out and "computed_unramified" in out
    assert "p=3 requires-declared-profile" in out


def test_a_prime_dividing_a_denominator_is_not_good(capsys, tmp_path):
    # -5X^3 + 36X^2 - 37X + 26/3 (disc 132016, prime to 3) and three times it
    # define one field: 3 divides a denominator of the one and the leading
    # coefficient of the other, so both report it alike
    curve = tmp_path / "11a3.txt"
    curve.write_text("a1: 0\na2: -1\na3: 1\na4: 0\na6: 0\n")
    reports = []
    for poly in ("-5,36,-37,26/3", "-15,108,-111,26"):
        ext = tmp_path / "field.txt"
        ext.write_text(f"poly: {poly}\n")
        code, out = run(capsys, ["profile", "--extension", str(ext), "--primes", "2,3,5,7,37"])
        assert code == 0
        header, *lines = out.splitlines()
        assert header == f"# poly (leading first): {poly}"
        argv = ["root-number", "--curve", str(curve), "--extension", str(ext)]
        reports.append((lines, run(capsys, argv)))
    assert reports[0] == reports[1]
    lines, (code, out) = reports[0]
    assert "profile p=3 requires-declared-profile (divides disc or leading coefficient)" in lines
    assert code == 0 and out.endswith("W(E/F) = +1\n")


def test_reports_print_the_full_irreducibility_certificate(capsys, tmp_path, curve_file):
    # X^5 - 5X + 6: the patterns at 3, 7 and 11 already leave no split, but the
    # printed certificate names the first irreducible reduction, at 23
    ext = tmp_path / "quintic.txt"
    ext.write_text("poly: 1,0,0,0,-5,6\n")
    code, out = run(capsys, ["profile", "--extension", str(ext), "--primes", "3,5,7,11,13"])
    assert code == 0
    assert out == (
        "# poly (leading first): 1,0,0,0,-5,6\n"
        "signature: (1,2)\n"
        "irreducibility: irreducible_mod_p witness p=23\n"
        "profile p=3 [1:1,1:2,1:2] (computed_unramified)\n"
        "profile p=7 [1:1,1:4] (computed_unramified)\n"
        "profile p=11 [1:2,1:3] (computed_unramified)\n"
        "profile p=5 requires-declared-profile (divides disc or leading coefficient)\n"
        "profile p=13 requires-declared-profile (divides disc or leading coefficient)\n"
    )
    code, out = run(capsys, ["root-number", "--curve", curve_file, "--extension", str(ext)])
    assert code == 3
    assert out == (
        "# every rank-gain verdict below is conditional-on-parity-conjecture; "
        "root numbers are unconditional\n"
        "# extension degree 5, signature (1,2)\n"
        "# irreducibility: irreducible_mod_p\n"
        "W(E/F) = Incomputable: incomputable at p=2: declared prime with no profile for F\n"
    )


# ---------------------------------------------------------------- output files


def test_out_flag_writes_file(tmp_path, pencil_file, capsys):
    dest = tmp_path / "report.tsv"
    code = main(
        [
            "orbit-search",
            "an",
            "5",
            "--out",
            str(dest),
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert dest.read_text().startswith("# group: A5")


def _main_alone(argv, timeout=None):
    """Exit code, stdout and stderr of `main(argv)` in a fresh interpreter,
    which is killed (subprocess.TimeoutExpired) after `timeout` seconds."""
    src = str(Path(rootgain.__file__).resolve().parents[1])
    script = "import sys; from rootgain.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_main_calls_in_one_process_match_calls_alone(capsys, tmp_path, pencil_file):
    # the parser is built once per process: a request must not see an earlier
    # one's options (an appended --congruent) or its usage error
    base = ["specialize", "--pencil", pencil_file, "--q", "19", "--height", "200", "--limit", "1"]
    requests = [
        base + ["--congruent", "13:2:1"],
        ["specialize", "--q", "19"],  # no --pencil: a usage error
        base,
    ]
    for i, argv in enumerate(requests):
        dest = tmp_path / f"report{i}.tsv"
        argv = argv + ["--out", str(dest)]
        code = main(argv)
        captured = capsys.readouterr()
        together = (code, captured.out, captured.err, dest.read_bytes() if dest.exists() else None)
        dest.unlink(missing_ok=True)
        alone = (*_main_alone(argv), dest.read_bytes() if dest.exists() else None)
        assert together == alone
        assert code == (4 if i == 1 else 0)


def test_curve_discriminant_beyond_trial_division_exits_3(tmp_path, pencil_file):
    # a4 = 1000000007 * 10000000019, so the discriminant -64 a4^3 leaves a
    # composite cofactor with no prime factor below the trial-division bound
    a4 = 1000000007 * 10000000019
    curve = tmp_path / "curve.txt"
    curve.write_text(f"a1: 0\na2: 0\na3: 0\na4: {a4}\na6: 0\nlocal: p=2 type=declared w=+1\n")
    ext = tmp_path / "ext.txt"
    ext.write_text("poly: 1,0,-5\n")
    for argv in (
        ["root-number", "--curve", str(curve), "--extension", str(ext)],
        ["specialize", "--pencil", pencil_file, "--q", "19", "--curve", str(curve)],
    ):
        code, out, err = _main_alone(argv, timeout=30)
        assert (code, out) == (3, ""), argv[0]
        assert err == (
            "Incomputable: trial division below 1000000 leaves a cofactor not proven"
            f" prime: {a4**3} is not prime\n"
        )


# ---------------------------------------------------------------- README


README = Path(__file__).resolve().parent.parent / "README.md"


def _worked_session():
    """The README's worked session as steps: ("file", name, text) for each
    `cat > name <<EOF` heredoc, and ("run", argv, comment) for each `rootgain`
    line, with its inline comment and the comment lines just above it."""
    text = README.read_text(encoding="utf-8").split("### Worked session", 1)[1]
    lines = iter(text.split("```sh\n", 1)[1].split("\n```", 1)[0].splitlines())
    steps, comments = [], []
    for line in lines:
        if not line.strip():
            comments = []
        elif line.startswith("#"):
            comments.append(line)
        elif heredoc := re.fullmatch(r"cat > (\S+) <<EOF", line):
            body = list(iter(lambda: next(lines), "EOF"))
            steps.append(("file", heredoc[1], "\n".join(body) + "\n"))
            comments = []
        else:
            argv = shlex.split(line, comments=True)
            assert argv[0] == "rootgain", line
            steps.append(("run", argv[1:], " ".join([*comments, line.partition("  #")[2]])))
            comments = []
    return steps


def test_readme_worked_session_runs_as_its_comments_state(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = 0
    for kind, what, text in _worked_session():
        if kind == "file":
            (tmp_path / what).write_text(text)
            continue
        runs += 1
        code, out = run(capsys, what)
        exit_code = re.search(r"exit (\d)", text)
        root_number = re.search(r"W\(E/F\) = ([+-]1)", text)
        assert exit_code or root_number, f"{what}: its comment states no result"
        if exit_code:
            assert code == int(exit_code[1]), what
        if root_number:
            assert code == 0 and out.endswith(f"W(E/F) = {root_number[1]}\n"), what
    assert runs == 6
