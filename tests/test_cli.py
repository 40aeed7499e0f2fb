from fractions import Fraction as F

import pytest

from rootgain.algebra import PolyQ
from rootgain.cli import main
from rootgain.mestre import mestre_form_pencil, specialize

CURVE_TEXT = """\
# Y^2 = X(X-1)(X-5)
a1: 0
a2: -6
a3: 0
a4: 5
a6: 0
local: p=2 type=declared w=+1
"""


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


def test_orbit_search_cap_exceeded_exit_2(capsys):
    code, _ = run(capsys, ["orbit-search", "sn", "12", "--cap", "1000"])
    assert code == 2


# ---------------------------------------------------------------- root-number


def test_root_number_worked_example(capsys, curve_file, extension_file):
    code, out = run(
        capsys, ["root-number", "--curve", curve_file, "--extension", extension_file]
    )
    assert code == 0
    assert "W(E/F) = -1" in out
    assert "conditional-on-parity-conjecture" in out


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
    "argv, message",
    [
        (["specialize", "--pencil", "PENCIL", "--q", "4"], "4 is not prime"),
        (
            ["specialize", "--pencil", "PENCIL", "--q", "19", "--height", "0"],
            "height bound must be >= 1",
        ),
        (["profile", "--extension", "EXT", "--primes", "3,4"], "4 is not prime"),
    ],
)
def test_invalid_option_values_exit_4(capsys, pencil_file, extension_file, argv, message):
    files = {"EXT": extension_file, "PENCIL": pencil_file}
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
    "value, message",
    [
        ("13:a:1", "line 0: malformed 'a'"),
        ("x:0:1", "line 0: malformed 'x'"),
        ("13:0", "--congruent takes p:value:exponent"),
        ("13:0:1:2", "--congruent takes p:value:exponent"),
        ("4:0:1", "line 0: 4 is not prime"),
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
        "--pattern-primes",
        "20",
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
        "--pattern-primes",
        "20",
        "--seed",
        "7",
    ]
    _, out1 = run(capsys, argv)
    _, out2 = run(capsys, argv)
    assert out1 == out2


# ---------------------------------------------------------------- profile


def test_profile_report(capsys, extension_file):
    code, out = run(capsys, ["profile", "--extension", extension_file, "--primes", "3,7"])
    assert code == 0
    assert "signature: (5,0)" in out
    assert "profile p=5 [1:1,2:2] (declared)" in out
    assert "profile p=7" in out and "computed_unramified" in out
    assert "p=3 requires-declared-profile" in out


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
