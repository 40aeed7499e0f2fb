"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see the lines live)."""

import functools
import random
from fractions import Fraction as F

from rootgain.algebra import PolyQ, discriminant, rational_sqrt, valuation
from rootgain.cli import main
from rootgain.ellcurve import (
    CurveLocalData,
    EllipticCurveData,
    LocalReductionData,
    classify_reduction,
)
from rootgain.extension import build_profile, klein_four_local, quadratic_local, root_number_over_extension
from rootgain.jacobian import (
    StableModelData,
    find_node_primes,
    hyperelliptic_rank_gain_report,
    orbit_simulation_root_number,
    root_number_after_extension,
)
from rootgain.mestre import (
    mestre_form_pencil,
    mestre_solve_odd_quintic,
    mestre_verify,
    specialize,
)
from rootgain.permgroup import (
    all_subgroups,
    centralizer_scan,
    compose,
    fixed_points,
    identity_perm,
    metacyclic_odd_orbit_search,
    orbit_count,
    psl2_11_degree55,
    psl2_natural,
)

F1 = PolyQ([0, 2304, 0, -164, 0, 1])
G1 = PolyQ([F(2975047936, 16670889), 0, F(-559076, 12249), 0, 1])
F2 = PolyQ([0, 4, 0, -5, 0, 1])
G2 = PolyQ([F(21316, 21025), 0, F(-73, 29), 0, 1])


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            try:
                fn(*a, **k)
            except BaseException:
                print(f"\nACCEPTANCE {num} [{desc}]: FAIL")
                raise
            print(f"\nACCEPTANCE {num} [{desc}]: PASS")

        return wrapper

    return deco


@criterion(1, "degree-55 action of PSL2(11) has no odd-orbit metacyclic pair")
def test_criterion_1_degree55_empty(capsys):
    G = psl2_11_degree55()
    assert G.degree == 55 and G.order() == 660
    assert metacyclic_odd_orbit_search(G, require_inertia_even=False) == []
    code = main(["orbit-search", "psl2", "11", "--action", "deg55"])
    captured = capsys.readouterr()
    assert code == 3
    assert "odd: 0" in captured.out


@criterion(2, "involution structure of PSL2(p), p = 11, 19, 43")
def test_criterion_2_psl2_structure_suite():
    for p in (11, 19, 43):
        G = psl2_natural(p)
        assert G.order() == p * (p * p - 1) // 2
        n = p + 1
        ident = identity_perm(n)
        involutions = [g for g in G.elements if g != ident and compose(g, g) == ident]
        assert len(involutions) == p * (p - 1) // 2
        for x in involutions:
            assert fixed_points(x) == 0
            C = centralizer_scan(G, x)
            assert len(C) == n
            assert orbit_count(C, n) == 1
            for idx_set, gen_idxs in all_subgroups(C):
                if len(idx_set) % 4 == 0:
                    gens = [C[i] for i in gen_idxs]
                    assert orbit_count(gens, n) % 2 == 1


@criterion(3, "square-difference identities and odd-quintic solver")
def test_criterion_3_mestre_identities():
    r1 = mestre_verify(F1, G1)
    assert r1 * r1 == F1.derivative() * G1 - G1.derivative() * F1
    r2 = mestre_verify(F2, G2)
    assert r2 * r2 == F2.derivative() * G2 - G2.derivative() * F2
    assert any(g == G1 for g, _ in mestre_solve_odd_quintic(F1))
    assert any(g == G2 for g, _ in mestre_solve_odd_quintic(F2))


@criterion(4, "worked quintic root number W(E/K1) = -1")
def test_criterion_4_worked_root_number():
    E = EllipticCurveData.from_coeffs(0, -6, 0, 5, 0)
    # the engine must derive the split type at 5 on its own
    assert classify_reduction(E, 5).type == "split_mult"
    bundle = CurveLocalData.build(E, [LocalReductionData(2, "declared", 1)])
    h = specialize(mestre_form_pencil(F1, G1), F(160000, 177147))
    prof = build_profile(h, declared={2: [(1, 1)] * 5, 5: [(2, 2), (1, 1)]})
    assert prof.signature == (5, 0)
    assert root_number_over_extension(bundle, prof) == -1


@criterion(5, "Klein-four seed field: 2 and infinity split, V4 at 5")
def test_criterion_5_seed_field_checks():
    # 2 splits completely in the compositum: split in all three subfields
    assert quadratic_local(65, 2) == "split"
    assert quadratic_local(17, 2) == "split"
    assert quadratic_local(1105, 2) == "split"
    # infinity splits: all three generators are positive reals
    assert 65 > 0 and 17 > 0 and 1105 > 0
    at5 = klein_four_local(65, 17, 5)
    assert at5.decomposition_order == 4  # full Klein four-group
    assert at5.inertia_order == 2
    assert at5.subfield_behavior[0] == "ramified"  # sqrt(65) side
    assert at5.subfield_behavior[1] == "inert"  # sqrt(17) side


@criterion(6, "residue-extension engine equals the orbit simulation (288 cases)")
def test_criterion_6_engine_vs_oracle():
    for tau in (1, -1):
        for dz in range(1, 13):
            for d in range(1, 13):
                M = StableModelData(((dz, tau),))
                assert root_number_after_extension(M, [d]) == orbit_simulation_root_number(
                    M, [d]
                )
    # literal case-a biconditional: ground sign -tau = -1 (tau = +1)
    for dz in range(1, 13):
        for d in range(1, 13):
            M = StableModelData(((dz, 1),))
            omega_q = orbit_simulation_root_number(M, [d])
            assert (omega_q == 1) == (d % 2 == 0 and dz % 2 == 0)


@criterion(7, "node-prime profile flip on 20 random quintics/sextics")
def test_criterion_7_random_flips():
    rng = random.Random(1030)
    found = 0
    tried = 0
    while found < 20:
        tried += 1
        assert tried < 2000, "random search exhausted"
        deg = rng.choice([5, 6])
        f = PolyQ([rng.randint(-25, 25) for _ in range(deg)] + [1])
        if not f.is_separable():
            continue
        if not find_node_primes(f, 100):
            continue
        found += 1
        rows = hyperelliptic_rank_gain_report(f, rng.choice([4, 5, 6, 7]), 100)
        assert rows
        for row in rows:
            assert row.profile_a_w == -row.profile_b_w
            assert row.verdict == "flip"


@criterion(8, "constrained specialization search, q = 19, height 200")
def test_criterion_8_specialization_smoke(tmp_path, capsys):
    pencil_path = tmp_path / "psl11.pencil"
    pencil_path.write_text("family: psl2-11-degree12\n")
    out_path = tmp_path / "report.tsv"
    code = main(
        [
            "specialize",
            "--pencil",
            str(pencil_path),
            "--q",
            "19",
            "--height",
            "200",
            "--limit",
            "2",
            "--out",
            str(out_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    rows = [l.split("\t") for l in out_path.read_text().splitlines() if "\t" in l]
    header, *records = rows
    refs = [r for r in records if r[0] == "reference"]
    cands = [r for r in records if r[0] == "candidate"]
    assert refs and cands
    # recompute the constraint and parity facts independently of the report
    ref_poly = PolyQ.from_descending([F(c) for c in refs[0][2].split(",")])
    assert valuation(discriminant(ref_poly), 19) == 0  # q unramified on one side
    for cand in cands:
        t0 = F(cand[1])
        assert valuation(t0, 19) == -1  # q strictly divides the denominator
        poly = PolyQ.from_descending([F(c) for c in cand[2].split(",")])
        assert poly.degree == 12
        assert valuation(discriminant(poly), 19) >= 6  # three (e=2, f=2) primes
        assert rational_sqrt(discriminant(poly)) is not None  # inside A12
        assert cand[4] == "-1"
        assert "conditional-on-parity-conjecture" in cand[5]
        assert cand[6] == "distinct"
    assert rational_sqrt(discriminant(ref_poly)) is not None


@criterion(9, "byte-identical CLI reruns under a fixed seed")
def test_criterion_9_determinism(tmp_path, capsys):
    curve = tmp_path / "curve.txt"
    curve.write_text(
        "a1: 0\na2: -6\na3: 0\na4: 5\na6: 0\nlocal: p=2 type=declared w=+1\n"
    )
    h = specialize(mestre_form_pencil(F1, G1), F(160000, 177147))
    ext = tmp_path / "ext.txt"
    ext.write_text(
        "poly: " + ",".join(str(c) for c in reversed(h.coeffs)) + "\n"
        "profile: p=2 pairs=1:1,1:1,1:1,1:1,1:1\n"
        "profile: p=5 pairs=2:2,1:1\n"
    )
    pencil = tmp_path / "psl11.pencil"
    pencil.write_text("family: psl2-11-degree12\n")
    invocations = [
        ["orbit-search", "an", "5", "--seed", "11"],
        ["orbit-search", "psl2", "11", "--action", "deg55", "--seed", "11"],
        ["root-number", "--curve", str(curve), "--extension", str(ext), "--seed", "11"],
        ["mestre", "solve", "--odd-quintic", "1,0,-164,0,2304,0", "--seed", "11"],
        ["jacobian", "--f", "1,0,0,0,1,1", "--n", "5", "--bound", "60", "--seed", "11"],
        [
            "specialize",
            "--pencil",
            str(pencil),
            "--q",
            "19",
            "--height",
            "40",
            "--limit",
            "1",
            "--seed",
            "11",
        ],
        ["profile", "--extension", str(ext), "--primes", "3,7", "--seed", "11"],
    ]
    for argv in invocations:
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second and first
