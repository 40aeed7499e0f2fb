"""Checks of every report, computed apart from the program.

Nothing here imports rootgain. Facts are recomputed with sympy (factorization
over Q and modulo p, discriminants, real-root counts, Galois groups of degree
<= 6) or with this file's own code (Fraction evaluation of the pencils,
PSL2(p) built from 2x2 matrices, permutation orbits), or they are properties
the method must have (|C(x)| = p + 1, the dihedral subgroup count, the ratio
sign forced by a square discriminant).

`check_request(req, code, text, ctx)` returns a list of problems; empty means
the report passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import sympy as sp
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_from_int_poly

X = sp.Symbol("X")
TOKEN = "conditional-on-parity-conjecture"
DISCLAIMER = (
    f"# every rank-gain verdict below is {TOKEN}; root numbers are unconditional"
)
EXPECTED_COUNTS = Path(__file__).resolve().parent / "expected_counts.json"


class CheckFailed(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- arithmetic


def fractions(text: str) -> list[Fraction]:
    return [Fraction(t) for t in text.split(",")]


def integral(coeffs) -> list[int]:
    """Clear denominators (leading first)."""
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    return [int(Fraction(c) * den) for c in coeffs]


def vp(x, p: int) -> float:
    x = Fraction(x)
    if x == 0:
        return math.inf
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def is_rational_square(x) -> bool:
    x = Fraction(x)
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def euler(a: int, p: int) -> int:
    a %= p
    require(a != 0, f"Legendre symbol of 0 mod {p}")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def qpoly(coeffs) -> sp.Poly:
    return sp.Poly([sp.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in coeffs], X, domain="QQ")


def zpoly(ints) -> sp.Poly:
    return sp.Poly(list(ints), X, domain="ZZ")


def disc(ints) -> int:
    return int(zpoly(ints).discriminant())


def real_roots(ints) -> int:
    return int(zpoly(ints).count_roots())


def irreducible_over_q(ints) -> bool:
    _, factors = zpoly(ints).factor_list()
    return len(factors) == 1 and factors[0][1] == 1


def factor_mod(ints, p: int) -> list[tuple[list[int], int]]:
    _, factors = gf_factor(gf_from_int_poly(list(ints), p), p, ZZ)
    return [([int(c) for c in f], k) for f, k in factors]


def degrees_mod(ints, p: int) -> list[int]:
    """Factor degrees of a squarefree reduction, with multiplicity."""
    return sorted(len(f) - 1 for f, k in factor_mod(ints, p) for _ in range(k))


@lru_cache(maxsize=None)
def primes(count: int) -> tuple[int, ...]:
    out, n = [], 2
    while len(out) < count:
        if sp.isprime(n):
            out.append(n)
        n += 1
    return tuple(out)


def good_prime(p: int, *values: int) -> bool:
    """p divides none of the values (leading coefficients, discriminants)."""
    return all(v % p for v in values)


def separated_somewhere(a: list[int], b: list[int], da: int, db: int, limit=200) -> bool:
    """Some good prime gives different factor-degree multisets."""
    for p in primes(limit):
        if good_prime(p, a[0], b[0], da, db) and degrees_mod(a, p) != degrees_mod(b, p):
            return True
    return False


def ratio_text(sign: int) -> str:
    return "+1" if sign > 0 else "-1"


# ---------------------------------------------------------------- curves


def curve_invariants(a: dict) -> tuple[Fraction, Fraction, Fraction]:
    a1, a2, a3, a4, a6 = (Fraction(a[k]) for k in ("a1", "a2", "a3", "a4", "a6"))
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, c6, delta


def multiplicative_type(a: dict, p: int) -> str:
    """'split' or 'nonsplit' at a prime p >= 5 of multiplicative reduction."""
    c4, c6, delta = curve_invariants(a)
    require(vp(delta, p) > 0 and vp(c4, p) == 0, f"reduction at {p} is not multiplicative")
    c6 = -c6
    return "split" if euler(c6.numerator * pow(c6.denominator, -1, p), p) == 1 else "nonsplit"


def bad_primes(a: dict) -> list[int]:
    _, _, delta = curve_invariants(a)
    return sorted(sp.factorint(abs(delta.numerator * delta.denominator)))


# ---------------------------------------------------------------- report parsing


def table(text: str, header: str):
    """(comment lines, rows) of a tab-separated report with the given header."""
    lines = text.splitlines()
    require(header in lines, f"missing header {header!r}")
    i = lines.index(header)
    return lines[:i], [line.split("\t") for line in lines[i + 1 :] if line]


SPECIALIZE_HEADER = "role\tt0\tpolynomial\tprofiles\tratio\tflag\tfingerprint\tan_parity"


def parse_profiles(cell: str) -> dict[int, list[tuple[int, int]]]:
    out = {}
    for part in cell.split(";"):
        if part:
            p, pairs = part[2:-1].split("[")
            out[int(p)] = [tuple(map(int, ef.split(":"))) for ef in pairs.split(",")]
    return out


def check_specialize_rows(rows, q, limit, fiber, expected_target, ratio_of, program_discs):
    """The checks shared by both pencils; returns the parsed rows."""
    require(len(rows) == 1 + limit, f"expected 1 reference and {limit} candidates, got {len(rows)} rows")
    require(rows[0][0] == "reference", "first row is not the reference")
    require(all(r[0] == "candidate" for r in rows[1:]), "rows after the first are not candidates")
    parsed = []
    for row in rows:
        require(len(row) == 8, f"row has {len(row)} columns")
        role, t0s, polys, profs, ratio, flag, fp, parity = row
        t0 = Fraction(t0s)
        ints = [int(c) for c in polys.split(",")]
        expected = fiber(t0)
        scale = Fraction(ints[0]) / expected[0]
        require(scale > 0, f"t0={t0}: leading coefficient sign differs from the fiber")
        require(
            len(ints) == len(expected) and all(Fraction(c) == scale * e for c, e in zip(ints, expected)),
            f"t0={t0}: polynomial is not a positive multiple of the fiber",
        )
        require(irreducible_over_q(ints), f"t0={t0}: fiber is reducible over Q")
        d = disc(ints)
        require(d != 0, f"t0={t0}: zero discriminant")
        if program_discs is not None and polys in program_discs:
            require(Fraction(program_discs[polys]) == d, f"t0={t0}: discriminant differs from sympy's")
        square = is_rational_square(d)
        require(parity == ("square-disc" if square else "nonsquare-disc"), f"t0={t0}: an_parity {parity}")
        parsed.append({"t0": t0, "ints": ints, "disc": d, "profiles": parse_profiles(profs),
                       "ratio": ratio, "flag": flag, "fp": fp, "square": square})
    ref, cands = parsed[0], parsed[1:]
    require(vp(ref["disc"], q) == 0 and ref["ints"][0] % q, f"reference is ramified at {q}")
    ref_degrees = degrees_mod(ref["ints"], q)
    require(ref["profiles"].get(q) == sorted((1, f) for f in ref_degrees),
            f"reference profile at {q} differs from the factorization mod {q}")
    require(ref["ratio"] == "" and ref["flag"] == "reference" and ref["fp"] == "-", "reference row columns")
    r1 = real_roots(ref["ints"])
    for c in cands:
        t0 = c["t0"]
        require(vp(t0, q) == -1, f"candidate t0={t0}: v_{q}(t0) != -1")
        require(c["profiles"].get(q) == sorted(expected_target), f"candidate t0={t0}: profile at {q}")
        require(real_roots(c["ints"]) == r1, f"candidate t0={t0}: real-root count differs from the reference")
        sign = ratio_of(ref_degrees, c)
        require(c["ratio"] == ratio_text(sign), f"candidate t0={t0}: ratio {c['ratio']}, expected {sign:+d}")
        word = "opposite-root-numbers" if sign < 0 else "equal-root-numbers"
        require(c["flag"] == f"{word} {TOKEN}", f"candidate t0={t0}: flag {c['flag']!r}")
        require(c["fp"] == "distinct", f"candidate t0={t0}: fingerprint {c['fp']}")
        require(separated_somewhere(c["ints"], ref["ints"], c["disc"], ref["disc"]),
                f"candidate t0={t0}: no good prime separates it from the reference")
    return ref, cands


# ---------------------------------------------------------------- rank-gain-search


def psl2_11_fiber(t0: Fraction) -> list[Fraction]:
    """A(X) - 9 s B(X) - 3 s^2 (X - 11), s = 2^8 3^5 / (11 t0^2 + 1), leading
    first, evaluated with Fractions."""
    a3 = sp.Poly(X**3 - 66 * X - 308, X)
    A = a3**4
    B = sp.Poly(11 * X**5 - 44 * X**4 - 1573 * X**3 + 1892 * X**2 + 57358 * X + 103763, X)
    s = Fraction(62208) / (11 * t0 * t0 + 1)
    out = [Fraction(int(c)) for c in A.all_coeffs()]
    for i, c in enumerate(B.all_coeffs()):
        out[12 - 5 + i] -= 9 * s * int(c)
    out[11] -= 3 * s * s
    out[12] += 33 * s * s
    return out


def check_psl2_11_specialize(meta, code, text, ctx):
    q, limit = meta["q"], meta["limit"]
    require(code == 0, f"exit code {code}")
    comments, rows = table(text, SPECIALIZE_HEADER)
    require(comments[0] == DISCLAIMER, "missing the conditional disclaimer")
    require(comments[1].startswith(f"# pencil psl2-11-degree12, designated prime {q}, height bound"),
            "pencil header line")
    if meta["curve"]:
        require(multiplicative_type(meta["curve"], q) == "split", f"curve is not split multiplicative at {q}")

    def ratio_of(ref_degrees, cand):
        # split multiplicative at q: W changes by (-1)^(primes above q), three
        # (e, f) = (2, 2) primes on the candidate side
        return (-1) ** (len(cand["profiles"][q]) + len(ref_degrees))

    ref, cands = check_specialize_rows(rows, q, limit, psl2_11_fiber, [(2, 2)] * 3, ratio_of,
                                       ctx.get("program_discriminants"))
    for r in [ref, *cands]:
        require(r["square"], f"t0={r['t0']}: discriminant is not a square (the family lies in A12)")
    for c in cands:
        require(vp(c["disc"], q) >= 6, f"candidate t0={c['t0']}: v_{q}(disc) < 6")
        require(c["ratio"] == "-1", f"candidate t0={c['t0']}: ratio is not -1")
    if meta["congruent"]:
        p, value, e = meta["congruent"]
        for r in [ref, *cands]:
            require(vp(r["t0"] - value, p) >= e, f"t0={r['t0']} breaks the closeness condition at {p}")


# ---------------------------------------------------------------- group-certificates


def perm_from_cycles(text: str, n: int) -> tuple[int, ...]:
    images = list(range(n))
    if text != "id":
        for chunk in text[1:-1].split(")("):
            pts = [int(t) - 1 for t in chunk.split(",")]
            for i, a in enumerate(pts):
                images[a] = pts[(i + 1) % len(pts)]
    return tuple(images)


def compose(a, b):
    return tuple(a[i] for i in b)


def invert(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def powers(c) -> list:
    ident = tuple(range(len(c)))
    out, x = [ident], c
    while x != ident:
        out.append(x)
        x = compose(c, x)
    return out


def closure(gens, n: int) -> set:
    ident = tuple(range(n))
    elements = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                y = compose(g, w)
                if y not in elements:
                    elements.add(y)
                    new.append(y)
        frontier = new
    return elements


def orbit_total(gens, n: int) -> int:
    """Number of orbits of <gens> on {0..n-1}, by union-find."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in gens:
        for i in range(n):
            a, b = find(i), find(g[i])
            if a != b:
                parent[a] = b
    return sum(1 for i in range(n) if find(i) == i)


def is_even(perm) -> bool:
    n, seen, cycles = len(perm), set(), 0
    for i in range(n):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return (n - cycles) % 2 == 0


@lru_cache(maxsize=None)
def psl2_elements(p: int) -> frozenset:
    """PSL2(p) on P^1(F_p), infinity = index p, from every matrix of
    determinant 1 (each element arises twice, from M and -M)."""
    inv = np.array([0] + [pow(z, -1, p) for z in range(1, p)], dtype=np.int64)
    mats = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                if a:
                    mats.append((a, b, c, (1 + b * c) * int(inv[a]) % p))
                elif b and (b * c) % p == p - 1:
                    mats.extend((a, b, c, d) for d in range(p))
    a, b, c, d = (np.array(col, dtype=np.int64)[:, None] for col in zip(*mats))
    z = np.arange(p, dtype=np.int64)[None, :]
    num = (a * z + b) % p
    den = (c * z + d) % p
    finite = np.where(den == 0, p, num * inv[den] % p)
    at_inf = np.where(c[:, 0] == 0, p, a[:, 0] * inv[c[:, 0]] % p)
    table_ = np.concatenate([finite, at_inf[:, None]], axis=1)
    return frozenset(map(tuple, table_.tolist()))


@lru_cache(maxsize=None)
def psl2_involution_count(p: int) -> int:
    ident = tuple(range(p + 1))
    return sum(1 for g in psl2_elements(p) if g != ident and compose(g, g) == ident)


def psl2_order(p: int) -> int:
    return p * (p * p - 1) // 2


def divisor_count_and_sum(m: int) -> tuple[int, int]:
    divs = [k for k in range(1, m + 1) if m % k == 0]
    return len(divs), sum(divs)


ORBIT_HEADER = "inertia_generator\tx\t|I|\torb(I)\torb(H)\tI_in_An"


def check_orbit_search(meta, code, text, ctx):
    label = meta["label"]
    expected = ctx["expected_counts"][label]
    comments, rows = table(text, ORBIT_HEADER)
    head = comments[0].split()
    degree = int(head[-2].split("=")[1])
    order = int(head[-1].split("=")[1])
    p = int(label.split()[1])
    require(order == psl2_order(p), f"{label}: order {order}, expected p(p^2-1)/2 = {psl2_order(p)}")
    natural = "deg55" not in label
    require(degree == (p + 1 if natural else 55), f"{label}: degree {degree}")
    count = int(comments[1].rsplit(":", 1)[1])
    require(count == len(rows), f"{label}: header says {count} candidates, {len(rows)} rows")
    require(count == expected, f"{label}: {count} candidates, an independent enumeration gives {expected}")
    require(code == (0 if count else 3), f"{label}: exit code {code} with {count} candidates")
    group = psl2_elements(p) if natural else None
    subgroup_of = {}
    for row in rows:
        c = perm_from_cycles(row[0], degree)
        x = perm_from_cycles(row[1], degree)
        pw = powers(c)
        key = frozenset(pw)
        require(subgroup_of.setdefault(key, c) == c, f"{label}: two generators for one cyclic subgroup")
        if group is not None:
            require(c in group and x in group, f"{label}: {row[0]} or {row[1]} is not in PSL2({p})")
        require(compose(compose(x, c), invert(x)) in key, f"{label}: x does not normalize <c>")
        require(int(row[2]) == len(pw), f"{label}: |I| = {row[2]}, order of c is {len(pw)}")
        orb_i = orbit_total([c], degree)
        orb_h = orbit_total([c, x], degree)
        require((int(row[3]), int(row[4])) == (orb_i, orb_h), f"{label}: orbit counts {row[3]},{row[4]}")
        require((degree - orb_h) % 2 == 1, f"{label}: n - |orb(H)| is even")
        require(row[5] == str(is_even(c)).lower(), f"{label}: I_in_An is {row[5]}")


def check_involution_certificate(meta, code, text, ctx):
    p = meta["p"]
    n = p + 1
    require(code == 0, f"exit code {code}")
    group = psl2_elements(p)
    require(meta["order"] == psl2_order(p) == len(group), f"|PSL2({p})| = {meta['order']}")
    ident = tuple(range(n))
    require(meta["involutions"] == p * (p - 1) // 2 == psl2_involution_count(p),
            f"PSL2({p}) has {meta['involutions']} involutions, expected p(p-1)/2")
    cert = json.loads(text)
    x = tuple(cert["x"])
    require(x in group and x != ident and compose(x, x) == ident, "x is not an involution of the group")
    require(all(x[i] != i for i in range(n)), "x has a fixed point")
    C = [tuple(c) for c in cert["C"]]
    require(len(set(C)) == len(C) == p + 1, f"|C(x)| = {len(set(C))}, expected p+1 = {p + 1}")
    require(all(c in group and compose(c, x) == compose(x, c) for c in C), "C(x) holds a non-commuting element")
    require(orbit_total(C, n) == 1, "C(x) is not transitive")
    tau, sigma = divisor_count_and_sum(n // 2)
    subgroups = cert["subgroups"]
    require(len(subgroups) == tau + sigma, f"{len(subgroups)} subgroups of C(x), dihedral count {tau + sigma}")
    require(len({tuple(s) for s, _ in subgroups}) == len(subgroups), "a subgroup is listed twice")
    odd = iter(cert["orbit_counts"])
    for idx, gens in subgroups:
        if len(idx) % 4:
            continue
        gen_perms = [C[i] for i in gens]
        require(closure(gen_perms, n) == {C[i] for i in idx},
                "subgroup generators do not generate the listed set")
        orb = orbit_total(gen_perms, n)
        require(next(odd, None) == orb, "orbit count differs from an independent count")
        require(orb % 2 == 1, f"subgroup of order {len(idx)} has an even orbit count")
    require(next(odd, None) is None, "more orbit counts than subgroups of order divisible by 4")


# ---------------------------------------------------------------- low-degree-session


def difference(f: sp.Poly, g: sp.Poly) -> sp.Poly:
    return f.diff(X) * g - g.diff(X) * f


def is_polynomial_square(h: sp.Poly) -> bool:
    lc, factors = h.factor_list()
    return is_rational_square(Fraction(str(lc))) and all(k % 2 == 0 for _, k in factors)


def check_mestre_solve(meta, code, text, ctx):
    f = qpoly(fractions(meta["f"]))
    comments, rows = table(text, "g\tr")
    require(comments[0].startswith(f"# f = {meta['f']} "), "f header line")
    count = int(comments[0].rsplit(":", 1)[1])
    require(count == len(rows), "solution count differs from the rows")
    require(code == (0 if rows else 3), f"exit code {code} with {len(rows)} solutions")
    gs = [row[0] for row in rows]
    require(len(set(gs)) == len(gs), "a solution is listed twice")
    for gs_, rs in rows:
        gc = fractions(gs_)
        require(len(gc) == 5 and gc[0] == 1 and gc[1] == 0 and gc[3] == 0, f"g = {gs_} is not a monic even quartic")
        r = qpoly(fractions(rs))
        require(r * r == difference(f, qpoly(gc)), f"r^2 != f'g - g'f for g = {gs_}")
    if meta["expect_g"]:
        require(meta["expect_g"] in gs, f"the known solution g = {meta['expect_g']} is missing")


def check_mestre_verify(meta, code, text, ctx):
    f = qpoly(fractions(meta["f"]))
    g = qpoly(fractions(meta["g"]))
    h = difference(f, g)
    if code == 0:
        require(text.startswith("r = "), "report is not 'r = ...'")
        r = qpoly(fractions(text.strip()[4:]))
        require(r * r == h, "r^2 != f'g - g'f")
    else:
        require(code == 3 and text.startswith("NotASquare"), f"exit code {code}")
        require(not is_polynomial_square(h), "f'g - g'f is a square but the report says it is not")


def field_profile(ints, p) -> list[tuple[int, int]]:
    return sorted((1, f) for f in degrees_mod(ints, p))


def contribution(kind: str, pairs) -> int:
    if kind == "split":
        return (-1) ** len(pairs)
    return (-1) ** sum(1 for _, f in pairs if f % 2 == 0)


def check_root_number(meta, code, text, ctx):
    ints = integral(fractions(meta["poly"]))
    n = len(ints) - 1
    lines = text.splitlines()
    require(lines[0] == DISCLAIMER, "missing the conditional disclaimer")
    r1 = real_roots(ints)
    r2 = (n - r1) // 2
    require(lines[1] == f"# extension degree {n}, signature ({r1},{r2})", "signature line")
    d = disc(ints)
    declared = {int(p): sorted(map(tuple, pairs)) for p, pairs in meta["declared"].items()}
    profiles = {}
    for line in lines:
        if line.startswith("# profile p="):
            p = int(line.split()[2][2:])
            pairs = line.split("[")[1].split("]")[0].split(",")
            profiles[p] = sorted(tuple(map(int, ef.split(":"))) for ef in pairs)
            if p in declared:
                require(profiles[p] == declared[p] and line.endswith("(declared)"), f"declared profile at {p}")
            else:
                require(profiles[p] == field_profile(ints, p), f"computed profile at {p} differs from sympy")
    last = lines[-1]
    w = -1 if (r1 + r2) % 2 else 1
    for p in bad_primes(meta["curve"]):
        if p in meta["curve_declared"]:
            # declared w = +1 contributes (+1)^n, once p splits completely
            require(profiles.get(p) == [(1, 1)] * n, f"{p} must split completely")
            continue
        if p not in declared and (d % p == 0 or ints[0] % p == 0):
            require(code == 3 and last.startswith("W(E/F) = Incomputable"),
                    f"{p} divides disc*lc: expected Incomputable")
            return
        pairs = declared[p] if p in declared else field_profile(ints, p)
        w *= contribution(multiplicative_type(meta["curve"], p), pairs)
    require(code == 0 and last == f"W(E/F) = {w:+d}", f"{last!r}, expected W(E/F) = {w:+d}")
    if meta["expect_w"] is not None:
        require(w == meta["expect_w"], f"W(E/F) = {w:+d}, the worked value is {meta['expect_w']:+d}")


def check_profile(meta, code, text, ctx):
    ints = [int(c) for c in meta["poly"].split(",")]
    lines = text.splitlines()
    require(code == 0, f"exit code {code}")
    require(lines[0] == f"# poly (leading first): {meta['poly']}", "poly line")
    r1 = real_roots(ints)
    require(lines[1] == f"signature: ({r1},{(len(ints) - 1 - r1) // 2})", "signature line")
    status = lines[2].split()[1]
    irreducible = irreducible_over_q(ints)
    require(irreducible or status == "unverified", f"reducible polynomial certified {status}")
    d = disc(ints)
    if status == "irreducible_mod_p":
        p = int(lines[2].split("p=")[1])
        require(good_prime(p, ints[0], d) and len(degrees_mod(ints, p)) == 1, f"witness {p} is not one")
    rest = lines[3:]
    expected = []
    for p in meta["primes"]:
        if good_prime(p, ints[0], d):
            pairs = ",".join(f"{e}:{f}" for e, f in field_profile(ints, p))
            expected.append(f"profile p={p} [{pairs}] (computed_unramified)")
    for p in meta["primes"]:
        if not good_prime(p, ints[0], d):
            expected.append(f"profile p={p} requires-declared-profile (divides disc or leading coefficient)")
    require(rest == expected, "profile lines differ from sympy's factorizations")


def mestre_fiber(meta):
    f = fractions(meta["f"])
    g = [Fraction(0)] * (len(f) - len(fractions(meta["g"]))) + fractions(meta["g"])
    return lambda t0: [a - t0 * b for a, b in zip(f, g)]


def check_mestre_specialize(meta, code, text, ctx):
    q, limit = meta["q"], meta["limit"]
    require(code == 0, f"exit code {code}")
    comments, rows = table(text, SPECIALIZE_HEADER)
    require(comments[0] == DISCLAIMER, "missing the conditional disclaimer")
    declared = [tuple(ef) for ef in meta["declared"]]

    def ratio_of(ref_degrees, cand):
        return (-1) ** (len(declared) + len(ref_degrees))

    ref, cands = check_specialize_rows(rows, q, limit, mestre_fiber(meta), declared, ratio_of,
                                       ctx.get("program_discriminants"))
    for c in cands:
        # q divides the leading coefficient: the root near infinity is the
        # root 0 of the reversed fiber, and the declared profile must match it
        rev = c["ints"][::-1]
        if good_prime(q, c["disc"], rev[0]):
            require(field_profile(rev, q) == sorted(declared), f"candidate t0={c['t0']}: declared profile is false")


def node_primes(ints, bound):
    """{p: node} for odd p <= bound, p not dividing lc, where f mod p has
    exactly one repeated factor, linear, of multiplicity exactly 2."""
    out = {}
    for p in sp.primerange(3, bound + 1):
        if ints[0] % p == 0:
            continue
        repeated = [(f, k) for f, k in factor_mod(ints, p) if k > 1]
        if len(repeated) == 1 and len(repeated[0][0]) == 2 and repeated[0][1] == 2:
            lin = repeated[0][0]
            out[p] = (-lin[1] * pow(lin[0], -1, p)) % p
    return out


def check_jacobian(meta, code, text, ctx):
    ints = [int(c) for c in meta["f"].split(",")]
    comments, rows = table(text, "p\tnode\ttau\tbase_W\tprofileA_W\tprofileB_W\tverdict")
    require(comments[0] == DISCLAIMER, "missing the conditional disclaimer")
    nodes = node_primes(ints, meta["bound"])
    require(code == (0 if nodes else 3), f"exit code {code} with {len(nodes)} node primes")
    require([int(r[0]) for r in rows] == sorted(nodes), f"node primes {[r[0] for r in rows]}, expected {sorted(nodes)}")
    second = sp.Poly(ints, X).diff((X, 2))
    for p_, node, tau, base, wa, wb, verdict in rows:
        p = int(p_)
        require(int(node) == nodes[p], f"p={p}: node {node}, expected {nodes[p]}")
        # f = (X - a)^2 g gives g(a) = f''(a) / 2
        g_at_node = int(second.eval(int(node))) * pow(2, -1, p)
        require(int(tau) == euler(g_at_node, p), f"p={p}: tau {tau}")
        require(int(base) == -int(tau), f"p={p}: base_W {base} != -tau")
        require(int(wa) == -int(wb), f"p={p}: profileA_W != -profileB_W")
        require(verdict == f"flip ({TOKEN})", f"p={p}: verdict {verdict!r}")


def check_an_certificate(meta, code, text, ctx):
    require(code == 0, f"exit code {code}")
    ints = [int(c) for c in meta["poly"].split(",")]
    n = len(ints) - 1
    fields = dict(item.split("=", 1) for item in text.split())
    contained = fields["contained_in_alternating"] == "True"
    verdict = fields["verdict"]
    require(irreducible_over_q(ints), "reducible polynomial")
    d = disc(ints)
    require(contained == is_rational_square(d), "contained_in_alternating disagrees with the discriminant")
    if n <= 6:
        group, alternating = sp.galois_group(sp.Poly(ints, X))
        require(contained == alternating, "contained_in_alternating disagrees with sympy's galois_group")
        full = alternating and group.order() == math.factorial(n) // 2
        # sound, and on these inputs complete: 100 primes show every pattern
        require((verdict == "alternating-consistent") == full,
                f"verdict {verdict} for a group of order {group.order()}")
    if meta["poly"] == "1,0,0,0,20,16":
        require(verdict == "alternating-consistent", "x^5+20x+16 has group A5")
    if meta["poly"] == "1,0,0,0,0,0,-7,3":
        require(verdict != "alternating-consistent", "x^7-7x+3 has group PSL(3,2), a proper subgroup of A7")
    if not contained:
        require(verdict == "patterns-insufficient", f"verdict {verdict} outside A_n")
    patterns = {tuple(map(int, pat.split(","))) for pat in fields["patterns"].split(";")}
    own, count = set(), 0
    for p in primes(400):
        if count == 100:
            break
        if good_prime(p, ints[0], d):
            count += 1
            own.add(tuple(degrees_mod(ints, p)))
    require(patterns == own, "Frobenius patterns differ from sympy's over the first 100 good primes")


CHECKERS = {
    "psl2_11_specialize": check_psl2_11_specialize,
    "orbit_search": check_orbit_search,
    "involution_certificate": check_involution_certificate,
    "mestre_solve": check_mestre_solve,
    "mestre_verify": check_mestre_verify,
    "root_number": check_root_number,
    "profile": check_profile,
    "mestre_specialize": check_mestre_specialize,
    "jacobian": check_jacobian,
    "an_certificate": check_an_certificate,
}


def load_context(result: dict) -> dict:
    return {
        "expected_counts": json.loads(EXPECTED_COUNTS.read_text(encoding="utf-8")),
        "program_discriminants": result.get("program_discriminants"),
    }


def check_request(req: dict, code, text: str, ctx: dict) -> list[str]:
    try:
        CHECKERS[req["check"]](req["meta"], code, text, ctx)
    except CheckFailed as exc:
        return [f"{req['rid']}: {exc}"]
    except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        return [f"{req['rid']}: malformed report ({type(exc).__name__}: {exc})"]
    return []


def check_result(result: dict) -> list[str]:
    """Problems across every request of a worker result (failed requests are
    counted by the worker, not checked here)."""
    ctx = load_context(result)
    problems = []
    if not result["rounds_identical"]:
        problems.append("reports differ between rounds of one run")
    for req in result["requests"]:
        rep = result["reports"][req["rid"]]
        if rep["code"] in req["ok_codes"]:
            problems += check_request(req, rep["code"], rep["text"], ctx)
    return problems
