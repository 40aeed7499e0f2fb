"""The three workloads: seeded inputs and one fixed batch of requests each.

`build(name, seed, rg, workdir)` writes the workload's input files, builds
its element tables and returns its batch; `warm_up(name, rg)` builds the lazy
tables its first request would otherwise build. Both are set-up. `rg` is a namespace of
the imported `rootgain` modules; every call goes through a module attribute,
so the tracer's wrappers see it. Inputs depend only on the seed; the program
receives only the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

WORKLOADS = ("rank-gain-search", "group-certificates", "low-degree-session")


@dataclass
class Request:
    """One request. A "cli" request runs rootgain.cli.main(argv) with --out
    pointing at `out`; a "call" request runs fn() and renders the result with
    render() after the timed round."""

    rid: str
    check: str  # name of the checker in checks.py
    meta: dict
    ok_codes: tuple[int, ...] = (0,)
    argv: list[str] | None = None
    out: Path | None = None
    fn: object = None
    render: object = None


def _cli(rid, check, argv, workdir, meta, ok_codes=(0,)):
    out = workdir / f"{rid}.out"
    return Request(rid, check, meta, ok_codes, argv=list(argv) + ["--out", str(out)], out=out)


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _desc(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def _squarefree_mod(coeffs, p: int) -> bool:
    """gcd(f, f') = 1 over F_p for a monic integer f (leading first); a
    squarefree reduction proves f separable over Q."""

    def trim(a):
        while a and a[0] % p == 0:
            a = a[1:]
        return a

    def rem(a, b):
        a = [c % p for c in a]
        inv = pow(b[0], -1, p)
        while len(a) >= len(b) and a:
            k = a[0] * inv % p
            for i in range(len(b)):
                a[i] = (a[i] - k * b[i]) % p
            a = trim(a)
        return a

    n = len(coeffs) - 1
    a = trim([c % p for c in coeffs])
    b = trim([(n - i) * c % p for i, c in enumerate(coeffs[:-1])])
    while b:
        a, b = b, rem(a, b)
    return len(a) == 1


def _random_separable(rng, degree: int, bound: int):
    """A monic integer polynomial (leading first) with a squarefree reduction
    modulo one of the primes 101..113."""
    while True:
        coeffs = [1] + [rng.randint(-bound, bound) for _ in range(degree)]
        if any(_squarefree_mod(coeffs, p) for p in (101, 103, 107, 109, 113)):
            return coeffs


# ---------------------------------------------------------------- rank-gain-search

# Designated primes outside {2,3,5,7,11}; below 50 the first candidate has a
# similar height for every prime, so each request costs about the same.
RANK_GAIN_PRIMES = (13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
CLOSENESS_PRIMES = (13, 17, 19, 23)
RANK_GAIN_HEIGHT = 200
RANK_GAIN_LIMIT = 1
# request shapes of one batch, in seeded order
RANK_GAIN_SHAPES = ("plain", "curve", "congruent", "curve+congruent")


def split_mult_curve(q: int, u: int) -> dict:
    """y^2 = x(x+1)(x - q u): at q the reduction is y^2 = x^2 (x+1), a node
    with rational tangents y = +-x, so split multiplicative."""
    lam = q * u
    return {"a1": 0, "a2": 1 - lam, "a3": 0, "a4": -lam, "a6": 0}


def _curve_text(a: dict, declared) -> str:
    lines = [f"{k}: {v}" for k, v in a.items()]
    lines += [f"local: p={p} type=declared w=+1" for p in declared]
    return "\n".join(lines) + "\n"


def _rank_gain(seed, rg, workdir):
    rng = random.Random(f"rank-gain-search/{seed}")
    pencil = _write(workdir, "psl11.pencil", "family: psl2-11-degree12\n")
    primes = rng.sample(RANK_GAIN_PRIMES, len(RANK_GAIN_SHAPES))
    shapes = list(RANK_GAIN_SHAPES)
    rng.shuffle(shapes)
    reqs = []
    for i, (q, shape) in enumerate(zip(primes, shapes)):
        argv = [
            "specialize", "--pencil", pencil, "--q", str(q),
            "--height", str(RANK_GAIN_HEIGHT), "--limit", str(RANK_GAIN_LIMIT),
        ]
        meta = {"q": q, "limit": RANK_GAIN_LIMIT, "curve": None, "congruent": None}
        if "curve" in shape:
            u = rng.randint(1, 6)
            a = split_mult_curve(q, u)
            # 2 and 3 can divide the model discriminant 16 (qu)^2 (1+qu)^2,
            # where reduction must be declared; declare both
            path = _write(workdir, f"curve{i}.txt", _curve_text(a, (2, 3)))
            argv += ["--curve", path]
            meta["curve"] = a
        if "congruent" in shape:
            p = rng.choice([c for c in CLOSENESS_PRIMES if c != q])
            value = rng.randrange(p)
            argv += ["--congruent", f"{p}:{value}:1"]
            meta["congruent"] = [p, value, 1]
        reqs.append(_cli(f"specialize-{i}-q{q}", "psl2_11_specialize", argv, workdir, meta))
    return reqs


# ---------------------------------------------------------------- group-certificates

ORBIT_SEARCHES = (
    ("psl2 11", ["orbit-search", "psl2", "11"], (0,)),
    ("psl2 11 --action deg55", ["orbit-search", "psl2", "11", "--action", "deg55"], (3,)),
    ("psl2 13", ["orbit-search", "psl2", "13"], (0,)),
)
INVOLUTION_SAMPLE_43 = 60


def _involution_certificate(rg, G, x, n):
    """Criterion 2 for one involution x: centralizer, its subgroups, and the
    orbit counts of the subgroups of order divisible by 4."""
    pg = rg.permgroup
    C = pg.centralizer_scan(G, x)
    subgroups = pg.all_subgroups(C)
    odd = [
        pg.orbit_count([C[i] for i in gens], n)
        for idx, gens in subgroups
        if len(idx) % 4 == 0
    ]
    return C, subgroups, odd


def _render_certificate(p, x, result) -> dict:
    C, subgroups, odd = result
    return {
        "p": p,
        "x": list(x),
        "C": [list(c) for c in C],
        "subgroups": [[sorted(idx), list(gens)] for idx, gens in subgroups],
        "orbit_counts": odd,
    }


def _group_certificates(seed, rg, workdir):
    rng = random.Random(f"group-certificates/{seed}")
    pg = rg.permgroup
    reqs = []
    for i, (label, argv, ok) in enumerate(ORBIT_SEARCHES):
        reqs.append(_cli(f"orbit-search-{i}", "orbit_search", argv, workdir, {"label": label}, ok))
    for p, sample in ((19, None), (43, INVOLUTION_SAMPLE_43)):
        G = pg.psl2_natural(p)
        n = p + 1
        G.element_array()  # element enumeration and the numpy table: set-up
        ident = pg.identity_perm(n)
        involutions = [g for g in G.elements if g != ident and pg.compose(g, g) == ident]
        chosen = involutions if sample is None else rng.sample(involutions, sample)
        for j, x in enumerate(chosen):
            reqs.append(
                Request(
                    f"involution-{p}-{j}",
                    "involution_certificate",
                    {"p": p, "order": G.order(), "involutions": len(involutions)},
                    fn=lambda G=G, x=x, n=n: _involution_certificate(rg, G, x, n),
                    render=lambda r, p=p, x=x: _render_certificate(p, x, r),
                )
            )
    return reqs


# ---------------------------------------------------------------- low-degree-session

F1 = (1, 0, -164, 0, 2304, 0)
G1 = (1, 0, Fraction(-559076, 12249), 0, Fraction(2975047936, 16670889))
F2 = (1, 0, -5, 0, 4, 0)
G2 = (1, 0, Fraction(-73, 29), 0, Fraction(21316, 21025))
# a worked quintic field: F1 - t G1 at t = 160000/177147, 2 split completely,
# two primes above 5 (e:f = 2:2 and 1:1); W(E/K1) = -1 for E below
K1_T0 = Fraction(160000, 177147)
K1_CURVE = {"a1": 0, "a2": -6, "a3": 0, "a4": 5, "a6": 0}  # Y^2 = X(X-1)(X-5)
# semistable curves with one bad prime: 11a3 (split at 11), 37a1 (non-split at 37)
CONDUCTOR_PRIME_CURVES = (
    {"a1": 0, "a2": -1, "a3": 1, "a4": 0, "a6": 0},
    {"a1": 0, "a2": 0, "a3": 1, "a4": -1, "a6": 0},
)
# g with f'g - g'f not a square for f = F1
NON_SQUARE_G = ((1, 0, 1, 0, 1), (1, 0, -3, 0, 7), (1, 0, 2, 0, -5))
# (f, g, designated prime q): g mod q factors as 2 + 2, so the declared
# profile below (the root near infinity, and g's two quadratic factors) holds.
# Fixed, like the an_certificate inputs: these requests cost the most, and a
# seeded choice among them would change the work from seed to seed.
MESTRE_SPECIALIZE = ((F1, G1, 19), (F2, G2, 23), (F1, G1, 37))
# decomposition group <(1,2)(3,4)>, trivial inertia: declared profile 1:1,1:2,1:2
MESTRE_BRANCH = "branch: location=inf e=2 degree=5 D=(1,2)(3,4)\n"
# an_certificate inputs with known Galois groups: A5, D5; A6, S6; Trinks'
# PSL(3,2) septic, and x^7 - 7 with group F42
AN_POLYS = (
    (1, 0, 0, 0, 20, 16),
    (1, 0, 0, 0, -5, 12),
    (1, 0, 0, 0, 0, 24, -20),
    (1, 0, 0, 0, 0, 1, 1),
    (1, 0, 0, 0, 0, 0, -7, 3),
    (1, 0, 0, 0, 0, 0, 0, -7),
)


def _rescale(coeffs, mu):
    """mu^(2n) h(X / mu^2) for h of degree n (leading first). Rescaling f and
    g this way multiplies f'g - g'f by a square, so a solution g of f stays a
    solution of the rescaled f."""
    return tuple(c * mu ** (2 * i) for i, c in enumerate(coeffs))


def _an_render(cert) -> str:
    patterns = ";".join(",".join(map(str, p)) for p in cert.patterns)
    return (
        f"contained_in_alternating={cert.contained_in_alternating} "
        f"verdict={cert.verdict} ruled_out={cert.ruled_out} patterns={patterns}"
    )


def _low_degree(seed, rg, workdir):
    rng = random.Random(f"low-degree-session/{seed}")
    reqs = []
    # mestre solve: the two worked quintics, two rescaled ones, two random odd ones
    solve = [(F1, G1), (F2, G2)]
    for _ in range(2):
        base_f, base_g = rng.choice(((F1, G1), (F2, G2)))
        mu = rng.choice((2, 3))
        solve.append((_rescale(base_f, mu), _rescale(base_g, mu)))
    for f, g in solve:
        reqs.append(
            _cli(f"mestre-solve-{len(reqs)}", "mestre_solve",
                 ["mestre", "solve", "--odd-quintic", _desc(f)], workdir,
                 {"f": _desc(f), "expect_g": _desc(g)})
        )
    for _ in range(2):
        a = rng.choice([v for v in range(-30, 31) if v])
        b = rng.choice([v for v in range(-30, 31) if v and a * a != 4 * v])
        f = (1, 0, a, 0, b, 0)
        reqs.append(
            _cli(f"mestre-solve-{len(reqs)}", "mestre_solve",
                 ["mestre", "solve", "--odd-quintic", _desc(f)], workdir,
                 {"f": _desc(f), "expect_g": None}, (0, 3))
        )
    # mestre verify: two square differences, one that is not a square
    mu = rng.choice((2, 3))
    for f, g, ok in (
        (F1, G1, 0),
        (_rescale(F2, mu), _rescale(G2, mu), 0),
        (F1, rng.choice(NON_SQUARE_G), 3),
    ):
        reqs.append(
            _cli(f"mestre-verify-{len(reqs)}", "mestre_verify",
                 ["mestre", "verify", "--f", _desc(f), "--g", _desc(g)], workdir,
                 {"f": _desc(f), "g": _desc(g)}, (ok,))
        )
    # root-number: the worked W(E/K1) = -1, then random quintic fields
    k1 = _k1_poly()
    curve_k1 = _write(workdir, "curve-k1.txt", _curve_text(K1_CURVE, (2,)))
    ext_k1 = _write(
        workdir, "ext-k1.txt",
        f"poly: {k1}\nprofile: p=2 pairs=1:1,1:1,1:1,1:1,1:1\nprofile: p=5 pairs=2:2,1:1\n",
    )
    reqs.append(
        _cli("root-number-k1", "root_number",
             ["root-number", "--curve", curve_k1, "--extension", ext_k1], workdir,
             {"curve": K1_CURVE, "curve_declared": [2], "poly": k1,
              "declared": {"2": [[1, 1]] * 5, "5": [[1, 1], [2, 2]]}, "expect_w": -1})
    )
    for i in range(5):
        curve = rng.choice(CONDUCTOR_PRIME_CURVES)
        poly = _desc(_random_separable(rng, 5, 12))
        cpath = _write(workdir, f"curve-{i}.txt", _curve_text(curve, ()))
        epath = _write(workdir, f"ext-{i}.txt", f"poly: {poly}\n")
        reqs.append(
            _cli(f"root-number-{i}", "root_number",
                 ["root-number", "--curve", cpath, "--extension", epath], workdir,
                 {"curve": curve, "curve_declared": [], "poly": poly, "declared": {},
                  "expect_w": None}, (0, 3))
        )
    # profile on random quintic fields
    for i in range(5):
        poly = _desc(_random_separable(rng, 5, 12))
        primes = sorted(rng.sample((3, 5, 7, 11, 13, 17, 19, 23), 4))
        epath = _write(workdir, f"field-{i}.txt", f"poly: {poly}\n")
        reqs.append(
            _cli(f"profile-{i}", "profile",
                 ["profile", "--extension", epath, "--primes", ",".join(map(str, primes))],
                 workdir, {"poly": poly, "primes": primes})
        )
    # specialize on Mestre-form quintic pencils with branch data
    for i, (f, g, q) in enumerate(MESTRE_SPECIALIZE):
        ppath = _write(
            workdir, f"mestre-{i}.pencil",
            f"form: mestre\nf: {_desc(f)}\ng: {_desc(g)}\n{MESTRE_BRANCH}",
        )
        reqs.append(
            _cli(f"mestre-specialize-{i}", "mestre_specialize",
                 ["specialize", "--pencil", ppath, "--q", str(q), "--height", "100",
                  "--limit", "2"], workdir,
                 {"f": _desc(f), "g": _desc(g), "q": q, "limit": 2,
                  "declared": [[1, 1], [1, 2], [1, 2]]})
        )
    # jacobian node-prime reports on random quintics and sextics
    for i in range(10):
        f = _desc(_random_separable(rng, rng.choice((5, 6)), 25))
        n = rng.choice((4, 5, 6, 7))
        reqs.append(
            _cli(f"jacobian-{i}", "jacobian",
                 ["jacobian", "--f", f, "--n", str(n), "--bound", "100"], workdir,
                 {"f": f, "n": n, "bound": 100}, (0, 3))
        )
    # alternating-group certificates (library calls) on degree 5 to 7
    mestre = rg.mestre
    for i, coeffs in enumerate(AN_POLYS):
        h = rg.algebra.PolyQ([Fraction(c) for c in reversed(coeffs)])
        reqs.append(
            Request(
                f"an-certificate-{i}", "an_certificate", {"poly": _desc(coeffs)},
                fn=lambda h=h: mestre.an_certificate(h), render=_an_render,
            )
        )
    return reqs


def _k1_poly() -> str:
    """The worked field K1: F1 - t0 G1 cleared to a primitive integral quintic
    with positive leading coefficient (leading first)."""
    g = (0,) + G1
    vals = [Fraction(a) - K1_T0 * b for a, b in zip(F1, g)]
    den = lcm(*(v.denominator for v in vals))
    ints = [int(v * den) for v in vals]
    content = gcd(*ints) * (1 if ints[0] > 0 else -1)
    return _desc(c // content for c in ints)


def program_discriminants(rg, reports) -> dict[str, str]:
    """The program's discriminant of every polynomial in a specialize report,
    for the checker to compare with sympy's. Runs after the timed rounds."""
    out = {}
    for rep in reports.values():
        for line in rep["text"].splitlines():
            cells = line.split("\t")
            if len(cells) == 8 and cells[0] in ("reference", "candidate"):
                h = rg.algebra.poly_from_descending_string(cells[2])
                out[cells[2]] = str(rg.algebra.discriminant(h))
    return out


BATCHES = {
    "rank-gain-search": _rank_gain,
    "group-certificates": _group_certificates,
    "low-degree-session": _low_degree,
}


def build(name: str, seed: int, rg, workdir: Path) -> list[Request]:
    return BATCHES[name](seed, rg, workdir)


def warm_up(name: str, rg) -> None:
    """Lazy first-use tables that the first request would otherwise build:
    the transitive typesets of an_certificate for n = 6, 7."""
    if name == "low-degree-session":
        for n in (6, 7):
            rg.permgroup.transitive_typesets(n)
