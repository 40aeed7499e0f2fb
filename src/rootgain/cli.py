"""Command-line entry point.

Subcommands: orbit-search, root-number, mestre {solve|verify}, specialize,
jacobian, profile. All randomized internals take --seed (default 0) and every
invocation is byte-reproducible under a fixed seed.

Exit codes: 0 success/nonempty, 2 internal error, 3 empty result, 4 parse error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .algebra import NotASquare, PolyFacts, poly_from_descending_string
from .extension import Incomputable, build_profile, root_number_over_extension
from .inputfmt import ParseError, parse_curve_file, parse_extension_file, parse_pencil_file
from .inputfmt import parse_prime, parse_value
from .jacobian import CONDITIONAL_TOKEN, hyperelliptic_rank_gain_report
from .mestre import (
    MestreError,
    PrimeCondition,
    SearchConstraints,
    an_certificate,
    mestre_solve_odd_quintic,
    mestre_verify,
    search_rank_gain,
)
from .permgroup import (
    CapExceeded,
    PermGroup,
    alternating_group,
    format_cycles,
    metacyclic_odd_orbit_search,
    perm_from_cycles,
    psl2_11_degree55,
    psl2_natural,
    symmetric_group,
)

EXIT_OK = 0
EXIT_INTERNAL = 2
EXIT_EMPTY = 3
EXIT_PARSE = 4

DISCLAIMER = (
    f"# every rank-gain verdict below is {CONDITIONAL_TOKEN}; root numbers are "
    "unconditional"
)


def _descending(poly) -> str:
    return ",".join(str(c) for c in reversed(poly.coeffs)) if poly.coeffs else "0"


def _emit(lines, out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- orbit-search


def cmd_orbit_search(args) -> int:
    kind = args.group.lower()
    if kind in ("sn", "an", "psl2") and args.n < 1:
        raise ParseError(0, f"group spec {kind!r} needs a positive degree or prime")
    if kind == "sn":
        G = symmetric_group(args.n)
    elif kind == "an":
        G = alternating_group(args.n)
    elif kind == "psl2":
        if args.action == "deg55":
            if args.n != 11:
                raise MestreError("the degree-55 action is built for p = 11 only")
            G = psl2_11_degree55()
        else:
            G = psl2_natural(args.n)
    elif kind == "gens":
        if not args.generators or not args.degree:
            raise ParseError(0, "gens needs --generators and --degree")
        try:
            gens = [
                perm_from_cycles(c.strip(), args.degree) for c in args.generators.split(";")
            ]
            G = PermGroup(args.degree, gens)
        except ValueError as exc:
            raise ParseError(0, f"bad generator literal: {exc}") from None
    else:
        raise ParseError(0, f"unknown group spec {args.group!r}")
    if args.cap:
        G = PermGroup(G.degree, G.generators, cap=args.cap, name=G.name)
    cands = metacyclic_odd_orbit_search(G, require_inertia_even=args.require_even_inertia)
    lines = [
        f"# group: {G.name or args.group} degree={G.degree} order={G.order()}",
        f"# candidates with degree - |orb(<I,x>)| odd: {len(cands)}",
        "inertia_generator\tx\t|I|\torb(I)\torb(H)\tI_in_An",
    ]
    for m in cands:
        lines.append(
            f"{format_cycles(m.c)}\t{format_cycles(m.x)}\t{m.inertia_order}\t"
            f"{m.orbits_inertia}\t{m.orbits_full}\t{str(m.inertia_in_alternating).lower()}"
        )
    _emit(lines, args.out)
    return EXIT_OK if cands else EXIT_EMPTY


# ---------------------------------------------------------------- root-number


def cmd_root_number(args) -> int:
    with open(args.curve, encoding="utf-8") as fh:
        bundle = parse_curve_file(fh.read())
    with open(args.extension, encoding="utf-8") as fh:
        poly, declared = parse_extension_file(fh.read())
    facts = PolyFacts(poly)
    computable = []
    for p in bundle.bad_primes():
        if p in declared:
            continue
        if facts.is_good(p):
            computable.append(p)
    lines = [DISCLAIMER]
    try:
        prof = build_profile(facts, declared=declared, primes=computable)
    except ValueError as exc:
        lines.append(f"W(E/F) = Incomputable: {exc}")
        _emit(lines, args.out)
        return EXIT_EMPTY
    r1, r2 = prof.signature
    lines.append(f"# extension degree {prof.degree}, signature ({r1},{r2})")
    cert = prof.irreducibility
    lines.append(f"# irreducibility: {cert.status}" if cert else "# irreducibility: n/a")
    for p in sorted(prof.prime_profiles):
        pairs = ",".join(f"{e}:{f}" for e, f in prof.prime_profiles[p])
        lines.append(f"# profile p={p} [{pairs}] ({prof.provenance[p]})")
    try:
        w = root_number_over_extension(bundle, prof)
    except Incomputable as exc:
        lines.append(f"W(E/F) = Incomputable: {exc}")
        _emit(lines, args.out)
        return EXIT_EMPTY
    lines.append(f"W(E/F) = {w:+d}")
    _emit(lines, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- mestre


def cmd_mestre(args) -> int:
    if args.mode == "solve":
        if not args.odd_quintic:
            raise ParseError(0, "mestre solve needs --odd-quintic")
        f = parse_value(0, poly_from_descending_string, args.odd_quintic)
        sols = mestre_solve_odd_quintic(f)
        lines = [f"# f = {_descending(f)} (leading first); solutions: {len(sols)}"]
        lines.append("g\tr")
        for g, r in sols:
            lines.append(f"{_descending(g)}\t{_descending(r)}")
        _emit(lines, args.out)
        return EXIT_OK if sols else EXIT_EMPTY
    # verify
    if not args.f or not args.g:
        raise ParseError(0, "mestre verify needs --f and --g")
    f = parse_value(0, poly_from_descending_string, args.f)
    g = parse_value(0, poly_from_descending_string, args.g)
    try:
        r = mestre_verify(f, g)
    except NotASquare as exc:
        _emit([f"NotASquare: {exc}"], args.out)
        return EXIT_EMPTY
    _emit([f"r = {_descending(r)}"], args.out)
    return EXIT_OK


# ---------------------------------------------------------------- specialize


def cmd_specialize(args) -> int:
    with open(args.pencil, encoding="utf-8") as fh:
        pencil = parse_pencil_file(fh.read())
    curve = None
    if args.curve:
        with open(args.curve, encoding="utf-8") as fh:
            curve = parse_curve_file(fh.read())
    target = None
    for bp in pencil.branch_points:
        if bp.pair is not None:
            target = bp.pair
            break
    if target is None:
        raise ParseError(0, "pencil declares no branch point with decomposition data")
    # a composite prime, a nonpositive exponent or --height is an option error
    try:
        conditions = [PrimeCondition(args.q, "valuation_of_t0_equals", args.valuation)]
        for extra in args.congruent or []:
            parts = extra.split(":")
            if len(parts) != 3:
                raise ParseError(0, "--congruent takes p:value:exponent")
            conditions.append(
                PrimeCondition(
                    parse_value(0, int, parts[0]),
                    "t0_congruent_to",
                    parse_value(0, Fraction, parts[1]),
                    parse_value(0, int, parts[2]),
                )
            )
        constraints = SearchConstraints(
            conditions=tuple(conditions),
            height_bound=args.height,
            excluded_primes=tuple(parse_value(0, int, p) for p in args.exclude.split(",") if p),
        )
    except MestreError as exc:
        raise ParseError(0, str(exc)) from None
    records = search_rank_gain(
        pencil,
        curve,
        constraints,
        target,
        args.q,
        assumed_reduction=args.assume_reduction,
        limit=args.limit,
    )
    lines = [
        DISCLAIMER,
        f"# pencil {pencil.name or args.pencil}, designated prime {args.q}, "
        f"height bound {args.height}, seed {args.seed}",
        "role\tt0\tpolynomial\tprofiles\tratio\tflag\tfingerprint\tan_parity",
    ]
    nonempty = False
    for rec in records:
        profs = ";".join(
            f"p={p}[" + ",".join(f"{e}:{f}" for e, f in rec.profile.prime_profiles[p]) + "]"
            for p in sorted(rec.profile.prime_profiles)
        )
        cert = an_certificate(rec.profile.facts, pattern_primes=args.pattern_primes)
        parity = "square-disc" if cert.contained_in_alternating else "nonsquare-disc"
        ratio = "" if rec.ratio is None else f"{rec.ratio:+d}"
        flag = rec.rank_gain_flag or "reference"
        fp = rec.fingerprint or "-"
        lines.append(
            f"{rec.role}\t{rec.t0}\t{_descending(rec.poly)}\t{profs}\t{ratio}\t{flag}\t{fp}\t{parity}"
        )
        if rec.role == "candidate":
            nonempty = True
    _emit(lines, args.out)
    return EXIT_OK if nonempty else EXIT_EMPTY


# ---------------------------------------------------------------- jacobian


def cmd_jacobian(args) -> int:
    f = parse_value(0, poly_from_descending_string, args.f)
    report = hyperelliptic_rank_gain_report(f, args.n, args.bound)
    rows = report.rows
    if args.p is not None:
        rows = tuple(r for r in rows if r.prime == args.p)
        if not rows:
            _emit(
                [
                    DISCLAIMER,
                    f"# p={args.p} rejected: no node pattern (smooth or non-nodal reduction)",
                ],
                args.out,
            )
            return EXIT_EMPTY
    lines = [
        DISCLAIMER,
        f"# f = {_descending(f)}, target degree n = {args.n}, bound {args.bound}",
        "p\tnode\ttau\tbase_W\tprofileA_W\tprofileB_W\tverdict",
    ]
    for row in rows:
        lines.append(
            f"{row.prime}\t{row.node}\t{row.tau:+d}\t{row.base_w:+d}\t"
            f"{row.profile_a_w:+d}\t{row.profile_b_w:+d}\t{row.verdict} ({CONDITIONAL_TOKEN})"
        )
    _emit(lines, args.out)
    return EXIT_OK if rows else EXIT_EMPTY


# ---------------------------------------------------------------- profile


def cmd_profile(args) -> int:
    with open(args.extension, encoding="utf-8") as fh:
        poly, declared = parse_extension_file(fh.read())
    primes = [parse_prime(0, p) for p in args.primes.split(",") if p] if args.primes else []
    facts = PolyFacts(poly)
    computable = []
    skipped = []
    for p in primes:
        if p in declared:
            continue
        if facts.is_good(p):
            computable.append(p)
        else:
            skipped.append(p)
    prof = build_profile(facts, declared=declared, primes=computable)
    cert = prof.irreducibility
    lines = [
        f"# poly (leading first): {_descending(poly)}",
        f"signature: ({prof.signature[0]},{prof.signature[1]})",
        f"irreducibility: {cert.status}" + (f" witness p={cert.witness_prime}" if cert.witness_prime else ""),
    ]
    for p in sorted(prof.prime_profiles):
        pairs = ",".join(f"{e}:{f}" for e, f in prof.prime_profiles[p])
        lines.append(f"profile p={p} [{pairs}] ({prof.provenance[p]})")
    for p in sorted(skipped):
        lines.append(f"profile p={p} requires-declared-profile (divides disc or leading coefficient)")
    _emit(lines, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rootgain",
        description="Root numbers of elliptic curves and semistable Jacobians "
        "over extensions with prescribed Galois groups.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="seed for randomized internals")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("orbit-search", help="odd-orbit metacyclic certificate search")
    p.add_argument("group", help="sn | an | psl2 | gens")
    p.add_argument("n", type=int, nargs="?", default=0, help="degree or prime")
    p.add_argument("--action", choices=["natural", "deg55"], default="natural")
    p.add_argument("--generators", default=None, help="cycle lists separated by ';'")
    p.add_argument("--degree", type=int, default=None, help="degree for gens literals")
    p.add_argument("--require-even-inertia", action="store_true")
    p.add_argument("--cap", type=int, default=None, help="enumeration cap override")
    common(p)
    p.set_defaults(func=cmd_orbit_search)

    p = sub.add_parser("root-number", help="W(E/F) from curve and extension files")
    p.add_argument("--curve", required=True)
    p.add_argument("--extension", required=True)
    common(p)
    p.set_defaults(func=cmd_root_number)

    p = sub.add_parser("mestre", help="solve or verify the square-difference identity")
    p.add_argument("mode", choices=["solve", "verify"])
    p.add_argument("--odd-quintic", default=None, help="coefficients, leading first")
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    common(p)
    p.set_defaults(func=cmd_mestre)

    p = sub.add_parser("specialize", help="constrained specialization search")
    p.add_argument("--pencil", required=True)
    p.add_argument("--q", type=int, required=True, help="designated prime")
    p.add_argument("--valuation", type=int, default=-1, help="required v_q(t0)")
    p.add_argument("--height", type=int, default=100)
    p.add_argument("--limit", type=int, default=3, help="max candidate records")
    p.add_argument("--curve", default=None)
    p.add_argument("--assume-reduction", choices=["split", "nonsplit"], default="split")
    p.add_argument("--exclude", default="2,3,5,7,11", help="excluded prime set")
    p.add_argument("--congruent", action="append", help="extra condition p:value:exponent")
    p.add_argument("--pattern-primes", type=int, default=40)
    common(p)
    p.set_defaults(func=cmd_specialize)

    p = sub.add_parser("jacobian", help="hyperelliptic node-prime rank-gain report")
    p.add_argument("--f", required=True, help="integral coefficients, leading first")
    p.add_argument("--n", type=int, required=True, help="target extension degree")
    p.add_argument("--bound", type=int, default=100)
    p.add_argument("--p", type=int, default=None, help="restrict to one prime")
    common(p)
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("profile", help="signature and prime profiles of an extension")
    p.add_argument("--extension", required=True)
    p.add_argument("--primes", default="", help="comma list of primes to compute")
    common(p)
    p.set_defaults(func=cmd_profile)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except FileNotFoundError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except CapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
