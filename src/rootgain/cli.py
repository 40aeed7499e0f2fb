"""Command-line entry point.

Subcommands: orbit-search, root-number, mestre {solve|verify}, specialize,
jacobian, profile. Every invocation is byte-reproducible. No computation reads
--seed (default 0); specialize only echoes it in its header.

Exit codes: 0 success/nonempty, 2 internal error, 3 empty result, 4 parse/usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from itertools import groupby
from math import gcd
from operator import attrgetter

from .algebra import NotASquare, PolyFacts, poly_from_descending_string, rational_sqrt
from .algebra import FactoringIncomplete, unproven_prime_reason
from .extension import ExtensionError, Incomputable, build_profile, certify_irreducible
from .extension import root_number_over_extension
from .inputfmt import ParseError, parse_curve_file, parse_extension_file, parse_pencil_file
from .inputfmt import parse_prime, parse_value
from .jacobian import CONDITIONAL_TOKEN, JacobianError, hyperelliptic_rank_gain_report
from .mestre import (
    MestreError,
    PrimeCondition,
    SearchConstraints,
    SpecializationError,
    mestre_solve_odd_quintic,
    mestre_verify,
    search_rank_gain,
)
from .permgroup import (
    CapExceeded,
    GroupError,
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
    """Write each line of any iterable, newline-terminated, as it comes."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
    else:
        sys.stdout.writelines(line + "\n" for line in lines)


# ---------------------------------------------------------------- orbit-search


def cmd_orbit_search(args) -> int:
    kind = args.group.lower()
    if args.cap is not None and args.cap < 1:
        raise ParseError(0, f"--cap must be >= 1, got {args.cap}")
    if kind in ("sn", "an", "psl2") and args.n < 1:
        raise ParseError(0, f"group spec {kind!r} needs a positive degree or prime")
    if kind == "psl2" and args.action == "deg55":
        if args.n != 11:
            raise ParseError(0, "the degree-55 action is built for p = 11 only")
        G = psl2_11_degree55()
    elif kind in ("sn", "an", "psl2"):
        # a degree or prime the family does not have is an option error
        build = {"sn": symmetric_group, "an": alternating_group, "psl2": psl2_natural}[kind]
        try:
            G = build(args.n)
        except GroupError as exc:
            raise ParseError(0, str(exc)) from None
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
    if args.cap is not None:
        G = PermGroup(G.degree, G.generators, cap=args.cap, name=G.name)
    cands = metacyclic_odd_orbit_search(G, require_inertia_even=args.require_even_inertia)

    def report():
        yield f"# group: {G.name or args.group} degree={G.degree} order={G.order()}"
        yield f"# candidates with degree - |orb(<I,x>)| odd: {len(cands)}"
        yield "inertia_generator\tx\t|I|\torb(I)\torb(H)\tI_in_An"
        # candidates come grouped by c: format each c once, and each x once
        # per report
        x_texts: dict = {}
        for c, group in groupby(cands, key=attrgetter("c")):
            c_text = format_cycles(c)
            for m in group:
                if m.x not in x_texts:
                    x_texts[m.x] = format_cycles(m.x)
                yield (
                    f"{c_text}\t{x_texts[m.x]}\t{m.inertia_order}\t"
                    f"{m.orbits_inertia}\t{m.orbits_full}\t{str(m.inertia_in_alternating).lower()}"
                )

    _emit(report(), args.out)
    return EXIT_OK if cands else EXIT_EMPTY


# ---------------------------------------------------------------- extensions


def _extension_profile(poly, declared, primes):
    """(profile, irreducibility certificate, skipped primes) of the extension
    file's poly: the declared profiles, and computed ones at the requested
    primes that are not declared and divide neither disc nor the leading
    coefficient; the others are skipped. Errors propagate to the caller."""
    facts = PolyFacts(poly)
    computable = []
    skipped = []
    for p in primes:
        if p not in declared:
            (computable if facts.is_good(p) else skipped).append(p)
    prof = build_profile(facts, declared=declared, primes=computable)
    return prof, certify_irreducible(facts), skipped


def _profile_lines(prof, prefix: str = "") -> list[str]:
    """One `profile p=... [e:f,...] (provenance)` line per prime, ascending."""
    lines = []
    for p, pairs in sorted(prof.prime_profiles.items()):
        text = ",".join(f"{e}:{f}" for e, f in pairs)
        lines.append(f"{prefix}profile p={p} [{text}] ({prof.provenance[p]})")
    return lines


# ---------------------------------------------------------------- root-number


def cmd_root_number(args) -> int:
    with open(args.curve, encoding="utf-8") as fh:
        bundle = parse_curve_file(fh.read())
    with open(args.extension, encoding="utf-8") as fh:
        poly, declared = parse_extension_file(fh.read())
    lines = [DISCLAIMER]
    try:
        prof, cert, _ = _extension_profile(poly, declared, bundle.bad_primes())
    except ValueError as exc:
        lines.append(f"W(E/F) = Incomputable: {exc}")
        _emit(lines, args.out)
        return EXIT_EMPTY
    r1, r2 = prof.signature
    lines.append(f"# extension degree {prof.degree}, signature ({r1},{r2})")
    lines.append(f"# irreducibility: {cert.status}")
    lines.extend(_profile_lines(prof, "# "))
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
        try:
            sols = mestre_solve_odd_quintic(f)
        except MestreError as exc:
            raise ParseError(0, str(exc)) from None
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
    except MestreError as exc:
        raise ParseError(0, str(exc)) from None
    _emit([f"r = {_descending(r)}"], args.out)
    return EXIT_OK


# ---------------------------------------------------------------- specialize


def cmd_specialize(args) -> int:
    if args.limit < 1:
        raise ParseError(0, f"--limit must be >= 1, got {args.limit}")
    with open(args.pencil, encoding="utf-8") as fh:
        pencil = parse_pencil_file(fh.read())
    curve = None
    if args.curve:
        with open(args.curve, encoding="utf-8") as fh:
            curve = parse_curve_file(fh.read())
    point = next((bp for bp in pencil.branch_points if bp.pair is not None), None)
    if point is None:
        raise ParseError(0, "pencil declares no branch point with decomposition data")
    # a t0 with v_q(t0) = v meets inf with multiplicity m = -v and 0 with m = v,
    # so its inertia at q is <g^m>, g the point's inertia generator of order e
    # (Beckmann): the pair's inertia only when m > 0 and gcd(m, e) = 1
    v, e = args.valuation, point.ramification_index
    m = -v if point.location == "inf" else v if point.location == 0 else 0
    if m <= 0 or gcd(m, e) != 1:
        where = f"the pair at {point.location} (e={e})"
        raise ParseError(0, f"--valuation {v} misses the inertia of {where}")
    target = point.pair
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
    try:
        records = search_rank_gain(
            pencil,
            curve,
            constraints,
            target,
            args.q,
            assumed_reduction=args.assume_reduction,
            limit=args.limit,
        )
    except SpecializationError as exc:  # no reference fiber below the height bound
        sys.stderr.write(f"{exc}\n")
        return EXIT_EMPTY
    except MestreError as exc:  # --q excluded, or not multiplicative for --curve
        raise ParseError(0, str(exc)) from None
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
        square = rational_sqrt(rec.profile.facts.disc) is not None
        parity = "square-disc" if square else "nonsquare-disc"
        ratio = "" if rec.ratio is None else f"{rec.ratio:+d}"
        flag = rec.rank_gain_flag or "reference"
        fp = rec.fingerprint or "-"
        lines.append(
            f"{rec.role}\t{rec.t0}\t{_descending(rec.profile.poly)}\t{profs}\t{ratio}\t{flag}"
            f"\t{fp}\t{parity}"
        )
        if rec.role == "candidate":
            nonempty = True
    _emit(lines, args.out)
    return EXIT_OK if nonempty else EXIT_EMPTY


# ---------------------------------------------------------------- jacobian


def cmd_jacobian(args) -> int:
    f = parse_value(0, poly_from_descending_string, args.f)
    if args.bound < 3:  # no odd prime to scan
        raise ParseError(0, f"--bound must be >= 3, got {args.bound}")
    # a --p the report never scans would be "rejected" without a look
    if args.p is not None:
        reason = unproven_prime_reason(args.p)
        if reason:
            raise ParseError(0, f"--p {reason}")
        if args.p == 2:
            raise ParseError(0, "--p 2: the node-prime scan covers odd primes only")
        if args.p > args.bound:
            raise ParseError(0, f"--p {args.p} lies above --bound {args.bound}")
    # a curve or target degree the report cannot take is an option error
    try:
        rows = hyperelliptic_rank_gain_report(f, args.n, args.bound)
    except JacobianError as exc:
        raise ParseError(0, str(exc)) from None
    if args.p is not None:
        rows = [r for r in rows if r.prime == args.p]
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
    primes = sorted({parse_prime(0, p) for p in args.primes.split(",") if p})
    try:
        prof, cert, skipped = _extension_profile(poly, declared, primes)
    except ExtensionError as exc:
        sys.stderr.write(f"Incomputable: {exc}\n")
        return EXIT_EMPTY
    lines = [
        f"# poly (leading first): {_descending(poly)}",
        f"signature: ({prof.signature[0]},{prof.signature[1]})",
        f"irreducibility: {cert.status}" + (f" witness p={cert.witness_prime}" if cert.witness_prime else ""),
    ]
    lines.extend(_profile_lines(prof))
    for p in sorted(skipped):
        lines.append(f"profile p={p} requires-declared-profile (divides disc or leading coefficient)")
    _emit(lines, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing keeps no
    state in it, since each call fills a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="rootgain",
        description="Root numbers of elliptic curves and semistable Jacobians "
        "over extensions with prescribed Galois groups.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="echoed in the specialize header")
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        if exc.code != 2:
            raise
        return EXIT_PARSE
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
    except FactoringIncomplete as exc:  # a curve discriminant trial division cannot split
        sys.stderr.write(f"Incomputable: {exc}\n")
        return EXIT_EMPTY
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
