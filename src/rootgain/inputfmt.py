"""The key: value record format used by every CLI input file.

Lines are `key: value`; blank lines and #-comments are ignored. Repeated keys
(`local:`, `profile:`, `branch:`, `coeff:`) accumulate; every other key may
appear once, and a pencil file may hold only the keys its family or form
reads. Coefficient lists are written leading-coefficient-first, entries are
exact rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import PolyQ, poly_from_descending_string, unproven_prime_reason
from .ellcurve import ADDITIVE, DECLARED, GOOD, CurveError, CurveLocalData, EllipticCurveData
from .ellcurve import LocalReductionData, classify_reduction
from .extension import DecompositionPair
from .mestre import BranchPoint, MestreError, Pencil, mestre_form_pencil, psl2_11_degree12_pencil
from .permgroup import CapExceeded, GroupError, perm_from_cycles


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


def read_records(text: str) -> list[tuple[int, str, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(lineno, f"expected 'key: value', got {raw.strip()!r}")
        key, value = line.split(":", 1)
        out.append((lineno, key.strip().lower(), value.strip()))
    return out


def _attrs(lineno: int, value: str) -> dict[str, str]:
    out = {}
    for chunk in value.split():
        if "=" not in chunk:
            raise ParseError(lineno, f"expected attr=value, got {chunk!r}")
        k, v = chunk.split("=", 1)
        out[k.strip().lower()] = v.strip()
    return out


def _duplicate(lineno: int, key: str) -> ParseError:
    return ParseError(lineno, f"duplicate key {key!r}")


def parse_value(lineno: int, parse, text: str):
    """parse(text); a malformed number is a ParseError at lineno (0: an option)."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(lineno, f"malformed {text!r}: {exc}") from None


def parse_prime(lineno: int, text) -> int:
    """parse_value(lineno, int, text), which must be a proven prime."""
    p = parse_value(lineno, int, text)
    reason = unproven_prime_reason(p)
    if reason:
        raise ParseError(lineno, reason)
    return p


def _check_declaration(curve: EllipticCurveData, L: LocalReductionData, lineno: int) -> None:
    """A declaration at p >= 5 must be the computed reduction type; only an
    additive prime, whose root number is not computed, takes type=declared or
    w=. At p = 2 or 3 the type is not computed, but a p-integral model whose
    discriminant p does not divide has good reduction, with w_p = +1: there
    only type=good (without w=) or type=declared w=+1 is taken."""
    p = L.prime
    if p < 5:
        good = all(a.denominator % p for a in curve.coefficients()) and curve.disc.numerator % p
        if good and (L.type, L.declared_root_number) not in ((GOOD, None), (DECLARED, 1)):
            w = "" if L.declared_root_number is None else f" w={L.declared_root_number:+d}"
            raise ParseError(
                lineno,
                f"type={L.type}{w} at p={p}, where the model is {p}-integral and {p} does not"
                " divide its discriminant: the reduction is good, with w=+1",
            )
        return
    try:
        computed = classify_reduction(curve, L.prime).type
    except CurveError as exc:
        raise ParseError(lineno, str(exc)) from None
    if computed == ADDITIVE and L.type in (ADDITIVE, DECLARED):
        return
    where = f"at p={L.prime}, whose computed reduction is {computed}"
    if L.type != computed:
        raise ParseError(lineno, f"type={L.type} {where}")
    if L.declared_root_number is not None:
        raise ParseError(lineno, f"w= {where}, not additive")


def parse_curve_file(text: str) -> CurveLocalData:
    """The local data of a curve file; each `local:` declaration is checked at
    its line against what is computed there (`_check_declaration`)."""
    coeffs = {}
    declared: dict[int, tuple[int, LocalReductionData]] = {}
    for lineno, key, value in read_records(text):
        if key in ("a1", "a2", "a3", "a4", "a6"):
            if key in coeffs:
                raise _duplicate(lineno, key)
            coeffs[key] = parse_value(lineno, Fraction, value)
        elif key == "local":
            attrs = _attrs(lineno, value)
            if "p" not in attrs or "type" not in attrs:
                raise ParseError(lineno, "local record needs p= and type=")
            prime = parse_prime(lineno, attrs["p"])
            if prime in declared:
                raise ParseError(lineno, f"duplicate declaration at p={prime}")
            w = attrs.get("w")
            w = parse_value(lineno, int, w) if w is not None else None
            try:
                declared[prime] = lineno, LocalReductionData(prime, attrs["type"], w)
            except CurveError as exc:
                raise ParseError(lineno, str(exc)) from None
        else:
            raise ParseError(lineno, f"unknown curve key {key!r}")
    missing = [k for k in ("a1", "a2", "a3", "a4", "a6") if k not in coeffs]
    if missing:
        raise ParseError(0, f"curve file missing {', '.join(missing)}")
    # a singular model, or one that is not p-integral at a bad prime p >= 5
    try:
        curve = EllipticCurveData.from_coeffs(
            coeffs["a1"], coeffs["a2"], coeffs["a3"], coeffs["a4"], coeffs["a6"]
        )
        for lineno, L in declared.values():
            _check_declaration(curve, L, lineno)
        return CurveLocalData.build(curve, [L for _, L in declared.values()])
    except CurveError as exc:
        raise ParseError(0, str(exc)) from None


def _parse_pairs(lineno: int, text: str) -> list[tuple[int, int]]:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ParseError(lineno, f"profile pair must be e:f, got {item!r}")
        e, f = item.split(":", 1)
        out.append((parse_value(lineno, int, e), parse_value(lineno, int, f)))
        if min(out[-1]) < 1:
            raise ParseError(lineno, f"profile pair {item!r} needs e, f >= 1")
    if not out:
        raise ParseError(lineno, "empty profile pair list")
    return out


def parse_extension_file(text: str) -> tuple[PolyQ, dict[int, list[tuple[int, int]]]]:
    """The separable nonconstant poly: and its declared profiles, each with
    Sum e*f equal to the degree."""
    poly = None
    declared: dict[int, list[tuple[int, int]]] = {}
    profile_lines: dict[int, int] = {}
    for lineno, key, value in read_records(text):
        if key == "poly":
            if poly is not None:
                raise _duplicate(lineno, key)
            poly = parse_value(lineno, poly_from_descending_string, value)
            if poly.degree < 1:
                raise ParseError(lineno, "poly: must have degree >= 1")
            if not poly.is_separable():
                raise ParseError(lineno, "poly: has a repeated root")
        elif key == "profile":
            attrs = _attrs(lineno, value)
            if "p" not in attrs or "pairs" not in attrs:
                raise ParseError(lineno, "profile record needs p= and pairs=")
            p = parse_prime(lineno, attrs["p"])
            if p in declared:
                raise ParseError(lineno, f"duplicate profile for p={p}")
            declared[p] = _parse_pairs(lineno, attrs["pairs"])
            profile_lines[p] = lineno
        else:
            raise ParseError(lineno, f"unknown extension key {key!r}")
    if poly is None:
        raise ParseError(0, "extension file missing poly:")
    for p, pairs in declared.items():
        total = sum(e * f for e, f in pairs)
        if total != poly.degree:
            raise ParseError(
                profile_lines[p], f"sum of e*f is {total}, expected the degree {poly.degree}"
            )
    return poly, declared


def _parse_perm_list(lineno: int, text: str, degree: int):
    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            try:
                gens.append(perm_from_cycles(chunk, degree))
            except Exception as exc:
                raise ParseError(lineno, f"bad permutation {chunk!r}: {exc}") from None
    return tuple(gens)


def _parse_branch(lineno: int, value: str) -> BranchPoint:
    attrs = _attrs(lineno, value)
    if "location" not in attrs or "e" not in attrs:
        raise ParseError(lineno, "branch record needs location= and e=")
    loc = attrs["location"]
    location = loc if loc in ("inf", "poles-of-s") else parse_value(lineno, Fraction, loc)
    pair = None
    if "d" in attrs or "i" in attrs:
        if "degree" not in attrs:
            raise ParseError(lineno, "branch with D=/I= needs degree=")
        degree = parse_value(lineno, int, attrs["degree"])
        if degree < 1:
            raise ParseError(lineno, "branch degree must be >= 1")
        dg = _parse_perm_list(lineno, attrs.get("d", ""), degree)
        ig = _parse_perm_list(lineno, attrs.get("i", ""), degree)
        try:
            pair = DecompositionPair(degree, dg, ig)
        except (GroupError, CapExceeded) as exc:
            raise ParseError(lineno, str(exc)) from None
    try:
        return BranchPoint(
            location=location,
            ramification_index=parse_value(lineno, int, attrs["e"]),
            pair=pair,
        )
    except MestreError as exc:
        raise ParseError(lineno, str(exc)) from None


def _branch_points(branches, degree: int) -> tuple[BranchPoint, ...]:
    """The parsed `branch:` records, each decomposition pair checked against the
    pencil's X-degree at its line."""
    for lineno, bp in branches:
        if bp.pair is not None and bp.pair.degree != degree:
            raise ParseError(lineno, f"branch degree {bp.pair.degree} != pencil X-degree {degree}")
    return tuple(bp for _, bp in branches)


# the keys each kind of pencil file reads
_PENCIL_KEYS = {
    "family": {"family"},
    "mestre": {"form", "f", "g", "branch"},
    "general": {"form", "degree", "coeff", "branch"},
}


def parse_pencil_file(text: str) -> Pencil:
    form = None
    family = None
    fpoly = gpoly = None
    coeff_rows: dict[int, tuple[int, tuple[PolyQ, PolyQ]]] = {}  # k -> (lineno, (num, den))
    degree = None
    branches = []
    first_line: dict[str, int] = {}
    for lineno, key, value in read_records(text):
        if key in first_line and key not in ("coeff", "branch"):
            raise _duplicate(lineno, key)
        first_line.setdefault(key, lineno)
        if key == "family":
            family = value
        elif key == "form":
            form = value
        elif key == "f":
            fpoly = parse_value(lineno, poly_from_descending_string, value)
        elif key == "g":
            gpoly = parse_value(lineno, poly_from_descending_string, value)
        elif key == "degree":
            degree = parse_value(lineno, int, value)
        elif key == "coeff":
            attrs = _attrs(lineno, value)
            if "k" not in attrs or "num" not in attrs:
                raise ParseError(lineno, "coeff record needs k= and num=")
            k = parse_value(lineno, int, attrs["k"])
            if k in coeff_rows:
                raise ParseError(lineno, f"duplicate coeff k={k}")
            num = parse_value(lineno, poly_from_descending_string, attrs["num"])
            den = parse_value(lineno, poly_from_descending_string, attrs.get("den", "1"))
            if den.is_zero():
                raise ParseError(lineno, "coeff den= must be nonzero")
            coeff_rows[k] = (lineno, (num, den))
        elif key == "branch":
            branches.append((lineno, _parse_branch(lineno, value)))
        else:
            raise ParseError(lineno, f"unknown pencil key {key!r}")
    kind = "family" if family is not None else form
    if kind not in _PENCIL_KEYS:
        raise ParseError(0, "pencil file needs family: or form: mestre|general")
    unread = [(n, key) for key, n in first_line.items() if key not in _PENCIL_KEYS[kind]]
    if unread:
        lineno, key = min(unread)
        raise ParseError(lineno, f"key {key!r} is not read by a {kind} pencil")
    if kind == "family":
        if family == "psl2-11-degree12":
            return psl2_11_degree12_pencil()
        raise ParseError(0, f"unknown pencil family {family!r}")
    if kind == "mestre":
        if fpoly is None or gpoly is None:
            raise ParseError(0, "mestre form needs f: and g:")
        points = _branch_points(branches, fpoly.degree)
        try:
            return mestre_form_pencil(fpoly, gpoly, branch_points=points)
        except MestreError as exc:
            raise ParseError(0, str(exc)) from None
    if degree is None:
        raise ParseError(0, "general form needs degree:")
    for k, (lineno, _) in sorted(coeff_rows.items()):
        if not 0 <= k <= degree:
            raise ParseError(lineno, f"coeff k={k} lies outside 0..{degree}")
    points = _branch_points(branches, degree)
    coeffs = []
    for k in range(degree + 1):
        if k not in coeff_rows:
            raise ParseError(0, f"general form missing coeff k={k}")
        coeffs.append(coeff_rows[k][1])
    return Pencil(tuple(coeffs), points, name="general")
