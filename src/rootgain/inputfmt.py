"""The key: value record format used by every CLI input file.

Lines are `key: value`; blank lines and #-comments are ignored. Repeated keys
(`local:`, `profile:`, `branch:`, `coeff:`) accumulate. Coefficient lists are
written leading-coefficient-first, entries are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import PolyQ, is_prime, poly_from_descending_string
from .ellcurve import CurveError, CurveLocalData, EllipticCurveData, LocalReductionData
from .extension import DecompositionPair
from .mestre import BranchPoint, Pencil, mestre_form_pencil, psl2_11_degree12_pencil
from .permgroup import perm_from_cycles


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


def parse_value(lineno: int, parse, text: str):
    """parse(text); a malformed number is a ParseError at lineno (0: an option)."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(lineno, f"malformed {text!r}: {exc}") from None


def parse_prime(lineno: int, text) -> int:
    """parse_value(lineno, int, text), which must be a prime."""
    p = parse_value(lineno, int, text)
    if not is_prime(p):
        raise ParseError(lineno, f"{p} is not prime")
    return p


def parse_curve_file(text: str) -> CurveLocalData:
    coeffs = {}
    declared = []
    for lineno, key, value in read_records(text):
        if key in ("a1", "a2", "a3", "a4", "a6"):
            coeffs[key] = parse_value(lineno, Fraction, value)
        elif key == "local":
            attrs = _attrs(lineno, value)
            if "p" not in attrs or "type" not in attrs:
                raise ParseError(lineno, "local record needs p= and type=")
            prime = parse_prime(lineno, attrs["p"])
            w = attrs.get("w")
            w = parse_value(lineno, int, w) if w is not None else None
            try:
                declared.append(LocalReductionData(prime, attrs["type"], w))
            except CurveError as exc:
                raise ParseError(lineno, str(exc)) from None
        else:
            raise ParseError(lineno, f"unknown curve key {key!r}")
    missing = [k for k in ("a1", "a2", "a3", "a4", "a6") if k not in coeffs]
    if missing:
        raise ParseError(0, f"curve file missing {', '.join(missing)}")
    curve = EllipticCurveData.from_coeffs(
        coeffs["a1"], coeffs["a2"], coeffs["a3"], coeffs["a4"], coeffs["a6"]
    )
    return CurveLocalData.build(curve, declared)


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
    if not out:
        raise ParseError(lineno, "empty profile pair list")
    return out


def parse_extension_file(text: str) -> tuple[PolyQ, dict[int, list[tuple[int, int]]]]:
    poly = None
    declared: dict[int, list[tuple[int, int]]] = {}
    for lineno, key, value in read_records(text):
        if key == "poly":
            poly = parse_value(lineno, poly_from_descending_string, value)
        elif key == "profile":
            attrs = _attrs(lineno, value)
            if "p" not in attrs or "pairs" not in attrs:
                raise ParseError(lineno, "profile record needs p= and pairs=")
            p = parse_prime(lineno, attrs["p"])
            if p in declared:
                raise ParseError(lineno, f"duplicate profile for p={p}")
            declared[p] = _parse_pairs(lineno, attrs["pairs"])
        else:
            raise ParseError(lineno, f"unknown extension key {key!r}")
    if poly is None:
        raise ParseError(0, "extension file missing poly:")
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
        dg = _parse_perm_list(lineno, attrs.get("d", ""), degree)
        ig = _parse_perm_list(lineno, attrs.get("i", ""), degree)
        pair = DecompositionPair(degree, dg, ig)
    return BranchPoint(
        location=location,
        ramification_index=parse_value(lineno, int, attrs["e"]),
        inertia_class=attrs.get("class"),
        pair=pair,
    )


def parse_pencil_file(text: str) -> Pencil:
    form = None
    family = None
    fpoly = gpoly = None
    coeff_rows: dict[int, tuple[PolyQ, PolyQ]] = {}
    degree = None
    branches = []
    for lineno, key, value in read_records(text):
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
            num = parse_value(lineno, poly_from_descending_string, attrs["num"])
            den = parse_value(lineno, poly_from_descending_string, attrs.get("den", "1"))
            coeff_rows[k] = (num, den)
        elif key == "branch":
            branches.append(_parse_branch(lineno, value))
        else:
            raise ParseError(lineno, f"unknown pencil key {key!r}")
    if family is not None:
        if family == "psl2-11-degree12":
            return psl2_11_degree12_pencil()
        raise ParseError(0, f"unknown pencil family {family!r}")
    if form == "mestre":
        if fpoly is None or gpoly is None:
            raise ParseError(0, "mestre form needs f: and g:")
        return mestre_form_pencil(fpoly, gpoly, branch_points=tuple(branches))
    if form == "general":
        if degree is None:
            raise ParseError(0, "general form needs degree:")
        coeffs = []
        for k in range(degree + 1):
            if k not in coeff_rows:
                raise ParseError(0, f"general form missing coeff k={k}")
            coeffs.append(coeff_rows[k])
        return Pencil(tuple(coeffs), tuple(branches), name="general")
    raise ParseError(0, "pencil file needs family: or form: mestre|general")
