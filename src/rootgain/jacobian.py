"""Semistable hyperelliptic Jacobians: node primes of Y^2 = f(X), branch signs,
the orbit local root number, and the residue-extension engine with its
independent orbit-simulation oracle.

The local root number of a stable reduction (Brumer-Kramer-Sabitova) is
    W_p = (-1)^(n + s + 1) * prod tau([z]) = (-1)^(s+1) * prod (-tau([z])),
n the number of Frobenius orbits of nodes, s the component count, tau = +1
iff Frobenius (to the power of the orbit degree) fixes the two branches.
Every model built here has one absolutely irreducible component, s = 1, which
residue extension keeps: the nodal cubic, and Y^2 = f with one node orbit. So
W_p = prod (-tau([z])), and the engine carries no component count.

`root_number_after_extension` is the one engine for these signs: `extension`
reads an elliptic curve's sign at a multiplicative prime off its genus-1 case,
the nodal cubic (one node of degree 1, tau = +1 iff split).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .algebra import PolyQ, _divmod_list, _eval_int, _gcd_list, discriminant, legendre, primes_up_to

CONDITIONAL_TOKEN = "conditional-on-parity-conjecture"


class JacobianError(ValueError):
    pass


@dataclass(frozen=True)
class StableModelData:
    """Combinatorics of a stable reduction at p with one absolutely
    irreducible component: one (degree, branch sign) record per Frobenius
    orbit of nodes."""

    orbit_list: tuple[tuple[int, int], ...]  # (degree d(z), tau in {+1,-1})

    def __post_init__(self):
        for d, tau in self.orbit_list:
            if d < 1 or tau not in (1, -1):
                raise JacobianError("orbit records are (degree >= 1, sign +-1)")


@dataclass(frozen=True)
class NodePrimeRecord:
    """An odd prime where f mod p = (X-a)^2 g(X), g separable, g(a) != 0; the
    cofactor g, unit included, is reduced mod p with ascending coefficients."""

    prime: int
    node: int  # the double root a in F_p
    cofactor: tuple[int, ...]

    def __post_init__(self):
        if _eval_int(self.cofactor, self.node, self.prime) == 0:
            raise JacobianError("cofactor vanishes at the node")


def find_node_primes(f: PolyQ, bound: int) -> list[NodePrimeRecord]:
    """All odd primes p <= bound, not dividing the leading coefficient, where f
    mod p keeps its degree and acquires exactly one double root (X-a)^2 with a
    separable cofactor not vanishing at a.

    One discriminant answers two questions: disc f = 0 says f is not
    separable, and for p not dividing the leading coefficient disc(f mod p)
    = disc f mod p, so f mod p is squarefree, with no double root, exactly
    when p does not divide disc f; those primes are skipped without a gcd.
    The rest are tested directly: for odd p, gcd(f, f') = X - a says exactly
    this (a root of multiplicity m leaves (X-a)^(m-1) in the gcd, or (X-a)^m
    when p | m).
    """
    if f.degree < 5:
        raise JacobianError("hyperelliptic input needs degree >= 5")
    if any(c.denominator != 1 for c in f.coeffs):
        raise JacobianError("integral coefficients required")
    disc = discriminant(f)
    if disc == 0:
        raise JacobianError("f must be separable")
    ints = [c.numerator for c in f.coeffs]
    dints = [i * c for i, c in enumerate(ints)][1:]
    out = []
    for p in primes_up_to(bound):
        if p == 2 or ints[-1] % p == 0 or disc % p != 0:
            continue
        fp = [c % p for c in ints]
        df = [c % p for c in dints]
        while df and not df[-1]:  # trimmed for _gcd_list: p | deg f leaves top zeros
            df.pop()
        g = _gcd_list(fp, df, p)
        if len(g) != 2:
            continue
        # monic linear gcd: the double root a = -constant term
        a = -g[0] % p
        cofactor = _divmod_list(fp, [a * a % p, -2 * a % p, 1], p)[0]
        out.append(NodePrimeRecord(prime=p, node=a, cofactor=tuple(cofactor)))
    return out


def tau_sign(rec: NodePrimeRecord) -> int:
    """+1 iff the node's two branch directions are Frobenius-fixed, i.e. iff
    the cofactor value at the node is a nonzero square mod p. The record
    refuses a cofactor that vanishes at the node, so the value is a unit."""
    return legendre(_eval_int(rec.cofactor, rec.node, rec.prime), rec.prime)


def local_root_number_bks(M: StableModelData) -> int:
    """The product of -tau over the node orbits (s = 1)."""
    w = 1
    for _, tau in M.orbit_list:
        w *= -tau
    return w


def _tau_after_extension(tau: int, dz: int, d: int) -> int:
    """Branch sign of any orbit piece after residue extension of degree d:
    unchanged +1; for tau = -1 it flips to +1 exactly when the maximal 2-power
    dividing 2*d(z) divides d."""
    if tau == 1:
        return 1
    two_power = (2 * dz) & -(2 * dz)
    return 1 if d % two_power == 0 else -1


def root_number_after_extension(M: StableModelData, residue_degrees) -> int:
    """Product of local root numbers over the primes above p in an extension
    with the given residue degrees.

    Each base orbit of degree d(z) splits into gcd(d, d(z)) orbits with a
    common branch sign; the one absolutely irreducible component stays one,
    so each prime above p contributes prod (-tau) over its orbit pieces.
    """
    degrees = list(residue_degrees)
    if not degrees:
        raise JacobianError("at least one residue degree is required")
    if any(d < 1 for d in degrees):
        raise JacobianError("residue degrees are >= 1")
    total = 1
    for d in degrees:
        for dz, tau in M.orbit_list:
            pieces = gcd(d, dz)
            tq = _tau_after_extension(tau, dz, d)
            total *= (-tq) ** pieces
    return total


# ---------------------------------------------------------------- reports


@dataclass(frozen=True)
class RankGainRow:
    prime: int
    node: int
    tau: int
    base_w: int
    profile_a_w: int
    profile_b_w: int
    verdict: str


def alternating_profiles(n: int) -> tuple[list[int], list[int]]:
    """Residue degrees over the node prime for the two alternating-group sides:
    profile A folds the moved four points into one (e=2, f=2) prime plus n-4
    split primes; profile B splits completely."""
    if n < 4:
        raise JacobianError("target degree must be >= 4")
    return [2] + [1] * (n - 4), [1] * n


def hyperelliptic_rank_gain_report(f: PolyQ, n: int, bound: int) -> list[RankGainRow]:
    """For every node prime of Y^2 = f(X) up to the bound: the base local root
    number and its values over the two degree-n profiles, with the flip verdict.

    Every verdict is conditional on the parity conjecture; the stable model has
    one component (the reduction is birational to Y^2 = cofactor, absolutely
    irreducible), and a single node orbit of degree 1.
    """
    prof_a, prof_b = alternating_profiles(n)
    rows = []
    for rec in find_node_primes(f, bound):
        tau = tau_sign(rec)
        M = StableModelData(orbit_list=((1, tau),))
        wa = root_number_after_extension(M, prof_a)
        wb = root_number_after_extension(M, prof_b)
        verdict = "flip" if wa != wb else "no-flip"
        rows.append(
            RankGainRow(
                prime=rec.prime,
                node=rec.node,
                tau=tau,
                base_w=local_root_number_bks(M),
                profile_a_w=wa,
                profile_b_w=wb,
                verdict=verdict,
            )
        )
    return rows


# ---------------------------------------------------------------- oracle


def orbit_simulation_root_number(M: StableModelData, residue_degrees) -> int:
    """Independent oracle: simulate Frobenius on the branch points (orbit of
    size d(z); the branch involution applied on wrap-around when tau = -1),
    take its d-th power, count node orbits and read off the branch signs, then
    apply the orbit sign formula (s = 1) over the extension."""
    degrees = list(residue_degrees)
    if not degrees:
        raise JacobianError("at least one residue degree is required")
    total = 1
    for d in degrees:
        perm: dict[tuple[int, int, int], tuple[int, int, int]] = {}
        for oid, (dz, tau) in enumerate(M.orbit_list):
            for i in range(dz):
                for sheet in (0, 1):
                    if i < dz - 1:
                        perm[(oid, i, sheet)] = (oid, i + 1, sheet)
                    else:
                        perm[(oid, i, sheet)] = (oid, 0, sheet if tau == 1 else 1 - sheet)

        def power(x, k):
            for _ in range(k):
                x = perm[x]
            return x

        nodes = [
            (oid, i) for oid, (dz, _) in enumerate(M.orbit_list) for i in range(dz)
        ]
        seen = set()
        n_orbits = 0
        sign_product = 1
        for nd in nodes:
            if nd in seen:
                continue
            n_orbits += 1
            length = 0
            cur = nd
            while cur not in seen:
                seen.add(cur)
                length += 1
                nxt = power((cur[0], cur[1], 0), d)
                cur = (nxt[0], nxt[1])
            end = power((nd[0], nd[1], 0), d * length)
            if (end[0], end[1]) != nd:
                raise JacobianError("orbit simulation lost track of a node")
            sign_product *= 1 if end[2] == 0 else -1
        w = -1 if n_orbits % 2 else 1
        total *= w * sign_product
    return total
