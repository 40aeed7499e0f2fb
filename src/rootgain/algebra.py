"""Exact arithmetic substrate: rationals, polynomials over Q and F_p, Frobenius
patterns, Sturm sequences, quadratic symbols.

Everything here is exact; no floating point is used anywhere. Rational is the
stdlib Fraction (already normalized: gcd(num, den) = 1, den >= 1). Resultants,
discriminants, Sturm counts and gcds over Q all come from one primitive
integer pseudo-remainder sequence of the integer models (`_prs`). A polynomial
over F_p is a reduced, trimmed, ascending list of ints, for the kernels
`_divmod_list`, `_gcd_list` and `_eval_int`. Over F_p only the factor degrees
at good primes (the Frobenius patterns of `PolyFacts`, by a block kernel and a
one-prime distinct-degree kernel), roots mod p and node primes are read; no
full factorization over F_p is taken.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, isqrt, lcm
from operator import lshift, mul

Rational = Fraction


class AlgebraError(ValueError):
    pass


class NotASquare(Exception):
    """Signals that an exact polynomial square root does not exist."""


class _TopValue:
    """Valuation of 0: compares above every integer."""

    def __ge__(self, other):
        return True

    def __gt__(self, other):
        return not isinstance(other, _TopValue)

    def __le__(self, other):
        return isinstance(other, _TopValue)

    def __lt__(self, other):
        return False

    def __eq__(self, other):
        return isinstance(other, _TopValue)

    def __hash__(self):
        return hash("TopValue")

    def __repr__(self):
        return "TopValue"


TOP_VALUE = _TopValue()


# ----------------------------------------------------------------------------
# primes and quadratic symbols

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12, the least strong pseudoprime to every base in _SMALL_PRIMES
# (399165290221 * 798330580441); from it on, base 41 is added as well
_PSI_12 = 318665857834031151167461
# psi_13 (1287836182261 * 2575672364521), the least strong pseudoprime to every
# base 2..41: is_prime is proven only below it
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < psi_13 = 3317044064679887385961981.

    The bases 2..37 are exact below psi_12; 41 is added only from psi_12 on,
    so the bases 2..41 are exact below psi_13 (Sorenson-Webster). Up to the
    last prime of the shared sieve, n is looked up in it instead."""
    if n < 2:
        return False
    if _sieved_primes and n <= _sieved_primes[-1]:
        return _sieved_primes[bisect_left(_sieved_primes, n)] == n
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES if n < _PSI_12 else _SMALL_PRIMES + (41,):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def unproven_prime_reason(n: int) -> str | None:
    """Why an input n cannot be taken as a proven prime, or None if it can."""
    if not is_prime(n):
        return f"{n} is not prime"
    if n >= _PSI_13:
        return f"{n} is beyond the proven primality range (p < {_PSI_13})"
    return None


_sieved_primes: list[int] = []  # read by every walk of iter_primes


def iter_primes():
    """2, 3, 5, 7, ...: one shared list of primes, sieved again (to 64, then to
    twice its largest prime, past which Bertrand puts another) only when a
    walk passes its end."""
    i = 0
    while True:
        if i == len(_sieved_primes):
            bound = 2 * _sieved_primes[-1] if _sieved_primes else 64
            _sieved_primes.extend(primes_up_to(bound)[i:])
        yield _sieved_primes[i]
        i += 1


def primes_up_to(bound: int) -> list[int]:
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, b in enumerate(sieve) if b]


# _prime_divisors trial-divides below this bound only
TRIAL_DIVISION_BOUND = 10**6


class FactoringIncomplete(AlgebraError):
    """A cofactor left by trial division is neither split nor proven prime."""


def _prime_divisors(x: Rational) -> list[int]:
    """The primes dividing the numerator or the denominator of x, ascending.

    Trial division runs below TRIAL_DIVISION_BOUND. The cofactor it leaves has
    no prime factor below the bound, so it is prime when it is below the bound
    squared; past that it is taken only as is_prime proves it (below psi_13).
    Raises FactoringIncomplete, naming the cofactor, otherwise."""
    n = abs(x.numerator * x.denominator)
    out = []
    p = 2
    while p * p <= n and p < TRIAL_DIVISION_BOUND:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n >= TRIAL_DIVISION_BOUND**2 and (reason := unproven_prime_reason(n)):
        raise FactoringIncomplete(
            f"trial division below {TRIAL_DIVISION_BOUND} leaves a cofactor not proven prime: {reason}"
        )
    if n > 1:
        out.append(n)
    return out


def valuation(x: Rational | int, p: int):
    """p-adic valuation of a rational; valuation of 0 is TOP_VALUE."""
    if not is_prime(p):
        raise AlgebraError(f"valuation: {p} is not prime")
    return _valuation(x, p)


def _valuation(x: Rational | int, p: int):
    """valuation for a p already known to be prime."""
    x = Fraction(x)
    if x == 0:
        return TOP_VALUE
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise AlgebraError(f"legendre: {p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def rational_sqrt(q: Rational):
    """Exact square root of a rational, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# ----------------------------------------------------------------------------
# polynomials over Q


def _primitive(c: list[int]) -> list[int]:
    """c divided by its positive content."""
    g = gcd(*c)
    return [x // g for x in c]


class PolyQ:
    """Univariate polynomial over Q; coefficients ascending, degree -1 for 0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_descending(cls, coeffs) -> PolyQ:
        return cls(list(coeffs)[::-1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, PolyQ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, i: int) -> Rational:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def leading(self) -> Rational:
        if not self.coeffs:
            raise AlgebraError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: PolyQ) -> PolyQ:
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: PolyQ) -> PolyQ:
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ([self[i] - other[i] for i in range(n)])

    def __neg__(self) -> PolyQ:
        return PolyQ([-c for c in self.coeffs])

    def __mul__(self, other) -> PolyQ:
        if isinstance(other, (int, Fraction)):
            return PolyQ([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return PolyQ([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyQ(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> PolyQ:
        out = PolyQ([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: PolyQ) -> tuple[PolyQ, PolyQ]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return PolyQ([]), self
        quo = [Fraction(0)] * (dq + 1)
        lc = other.leading()
        while len(rem) >= len(other.coeffs) and rem:
            c = rem[-1] / lc
            d = len(rem) - len(other.coeffs)
            quo[d] = c
            for i, b in enumerate(other.coeffs):
                rem[i + d] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return PolyQ(quo), PolyQ(rem)

    def __floordiv__(self, other: PolyQ) -> PolyQ:
        return self.divmod(other)[0]

    def derivative(self) -> PolyQ:
        return PolyQ([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x) -> Rational:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> PolyQ:
        if self.is_zero():
            return self
        lc = self.leading()
        return PolyQ([c / lc for c in self.coeffs])

    def compose_neg(self) -> PolyQ:
        """f(-X)."""
        return PolyQ([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    def gcd(self, other: PolyQ) -> PolyQ:
        """The monic gcd, 0 when both are 0: the last term of the _prs chain
        of the integer models, a multiple of the last nonzero Euclidean
        remainder over Q (Cohen, GTM 138, §3.3)."""
        if not self or not other:
            return (self + other).monic()
        chain = _prs(self.integer_model()[0], other.integer_model()[0])[0]
        return PolyQ(chain[-1]).monic()

    def squarefree_part(self) -> PolyQ:
        if self.is_zero():
            raise AlgebraError("squarefree part of the zero polynomial")
        return (self // self.gcd(self.derivative())).monic()

    def is_separable(self) -> bool:
        return not self.is_zero() and self.gcd(self.derivative()).degree == 0

    def integer_model(self) -> tuple[list[int], int]:
        """(d*self's integer coefficients, ascending, d) with d the lcm of the
        denominators."""
        d = 1
        for c in self.coeffs:
            d = lcm(d, c.denominator)
        return [int(c * d) for c in self.coeffs], d

    def primitive_integral(self) -> PolyQ:
        """Scale by a positive rational to primitive integer coefficients with
        positive leading coefficient."""
        if self.is_zero():
            return self
        ints = _primitive(self.integer_model()[0])
        if ints[-1] < 0:
            ints = [-c for c in ints]
        return PolyQ(ints)

    def __repr__(self):
        return f"PolyQ({list(self.coeffs)})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            else:
                xs = "X" if i == 1 else f"X^{i}"
                if c == 1:
                    parts.append(xs)
                elif c == -1:
                    parts.append(f"-{xs}")
                else:
                    parts.append(f"{c}*{xs}")
        out = parts[0]
        for t in parts[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out


def poly_from_descending_string(text: str) -> PolyQ:
    """Parse "1,0,-164,0,2304,0" (leading coefficient first) into a PolyQ."""
    items = [t.strip() for t in text.replace(";", ",").split(",") if t.strip()]
    return PolyQ.from_descending([Fraction(t) for t in items])


# ----------------------------------------------------------------------------
# one integer remainder sequence: resultants, discriminants, Sturm counts, gcds


def _negated_pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """-rem(|lc(b)|^(d+1) a, b) for d = deg a - deg b, on ascending integer
    coefficients: each step scales by |lc(b)| and cancels the top term."""
    lc = b[-1]
    sign = 1 if lc > 0 else -1
    lc = abs(lc)
    r = list(a)
    n = len(b)
    for k in range(len(a) - n, -1, -1):
        top = r[k + n - 1] * sign
        r = [x * lc for x in r[: k + n - 1]]
        for i in range(n - 1):
            r[k + i] -= top * b[i]
    while r and r[-1] == 0:
        r.pop()
    return [-x for x in r]


def _prs(a: list[int], b: list[int]) -> tuple[list[list[int]], int]:
    """(chain, Res(a, b)) for nonzero, trimmed, ascending integer lists.

    The chain is a and b over their positive contents, then each negated
    pseudo-remainder of the last two terms over its positive content (scaled
    by |lc|^(d+1) for a degree drop d >= 0, not at all for d < 0). By
    induction every term is a positive multiple of the term a, b, -rem(a, b),
    ... of the Euclidean chain over Q, so the last term is a multiple of
    gcd(a, b).

    The resultant rides along on the identities of Cohen, GTM 138, §3.3, for
    A of degree m and B of degree n:
      Res(A, B) = (-1)^(mn) Res(B, A);
      Res(B, A) = lc(B)^(m-k) Res(B, A mod B), where k = deg(A mod B);
      A mod B = -g*C / |lc B|^(d+1), C the next term and g its content;
      Res(B, sC) = s^n Res(B, C);
    a zero remainder gives 0, and a constant B = b gives b^m. The scalars
    gather in one integer fraction num/den, which divides exactly.
    """
    m, n = len(a) - 1, len(b) - 1
    ga, gb = gcd(*a), gcd(*b)
    chain = [[x // ga for x in a], [x // gb for x in b]]
    num, den = ga**n * gb**m, 1
    while n:
        r = _negated_pseudo_remainder(*chain[-2:])
        if not r:
            return chain, 0
        k, g, lc = len(r) - 1, gcd(*r), chain[-1][-1]
        num *= (-1) ** ((m + 1) * n) * lc ** (m - k) * g**n
        den *= abs(lc) ** (max(m - n + 1, 0) * n)
        chain.append([x // g for x in r])
        m, n = n, k
    return chain, num * chain[-1][0] ** m // den


def resultant(f: PolyQ, g: PolyQ) -> Rational:
    """Res(f, g), 0 when either is 0: the resultant of the integer models,
    carried along their _prs chain by the identities of Cohen, GTM 138, §3.3,
    over df^(deg g) dg^(deg f) for their denominators df and dg."""
    fi, df = f.integer_model()
    gi, dg = g.integer_model()
    r = _prs(fi, gi)[1] if fi and gi else 0
    return Fraction(r) / (Fraction(df) ** g.degree * Fraction(dg) ** f.degree)


def discriminant(f: PolyQ | PolyFacts) -> Rational:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), with Res(f, f') read off
    the _prs chain that f's PolyFacts shares with the Sturm count: a = d f and
    a' = d f' for the common denominator d, so Res(f, f') = Res(a, a') /
    d^(2n - 1)."""
    facts = PolyFacts.of(f)
    n = facts.poly.degree
    if n < 1:
        raise AlgebraError("discriminant of a constant polynomial")
    res = Fraction(facts._derivative_prs[1], facts._model[1] ** (2 * n - 1))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res / facts.poly.leading()


def sturm_real_roots(f: PolyQ | PolyFacts) -> int:
    """Number of distinct real roots, read off the _prs chain of the integer
    model of f and its derivative, which f's PolyFacts shares with disc.

    Every term of that chain is a positive multiple of the term f, f',
    -rem(f, f'), ... of the Sturm chain over Q, so every sign pattern is the
    same. That chain ends in a multiple of gcd(f, f'); dividing every term by
    it gives the Sturm chain of the squarefree part and changes no sign
    pattern, so f need not be squarefree."""
    facts = PolyFacts.of(f)
    if facts.poly.is_zero():
        raise AlgebraError("Sturm count of the zero polynomial")
    if facts.poly.degree == 0:
        return 0
    chain = facts._derivative_prs[0]

    def sign_changes(at_plus_infinity: bool) -> int:
        signs = []
        for p in chain:
            s = 1 if p[-1] > 0 else -1
            if not at_plus_infinity and len(p) % 2 == 0:  # odd degree
                s = -s
            signs.append(s)
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    return sign_changes(False) - sign_changes(True)


# ----------------------------------------------------------------------------
# exact polynomial square roots


def poly_sqrt_exact(h: PolyQ) -> PolyQ:
    """r with r^2 = h and positive leading coefficient; raises NotASquare.

    Top-down coefficient matching: fix r_d = sqrt(lc), then each lower r_k is
    determined linearly from the X^(d+k) coefficient of h.
    """
    if h.is_zero():
        return h
    if h.degree % 2 == 1:
        raise NotASquare(f"odd degree {h.degree}")
    d = h.degree // 2
    top = rational_sqrt(h.leading())
    if top is None:
        raise NotASquare(f"leading coefficient {h.leading()} is not a square")
    r = [Fraction(0)] * (d + 1)
    r[d] = top
    for k in range(d - 1, -1, -1):
        s = sum(r[i] * r[d + k - i] for i in range(k + 1, d))
        r[k] = (h[d + k] - s) / (2 * top)
    cand = PolyQ(r)
    if cand * cand == h:
        return cand
    raise NotASquare("coefficient match failed below the midpoint")


# ----------------------------------------------------------------------------
# polynomials over F_p (reduced, trimmed, ascending int lists), Frobenius patterns


def _divmod_list(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by b over F_p, on reduced ascending trimmed
    lists, b nonzero."""
    m = len(b) - 1
    if len(a) <= m:
        return [], a
    inv = pow(b[-1], -1, p)
    low = b[:m]
    q = [0] * (len(a) - m)
    r = a[:]
    for k in range(len(a) - 1, m - 1, -1):
        c = q[k - m] = r[k] * inv % p
        if c:
            r[k - m : k] = [x - c * y for x, y in zip(r[k - m : k], low)]
    r = [x % p for x in r[:m]]
    while r and not r[-1]:
        r.pop()
    return q, r


def _gcd_list(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over F_p of reduced ascending trimmed lists, a nonzero."""
    while b:
        m = len(b) - 1
        if m and len(a) == m + 2:
            # the step a remainder sequence almost always takes: quotient
            # q1 X + q0, and the remainder in one pass
            inv = pow(b[-1], -1, p)
            q1 = a[-1] * inv % p
            q0 = (a[-2] - q1 * b[-2]) * inv % p
            r = [(x - q1 * y - q0 * z) % p for x, y, z in zip(a, [0] + b, b[:m])]
            while r and not r[-1]:
                r.pop()
        else:
            r = _divmod_list(a, b, p)[1]
        a, b = b, r
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _distinct_degree(f: list[int], p: int) -> tuple[int, ...]:
    """Sorted factor degrees of a squarefree monic f over F_p, given by its
    reduced ascending coefficients: each block of degree-d irreducibles,
    their product g, gives (deg g) / d entries d.

    A residue mod f (degree < n) is Kronecker-packed into one int, coefficient
    i in bits [i*w, (i+1)*w). A product of two packed residues is one big-int
    multiply; its slots n..2n-1 are reduced mod p and folded back through the
    packed x^(n+k) mod f, and the n low slots are read off mod p once. Every
    slot stays below 2*n*p^2 < 2^w, so no slot carries into the next, for
    every p.

    x^p mod f is found by left-to-right squaring (a set bit of p costs one
    shift by x); each later x^(p^d) mod f is x^(p^(d-1)) times the Frobenius
    matrix of f, whose row i is x^(ip) mod f. Every gcd is taken with the
    cofactor cur, which divides f, so the matrix is built only once.
    """
    n = len(f) - 1
    if n == 1:  # x is not reduced mod a linear f, which is its own block
        return (1,)
    w = (2 * n * p * p).bit_length() + 1
    slot = (1 << w) - 1
    low = (1 << n * w) - 1
    shifts = range(0, n * w, w)

    def pack(cs: list[int]) -> int:
        return sum(map(lshift, cs, shifts))

    def unpack(v: int) -> list[int]:
        return [(v >> s & slot) % p for s in shifts]

    # folds[k] = x^(n+k) mod f, packed; f is monic, so x^n = x^n - f mod f
    xn = r = [-c % p for c in f[:n]]
    folds = [pack(r)]
    for _ in range(n - 1):
        r = [(x + r[-1] * y) % p for x, y in zip([0] + r[:-1], xn)]
        folds.append(pack(r))

    def mul_mod(a: int, b: int, by_x: bool = False) -> int:
        """The packed residue a * b (* x) mod f, for packed residues a, b."""
        prod = a * b << w if by_x else a * b
        acc = prod & low
        high = prod >> n * w
        for fold in folds:
            if not high:
                break
            acc += (high & slot) % p * fold
            high >>= w
        return pack(unpack(acc))

    frob = 1 << w  # x
    for bit in bin(p)[3:]:
        frob = mul_mod(frob, frob, bit == "1")
    rows = [1, frob]
    for _ in range(n - 2):
        rows.append(mul_mod(rows[-1], frob))
    h = unpack(frob)
    out = []
    cur = f
    d = 1
    while len(cur) > 2 * d:
        if d > 1:  # h times the Frobenius matrix: the packed rows weighted by h
            h = unpack(sum(map(mul, h, rows)))
        hx = h[:]
        hx[1] = (hx[1] - 1) % p
        while hx and not hx[-1]:
            hx.pop()
        g = _gcd_list(cur, hx, p)
        if len(g) > 1:
            out += [d] * ((len(g) - 1) // d)
            cur = _divmod_list(cur, g, p)[0]
        d += 1
    if len(cur) > 1:  # every factor left has degree >= d, and deg cur < 2d
        out.append(len(cur) - 1)
    return tuple(out)


def _frobenius_patterns(coeffs: list[int], primes: list[int]) -> list[tuple[int, ...]]:
    """Sorted factor degrees of the integer polynomial `coeffs` (ascending,
    degree n) mod each prime of a block, all at once. Every p must exceed n,
    and divide neither the leading coefficient nor the discriminant, so f mod
    p is squarefree.

    Berlekamp's Q-matrix (Cohen, GTM 138, §3.4) of each prime: the companion
    matrix C of f mod p (row i is x^(i+1) mod f) is raised to the power p
    across the block, bit by bit of each p, and row i of Q is x^(ip) mod f,
    row 0 of (C^p)^i. F_p[x]/f is a product of fields F_(p^k), r_k of them
    for each k, and on each Frobenius acts as the regular representation of
    C_k. So Tr(Q^d) = N_d = sum of k * r_k over k | d, mod p; N_d <= n < p
    is exact, and by Möbius inversion d * r_d = sum of mu(d/k) N_k over
    k | d, which must be a nonnegative multiple of d, with sum of d * r_d =
    n. Q^d is formed for d <= h = ceil(n/2), and for d > h, Tr(Q^d) =
    Tr(Q^h Q^(d-h)) is read off the diagonal of that product alone.

    Every matrix entry is below p, so a product (or a diagonal entry) sums n
    terms below p^2: the block runs in int64 while n * p^2 < 2^63, in
    Python-int object arrays above that.
    """
    # imported on first use: importing numpy ahead of the rest of the package
    # raised the import's peak RSS from 29.4 to 30.4 MB (CPython 3.11, numpy 2.4)
    import numpy as np

    n = len(coeffs) - 1
    if min(primes) <= n:
        raise AlgebraError(f"Frobenius traces need primes above the degree {n}")
    dtype = object if n * max(primes) ** 2 >= 1 << 63 else np.int64
    P = np.array(primes, dtype=dtype)[:, None, None]
    lead_inv = np.array([pow(coeffs[-1], -1, p) for p in primes], dtype=dtype)[:, None]
    low = np.array([[c % p for c in coeffs[:n]] for p in primes], dtype=dtype)
    companion = np.zeros((len(primes), n, n), dtype=dtype)
    companion[:, np.arange(n - 1), np.arange(1, n)] = 1
    companion[:, -1] = -low * lead_inv % P[:, 0]  # x^n = -(low / lead) mod f
    width = max(primes).bit_length()
    bits = (P[:, 0] >> np.arange(width - 1, -1, -1)) & 1 != 0  # most significant first
    power = np.broadcast_to(np.eye(n, dtype=dtype), companion.shape)
    for column in bits.T:
        power = power @ power % P
        power = np.where(column[:, None, None], power @ companion % P, power)
    rows = [np.broadcast_to(np.eye(1, n, dtype=dtype), (len(primes), 1, n))]
    for _ in range(n - 1):
        rows.append(rows[-1] @ power % P)
    q = np.concatenate(rows, axis=1)
    half = (n + 1) // 2
    q_powers = [q]
    for _ in range(half - 1):
        q_powers.append(q_powers[-1] @ q % P)
    traces = [m.trace(axis1=1, axis2=2) for m in q_powers]
    for d in range(half + 1, n + 1):
        # the diagonal of Q^h Q^(d-h), each entry reduced mod p
        diagonal = (q_powers[-1] * q_powers[d - half - 1].swapaxes(1, 2)).sum(axis=2) % P[:, 0]
        traces.append(diagonal.sum(axis=1))
    mu = [0, 1]  # the Möbius function: its sum over the divisors of d > 1 is 0
    for d in range(2, n + 1):
        mu.append(-sum(mu[k] for k in range(1, d) if d % k == 0))
    mobius = np.array(
        [[mu[d // k] if d % k == 0 else 0 for k in range(1, n + 1)] for d in range(1, n + 1)],
        dtype=dtype,
    )
    degrees = np.arange(1, n + 1, dtype=dtype)[:, None]
    weighted = mobius @ (np.stack(traces) % P[:, 0, 0])  # d * r_d, one column per prime
    counts = weighted // degrees
    if (weighted < 0).any() or (weighted % degrees != 0).any() or (weighted.sum(axis=0) != n).any():
        raise AlgebraError("Frobenius traces give no factor pattern: f is not squarefree mod p")
    return [
        tuple(d for d, r in enumerate(column, 1) for _ in range(r)) for column in counts.T.tolist()
    ]


# ----------------------------------------------------------------------------
# the shared facts of one polynomial over Q


class PolyFacts:
    """A polynomial over Q with the facts its certificates, fingerprints and
    profiles share, each computed once: the _prs chain of its integer model
    and derivative, read by disc and by the Sturm count, and the Frobenius
    pattern (sorted factor degrees mod p) at each good prime. Holds no
    generator, so it pickles."""

    def __init__(self, poly: PolyQ):
        self.poly = poly
        self._patterns: dict[int, tuple[int, ...]] = {}

    @classmethod
    def of(cls, h: PolyQ | PolyFacts) -> PolyFacts:
        return h if isinstance(h, PolyFacts) else cls(h)

    @cached_property
    def _model(self) -> tuple[list[int], int]:
        return self.poly.integer_model()

    @cached_property
    def _derivative_prs(self) -> tuple[list[list[int]], int]:
        """_prs(a, a') for the integer model a (degree >= 1)."""
        a = self._model[0]
        return _prs(a, [i * c for i, c in enumerate(a)][1:])

    @cached_property
    def disc(self) -> Rational:
        return discriminant(self)

    @cached_property
    def _bad(self) -> int:
        """An integer that the bad primes divide, and no other prime: the
        coefficients' common denominator times the numerators of the leading
        coefficient and disc, and disc's denominator (0 when disc is 0)."""
        lead, disc = self.poly.leading(), self.disc
        return self._model[1] * lead.numerator * disc.numerator * disc.denominator

    def is_good(self, p: int) -> bool:
        """p divides neither disc, the leading coefficient nor any coefficient's
        denominator (p must be prime): every coefficient is p-integral, and
        both the leading coefficient and disc are p-adic units. So f mod p is
        defined, of full degree and squarefree."""
        if not is_prime(p):
            raise AlgebraError(f"is_good: {p} is not prime")
        return self._bad % p != 0

    def good_primes(self, count: int) -> list[int]:
        """The first `count` good primes, in increasing order."""
        if self.disc == 0:
            raise AlgebraError("no prime is good for a polynomial with discriminant 0")
        bad = self._bad
        return list(islice((p for p in iter_primes() if bad % p), count))

    def blocks(self, primes: list[int]) -> list[list[int]]:
        """The good `primes` in the order their patterns are read, one patterns
        call per block: the first 8 above the degree, the next 16, the rest,
        then those at or below it. A block costs about two or three scalar
        reads, so blocks pay where more than a few primes are needed
        (degree-12 PSL2(11) fibers need 5.6 to 6.3 in increasing order)."""
        n = self.poly.degree
        above = [p for p in primes if p > n]
        low = [p for p in primes if p <= n]
        return [b for b in (above[:8], above[8:24], above[24:], low) if b]

    def patterns(self, primes: list[int]) -> list[tuple[int, ...]]:
        """Sorted factor degrees mod each of the good `primes` (unchecked: take
        them from good_primes, or check is_good). Two or more not yet cached
        above the degree are read in one _frobenius_patterns block, since a
        block of one costs more than the scalar read; the rest are read one
        at a time by _distinct_degree, off the integer model that the block
        reads too, reduced mod p and made monic (squarefree at a good p)."""
        n, a = self.poly.degree, self._model[0]
        todo = [p for p in primes if p > n and p not in self._patterns]
        if len(todo) > 1:
            self._patterns.update(zip(todo, _frobenius_patterns(a, todo)))
        for p in primes:
            if p not in self._patterns:
                inv = pow(a[-1], -1, p)
                self._patterns[p] = _distinct_degree([c * inv % p for c in a], p)
        return [self._patterns[p] for p in primes]


# ----------------------------------------------------------------------------
# rational roots via Hensel lifting + rational reconstruction


def _rational_reconstruct(a: int, m: int) -> tuple[int, int] | None:
    """u/v with u = a*v mod m, |u|, v <= sqrt(m/2); None if there is none."""
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    if t1 < 0:
        r1, t1 = -r1, -t1
    if gcd(r1, t1) != 1:
        return None
    return r1, t1


def rational_roots(f: PolyQ) -> list[Rational]:
    """All rational roots (no multiplicities), exact.

    Roots are found modulo a good prime, lifted by quadratic Hensel iteration,
    and recognized by rational reconstruction; every candidate is verified
    exactly. This avoids factoring the (possibly huge) trailing coefficient.
    """
    if f.is_zero():
        raise AlgebraError("roots of the zero polynomial")
    roots: set[Fraction] = set()
    ints, _ = f.integer_model()
    k = 0
    while ints[k] == 0:
        k += 1
    if k:
        roots.add(Fraction(0))
        ints = ints[k:]
    poly = PolyQ(_primitive(ints))
    if poly.degree == 0:
        return sorted(roots)
    poly = poly.squarefree_part().primitive_integral()
    ints = [int(c) for c in poly.coeffs]
    if poly.degree == 1:
        roots.add(-poly[0] / poly[1])
        return sorted(roots)
    bound = max(abs(ints[0]), abs(ints[-1]))
    target = 2 * bound * bound + 1
    dints = [i * c for i, c in enumerate(ints)][1:]
    for p in iter_primes():
        if p < 3 or ints[-1] % p == 0:
            continue
        df = [c % p for c in dints]
        while df and not df[-1]:  # trimmed for _gcd_list: f' = 0 mod p at X^3 - 1, p = 3
            df.pop()
        if len(_gcd_list([c % p for c in ints], df, p)) != 1:
            continue
        # quadratic Hensel lift of each simple root, then reconstruct
        for r in [x for x in range(p) if _eval_int(ints, x, p) == 0]:
            m = p
            while m < target:
                m = m * m
                fr = _eval_int(ints, r, m)
                dr = _eval_int(dints, r, m)
                r = (r - fr * pow(dr, -1, m)) % m
            rec = _rational_reconstruct(r, m)
            if rec is not None:
                u, v = rec
                for cand in (Fraction(u, v), Fraction(-u, v)):
                    if poly(cand) == 0:
                        roots.add(cand)
        break
    # sign ambiguity in reconstruction is resolved by exact verification above
    return sorted(roots)


def _eval_int(coeffs, x: int, m: int) -> int:
    """The value at x mod m of the ascending integer coefficients `coeffs`."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc
