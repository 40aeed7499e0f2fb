"""Permutation groups of moderate degree: breadth-first element enumeration on
arrays, orbits, signs, centralizers, PSL2(p) and coset actions, and the
odd-orbit certificate search over metacyclic subgroups.

A permutation is a row of 0-based images; point labels are printed 1-based.
Groups here are small enough (<= ~10^5 elements) that full enumeration beats
stabilizer-chain machinery. The kernels take and return row indices of
`PermGroup.element_array()`, finding a product's row from its images on a base
(`_BaseIndex`, at most 2^22 codes, which S_9 outgrows, so the decomposition-pair
check compares row bytes instead). Callers get tuples, built from the rows.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Generator, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, lcm

import numpy as np

from .algebra import _prime_divisors, is_prime

Perm = tuple[int, ...]


class CapExceeded(RuntimeError):
    pass


class GroupError(ValueError):
    pass


# ---------------------------------------------------------------- basic perms


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: (a*b)(i) = a(b(i))."""
    return tuple(map(a.__getitem__, b))


def inverse(a: Perm) -> Perm:
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def cycle_type(a: Perm) -> tuple[int, ...]:
    return tuple(sorted(map(len, orbits([a], len(a)))))


def perm_order(a: Perm) -> int:
    return lcm(*cycle_type(a))


def sign(a: Perm) -> int:
    """Parity: +1 for even permutations."""
    return 1 if (len(a) - len(cycle_type(a))) % 2 == 0 else -1


def fixed_points(a: Perm) -> int:
    return sum(1 for i, v in enumerate(a) if i == v)


def perm_from_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based cycle notation like "(1,2)(3,4)"; "id" or "()" is identity."""
    text = text.strip().replace(" ", "")
    images = list(range(degree))
    if text in ("id", "()", ""):
        return tuple(images)
    if not (text.startswith("(") and text.endswith(")")):
        raise GroupError(f"bad cycle notation: {text!r}")
    for chunk in text[1:-1].split(")("):
        pts = [int(t) - 1 for t in chunk.split(",") if t]
        if any(p < 0 or p >= degree for p in pts) or len(set(pts)) != len(pts):
            raise GroupError(f"bad cycle {chunk!r} for degree {degree}")
        for i, p in enumerate(pts):
            images[p] = pts[(i + 1) % len(pts)]
    out = tuple(images)
    if sorted(out) != list(range(degree)):
        raise GroupError(f"cycles overlap in {text!r}")
    return out


def format_cycles(a: Perm) -> str:
    seen = [False] * len(a)
    parts = []
    for i in range(len(a)):
        if seen[i] or a[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = a[j]
        parts.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "id"


# ---------------------------------------------------------------- orbits


def orbits(gens, n: int) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of {0..n-1} under the generated subgroup, each orbit
    sorted, in the order of their least points."""
    for g in gens:
        if len(g) != n:
            raise GroupError(f"generator degree {len(g)} != {n}")
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        # i is the least point of its orbit: a smaller one would have reached it
        seen[i] = True
        orbit = [i]
        for j in orbit:
            for g in gens:
                k = g[j]
                if not seen[k]:
                    seen[k] = True
                    orbit.append(k)
        out.append(tuple(sorted(orbit)))
    return tuple(out)


def orbit_count(gens, n: int) -> int:
    return len(orbits(gens, n))


# ---------------------------------------------------------------- PermGroup


def _row_keys(arr: np.ndarray) -> Iterator[bytes]:
    """The bytes of each row, lazily: rows of one dtype are equal iff their keys are."""
    raw, width = arr.tobytes(), arr.shape[1] * arr.itemsize
    return (raw[i * width : (i + 1) * width] for i in range(len(arr)))


class _BaseIndex:
    """The elements of a group (rows of `arr`) numbered by their images on a base.

    Points are taken in order and kept when they tell more elements apart; each
    kept point at least halves the pointwise stabilizer of those before it, so a
    base has at most log2 |G| points. A code reads the base images as base-n
    digits. Products and conjugates of elements lie in the group, so their base
    images alone identify them.
    """

    MAX_CODES = 1 << 22  # entries of the dense code -> row lookup, far below int64

    def __init__(self, arr: np.ndarray):
        N, n = arr.shape
        self.base: list[int] = []
        codes = np.zeros(N, dtype=np.int64)
        distinct = 1
        for point in range(n):
            if distinct == N:
                break
            trial = codes * n + arr[:, point]
            count = len(set(trial.tolist()))
            if count > distinct:
                if n ** (len(self.base) + 1) > self.MAX_CODES:
                    raise GroupError(f"a base on {n} points needs over {self.MAX_CODES} codes")
                self.base.append(point)
                codes, distinct = trial, count
        if distinct < N:
            raise GroupError("the elements are not distinct")
        self.arr = arr
        self.weights = n ** np.arange(len(self.base) - 1, -1, -1, dtype=np.int64)
        self.lookup = np.full(n ** len(self.base), -1, dtype=np.min_scalar_type(-N))
        self.lookup[codes] = np.arange(N)
        # g^-1 on the base, one row per element: the point each base point
        # comes from, found one base point at a time (an N x n mask each)
        self.inverse_base = np.empty((N, len(self.base)), dtype=np.intp)
        for j, point in enumerate(self.base):
            self.inverse_base[:, j] = np.argmax(arr == point, axis=1)

    def find(self, images: np.ndarray) -> np.ndarray:
        """Rows of the elements with the given base images (along the last axis)."""
        return self.lookup[images @ self.weights]


class PermGroup:
    """Finitely generated subgroup of S_n with lazily materialized elements."""

    DEFAULT_CAP = 10**6

    def __init__(self, degree: int, generators, cap: int = DEFAULT_CAP, name: str = ""):
        gens = tuple(tuple(g) for g in generators)
        for g in gens:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise GroupError(f"not a degree-{degree} permutation: {g}")
        self.degree = degree
        self.generators = gens
        self.cap = cap
        self.name = name
        self._array: np.ndarray | None = None

    def element_array(self) -> np.ndarray:
        """The elements, one row of images each, in breadth-first order from the
        identity: each level lists g after w for every w of the previous level and
        then every generator g, keeping the products not met before.
        Deterministic under a fixed generator order. The rows are of the
        narrowest signed integer type holding the points below the degree: int8
        up to degree 128, int16 up to 32767."""
        if self._array is None:
            n = self.degree
            dtype = np.min_scalar_type(-n)
            gens = np.array(self.generators, dtype=dtype).reshape(len(self.generators), n)
            frontier = np.arange(n, dtype=dtype)[None, :]
            seen = {frontier.tobytes()}
            levels = [frontier]
            while len(frontier):
                # row j * len(gens) + i is g_i after the j-th frontier element
                products = gens[:, frontier].swapaxes(0, 1).reshape(-1, n)
                fresh = []
                for r, key in enumerate(_row_keys(products)):
                    if key not in seen:
                        seen.add(key)
                        fresh.append(r)
                        if len(seen) > self.cap:
                            raise CapExceeded(f"group order exceeds enumeration cap {self.cap}")
                frontier = products[fresh]
                levels.append(frontier)
            self._array = np.concatenate(levels)
        return self._array

    @property
    def elements(self) -> tuple[Perm, ...]:
        """The rows of `element_array` as tuples, built on each access and not
        kept: a caller that reads them twice keeps its own copy. Rows are
        converted a block at a time, so only one block's lists are alive at once."""
        arr = self.element_array()
        blocks = (arr[start : start + 4096] for start in range(0, len(arr), 4096))
        return tuple(e for block in blocks for e in map(tuple, block.tolist()))

    def order(self) -> int:
        return len(self.element_array())

    def __contains__(self, p: Perm) -> bool:
        return len(p) == self.degree and bool((self.element_array() == p).all(axis=1).any())

    @cached_property
    def base_index(self) -> _BaseIndex:
        return _BaseIndex(self.element_array())

    def __repr__(self):
        label = self.name or f"degree-{self.degree} group"
        if self._array is not None:
            return f"PermGroup({label}, order {len(self._array)})"
        return f"PermGroup({label}, {len(self.generators)} generators)"


def symmetric_group(n: int) -> PermGroup:
    if n < 1:
        raise GroupError("degree must be >= 1")
    if n == 1:
        return PermGroup(1, [(0,)], name="S1")
    gens = [perm_from_cycles("(1,2)", n)]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return PermGroup(n, gens, name=f"S{n}")


def alternating_group(n: int) -> PermGroup:
    if n < 3:
        raise GroupError("alternating group needs degree >= 3")
    c3 = perm_from_cycles("(1,2,3)", n)
    if n == 3:
        return PermGroup(n, [c3], name="A3")
    if n % 2 == 1:
        big = tuple(list(range(1, n)) + [0])
    else:
        big = tuple([0] + list(range(2, n)) + [1])
    return PermGroup(n, [c3, big], name=f"A{n}")


def psl2_natural(p: int) -> PermGroup:
    """PSL2(p) acting on the projective line {0..p-1, infinity}, degree p+1.

    Generated by x -> x+1 and x -> -1/x; the point at infinity is index p.
    """
    if not is_prime(p) or p < 3:
        raise GroupError(f"psl2_natural needs an odd prime, got {p}")
    t = tuple([(x + 1) % p for x in range(p)] + [p])
    s = tuple([p] + [(-pow(x, -1, p)) % p for x in range(1, p)] + [0])
    return PermGroup(p + 1, [t, s], name=f"PSL2({p})")


# ---------------------------------------------------------------- subgroup scans


def _subgroup_rows(G: PermGroup, elements) -> np.ndarray:
    """The rows of the given permutations in G; raises GroupError unless they
    form a subgroup of G: they hold the identity (row 0) and each product a h,
    whose row a(h(base)) finds."""
    error = "coset_action: H is not a subgroup of G"
    n = G.degree
    perms = [tuple(e) for e in elements]
    if not perms or any(len(e) != n for e in perms):
        raise GroupError(error)
    perms = np.array(perms)
    index = G.base_index
    # % n: a permutation outside G finds no row holding it, in range or not
    rows = index.find(perms[:, index.base] % n)
    if (rows < 0).any() or not np.array_equal(index.arr[rows], perms):
        raise GroupError(error)
    in_sub = np.zeros(len(index.arr), dtype=bool)
    in_sub[rows] = True
    rows = np.flatnonzero(in_sub)
    sub = index.arr[rows]
    if not in_sub[0] or not all(in_sub[index.find(sub[:, h])].all() for h in sub[:, index.base]):
        raise GroupError(error)
    return rows


def centralizer_scan(G: PermGroup, x: Perm) -> list[Perm]:
    """Exact centralizer of the permutation x in G, in G's element order.

    g commutes with x only if g(x(i)) = x(g(i)) at every point i that x moves.
    The rows are filtered on the first three such points, one at a time: in a
    2-transitive group the first leaves about |G|/(n-1) rows and the next two
    leave few, and only those are compared on every point. x need not lie in G.
    """
    arr = G.element_array()
    xa = np.array(x, dtype=arr.dtype)
    moved = np.flatnonzero(xa != np.arange(len(xa)))
    survivors = arr
    for i in moved[:3].tolist():
        survivors = np.compress(survivors[:, xa[i]] == xa.take(survivors[:, i]), survivors, axis=0)
    return list(map(tuple, survivors[(survivors[:, xa] == xa[survivors]).all(axis=1)].tolist()))


def _conjugates(index: _BaseIndex, s: np.ndarray) -> np.ndarray:
    """The row of g s g^-1 for each row g of the group, found from its images
    g(s(g^-1(b))) on the base points b."""
    rows = np.arange(len(index.arr))
    return index.find(index.arr[rows[:, None], s[index.inverse_base]])


def coset_action(G: PermGroup, subgroup_elements) -> PermGroup:
    """Action of G on left cosets of H; degree [G:H]. Cosets are numbered in the
    order they first appear among G's elements."""
    rows = _subgroup_rows(G, subgroup_elements)
    index = G.base_index
    # g H is keyed by its first element in G's order: the least row among the g h
    keys = np.min([index.find(index.arr[:, h]) for h in index.arr[rows][:, index.base]], axis=0)
    reps, coset = np.unique(keys, return_inverse=True)
    m = len(reps)
    if m * len(rows) != len(keys):
        raise GroupError("coset count times |H| does not equal |G|")
    reps_on_base = index.arr[reps][:, index.base]
    new_gens = [tuple(coset[index.find(np.array(a)[reps_on_base])].tolist()) for a in G.generators]
    return PermGroup(m, new_gens, cap=G.cap, name=f"{G.name or 'G'} on {m} cosets")


def check_decomposition_pair(degree: int, decomposition_gens, inertia_gens) -> None:
    """Raise GroupError unless I = <inertia_gens> is a normal subgroup of
    D = <decomposition_gens> with D/I cyclic, as the quotient of a
    decomposition group by its inertia group always is.

    Membership is by the bytes of rows, not by the base index, which refuses
    groups like S_9. I is normal when conjugating its rows by each generator of
    D stays in I. D/I is cyclic iff some xI has order m = [D:I], that is, iff
    x^(m/l) lies outside I for every prime l | m.

    Both groups are solvable, so each is refused first when its order cubed
    passes 24^(n-1), Dixon's bound for a solvable subgroup of S_n (J. Algebra
    7, 1967); their enumeration stops at 24^ceil((n-1)/3) rows, or at the
    default cap where that is lower.
    """
    D = _solvable_rows(degree, decomposition_gens, "decomposition")
    I = _solvable_rows(degree, inertia_gens, "inertia")
    if not all((D == g).all(axis=1).any() for g in inertia_gens):
        raise GroupError("inertia subgroup not contained in decomposition group")
    in_I = set(_row_keys(I))
    for g in np.array(decomposition_gens, dtype=I.dtype).reshape(-1, degree):
        if not in_I.issuperset(_row_keys(g[I[:, np.argsort(g)]])):  # g s g^-1
            raise GroupError("inertia subgroup is not normal in decomposition group")
    m = len(D) // len(I)
    xs = D
    for ell in _prime_divisors(m):
        xs = xs[[key not in in_I for key in _row_keys(_kth_powers(xs, m // ell))]]
    if not len(xs):
        raise GroupError("D/I is not cyclic")


def _solvable_rows(degree: int, generators, name: str) -> np.ndarray:
    """The element rows of <generators>, or GroupError when their number cubed
    passes 24^(n-1). (n+1)//3 = ceil((n-1)/3), so only a group past that bound
    passes the cap, unless the default cap is the lower."""
    cap = min(PermGroup.DEFAULT_CAP, 24 ** ((degree + 1) // 3))
    try:
        rows = PermGroup(degree, generators, cap=cap).element_array()
    except CapExceeded:
        if cap == PermGroup.DEFAULT_CAP:
            raise
    else:
        if len(rows) ** 3 <= 24 ** (degree - 1):
            return rows
    raise GroupError(f"{name} group is not solvable")


def _kth_powers(xs: np.ndarray, k: int) -> np.ndarray:
    """Each row of xs, a permutation, raised to the k-th power by repeated squaring."""
    out = np.broadcast_to(np.arange(xs.shape[1], dtype=xs.dtype), xs.shape)
    while k:
        if k & 1:
            out = np.take_along_axis(xs, out, axis=1)
        xs = np.take_along_axis(xs, xs, axis=1)
        k >>= 1
    return out


# ---------------------------------------------------------------- cyclic subgroups


def cyclic_powers(c: Perm) -> tuple[Perm, ...]:
    out = [identity_perm(len(c))]
    x = c
    while x != out[0]:
        out.append(x)
        x = compose(c, x)
    return tuple(out)


def _lex_rank(arr: np.ndarray) -> np.ndarray:
    """The position of each row of arr in the lexicographic order of the rows,
    in the narrowest signed type that holds it."""
    rank = np.empty(len(arr), dtype=np.min_scalar_type(-len(arr)))
    rank[np.lexsort(arr.T[::-1])] = np.arange(len(arr))
    return rank


def _power_table(index: _BaseIndex) -> tuple[list[np.ndarray], np.ndarray]:
    """The rows of x^0, x^1, ..., x^(M-1) for every element x at once, one
    column per power, M the largest element order; and the order of each x.
    Column k + 1 is found from x(x^k(base)), one gather of every row by the
    previous base images; the walk stops when every row has come back to the
    identity (row 0)."""
    N, n = index.arr.shape
    flat = index.arr.ravel()
    starts = np.arange(0, N * n, n)[:, None]  # where each row begins in `flat`
    images = np.broadcast_to(np.array(index.base, dtype=np.intp), (N, len(index.base)))
    columns = [np.zeros(N, dtype=index.lookup.dtype)]
    order = np.zeros(N, dtype=np.intp)
    while not order.all():
        images = flat[starts + images]
        row = index.find(images)
        order[(row == 0) & (order == 0)] = len(columns)
        columns.append(row)
    return columns[:-1], order


def cyclic_subgroup_representatives(
    G: PermGroup,
) -> tuple[list[tuple[int, np.ndarray]], np.ndarray]:
    """One (row of the canonical generator c, rows of c^0, c^1, ...) per cyclic
    subgroup of G, including the trivial one, ordered by (order, c); the
    canonical generator is the generator whose row is lexicographically least.
    Also returns, for each row of G's elements, the position in that list of the
    subgroup the element generates.

    Every element's powers come from one power table (`_power_table`). The
    canonical generator of <x> is the x^j with gcd(j, |x|) = 1 of least
    lexicographic rank, read one column j at a time, so the elements that
    generate one subgroup share it.
    """
    index = G.base_index
    columns, order = _power_table(index)
    rank = _lex_rank(index.arr)
    orders, order_at = np.unique(order, return_inverse=True)
    # x^0 generates only the trivial subgroup, which the identity (row 0) alone
    # generates
    canonical = np.zeros(len(order), dtype=np.intp)
    least = np.full(len(order), len(order), dtype=np.intp)
    least[0] = rank[0]
    for j, rows in enumerate(columns[1:], start=1):
        coprime = ((np.gcd(j, orders) == 1) & (j < orders))[order_at]
        better = coprime & (rank[rows] < least)
        canonical[better] = rows[better]
        least[better] = rank[rows[better]]
    subgroups, generated = np.unique(canonical, return_inverse=True)
    by_order = np.lexsort((rank[subgroups], order[subgroups]))
    subgroups = subgroups[by_order]
    position = np.empty(len(subgroups), dtype=np.intp)
    position[by_order] = np.arange(len(subgroups))
    reps = []
    for m in orders.tolist():  # the subgroups of order m, one block of powers each
        of_order = subgroups[order[subgroups] == m]
        reps += zip(of_order.tolist(), np.stack([rows[of_order] for rows in columns[:m]], axis=1))
    return reps, position[generated]


def _cycle_counts(xs: np.ndarray) -> np.ndarray:
    """The number of cycles of each row of xs, a permutation, counted as the
    points that are the least of their cycle. With least[i] the least of x^j(i)
    over j < w and jump = x^w, one doubling step makes w twice as large; once w
    reaches the degree, least[i] is the least point of the cycle of i. An x
    normalizing <c> permutes the orbits of <c>, and the cycles of that
    permutation, which the metacyclic search passes, are the orbits of <c, x>."""
    points = np.arange(xs.shape[1], dtype=xs.dtype)
    least, jump, w = np.broadcast_to(points, xs.shape), xs, 1
    while w < xs.shape[1]:
        least = np.minimum(least, np.take_along_axis(least, jump, axis=1))
        jump = np.take_along_axis(jump, jump, axis=1)
        w *= 2
    return (least == points).sum(axis=1)


# ---------------------------------------------------------------- metacyclic search


@dataclass(frozen=True, slots=True)
class MetacyclicCandidate:
    """A pair (I = <c>, H = <c, x>) with x normalizing <c>: the shape of a tame
    decomposition group, recorded with its orbit parities."""

    c: Perm
    x: Perm
    inertia_order: int
    orbits_inertia: int
    orbits_full: int
    inertia_in_alternating: bool


_CONJUGATE_CHUNK = 1 << 10  # rows g x g^-1 the metacyclic search finds at once


def metacyclic_odd_orbit_search(
    G: PermGroup, require_inertia_even: bool = False
) -> list[MetacyclicCandidate]:
    """All (cyclic I = <c>, x in N_G(I)) with n - |orb(<I,x>)| odd.

    One canonical generator per cyclic subgroup (including the trivial one, so
    plain cyclic decomposition groups are covered); deterministic order, by
    (|I|, c) and then by x.

    The search is solved once per conjugacy class of cyclic subgroups, on the
    first subgroup R = <c> of the class in that order, from one `_conjugates`
    gather of g c g^-1 over every g. As g R g^-1 = <g c g^-1>, N(R) is the g
    whose conjugate lies in R, and the subgroups the gather generates are the
    class. Each x in N(R) permutes the orbits of R, one cycle per orbit of
    <R, x> (for R trivial, the points and the cycles of x); c has one cycle per
    orbit of R, so its sign is (-1)^(n - orb(I)). A conjugate g R g^-1 takes
    the odd x as g x g^-1, with the same orbit count: N(g R g^-1) = g N(R) g^-1,
    and <g R g^-1, g x g^-1> = g <R, x> g^-1. orb(I) and the sign of a
    generator are class functions (a generator of g R g^-1 is g c^j g^-1 with
    gcd(j, |c|) = 1, and j is odd when |c| is even, while c of odd order is
    even), so `require_inertia_even` drops whole classes.

    The g x g^-1 of a class are found from their base images g(x(g^-1(b))), a
    chunk of conjugators g at a time (`_CONJUGATE_CHUNK` rows), and each
    subgroup's x are put in order by the lexicographic rank of their rows
    (`_lex_rank`, computed once per search).
    """
    n = G.degree
    reps, generated_by = cyclic_subgroup_representatives(G)
    # both held to the end, in the narrowest types that hold them
    generated_by = generated_by.astype(np.min_scalar_type(-len(reps)))
    index = G.base_index
    arr = index.arr
    rank = _lex_rank(arr)
    solved: dict[int, tuple[int, bool, list[tuple[Perm, int]]]] = {}
    out: list[MetacyclicCandidate] = []
    for k, (c_row, powers) in enumerate(reps):
        if k not in solved:
            conj = _conjugates(index, arr[c_row])
            # each point's <c>-orbit, numbered in the order of the least points
            orbit_reps, label = np.unique(arr[powers].min(axis=0), return_inverse=True)
            label = label.astype(arr.dtype)
            orb_i = len(orbit_reps)
            c_even = (n - orb_i) % 2 == 0
            xs = arr[np.isin(conj, powers) if c_even or not require_inertia_even else []]
            orbs = _cycle_counts(label[xs[:, orbit_reps]])
            is_odd = (n - orbs) % 2 == 1
            xs, orbs = xs[is_odd], orbs[is_odd]
            subgroups, conjugators = np.unique(generated_by[conj], return_index=True)
            # <c> itself is first reached at the identity, row 0. For a chunk of
            # conjugators g, row [s, i] of `moved` is g x g^-1 for the s-th g
            # and the i-th odd x
            step = max(1, _CONJUGATE_CHUNK // max(1, len(xs)))
            for start in range(0, len(conjugators), step):
                gs = conjugators[start : start + step, None]
                inner = xs.T[index.inverse_base[gs[:, 0]]].reshape(len(gs), -1)  # x(g^-1(b))
                on_base = arr[gs, inner].reshape(len(gs), len(index.base), len(xs))
                moved = index.find(on_base.swapaxes(1, 2))
                order = np.argsort(rank[moved], axis=1)
                moved = moved[np.arange(len(gs))[:, None], order]
                for s, moved_odd, orbs_odd in zip(
                    subgroups[start : start + step].tolist(),
                    arr[moved].tolist(),
                    orbs[order].tolist(),
                ):
                    solved[s] = (orb_i, c_even, list(zip(map(tuple, moved_odd), orbs_odd)))
        orb_i, c_even, odd = solved.pop(k)
        c = tuple(arr[c_row].tolist())
        out += [MetacyclicCandidate(c, x, len(powers), orb_i, orb_h, c_even) for x, orb_h in odd]
    return out


def psl2_11_degree55() -> PermGroup:
    """PSL2(11) in its primitive degree-55 action: cosets of the normalizer of a
    cyclic subgroup <c> of order 6, the 12 g with g c g^-1 in <c>."""
    G = psl2_natural(11)
    index = G.base_index
    columns, order = _power_table(index)
    c6 = np.flatnonzero(order == 6)[0]  # the first of order 6 in G's order
    powers = [rows[c6] for rows in columns[:6]]
    N = index.arr[np.isin(_conjugates(index, index.arr[c6]), powers)]
    if len(N) != 12:
        raise GroupError(f"expected an order-12 normalizer, got {len(N)}")
    return coset_action(G, N)


# ---------------------------------------------------------------- subgroup closures


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of a bitmask, ascending."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def _least(mask: int) -> int:
    """The index of the lowest set bit of a nonzero bitmask."""
    return (mask & -mask).bit_length() - 1


def _right_cosets(bit_rows: list[list[int]]) -> list[int]:
    """For each element x, the bitmask of the right coset s x of a subgroup s,
    given one row per member a of s whose entry x is the bitmask of the one
    element a x: the sum of the rows, whose bits at each x are distinct."""
    return list(map(sum, zip(*bit_rows)))


def _double_coset_reps(
    s: int, cols: list[list[int]], cosets: list[int], elements: int
) -> Generator[int | None, int | None, None]:
    """The least element g of each double coset s g s inside the bitmask
    `elements` other than s, ascending, where `elements` is a union of double
    cosets of s and `cols` holds, for each member b of s, its right-multiplication
    map col[g] = g b. s g s is the union of the right cosets s (g b) over b in s;
    a walk over g in ascending order meets each double coset first at its least
    element.

    A caller that learns, at g, a subgroup t containing s whose elements need no
    visit may send t: the walk drops t (a union of double cosets, s t s = t) and
    answers the send with None, so a `for` loop over it still sees each other g
    once."""
    uncovered = elements & ~s
    while uncovered:
        g = _least(uncovered)
        settled = yield g
        for col in cols:
            uncovered &= ~cosets[col[g]]
        if settled is not None:
            uncovered &= ~settled
            yield None


def _join(s: int, order: int, maps: list[list[int]], cosets: list[int], limit: int) -> int | None:
    """The bitmask of the subgroup generated by the elements a whose
    right-multiplication maps m[r] = r a are `maps`, which contains s (of the
    given order, at most `limit`) as a union of right cosets, or None once it
    passes `limit` elements, a bound the caller knows no subgroup it wants
    exceeds.

    Dimino's coset-by-coset closure: K is a union of right cosets s r, starting
    with s, which any of its elements represents. Whenever r a leaves K, for a
    representative r and a generator a, the whole coset s (r a) joins K. K ends
    closed under right multiplication by every generator, so it is the subgroup
    they generate. `all_subgroups` joins each subgroup s with one g at a time;
    `transitive_typesets` joins <x> with y."""
    joined, reps = s, [_least(s)]
    for r in reps:
        for m in maps:
            x = m[r]
            if not joined >> x & 1:
                joined |= cosets[x]
                reps.append(x)
                if len(reps) * order > limit:
                    return None
    return joined


def all_subgroups(elements) -> list[tuple[frozenset[int], list[int]]]:
    """Every subgroup of a small group, as (index set, generating indices).

    Cyclic subgroups first, then single-element extensions to a fixpoint; this
    reaches every subgroup since any chain <g1> <= <g1,g2> <= ... realizes it.
    Subgroups are Python-int bitmasks over the element indices until the end,
    and each one's member list is read once: off the powers of its least
    generator, or when a join first finds it. The product table is read off the
    products a(b(i)) that the closure check forms anyway, by one base-index
    `find` over their base images. For each queued subgroup s, the masks of its
    right cosets s x are summed from the product table's rows of one-element
    masks (`_right_cosets`); one g per double coset s g s is tried
    (`_double_coset_reps`), and <s, g> is joined a whole right coset at a time
    (`_join`, the kernel that `transitive_typesets` shares). A join that passes
    half the order is the whole group.

    Exact rules skip joins whose result is already found, or read a join's
    result without walking it, so every subgroup keeps the generator list of
    its first producer, and `found` and the queue evolve as if every join were
    walked:
    - s = <e> is not extended: each <e, g> = <g> came from the cyclic pass.
    - s is not extended when no divisor d of |G| with |s| < d <= |G|/2 is a
      multiple of |s| (when |G|/|s| is 1 or prime): by Lagrange a proper
      overgroup of s would need such an order, so every join is the whole
      group, which is recorded from the least g outside s if it is new.
    - g is skipped when <g> was already joined to s: <s, g> = <s, <g>>.
    - For a cyclic s = <a>, g is skipped when <g> was extended before s:
      <s, g> = <<g>, a>, and every join of <g> is found once <g> is extended.
    - Prime index: if [t : s] is prime, then <s, h> = t for every h in t
      outside s, since no subgroup lies strictly between s and t. So the walk
      skips the found subgroups of prime index over s, and the rest of
      t = <s, g> once [t : s] is prime.
    - Half order: X = s | <g> | <a g>, for the first generator a of s, lies in
      <s, g>. If the least t known to contain s (a found subgroup or G) that
      contains X has |t| < 2|X|, then <s, g> = t without a walk: it lies in t,
      and by Lagrange a subgroup of t with more than |t|/2 elements is t.
    Raises GroupError when the elements are not closed under composition.
    """
    n = len(elements[0])
    arr = np.fromiter(chain.from_iterable(elements), np.min_scalar_type(-n)).reshape(-1, n)
    index = _BaseIndex(arr)
    # the row of a*b (a after b), found from a(b(base)); base images identify a
    # product only if it is a member, so compare whole products, [a, b, i] = a(b(i))
    products = arr[:, arr]
    table = index.find(products[:, :, index.base])
    if not np.array_equal(products, arr.take(table, axis=0)):
        raise GroupError("all_subgroups: the elements are not closed under composition")
    cols = table.T.tolist()  # cols[a][r] = r a
    one = [1 << x for x in range(len(arr))]
    bit_rows = np.array(one, dtype=object)[table].tolist()  # one[a b]
    whole = (1 << len(arr)) - 1
    limit = len(arr) // 2
    primes = set(_prime_divisors(len(arr)))  # every prime index [t : s]
    # the mask of <g>, from the powers g, g^2, ..., g^m = e of its least
    # generator g; it is also the mask of each g^k with k prime to m
    cyclic = [0] * len(arr)
    found: dict[int, list[int]] = {}
    members: dict[int, list[int]] = {}  # each found subgroup's indices, ascending
    generators: dict[int, int] = {}  # the mask of the generators of each <g>
    for g, col in enumerate(cols):
        if cyclic[g]:
            continue
        mask, x, powers = 0, g, []
        while not mask >> x & 1:
            mask |= one[x]
            powers.append(x)
            x = col[x]
        generated = 0
        for k, x in enumerate(powers, 1):
            if gcd(k, len(powers)) == 1:
                cyclic[x] = mask
                generated |= one[x]
        found[mask], members[mask], generators[mask] = [g], sorted(powers), generated
    queue = sorted(found, key=members.__getitem__)
    extended = 0  # the generators of the cyclic subgroups taken from the queue
    for s in queue:
        gens, m = found[s], len(members[s])
        own = generators.get(s, 0)
        extended |= own
        if m == 1:
            continue
        if not any(len(arr) % d == 0 for d in range(2 * m, limit + 1, m)):
            if whole not in found:
                found[whole], members[whole] = gens + [_least(whole & ~s)], list(range(len(arr)))
                queue.append(whole)
            continue
        # the subgroups known to contain s (s too), ascending by order, and the
        # elements whose joins with s are found
        overgroups = sorted((t for t in found if t & s == s), key=int.bit_count)
        settled = extended if own else 0
        for t in overgroups:
            if t.bit_count() // m in primes:
                settled |= t
        if not whole & ~settled & ~s:
            continue
        if whole not in overgroups:
            overgroups.append(whole)
        cosets = _right_cosets([bit_rows[a] for a in members[s]])
        maps = [cols[a] for a in gens]
        a = gens[0]
        joined = set()
        walk = _double_coset_reps(s, [cols[b] for b in members[s]], cosets, whole & ~settled)
        for g in walk:
            if cyclic[g] in joined:
                continue
            joined.add(cyclic[g])
            X = s | cyclic[g] | cyclic[cols[g][a]]
            for t in overgroups:
                if not X & ~t:
                    break
            if t.bit_count() >= 2 * X.bit_count():
                t = _join(s, m, maps + [cols[g]], cosets, limit) or whole
            if t not in found:
                found[t], members[t] = gens + [g], _bits(t)
                queue.append(t)
                insort(overgroups, t, key=int.bit_count)
            if t.bit_count() // m in primes:
                walk.send(t)
    subgroups = sorted((len(members[t]), members[t], gens) for t, gens in found.items())
    return [(frozenset(bits), gens) for _, bits, gens in subgroups]


# ---------------------------------------------------------------- transitive type tables


def group_typeset(elements) -> frozenset[tuple[int, ...]]:
    return frozenset(cycle_type(e) for e in elements)


def _conjugacy_classes(index: _BaseIndex) -> tuple[list[int], list[np.ndarray], np.ndarray]:
    """The conjugacy classes of the group on the rows of `index`: a
    representative x per class, one per unmarked row from the last back, so
    the identity (row 0) is last; for each x, its `_conjugates` over every g;
    and the class of every row."""
    reps: list[int] = []
    conjugates: list[np.ndarray] = []
    class_of = np.full(len(index.arr), -1, dtype=np.intp)
    for x in range(len(index.arr) - 1, -1, -1):
        if class_of[x] < 0:
            conj = _conjugates(index, index.arr[x])
            class_of[conj] = len(reps)
            reps.append(x)
            conjugates.append(conj)
    return reps, conjugates, class_of


@lru_cache(maxsize=None)
def transitive_typesets(n: int) -> tuple[frozenset[tuple[int, ...]], ...]:
    """Cycle-type sets of all proper transitive subgroups of A_n, by exhaustive
    enumeration of the pairs <x, y> with x a class representative. This is
    complete for n <= 7: every transitive subgroup of A_n there is 2-generated
    (Butler-McKay, The transitive groups of degree up to eleven, 1983).

    No N x N product table is built. Every map read here is one gather of
    images on A_n's base, whose row `_BaseIndex.find` looks up, as `_conjugates`
    does: the right-multiplication map r -> r a from r(a(base)), the class
    marking g -> g x g^-1 from g(x(g^-1(base))), the conjugates g y g^-1 that
    pick the orbit minima, and the rows a r of the right cosets of <x>. Each
    <x, y> is joined from <x> (`_join`, the kernel of `all_subgroups`).

    Every pruning is exact:
    - <x, y> has the orbits of {x, y}, so a pair whose two generators are not
      transitive together is dropped before its closure is computed.
    - A closure that passes N/n elements is all of A_n, so it stops there. For
      n >= 5, A_n is simple, so it acts faithfully on the m cosets of a proper
      subgroup; then N divides m!, which needs m >= n (Dixon-Mortimer, GTM
      163, Sec. 5.2). A_4 has a subgroup of index 3, so there the bound is N/2
      (Lagrange).
    - For the k-th class representative x_k, y runs over classes k, k+1, ...
      only: <x, y> = <y, x>, and conjugating a pair conjugates the subgroup it
      generates, so every pair, in one of its two orders, is conjugate to some
      (x_k, y) with y in class k or later. The identity class is the last, so
      the identity pairs only with itself.
    - Within those classes, y runs over one element per orbit of N(<x>) acting
      by conjugation. For g in N(<x>), g x g^-1 = x^j generates <x>, so
      g <x, y> g^-1 = <x^j, g y g^-1> = <x, g y g^-1>: the two pairs generate
      conjugate subgroups, with the same orbits, order and cycle types. g y g^-1
      lies in the class of y, so the class pruning above is untouched.
    """
    if n < 4:
        return ()
    if n > 7:
        raise GroupError("transitive typeset enumeration is desk-scale for n <= 7 only")
    index = alternating_group(n).base_index
    arr = index.arr
    els = arr.tolist()
    on_base = arr[:, index.base]
    limit = len(els) // n if n >= 5 else len(els) // 2
    one = [1 << i for i in range(len(els))]
    reps, conjugates, class_of = _conjugacy_classes(index)

    def right_map(a: int) -> list[int]:
        """r -> r a for every row r, from r(a(base))."""
        return index.find(arr[:, arr[a, index.base]]).tolist()

    found: set[int] = set()
    for k, (x, conj) in enumerate(zip(reps, conjugates)):
        x_map = right_map(x)
        powers = [0]  # <x> = {e, x, x^2, ...}
        while (r := x_map[powers[-1]]) != 0:
            powers.append(r)
        ys = np.flatnonzero(class_of >= k)
        # keep ys[j] when it is the least of its N(<x>)-orbit: g y g^-1 on the
        # base, for each g with g x g^-1 in <x>
        least, on_ys = ys, arr[ys]
        for g in np.flatnonzero(np.isin(conj, powers)).tolist():
            least = np.minimum(least, index.find(arr[g][on_ys[:, index.inverse_base[g]]]))
        s = sum(map(one.__getitem__, powers))
        # row a holds a r at each r: a(r(base))
        cosets = _right_cosets(
            [list(map(one.__getitem__, index.find(arr[a][on_base]).tolist())) for a in powers]
        )
        for y in ys[least == ys].tolist():
            if orbit_count([els[x], els[y]], n) != 1:
                continue
            t = _join(s, len(powers), [x_map, right_map(y)], cosets, limit)
            if t is not None:
                found.add(t)
    sets = {group_typeset([els[i] for i in _bits(t)]) for t in found}
    return tuple(sorted(sets, key=lambda fs: sorted(fs)))
