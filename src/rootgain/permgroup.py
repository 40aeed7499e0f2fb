"""Permutation groups of moderate degree: breadth-first element enumeration,
orbits, signs, scan-based normalizers/centralizers, PSL2(p) and coset actions,
and the odd-orbit certificate search over metacyclic subgroups.

Permutations are tuples of 0-based images; point labels are printed 1-based.
Groups here are small enough (<= ~10^5 elements) that full enumeration beats
stabilizer-chain machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import is_prime

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
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def cycle_type(a: Perm) -> tuple[int, ...]:
    seen = [False] * len(a)
    lengths = []
    for i in range(len(a)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths))


def perm_order(a: Perm) -> int:
    from math import lcm

    o = 1
    for ln in cycle_type(a):
        o = lcm(o, ln)
    return o


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
    """Orbit partition of {0..n-1} under the generated subgroup."""
    for g in gens:
        if len(g) != n:
            raise GroupError(f"generator degree {len(g)} != {n}")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for i in range(n):
            a, b = find(i), find(g[i])
            if a != b:
                parent[max(a, b)] = min(a, b)
    buckets: dict[int, list[int]] = {}
    for i in range(n):
        buckets.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(v)) for _, v in sorted(buckets.items()))


def orbit_count(gens, n: int) -> int:
    return len(orbits(gens, n))


# ---------------------------------------------------------------- PermGroup


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
        self._elements: tuple[Perm, ...] | None = None
        self._element_set: frozenset[Perm] | None = None
        self._array: np.ndarray | None = None

    @property
    def elements(self) -> tuple[Perm, ...]:
        """Breadth-first closure; deterministic order under fixed generator order."""
        if self._elements is None:
            ident = identity_perm(self.degree)
            seen = {ident}
            order = [ident]
            frontier = [ident]
            while frontier:
                new = []
                for w in frontier:
                    for g in self.generators:
                        x = compose(g, w)
                        if x not in seen:
                            seen.add(x)
                            order.append(x)
                            new.append(x)
                            if len(order) > self.cap:
                                raise CapExceeded(
                                    f"group order exceeds enumeration cap {self.cap}"
                                )
                frontier = new
            self._elements = tuple(order)
            self._element_set = frozenset(seen)
        return self._elements

    @property
    def element_set(self) -> frozenset[Perm]:
        self.elements
        return self._element_set

    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return tuple(p) in self.element_set

    def element_array(self) -> np.ndarray:
        if self._array is None:
            self._array = np.array(self.elements, dtype=np.int32)
        return self._array

    def is_transitive(self) -> bool:
        return orbit_count(self.generators, self.degree) == 1

    def __repr__(self):
        label = self.name or f"degree-{self.degree} group"
        if self._elements is not None:
            return f"PermGroup({label}, order {len(self._elements)})"
        return f"PermGroup({label}, {len(self.generators)} generators)"


def symmetric_group(n: int) -> PermGroup:
    if n < 1:
        raise GroupError("degree must be >= 1")
    if n == 1:
        return PermGroup(1, [()], name="S1")
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
    n = p + 1
    t = tuple([(x + 1) % p for x in range(p)] + [p])
    s = [0] * n
    s[p] = 0
    s[0] = p
    for x in range(1, p):
        s[x] = (-pow(x, -1, p)) % p
    return PermGroup(n, [t, tuple(s)], name=f"PSL2({p})")


# ---------------------------------------------------------------- subgroup scans


def subgroup_closure(gens, n: int, cap: int = PermGroup.DEFAULT_CAP) -> tuple[Perm, ...]:
    return PermGroup(n, gens, cap=cap).elements


def is_subgroup(elements, G: PermGroup) -> bool:
    els = set(tuple(e) for e in elements)
    if identity_perm(G.degree) not in els:
        return False
    if not els <= G.element_set:
        return False
    return all(compose(a, b) in els for a in els for b in els)


def centralizer_scan(G: PermGroup, x: Perm) -> list[Perm]:
    """Exact centralizer by full scan (vectorized over the element table)."""
    arr = G.element_array()
    xa = np.array(x, dtype=np.int32)
    mask = (arr[:, xa] == xa[arr]).all(axis=1)
    els = G.elements
    return [els[i] for i in np.flatnonzero(mask)]


def normalizer_scan(G: PermGroup, subgroup_elements) -> list[Perm]:
    """Exact normalizer of the given subgroup by full scan."""
    sub = frozenset(tuple(e) for e in subgroup_elements)
    if not is_subgroup(sub, G):
        raise GroupError("normalizer_scan: given set is not a subgroup of G")
    out = []
    for g in G.elements:
        gi = inverse(g)
        if all(compose(compose(g, s), gi) in sub for s in sub):
            out.append(g)
    return out


def coset_action(G: PermGroup, subgroup_elements) -> PermGroup:
    """Action of G on left cosets of H; degree [G:H]."""
    H = [tuple(e) for e in subgroup_elements]
    if not is_subgroup(H, G):
        raise GroupError("coset_action: H is not a subgroup of G")
    els = G.elements

    def coset_key(g: Perm) -> Perm:
        return min(compose(g, h) for h in H)

    keys: dict[Perm, int] = {}
    reps: list[Perm] = []
    elt_to_coset: dict[Perm, int] = {}
    for g in els:
        k = coset_key(g)
        if k not in keys:
            keys[k] = len(reps)
            reps.append(k)
        elt_to_coset[g] = keys[k]
    m = len(reps)
    if m * len(H) != len(els):
        raise GroupError("coset count times |H| does not equal |G|")
    new_gens = []
    for a in G.generators:
        new_gens.append(tuple(elt_to_coset[compose(a, reps[i])] for i in range(m)))
    return PermGroup(m, new_gens, cap=G.cap, name=f"{G.name or 'G'} on {m} cosets")


def is_primitive(G: PermGroup) -> bool:
    """Transitive with only trivial block systems (minimal-block search)."""
    n = G.degree
    gens = G.generators
    if not G.is_transitive():
        return False
    if n == 1:
        return True
    for delta in range(1, n):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra == rb:
                return None
            parent[max(ra, rb)] = min(ra, rb)
            return min(ra, rb), max(ra, rb)

        queue = [(0, delta)]
        union(0, delta)
        while queue:
            a, b = queue.pop()
            for g in gens:
                merged = union(g[a], g[b])
                if merged:
                    queue.append(merged)
        size = sum(1 for i in range(n) if find(i) == find(0))
        if size != n:
            return False
    return True


# ---------------------------------------------------------------- cyclic subgroups


def cyclic_powers(c: Perm) -> tuple[Perm, ...]:
    out = [identity_perm(len(c))]
    x = c
    while x != out[0]:
        out.append(x)
        x = compose(c, x)
    return tuple(out)


def cyclic_subgroup_representatives(G: PermGroup) -> list[tuple[Perm, tuple[Perm, ...]]]:
    """One (canonical generator, element tuple) per cyclic subgroup, including the
    trivial one; the canonical generator is the lexicographically least generator."""
    by_set: dict[frozenset[Perm], Perm] = {}
    powers: dict[frozenset[Perm], tuple[Perm, ...]] = {}
    for c in G.elements:
        pw = cyclic_powers(c)
        key = frozenset(pw)
        if key not in by_set or c < by_set[key]:
            by_set[key] = c
            powers[key] = pw
    items = [(gen, powers[key]) for key, gen in by_set.items()]
    items.sort(key=lambda t: (len(t[1]), t[0]))
    return items


# ---------------------------------------------------------------- metacyclic search


@dataclass(frozen=True)
class MetacyclicCandidate:
    """A pair (I = <c>, H = <c, x>) with x normalizing <c>: the shape of a tame
    decomposition group, recorded with its orbit parities."""

    degree: int
    c: Perm
    x: Perm
    inertia_order: int
    orbits_inertia: int
    orbits_full: int
    inertia_in_alternating: bool

    @property
    def parity_odd(self) -> bool:
        return (self.degree - self.orbits_full) % 2 == 1


def metacyclic_odd_orbit_search(
    G: PermGroup, require_inertia_even: bool = False
) -> list[MetacyclicCandidate]:
    """All (cyclic I = <c>, x in N_G(I)) with n - |orb(<I,x>)| odd.

    One canonical generator per cyclic subgroup (including the trivial one, so
    plain cyclic decomposition groups are covered); deterministic order.
    """
    n = G.degree
    els = G.elements
    inv = {g: inverse(g) for g in els}
    out: list[MetacyclicCandidate] = []
    for c, powers in cyclic_subgroup_representatives(G):
        pset = frozenset(powers)
        orb_i = orbit_count([c], n)
        c_even = sign(c) == 1
        if require_inertia_even and not c_even:
            continue
        normalizer = [g for g in els if compose(compose(g, c), inv[g]) in pset]
        for x in sorted(normalizer):
            orb_h = orbit_count([c, x], n)
            if (n - orb_h) % 2 == 1:
                out.append(
                    MetacyclicCandidate(
                        degree=n,
                        c=c,
                        x=x,
                        inertia_order=len(powers),
                        orbits_inertia=orb_i,
                        orbits_full=orb_h,
                        inertia_in_alternating=c_even,
                    )
                )
    return out


def psl2_11_degree55() -> PermGroup:
    """PSL2(11) in its primitive degree-55 action: cosets of the normalizer of a
    cyclic subgroup of order 6 (a subgroup of order 12)."""
    G = psl2_natural(11)
    c6 = next(c for c in G.elements if perm_order(c) == 6)
    N = normalizer_scan(G, cyclic_powers(c6))
    if len(N) != 12:
        raise GroupError(f"expected an order-12 normalizer, got {len(N)}")
    return coset_action(G, N)


# ---------------------------------------------------------------- small-group lattices


def multiplication_table(elements) -> tuple[dict[Perm, int], list[list[int]]]:
    els = [tuple(e) for e in elements]
    index = {e: i for i, e in enumerate(els)}
    table = [[index[compose(a, b)] for b in els] for a in els]
    return index, table


def _closure_idx(gen_idxs, table, identity_idx: int) -> frozenset[int]:
    seen = {identity_idx}
    frontier = [identity_idx]
    gens = list(gen_idxs)
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                x = table[g][w]
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return frozenset(seen)


def all_subgroups(elements) -> list[tuple[frozenset[int], list[int]]]:
    """Every subgroup of a small group, as (index set, generating indices).

    Cyclic subgroups first, then single-element extensions to a fixpoint; this
    reaches every subgroup since any chain <g1> <= <g1,g2> <= ... realizes it.
    """
    els = [tuple(e) for e in elements]
    index, table = multiplication_table(els)
    n = len(els)
    ident = index[identity_perm(len(els[0]))]
    found: dict[frozenset[int], list[int]] = {}
    for g in range(n):
        s = _closure_idx([g], table, ident)
        if s not in found:
            found[s] = [g]
    queue = sorted(found, key=sorted)
    while queue:
        new_queue = []
        for s in queue:
            gens = found[s]
            for g in range(n):
                if g in s:
                    continue
                t = _closure_idx(gens + [g], table, ident)
                if t not in found:
                    found[t] = gens + [g]
                    new_queue.append(t)
        queue = new_queue
    return [(s, found[s]) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]


# ---------------------------------------------------------------- transitive type tables


def _an_class_representatives(n: int) -> list[Perm]:
    """One permutation per conjugacy class of A_n (split classes get two)."""

    def partitions(total, maxpart):
        if total == 0:
            yield []
            return
        for k in range(min(total, maxpart), 0, -1):
            for rest in partitions(total - k, k):
                yield [k] + rest

    reps = []
    for pt in partitions(n, n):
        if (n - len(pt)) % 2 != 0:
            continue
        images = list(range(n))
        pos = 0
        for ln in pt:
            pts = list(range(pos, pos + ln))
            for i in range(ln):
                images[pts[i]] = pts[(i + 1) % ln]
            pos += ln
        rep = tuple(images)
        reps.append(rep)
        if all(x % 2 == 1 for x in pt) and len(set(pt)) == len(pt):
            # class splits in A_n: add a conjugate by a transposition
            t = list(range(n))
            t[0], t[1] = t[1], t[0]
            t = tuple(t)
            reps.append(compose(compose(t, rep), t))
    return reps


def group_typeset(elements) -> frozenset[tuple[int, ...]]:
    return frozenset(cycle_type(e) for e in elements)


@lru_cache(maxsize=None)
def transitive_typesets(n: int) -> tuple[frozenset[tuple[int, ...]], ...]:
    """Cycle-type sets of all proper transitive subgroups of A_n, by exhaustive
    enumeration (pair generation over class representatives plus upward closure;
    complete for n <= 7, where minimal transitive groups are 2-generated)."""
    if n < 4:
        return ()
    if n > 7:
        raise GroupError("transitive typeset enumeration is desk-scale for n <= 7 only")
    G = alternating_group(n)
    els = G.elements
    index, table = multiplication_table(els)
    N = len(els)
    ident = index[identity_perm(n)]
    inv_idx = [index[inverse(e)] for e in els]

    def transitive(s: frozenset[int]) -> bool:
        reach = {0}
        frontier = [0]
        members = [els[i] for i in s]
        while frontier:
            new = []
            for pt in frontier:
                for g in members:
                    q = g[pt]
                    if q not in reach:
                        reach.add(q)
                        new.append(q)
            frontier = new
            if len(reach) == n:
                return True
        return len(reach) == n

    found: dict[frozenset[int], list[int]] = {}
    rep_idxs = [index[r] for r in _an_class_representatives(n)]
    for x in rep_idxs:
        for y in range(N):
            s = _closure_idx([x, y], table, ident)
            if s not in found and transitive(s):
                found[s] = [x, y]

    def conjugates(s: frozenset[int]) -> set[frozenset[int]]:
        out = set()
        for g in range(N):
            gi = inv_idx[g]
            out.add(frozenset(table[table[g][e]][gi] for e in s))
        return out

    seen_all: set[frozenset[int]] = set()
    queue: list[frozenset[int]] = []
    reps_done: list[frozenset[int]] = []
    for s in sorted(found, key=lambda s: (len(s), sorted(s))):
        if s in seen_all:
            continue
        seen_all |= conjugates(s) if len(s) < N else {s}
        queue.append(s)
    while queue:
        s = queue.pop(0)
        reps_done.append(s)
        if len(s) == N:
            continue
        gens = found[s]
        covered = set(s)
        for g in range(N):
            if g in covered:
                continue
            t = _closure_idx(gens + [g], table, ident)
            covered |= {table[e][g] for e in s}
            if t not in seen_all:
                found[t] = gens + [g]
                seen_all |= conjugates(t) if len(t) < N else {t}
                queue.append(t)
    sets = {group_typeset([els[i] for i in s]) for s in reps_done if len(s) < N}
    return tuple(sorted(sets, key=lambda fs: sorted(fs)))
