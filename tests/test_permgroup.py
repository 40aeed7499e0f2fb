import hashlib
import random
import tracemalloc
from math import factorial, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootgain.permgroup as permgroup_module
from rootgain.permgroup import (
    CapExceeded,
    GroupError,
    PermGroup,
    all_subgroups,
    alternating_group,
    centralizer_scan,
    compose,
    coset_action,
    cycle_type,
    cyclic_powers,
    cyclic_subgroup_representatives,
    fixed_points,
    format_cycles,
    group_typeset,
    identity_perm,
    inverse,
    metacyclic_odd_orbit_search,
    orbit_count,
    orbits,
    perm_from_cycles,
    perm_order,
    psl2_11_degree55,
    psl2_natural,
    sign,
    symmetric_group,
    transitive_typesets,
)
from rootgain.permgroup import (
    MetacyclicCandidate,
    _BaseIndex,
    _conjugacy_classes,
    _conjugates,
    _cycle_counts,
    _double_coset_reps,
    _join,
    _right_cosets,
)


def cyc(text, degree):
    return perm_from_cycles(text, degree)


# ---------------------------------------------------------------- enumeration


def test_enumerate_s3():
    G = PermGroup(3, [cyc("(1,2)", 3), cyc("(1,2,3)", 3)])
    assert G.order() == 6


def test_enumerate_klein_four():
    G = PermGroup(4, [cyc("(1,2)(3,4)", 4), cyc("(1,3)(2,4)", 4)])
    assert G.order() == 4


def test_enumerate_order_divides_factorial_and_generator_order_stable():
    gens = [cyc("(1,2,3,4,5)", 6), cyc("(1,2)(5,6)", 6)]
    G1 = PermGroup(6, gens)
    G2 = PermGroup(6, gens[::-1])
    assert factorial(6) % G1.order() == 0
    assert frozenset(G1.elements) == frozenset(G2.elements)


def test_enumerate_cap_exceeded():
    G = PermGroup(12, symmetric_group(12).generators, cap=1000)
    with pytest.raises(CapExceeded) as err:
        G.elements
    assert "1000" in str(err.value)


def test_symmetric_group_of_degree_1():
    G = symmetric_group(1)
    assert G.elements == ((0,),)
    assert metacyclic_odd_orbit_search(G) == []


def test_symmetric_and_alternating_orders():
    for n in range(3, 8):
        assert symmetric_group(n).order() == factorial(n)
        assert alternating_group(n).order() == factorial(n) // 2


# ---------------------------------------------------------------- orbits / sign


def test_orbits_trivial_group():
    assert orbits([], 5) == ((0,), (1,), (2,), (3,), (4,))


def test_orbits_double_transposition_in_s5():
    assert orbits([cyc("(1,2)(3,4)", 5)], 5) == ((0, 1), (2, 3), (4,))


def _union_find_orbits(gens, n):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for g in gens:
        for i in range(n):
            a, b = find(i), find(g[i])
            parent[max(a, b)] = min(a, b)
    buckets = {}
    for i in range(n):
        buckets.setdefault(find(i), []).append(i)
    return tuple(tuple(v) for _, v in sorted(buckets.items()))


@st.composite
def _generator_lists(draw):
    n = draw(st.integers(1, 60))
    perm = st.permutations(range(n)).map(tuple)
    # sparse generators too: a few transpositions leave many orbits
    swaps = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)

    def apply(pairs):
        images = list(range(n))
        for i, j in pairs:
            images[i], images[j] = images[j], images[i]
        return tuple(images)

    return n, draw(st.lists(perm | swaps.map(apply), max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_generator_lists())
def test_orbits_match_union_find(case):
    n, gens = case
    assert orbits(gens, n) == _union_find_orbits(gens, n)


def test_orbits_degree_mismatch():
    with pytest.raises(GroupError):
        orbits([cyc("(1,2)", 3)], 5)


def test_sign_examples():
    assert sign(identity_perm(4)) == 1
    assert sign(cyc("(1,2)", 4)) == -1
    assert sign(cyc("(1,2)(3,4)", 4)) == 1


def test_sign_homomorphism_random_s8():
    rng = random.Random(424242)
    pts = list(range(8))
    for _ in range(10**4):
        a = pts[:]
        b = pts[:]
        rng.shuffle(a)
        rng.shuffle(b)
        a, b = tuple(a), tuple(b)
        assert sign(compose(a, b)) == sign(a) * sign(b)


def test_cycle_notation_roundtrip():
    p = cyc("(1,2)(3,4,5)", 6)
    assert format_cycles(p) == "(1,2)(3,4,5)"
    assert perm_from_cycles(format_cycles(p), 6) == p
    assert format_cycles(identity_perm(4)) == "id"


# ---------------------------------------------------------------- psl2


def test_psl2_small_orders():
    assert psl2_natural(3).order() == 12
    assert psl2_natural(3).degree == 4
    assert psl2_natural(5).order() == 60
    assert psl2_natural(11).order() == 660


def test_psl2_rejects_composite():
    with pytest.raises(GroupError):
        psl2_natural(9)


def test_psl2_11_two_transitive():
    G = psl2_natural(11)
    assert orbit_count(G.generators, G.degree) == 1
    stab = [g for g in G.elements if g[0] == 0]
    assert len(stab) == 660 // 12
    # point stabilizer transitive on the remaining 11 points
    rest = orbits(stab, 12)
    assert tuple(sorted(map(len, rest))) == (1, 11)


def test_psl2_involution_centralizer_dihedral_regular():
    G = psl2_natural(11)
    inv_el = next(g for g in G.elements if perm_order(g) == 2)
    C = centralizer_scan(G, inv_el)
    assert len(C) == 12
    assert orbits(C, 12) == (tuple(range(12)),)
    # dihedral of order 12: an order-6 element and an inverting involution
    assert any(perm_order(c) == 6 for c in C)
    c6 = next(c for c in C if perm_order(c) == 6)
    c6i = inverse(c6)
    assert any(compose(compose(x, c6), inverse(x)) == c6i for x in C)


def test_psl2_structure_family_light():
    # p = 3 mod 8 members (3 itself only as an order check)
    for p in (11, 19):
        G = psl2_natural(p)
        assert G.order() == p * (p * p - 1) // 2
        invols = [g for g in G.elements if perm_order(g) == 2]
        assert all(fixed_points(g) == 0 for g in invols)
        C = centralizer_scan(G, invols[0])
        assert len(C) == p + 1
        assert orbit_count(C, p + 1) == 1


# ---------------------------------------------------------------- coset actions


def test_coset_action_s3_on_transposition_cosets():
    G = symmetric_group(3)
    H = [identity_perm(3), cyc("(1,2)", 3)]
    Q = coset_action(G, H)
    assert Q.degree == 3
    assert Q.order() == 6
    assert orbit_count(Q.generators, Q.degree) == 1


def test_coset_action_a4_on_klein_four():
    G = alternating_group(4)
    V = [identity_perm(4), cyc("(1,2)(3,4)", 4), cyc("(1,3)(2,4)", 4), cyc("(1,4)(2,3)", 4)]
    Q = coset_action(G, V)
    assert Q.degree == 3
    assert Q.order() == 3  # kernel V4 collapses


def test_coset_action_rejects_non_subgroup():
    G = symmetric_group(3)
    with pytest.raises(GroupError):
        coset_action(G, [identity_perm(3), cyc("(1,2,3)", 3)])
    # not closed, yet its translates g H have 4 least elements, and 4 x 3 = |A4|
    H = ["()", "(2,3,4)", "(2,4,3)", "(1,4)(2,3)"]
    with pytest.raises(GroupError):
        coset_action(alternating_group(4), [cyc(e, 4) for e in H])


@pytest.mark.parametrize(
    "elements",
    [
        ["(1,2,3)"],  # no identity
        ["()", "(1,2,3)"],  # not closed
        ["()", "(1,2)(3,4)", "(1,3)(2,4)"],  # not closed
        ["()", "(1,2)"],  # a subgroup of S4, not of A4
    ],
)
def test_normalizer_scan_rejects_non_subgroup(elements):
    """A set that is not a subgroup of A4 is refused before any scan of its
    normalizer or cosets: `coset_action` runs the subgroup check first."""
    with pytest.raises(GroupError):
        coset_action(alternating_group(4), [cyc(e, 4) for e in elements])


def test_psl2_11_degree55_primitive():
    Q = psl2_11_degree55()
    assert Q.degree == 55
    assert Q.order() == 660


def test_degree_times_subgroup_order_is_group_order():
    G = psl2_natural(11)
    c6 = next(c for c in G.elements if perm_order(c) == 6)
    N = _plain_normalizer(G.elements, cyclic_powers(c6))
    Q = coset_action(G, N)
    assert Q.degree * len(N) == G.order()


# ---------------------------------------------------------------- scans


def _plain_centralizer(G, x):
    return [g for g in G.elements if compose(g, x) == compose(x, g)]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_centralizer_scan_matches_plain_loop(p):
    G = psl2_natural(p)
    n = p + 1
    involutions = [g for g in G.elements if perm_order(g) == 2]
    others = [g for g in G.elements if perm_order(g) > 2][:: len(G.elements) // 8]
    # permutations outside G: a transposition and an n-cycle of S_n
    outside = [cyc("(1,2)", n), tuple(range(1, n)) + (0,)]
    assert not any(x in G for x in outside)
    for x in [identity_perm(n)] + involutions + others + outside:
        assert centralizer_scan(G, x) == _plain_centralizer(G, x)


def test_kernels_leave_the_tuples_unbuilt(monkeypatch):
    G = psl2_natural(13)
    with monkeypatch.context() as m:
        m.setattr(PermGroup, "elements", property(lambda _: pytest.fail("a kernel built them")))
        metacyclic_odd_orbit_search(G)
        x = next(g for g in map(tuple, G.element_array().tolist()) if perm_order(g) == 2)
        C = centralizer_scan(G, x)
        N = _plain_normalizer(list(map(tuple, G.element_array().tolist())), cyclic_powers(x))
        assert coset_action(G, N).degree == G.order() // len(N)
    # the tuples a caller gets are the plain loop's, in G's element order
    assert all(type(c) is tuple for c in C)
    assert C == _plain_centralizer(G, x)


def test_centralizer_of_transposition_in_s3():
    G = symmetric_group(3)
    C = centralizer_scan(G, cyc("(1,2)", 3))
    assert sorted(C) == sorted([identity_perm(3), cyc("(1,2)", 3)])


# ---------------------------------------------------------------- metacyclic search


def test_metacyclic_search_a5_contains_klein_candidate():
    G = alternating_group(5)
    cands = metacyclic_odd_orbit_search(G)
    c = cyc("(1,2)(3,4)", 5)
    x = cyc("(1,3)(2,4)", 5)
    hits = [m for m in cands if m.c == c and m.x == x]
    assert len(hits) == 1
    m = hits[0]
    assert m.orbits_inertia == 3 and m.orbits_full == 2
    assert m.inertia_in_alternating and (G.degree - m.orbits_full) % 2 == 1


def test_metacyclic_search_psl2_11_natural_nonempty():
    G = psl2_natural(11)
    cands = metacyclic_odd_orbit_search(G)
    assert cands
    # the guaranteed family: inertia a fixed-point-free involution, full group of
    # order divisible by 4 inside its centralizer, orbit count odd
    vierer = [
        m
        for m in cands
        if m.inertia_order == 2 and perm_order(m.x) == 2 and m.x != m.c and m.orbits_full == 3
    ]
    assert vierer
    for m in cands:
        assert (12 - m.orbits_full) % 2 == 1


def test_metacyclic_candidates_invariants():
    G = alternating_group(5)
    for m in metacyclic_odd_orbit_search(G):
        powers = set(cyclic_powers(m.c))
        assert compose(compose(m.x, m.c), inverse(m.x)) in powers
        assert orbit_count([m.c], 5) == m.orbits_inertia
        assert orbit_count([m.c, m.x], 5) == m.orbits_full
        assert (sign(m.c) == 1) == m.inertia_in_alternating


def test_metacyclic_search_deterministic():
    G = psl2_natural(5)
    assert metacyclic_odd_orbit_search(G) == metacyclic_odd_orbit_search(G)


def test_require_even_inertia_filter():
    G = symmetric_group(4)
    all_c = metacyclic_odd_orbit_search(G, require_inertia_even=False)
    even_c = metacyclic_odd_orbit_search(G, require_inertia_even=True)
    assert all(m.inertia_in_alternating for m in even_c)
    assert len(even_c) <= len(all_c)


# ---------------------------------------------------------------- small-group lattice


def test_all_subgroups_of_s3():
    G = symmetric_group(3)
    subs = all_subgroups(G.elements)
    assert sorted(len(s) for s, _ in subs) == [1, 2, 2, 2, 3, 6]


def test_all_subgroups_of_dihedral_12():
    G = psl2_natural(11)
    inv_el = next(g for g in G.elements if perm_order(g) == 2)
    C = centralizer_scan(G, inv_el)
    subs = all_subgroups(C)
    # D6 (order 12): 1 + 7 C2 + C3 + C6 + 3 V4 + 2 S3 + D6 = 16 subgroups
    assert len(subs) == 16
    by_order = sorted(len(s) for s, _ in subs)
    assert by_order == [1, 2, 2, 2, 2, 2, 2, 2, 3, 4, 4, 4, 6, 6, 6, 12]


# ---------------------------------------------------------------- typesets


A4_TYPESETS = (frozenset({(1, 1, 1, 1), (2, 2)}),)  # the regular Klein four-group
A5_TYPESETS = {
    frozenset({(1, 1, 1, 1, 1), (5,)}),  # C5
    frozenset({(1, 1, 1, 1, 1), (5,), (1, 2, 2)}),  # D5
}


def test_transitive_typesets_a4_a5():
    assert transitive_typesets(4) == A4_TYPESETS
    assert set(transitive_typesets(5)) == A5_TYPESETS


def _all_pairs_typesets(n):
    """Typesets of the proper transitive subgroups <x, y> of A_n over every pair
    of cyclic subgroups, by plain closure: no conjugacy, order or orbit shortcuts.
    (Every transitive subgroup of A_n, n <= 6, is 2-generated.)"""
    els = alternating_group(n).elements
    index = {e: i for i, e in enumerate(els)}
    table = [[index[compose(a, b)] for b in els] for a in els]
    gens = sorted({frozenset(cyclic_powers(g)): index[g] for g in els}.values())
    subgroups = set()
    for i, x in enumerate(gens):
        for y in gens[i:]:
            seen = {0}
            frontier = [0]
            while frontier:
                new = []
                for w in frontier:
                    for v in (table[x][w], table[y][w]):
                        if v not in seen:
                            seen.add(v)
                            new.append(v)
                frontier = new
            subgroups.add(frozenset(seen))
    types = set()
    for s in subgroups:
        members = [els[i] for i in s]
        if len(s) < len(els) and orbit_count(members, n) == 1:
            types.add(group_typeset(members))
    return tuple(sorted(types, key=sorted))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_transitive_typesets_match_all_pairs_closure(n):
    assert transitive_typesets(n) == _all_pairs_typesets(n)


def _a7_typesets():
    """The typesets of C7, 7:3 and PSL(3,2), the proper transitive subgroups
    of A_7 up to conjugacy."""
    c7 = "(1,2,3,4,5,6,7)"
    groups = [
        PermGroup(7, [cyc(c7, 7)]),
        PermGroup(7, [cyc(c7, 7), cyc("(2,3,5)(4,7,6)", 7)]),
        PermGroup(7, [cyc(c7, 7), cyc("(1,2)(3,6)", 7)]),
    ]
    assert [G.order() for G in groups] == [7, 21, 168]
    return tuple(sorted((group_typeset(G.elements) for G in groups), key=sorted))


def test_transitive_typesets_a7():
    assert transitive_typesets(7) == _a7_typesets()


def test_transitive_typesets_build_no_product_table(monkeypatch):
    """Every map comes from a base-index gather of one row of base images per
    element at most: with a `find` over an N x N array of products refused,
    the uncached function still gives the expected typesets."""
    find = _BaseIndex.find

    def one_row_per_element(self, images):
        if images.ndim != 2 or len(images) > len(self.arr):
            raise AssertionError("a product table was built")
        return find(self, images)

    monkeypatch.setattr(_BaseIndex, "find", one_row_per_element)
    # the guard bites: `all_subgroups` reads its table off N x N products
    with pytest.raises(AssertionError, match="product table"):
        all_subgroups(alternating_group(4).elements)
    build = transitive_typesets.__wrapped__
    assert build(4) == A4_TYPESETS
    assert set(build(5)) == A5_TYPESETS
    assert build(6) == _all_pairs_typesets(6)
    assert build(7) == _a7_typesets()


@pytest.mark.parametrize("n, count", [(4, 4), (5, 5), (6, 7), (7, 9)])
def test_conjugacy_classes_of_an(n, count):
    """The marking finds A_n's class number of classes; each class is a whole
    orbit under conjugation, with the identity's class last."""
    G = alternating_group(n)
    reps, conjugates, class_of = _conjugacy_classes(G.base_index)
    assert len(reps) == count
    assert reps[-1] == 0 and np.array_equal(conjugates[-1], np.zeros(G.order()))
    els = G.elements
    row = {e: i for i, e in enumerate(els)}
    for k, (x, conj) in enumerate(zip(reps, conjugates)):
        plain = [row[compose(compose(g, els[x]), inverse(g))] for g in els]
        assert conj.tolist() == plain
        assert np.flatnonzero(class_of == k).tolist() == sorted(set(plain))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_transitive_typesets_match_sympy_transitive_subgroups(n):
    """sympy lists the transitive subgroups of S_n up to conjugacy; those in A_n
    (every generator even) other than A_n itself give the typesets."""
    pytest.importorskip("sympy")
    from sympy.combinatorics import galois

    listed = {
        4: galois.S4TransitiveSubgroups,
        5: galois.S5TransitiveSubgroups,
        6: galois.S6TransitiveSubgroups,
    }[n]
    types = set()
    for member in listed:
        G = member.get_perm_group()
        if all(g.is_even for g in G.generators) and G.order() < factorial(n) // 2:
            types.add(
                frozenset(tuple(sorted(map(len, g.full_cyclic_form))) for g in G.elements)
            )
    assert transitive_typesets(n) == tuple(sorted(types, key=sorted))


def test_group_typeset():
    G = alternating_group(4)
    assert group_typeset(G.elements) == {(1, 1, 1, 1), (2, 2), (1, 3)}


def test_cycle_type_and_order():
    p = cyc("(1,2)(3,4,5)", 7)
    assert cycle_type(p) == (1, 1, 2, 3)
    assert perm_order(p) == 6


# ---------------------------------------------------------------- plain-loop oracle
#
# Each kernel against its definition written with `compose` loops: no tables,
# base images or pruning.


def _plain_enumeration(gens, n):
    """The breadth-first closure on tuples: g after w for every w of a level and
    then every generator g, in that order, keeping the products not met before."""
    ident = identity_perm(n)
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                x = compose(g, w)
                if x not in seen:
                    seen.add(x)
                    order.append(x)
                    new.append(x)
        frontier = new
    return tuple(order)


def _plain_closure(gens, n):
    return frozenset(_plain_enumeration(gens, n))


def _plain_normalizer(elements, sub):
    return [g for g in elements if all(compose(compose(g, s), inverse(g)) in sub for s in sub)]


def _plain_coset_action(G, sub):
    """Images of the left cosets g H under G's generators, the cosets numbered
    in the order they first appear among G's elements."""
    cosets = []
    for g in G.elements:
        coset = frozenset(compose(g, h) for h in sub)
        if coset not in cosets:
            cosets.append(coset)
    position = {coset: i for i, coset in enumerate(cosets)}
    return tuple(
        tuple(position[frozenset(compose(a, y) for y in coset)] for coset in cosets)
        for a in G.generators
    )


def _plain_subgroups(elements):
    """Every subgroup as a set of elements: joins of cyclic subgroups to a fixpoint
    (each subgroup is the join of its cyclic subgroups)."""
    n = len(elements[0])
    cyclic = {frozenset(cyclic_powers(g)) for g in elements}
    found = set(cyclic)
    queue = list(cyclic)
    while queue:
        h = queue.pop()
        for c in cyclic:
            if not c <= h:
                j = _plain_closure(list(h | c), n)
                if j not in found:
                    found.add(j)
                    queue.append(j)
    return found


def _plain_cyclic_subgroups(G):
    """{<g>: least generator}, one `cyclic_powers` loop per element."""
    reps = {}
    for g in G.elements:
        key = frozenset(cyclic_powers(g))
        reps[key] = min(reps.get(key, g), g)
    return reps


def _plain_metacyclic(G):
    n = G.degree
    elements = G.elements
    inverses = {g: inverse(g) for g in elements}
    out = []
    for key, c in sorted(_plain_cyclic_subgroups(G).items(), key=lambda kv: (len(kv[0]), kv[1])):
        # g normalizes <c> exactly when g c g^-1 lies in <c>
        normalizer = [g for g in elements if compose(compose(g, c), inverses[g]) in key]
        for x in sorted(normalizer):
            orb = orbit_count([c, x], n)
            if (n - orb) % 2 == 1:
                out.append((c, x, len(key), orbit_count([c], n), orb, sign(c) == 1))
    return out


def _search_rows(G, require_inertia_even=False):
    return [
        (m.c, m.x, m.inertia_order, m.orbits_inertia, m.orbits_full, m.inertia_in_alternating)
        for m in metacyclic_odd_orbit_search(G, require_inertia_even)
    ]


def _check_search_against_plain(G):
    reps, generated_by = cyclic_subgroup_representatives(G)
    plain = sorted(_plain_cyclic_subgroups(G).items(), key=lambda kv: (len(kv[0]), kv[1]))
    # the kernel returns rows; read them back as tuples
    arr = G.element_array()
    as_tuples = [(tuple(arr[c].tolist()), tuple(map(tuple, arr[p].tolist()))) for c, p in reps]
    assert as_tuples == [(c, cyclic_powers(c)) for _, c in plain]
    position = {key: k for k, (key, _) in enumerate(plain)}
    assert generated_by.tolist() == [position[frozenset(cyclic_powers(g))] for g in G.elements]
    rows = _plain_metacyclic(G)
    assert _search_rows(G) == rows
    # require_inertia_even skips every subgroup whose generator c is odd
    assert _search_rows(G, require_inertia_even=True) == [row for row in rows if row[-1]]


@pytest.mark.parametrize("name", ["S1", "S5", "PSL2(11)", "PSL2(11) on 55 points"])
def test_cycle_counts_are_orbit_counts(name):
    G = {
        "S1": lambda: symmetric_group(1),
        "S5": lambda: symmetric_group(5),
        "PSL2(11)": lambda: psl2_natural(11),
        "PSL2(11) on 55 points": psl2_11_degree55,
    }[name]()
    counts = _cycle_counts(G.element_array())
    assert counts.tolist() == [orbit_count([x], G.degree) for x in G.elements]


def _dihedral(n):
    return PermGroup(n, [tuple((i + 1) % n for i in range(n)), tuple((-i) % n for i in range(n))])


def _check_against_plain(elements, n, G):
    subs = all_subgroups(elements)
    as_sets = [frozenset(elements[i] for i in s) for s, _ in subs]
    assert len(set(as_sets)) == len(as_sets)
    assert set(as_sets) == _plain_subgroups(elements)
    for members, (_, gens) in zip(as_sets, subs):
        assert _plain_closure([elements[i] for i in gens], n) == members
    for h in as_sets:
        assert coset_action(G, h).generators == _plain_coset_action(G, h)


ORACLE_GROUPS = {
    "S4": lambda: symmetric_group(4),
    "A5": lambda: alternating_group(5),
    "PSL2(5)": lambda: psl2_natural(5),
    "D5": lambda: _dihedral(5),
    "D6": lambda: _dihedral(6),
    "D8": lambda: _dihedral(8),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_kernels_match_plain_loops(name):
    G = ORACLE_GROUPS[name]()
    _check_against_plain(list(G.elements), G.degree, G)
    _check_search_against_plain(G)


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS) + ["S1"])
def test_inverse_base_matches_the_one_shot_mask(name):
    # the per-base-point argmax against the N x n x |base| mask it replaced,
    # and against g^-1 read element by element
    G = symmetric_group(1) if name == "S1" else ORACLE_GROUPS[name]()
    arr = G.element_array()
    index = _BaseIndex(arr)
    one_shot = np.argmax(arr[:, :, None] == index.base, axis=1)
    assert index.inverse_base.dtype == one_shot.dtype
    assert np.array_equal(index.inverse_base, one_shot)
    for g, row in zip(G.elements, index.inverse_base.tolist()):
        assert row == [inverse(g)[b] for b in index.base]


ENUMERATION_GROUPS = {
    **ORACLE_GROUPS,
    **{f"PSL2({p})": (lambda p=p: psl2_natural(p)) for p in (3, 5, 7, 11, 13, 17, 19, 23)},
    **{f"S{n}": (lambda n=n: symmetric_group(n)) for n in range(1, 8)},
    **{f"A{n}": (lambda n=n: alternating_group(n)) for n in range(3, 8)},
    "PSL2(11) on 55 points": psl2_11_degree55,
    # a repeated generator and the identity as a generator
    "gens": lambda: PermGroup(
        6, [cyc("(1,2,3)", 6), cyc("(1,2,3)", 6), identity_perm(6), cyc("(3,4)(5,6)", 6)]
    ),
}


@pytest.mark.parametrize("name", sorted(ENUMERATION_GROUPS))
def test_enumeration_matches_plain_bfs_row_for_row(name):
    G = ENUMERATION_GROUPS[name]()
    plain = _plain_enumeration(G.generators, G.degree)
    assert G.element_array().tolist() == [list(e) for e in plain]
    assert G.elements == plain
    assert frozenset(G.elements) == frozenset(plain)
    assert G.order() == len(plain)
    rng = random.Random(name)
    outside = [tuple(rng.sample(range(G.degree), G.degree)) for _ in range(50)]
    assert all(e in G for e in plain)
    assert [x in G for x in outside] == [x in frozenset(plain) for x in outside]
    assert plain[0] + (G.degree,) not in G and plain[0][:-1] not in G


@pytest.mark.parametrize("n", [1, 5])
def test_enumeration_without_generators_is_the_identity(n):
    G = PermGroup(n, [])
    assert G.elements == (tuple(range(n)),)
    assert G.element_array().tolist() == [list(range(n))]
    assert G.order() == 1
    assert frozenset(G.elements) == frozenset({tuple(range(n))})


@pytest.mark.parametrize("name", ["S4", "PSL2(7)", "A6", "PSL2(11) on 55 points"])
def test_enumeration_cap_is_the_largest_order_allowed(name):
    G = ENUMERATION_GROUPS[name]()
    order = G.order()
    assert PermGroup(G.degree, G.generators, cap=order).order() == order
    with pytest.raises(CapExceeded) as err:
        PermGroup(G.degree, G.generators, cap=order - 1).element_array()
    assert str(err.value) == f"group order exceeds enumeration cap {order - 1}"


@pytest.mark.parametrize("degree, dtype, divisors", [(128, np.int8, 8), (129, np.int16, 4)])
def test_element_rows_take_the_narrowest_signed_type(degree, dtype, divisors):
    c = tuple(range(1, degree)) + (0,)
    G = PermGroup(degree, [c])
    assert G.element_array().dtype == dtype
    # the largest point, degree - 1, reads back as itself in every kernel
    elements = list(G.elements)
    assert elements[1] == c and G.element_array().max() == degree - 1
    assert centralizer_scan(G, c) == elements
    assert len(cyclic_subgroup_representatives(G)[0]) == divisors
    assert coset_action(G, cyclic_powers(c)).degree == 1


def test_enumeration_keeps_one_narrow_copy_of_the_elements():
    # tracemalloc sees numpy's buffers: PSL2(43) holds its 39,732 rows of 44
    # int8 points (1.7 MB), and a pass over the tuples leaves none behind
    tracemalloc.start()
    try:
        G = psl2_natural(43)
        G.element_array()
        assert sum(1 for _ in G.elements) == G.order() == 39732
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 3 * 10**6


# groups whose classes of cyclic subgroups have many conjugates each
CLASS_GROUPS = {
    "PSL2(11)": lambda: psl2_natural(11),
    "PSL2(13)": lambda: psl2_natural(13),
    "PSL2(11) on 55 points": psl2_11_degree55,
    "A6": lambda: alternating_group(6),
    # intransitive, with <c>-orbits of different sizes
    "gens-8": lambda: PermGroup(
        8, [cyc("(1,2,3,4)(5,6)", 8), cyc("(1,3)(7,8)", 8), cyc("(5,7)(6,8)", 8)]
    ),
}


@pytest.mark.parametrize("name", sorted(CLASS_GROUPS))
def test_class_wise_metacyclic_search_matches_plain_loop(name):
    G = CLASS_GROUPS[name]()
    _check_search_against_plain(G)


# ---------------------------------------------------------------- walks and loops
#
# The cyclic subgroups and the metacyclic search as they were computed one
# element and one subgroup at a time, before the power table and the
# per-class gathers: one walk of c's powers on the base per subgroup, and one
# lexsort of g x g^-1 per conjugate subgroup.


def _walk_power_rows(index, c):
    """The rows of c^0, c^1, ..., c^(m-1), walked on the base one power at a time."""
    start = tuple(index.base)
    images = [start]
    b = tuple(c[v] for v in start)
    while b != start:
        images.append(b)
        b = tuple(c[v] for v in b)
    return index.find(np.array(images, dtype=np.intp).reshape(len(images), len(start)))


def _walked_cyclic_subgroups(G):
    """`cyclic_subgroup_representatives` by one power walk per subgroup, from
    the first of its generators in G's order; its c^j with gcd(j, |c|) = 1 are
    then marked done, and the least of them by lexsort is the canonical one."""
    index = G.base_index
    arr = index.arr
    todo = [True] * len(arr)
    found = []  # (canonical generator, rows of its powers, rows of its generators)
    for i in range(len(arr)):
        if not todo[i]:
            continue
        rows = _walk_power_rows(index, arr[i].tolist())
        m = len(rows)
        coprime = [j for j in range(m) if gcd(j, m) == 1]
        gen_rows = rows[coprime]
        for r in gen_rows.tolist():
            todo[r] = False
        j0 = coprime[np.lexsort(arr[gen_rows].T[::-1])[0]]
        found.append((int(rows[j0]), rows[j0 * np.arange(m) % m], gen_rows))
    found.sort(key=lambda t: (len(t[1]), arr[t[0]].tolist()))
    generated_by = np.empty(len(arr), dtype=np.intp)
    reps = []
    for k, (c, powers, gen_rows) in enumerate(found):
        generated_by[gen_rows] = k
        reps.append((c, powers))
    return reps, generated_by


def _subgroupwise_search(G, require_inertia_even=False):
    """`metacyclic_odd_orbit_search` on the walked cyclic subgroups, with the
    odd x of each class carried to every conjugate subgroup g<c>g^-1 by its
    own gather and lexsort."""
    n = G.degree
    reps, generated_by = _walked_cyclic_subgroups(G)
    index = G.base_index
    arr = index.arr
    solved = {}
    out = []
    for k, (c_row, powers) in enumerate(reps):
        if k not in solved:
            conj = _conjugates(index, arr[c_row])
            orbit_reps, label = np.unique(arr[powers].min(axis=0), return_inverse=True)
            label = label.astype(arr.dtype)
            orb_i = len(orbit_reps)
            c_even = (n - orb_i) % 2 == 0
            xs = arr[np.isin(conj, powers) if c_even or not require_inertia_even else []]
            orbs = _cycle_counts(label[xs[:, orbit_reps]])
            is_odd = (n - orbs) % 2 == 1
            xs, orbs = xs[is_odd], orbs[is_odd]
            subgroups, conjugators = np.unique(generated_by[conj], return_index=True)
            for s, g in zip(subgroups.tolist(), conjugators.tolist()):
                g = arr[g]
                moved = g[xs[:, np.argsort(g)]]  # g x g^-1
                order = np.lexsort(moved.T[::-1])
                moved_odd = list(zip(map(tuple, moved[order].tolist()), orbs[order].tolist()))
                solved[s] = (orb_i, c_even, moved_odd)
        orb_i, c_even, odd = solved.pop(k)
        c = tuple(arr[c_row].tolist())
        out += [MetacyclicCandidate(c, x, len(powers), orb_i, orb_h, c_even) for x, orb_h in odd]
    return out


WALK_GROUPS = {
    **ORACLE_GROUPS,
    **{f"PSL2({p})": (lambda p=p: psl2_natural(p)) for p in (3, 5, 7, 11, 13, 17, 19, 23)},
    "PSL2(11) on 55 points": psl2_11_degree55,
    "S1": lambda: symmetric_group(1),
}


@pytest.mark.parametrize("name", sorted(WALK_GROUPS))
def test_power_table_matches_the_walk_per_subgroup(name):
    G = WALK_GROUPS[name]()
    reps, generated_by = cyclic_subgroup_representatives(G)
    walked, walked_by = _walked_cyclic_subgroups(G)
    assert [c for c, _ in reps] == [c for c, _ in walked]
    assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(reps, walked))
    assert generated_by.dtype == walked_by.dtype
    assert np.array_equal(generated_by, walked_by)


@pytest.mark.parametrize("name", sorted(WALK_GROUPS))
def test_class_gathers_match_the_lexsort_per_subgroup(name):
    G = WALK_GROUPS[name]()
    for require_inertia_even in (False, True):
        got = metacyclic_odd_orbit_search(G, require_inertia_even)
        assert got == _subgroupwise_search(G, require_inertia_even)


def test_search_peak_memory_holds():
    # tracemalloc sees numpy's buffers. The per-subgroup lexsorts peaked at
    # 6.1 MB on PSL2(29), as does the chunked gather; one gather per class,
    # unchunked, reaches 7.3 MB
    G = psl2_natural(29)
    G.base_index
    tracemalloc.start()
    try:
        metacyclic_odd_orbit_search(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 10**6


@pytest.mark.parametrize("name", ["S6", "A6", "A7", "PSL2(7)", "PSL2(11)"])
def test_centralizer_filters_match_plain_loop(name):
    # x moving no point, 2 or 3 points (where the filters read every moved
    # point), and more than 3 (where the full comparison decides), in G or not
    G = ENUMERATION_GROUPS[name]()
    n = G.degree
    elements = G.elements
    rng = random.Random(name)
    outside = [
        cyc("(1,2)", n),
        cyc("(1,2,3)", n),
        cyc("(1,2)(3,4)", n),
        cyc("(1,2)(3,4)(5,6)", n),
        tuple(rng.sample(range(n), n)),
    ]
    moved = {}
    for g in elements:
        moved.setdefault(n - fixed_points(g), []).append(g)
    xs = [identity_perm(n)] + outside + [g for k in sorted(moved) for g in moved[k][:3]]
    assert (cyc("(1,2)", n) in G) == name.startswith("S")
    for x in xs:
        assert centralizer_scan(G, x) == _plain_centralizer(G, x), x


def _kernel_results(G):
    arr = G.element_array()
    xs = [tuple(x) for x in arr[:: len(arr) // 12].tolist()]
    reps, generated_by = cyclic_subgroup_representatives(G)
    return (
        [centralizer_scan(G, x) for x in xs],
        [coset_action(G, cyclic_powers(x)).generators for x in xs],
        [(c, powers.tolist()) for c, powers in reps],
        generated_by.tolist(),
        _cycle_counts(arr).tolist(),
        metacyclic_odd_orbit_search(G),
        metacyclic_odd_orbit_search(G, require_inertia_even=True),
    )


@pytest.mark.parametrize("name", ["PSL2(13)", "gens-8"])
def test_kernels_agree_on_narrow_and_int32_rows(name):
    narrow, wide = CLASS_GROUPS[name](), CLASS_GROUPS[name]()
    wide._array = wide.element_array().astype(np.int32)  # before the base index reads it
    assert narrow.element_array().dtype == np.int8
    assert _kernel_results(narrow) == _kernel_results(wide)


def test_psl2_7_normalizers_and_metacyclic_match_plain_loops():
    # G on the cosets of each normalizer is G on that subgroup's conjugates,
    # as in psl2_11_degree55
    G = psl2_natural(7)
    a = next(g for g in G.elements if perm_order(g) == 2)
    cyclic = {frozenset(cyclic_powers(g)) for g in G.elements}
    for h in cyclic | {_plain_closure([a, g], 8) for g in G.elements}:
        N = _plain_normalizer(G.elements, h)
        assert coset_action(G, N).generators == _plain_coset_action(G, N)
    assert _search_rows(G) == _plain_metacyclic(G)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.integers(6, 8), st.randoms(use_true_random=False))
def test_small_subgroups_of_sn_match_plain_loops(n, rng):
    # seeded pairs of permutations, kept when they generate at most 32 elements
    while True:
        a, b = list(range(n)), list(range(n))
        rng.shuffle(a)
        rng.shuffle(b)
        try:
            G = PermGroup(n, [a, b], cap=32)
            G.elements
            break
        except CapExceeded:
            continue
    # a shuffled element order, so the identity is rarely first
    elements = list(G.elements)
    rng.shuffle(elements)
    _check_against_plain(elements, n, G)
    # the same group enumerated in that order (after the identity): the first
    # subgroup of each class, and the conjugators found, move with it
    H = PermGroup(n, elements)
    assert H.elements[1:] == tuple(e for e in elements if e != identity_perm(n))
    _check_search_against_plain(H)


def test_all_subgroups_identity_not_first():
    subs = all_subgroups([(1, 0), (0, 1)])
    assert subs == [(frozenset({1}), [1]), (frozenset({0, 1}), [0])]


@pytest.mark.parametrize(
    "elements",
    [
        # x = (1,2,3) without its square
        [(0, 1, 2, 3), (1, 2, 0, 3)],
        # x = (1,2,3) and y = x^-1 (3,4): x y = (3,4) agrees with the identity
        # on point 1, which alone tells the three apart
        [(0, 1, 2, 3), (1, 2, 0, 3), (2, 0, 3, 1)],
    ],
)
def test_all_subgroups_rejects_sets_not_closed(elements):
    with pytest.raises(GroupError):
        all_subgroups(elements)


def test_coset_action_where_base_codes_outgrow_the_index():
    # 11 disjoint transpositions on 64 points: order 2048, a base of 11 points,
    # which would need 64^11 codes, so the base index refuses the group
    gens = [
        tuple(2 * i + 1 - j % 2 if j // 2 == i else j for j in range(64)) for i in range(11)
    ]
    G = PermGroup(64, gens)
    assert G.order() == 2048
    h = cyclic_powers(compose(gens[0], gens[1]))
    with pytest.raises(GroupError, match="codes"):
        coset_action(G, h)


# ---------------------------------------------------------------- lattice traversal
#
# `all_subgroups` extends each subgroup s by one g per double coset s g s. The
# plain loop below takes one g per right coset s g instead: it tries more g, but
# must reach the same subgroups with the same generator lists.


def _compose_table(elements):
    index = {e: i for i, e in enumerate(elements)}
    return [[index[compose(a, b)] for b in elements] for a in elements]


def _right_coset_subgroups(elements):
    table = _compose_table(elements)

    def closure(gens):
        seen = set(gens)
        frontier = list(seen)
        while frontier:
            frontier = [x for w in frontier for g in gens if (x := table[g][w]) not in seen]
            seen.update(frontier)
        return frozenset(seen)

    found = {}
    for g in range(len(elements)):
        found.setdefault(closure([g]), [g])
    queue = sorted(found, key=sorted)
    for s in queue:
        covered = set(s)
        for g in range(len(elements)):
            if g not in covered:
                covered.update(table[e][g] for e in s)
                t = closure(found[s] + [g])
                if t not in found:
                    found[t] = found[s] + [g]
                    queue.append(t)
    return [(s, found[s]) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]


def _involutions(p):
    G = psl2_natural(p)
    ident = identity_perm(p + 1)
    return G, [g for g in G.elements if g != ident and compose(g, g) == ident]


def _involution_centralizers(p, count=None):
    G, involutions = _involutions(p)
    if count is not None:
        involutions = involutions[:: len(involutions) // count][:count]
    return [centralizer_scan(G, x) for x in involutions]


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_all_subgroups_match_right_coset_traversal(name):
    elements = ORACLE_GROUPS[name]().elements
    assert all_subgroups(elements) == _right_coset_subgroups(elements)


def _divisor_count_and_sum(m):
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    return len(divisors), sum(divisors)


@pytest.mark.parametrize("p, count", [(19, None), (43, 4)])
def test_involution_centralizer_lattices(p, count):
    # C(x) is dihedral of order p + 1 = 2m, with tau(m) + sigma(m) subgroups
    tau, sigma = _divisor_count_and_sum((p + 1) // 2)
    for C in _involution_centralizers(p, count):
        subs = all_subgroups(C)
        assert subs == _right_coset_subgroups(C)
        assert len(subs) == tau + sigma


def _double_coset(s, g, elements):
    return frozenset(compose(compose(a, elements[g]), b) for a in s for b in s)


@pytest.mark.parametrize("name", ["S4", "A5", "D8"])
def test_coset_extensions_take_one_g_per_double_coset(name):
    # the extension step of `all_subgroups`: s joined with the least g of each
    # double coset s g s reaches every <s, g> for g outside s, since
    # <s, a g b> = <s, g> for a, b in s
    elements = ORACLE_GROUPS[name]().elements
    rows = _compose_table(elements)
    cols = [list(col) for col in zip(*rows)]  # cols[a][r] = r a
    bit_rows = [[1 << x for x in row] for row in rows]
    index = {e: i for i, e in enumerate(elements)}
    whole = _mask(range(len(elements)))
    for s, gens in all_subgroups(elements):
        members = sorted(s)
        cosets = _right_cosets([bit_rows[a] for a in members])
        maps = [cols[a] for a in gens]

        def extend(g):
            return _join(_mask(s), len(s), maps + [cols[g]], cosets, len(elements))

        tried = list(_double_coset_reps(_mask(s), [cols[b] for b in members], cosets, whole))
        extensions = [extend(g) for g in tried]
        closures = [_plain_closure([elements[i] for i in gens + [g]], len(elements[0])) for g in tried]
        assert extensions == [_mask(index[e] for e in t) for t in closures]
        outside = [g for g in range(len(elements)) if g not in s]
        assert set(extensions) == {extend(g) for g in outside}


# small groups where the Lagrange skip (|G|/|s| is 1 or prime) records the
# whole group, and the trivial group, where <e> is never extended
PRUNING_GROUPS = {
    "trivial": lambda: PermGroup(1, []),
    "C2": lambda: PermGroup(2, [(1, 0)]),
    "C7": lambda: PermGroup(7, [tuple((i + 1) % 7 for i in range(7))]),
    "V4": lambda: PermGroup(4, [cyc("(1,2)(3,4)", 4), cyc("(1,3)(2,4)", 4)]),
    "C2^3": lambda: PermGroup(6, [cyc("(1,2)", 6), cyc("(3,4)", 6), cyc("(5,6)", 6)]),
    # left multiplication by i and j on 1, -1, i, -i, j, -j, k, -k
    "Q8": lambda: PermGroup(8, [(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)]),
    "D4": lambda: _dihedral(4),
}


@pytest.mark.parametrize("name", sorted(PRUNING_GROUPS))
def test_all_subgroups_match_right_coset_traversal_on_small_groups(name):
    G = PRUNING_GROUPS[name]()
    elements = list(G.elements)
    if name == "Q8":  # one involution, so not D4
        assert len(elements) == 8 and sum(perm_order(e) == 2 for e in elements) == 1
    assert all_subgroups(elements) == _right_coset_subgroups(elements)


@pytest.mark.parametrize("name", ["C7", "C2^3", "Q8", "D4", "S4"])
def test_all_subgroups_match_right_coset_traversal_with_identity_not_first(name):
    elements = list({**PRUNING_GROUPS, **ORACLE_GROUPS}[name]().elements)
    assert elements[0] == identity_perm(len(elements[0]))
    rest = elements[1:]
    shuffled = random.Random(name).sample(rest, len(rest))
    for order in (rest + elements[:1], shuffled[:1] + elements[:1] + shuffled[1:]):
        assert all_subgroups(order) == _right_coset_subgroups(order)


# lattices that are not dihedral. Over these shuffles the half-order,
# prime-index and extended-cyclic rules of `all_subgroups` all fire in A4,
# C5:C4, S4 and PSL2(7), and Q12 walks no join at all; in C3 x C3 every proper
# subgroup but <e> has prime index, so nothing is joined. An example shuffles
# all the elements, the identity too
SHUFFLED_GROUPS = {
    "C3xC3": (lambda: PermGroup(6, [cyc("(1,2,3)", 6), cyc("(4,5,6)", 6)]), 30),
    "A4": (lambda: alternating_group(4), 30),
    # C3 : C4 with one involution, (4,6)(5,7)
    "Q12": (lambda: PermGroup(7, [cyc("(1,2,3)", 7), cyc("(2,3)(4,5,6,7)", 7)]), 30),
    # x -> x + 1 and x -> 2x on Z/5
    "C5:C4": (lambda: PermGroup(5, [cyc("(1,2,3,4,5)", 5), cyc("(2,3,5,4)", 5)]), 30),
    "S4": (lambda: symmetric_group(4), 30),
    # each oracle lattice takes about 0.4 s
    "PSL2(7)": (lambda: psl2_natural(7), 8),
}


@pytest.mark.parametrize("name", sorted(SHUFFLED_GROUPS))
def test_all_subgroups_match_right_coset_traversal_on_shuffles(name):
    build, examples = SHUFFLED_GROUPS[name]
    G = build()
    if name == "Q12":
        assert G.order() == 12 and sum(perm_order(e) == 2 for e in G.elements) == 1

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False))
    def check(rng):
        elements = list(G.elements)
        rng.shuffle(elements)
        assert all_subgroups(elements) == _right_coset_subgroups(elements)

    check()


LATTICE_DIGESTS = {
    19: "8e18a14db58b1d38ff75648e30191259a3ec5bfad1b3be3ceb6ac8ec18033e5d",
    43: "4c1a5c8b5c266615b80cce7e2f5f336026bb9f5480f39c9dc94ca2ac6db3aa9f",
}


@pytest.mark.parametrize("p, count", [(19, None), (43, 60)])
def test_benchmark_scale_lattices_are_pinned(p, count):
    # sha256 of the lattices of every PSL2(19) involution centralizer and of 60
    # seeded PSL2(43) ones, taken from the traversal with one whole closure per
    # double coset: the same sets, generator lists and order
    G, involutions = _involutions(p)
    if count is not None:
        involutions = random.Random(f"lattices/{p}").sample(involutions, count)
    lattices = [
        [(sorted(s), gens) for s, gens in all_subgroups(centralizer_scan(G, x))]
        for x in involutions
    ]
    assert hashlib.sha256(repr(lattices).encode()).hexdigest() == LATTICE_DIGESTS[p]


def _lattice_and_joins(monkeypatch, elements):
    """all_subgroups of the elements, and the number of joins it walks."""
    calls = []
    join = permgroup_module._join
    monkeypatch.setattr(permgroup_module, "_join", lambda *args: calls.append(args) or join(*args))
    return all_subgroups(elements), len(calls)


def test_lagrange_skip_saves_joins_on_a_psl2_43_centralizer(monkeypatch):
    # C(x) is dihedral of order 44: its 11 Klein four-groups have the prime
    # index 11, so they are not extended, where a rule that extends s while
    # 2|s| <= |G|/2 made 239 joins in all. Walking every other join took 190;
    # the rules that settle joins without a walk leave 13 of them
    subs, joins = _lattice_and_joins(monkeypatch, _involution_centralizers(43, 1)[0])
    tau, sigma = _divisor_count_and_sum(22)
    assert len(subs) == tau + sigma
    assert joins == 13


def test_lagrange_rules_save_joins_on_a_psl2_19_centralizer(monkeypatch):
    # C(x) is dihedral of order 20; walking every join left by the Lagrange
    # skip took 60
    subs, joins = _lattice_and_joins(monkeypatch, _involution_centralizers(19, 1)[0])
    tau, sigma = _divisor_count_and_sum(10)
    assert len(subs) == tau + sigma
    assert joins == 7


def test_half_order_rule_saves_joins_on_lattices_that_are_not_dihedral(monkeypatch):
    # in G's order; X = s | <g> | <a g> without <g> walks 1, 4, 36 and 10 joins
    # here, the other rules without the half-order one 1, 4, 42 and 27, and a
    # walk of every join the Lagrange skip leaves 6, 22, 90 and 46
    joins = {
        name: _lattice_and_joins(monkeypatch, build().elements)[1]
        for name, build in (
            ("Q12", SHUFFLED_GROUPS["Q12"][0]),
            ("C5:C4", SHUFFLED_GROUPS["C5:C4"][0]),
            ("S4", ORACLE_GROUPS["S4"]),
            ("D8", ORACLE_GROUPS["D8"]),
        )
    }
    assert joins == {"Q12": 0, "C5:C4": 3, "S4": 35, "D8": 6}


def _mask(indices):
    return sum(1 << i for i in indices)


@pytest.mark.parametrize("name", ["S4", "A5", "D8"])
def test_double_coset_reps_take_one_g_per_double_coset(name):
    elements = ORACLE_GROUPS[name]().elements
    rows = _compose_table(elements)
    cols = [list(col) for col in zip(*rows)]  # cols[b][g] = g b
    bit_rows = [[1 << x for x in row] for row in rows]
    index = {e: i for i, e in enumerate(elements)}
    whole = _mask(range(len(elements)))
    for s, _ in all_subgroups(elements):
        members = sorted(s)
        cosets = _right_cosets([bit_rows[a] for a in members])
        assert cosets == [_mask(rows[a][x] for a in s) for x in range(len(elements))]
        members_perms = frozenset(elements[i] for i in s)
        tried = list(_double_coset_reps(_mask(s), [cols[b] for b in members], cosets, whole))
        assert tried == sorted(tried)
        doubles = [_double_coset(members_perms, g, elements) for g in tried]
        assert len(set(doubles)) == len(doubles)
        assert not any(members_perms & d for d in doubles)
        assert frozenset().union(members_perms, *doubles) == frozenset(elements)
        # each g is the first of its double coset in the group's order
        assert tried == [min(index[e] for e in d) for d in doubles]


@pytest.mark.parametrize("name", ["A5", "A6", "PSL2(7)", "D8"])
def test_join_is_none_exactly_past_its_limit(name):
    G = {
        "A5": alternating_group(5),
        "A6": alternating_group(6),
        "PSL2(7)": psl2_natural(7),
        "D8": _dihedral(8),
    }[name]
    elements = G.elements
    rows = _compose_table(elements)
    cols = [list(col) for col in zip(*rows)]  # cols[a][r] = r a
    bit_rows = [[1 << x for x in row] for row in rows]
    index = {e: i for i, e in enumerate(elements)}

    def indices(gens):
        return sorted(index[e] for e in _plain_closure([elements[g] for g in gens], G.degree))

    rng = random.Random(f"join/{name}")
    for s, gens in all_subgroups(elements):
        members = sorted(s)
        cosets = _right_cosets([bit_rows[a] for a in members])
        outside = [g for g in range(len(elements)) if g not in s]
        # s with its generators and one g outside it, as `all_subgroups` joins them
        for g in rng.sample(outside, min(3, len(outside))):
            t = _mask(indices(gens + [g]))
            limits = (t.bit_count() - 1, t.bit_count(), len(elements) // 2)
            # s itself is within the limit: `all_subgroups` joins no larger s
            for limit in (limit for limit in limits if limit >= len(s)):
                expected = None if t.bit_count() > limit else t
                got = _join(_mask(s), len(s), [cols[a] for a in gens + [g]], cosets, limit)
                assert got == expected


@pytest.mark.parametrize("name", ["A5", "A6", "PSL2(7)"])
def test_proper_closure_is_none_exactly_past_its_limit(name):
    # closures of 1-3 random generators, joined from <e> and, as
    # `transitive_typesets` joins them, from <first generator>
    G = {"A5": alternating_group(5), "A6": alternating_group(6), "PSL2(7)": psl2_natural(7)}[name]
    elements = G.elements
    rows = _compose_table(elements)
    cols = [list(col) for col in zip(*rows)]  # cols[a][r] = r a
    bit_rows = [[1 << x for x in row] for row in rows]
    index = {e: i for i, e in enumerate(elements)}

    def indices(gens):
        return sorted(index[e] for e in _plain_closure([elements[g] for g in gens], G.degree))

    rng = random.Random(f"proper-closure/{name}")
    identity = index[tuple(range(G.degree))]
    for _ in range(40):
        gens = rng.sample(range(len(elements)), rng.randint(1, 3))
        H = _mask(indices(gens))
        limits = (H.bit_count() - 1, H.bit_count(), len(elements) // G.degree)
        limits += (rng.randint(1, len(elements)),)
        for members in ([identity], indices(gens[:1])):
            cosets = _right_cosets([bit_rows[a] for a in members])
            # s itself is within the limit: both callers take no larger s
            for limit in (limit for limit in limits if limit >= len(members)):
                expected = None if H.bit_count() > limit else H
                got = _join(_mask(members), len(members), [cols[a] for a in gens], cosets, limit)
                assert got == expected
