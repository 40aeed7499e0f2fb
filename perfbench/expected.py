"""Regenerate expected_counts.json: the number of odd-orbit metacyclic pairs
of each orbit-search request, enumerated apart from the program.

    python3 perfbench/expected.py

A pair is (c, x) with c one generator per cyclic subgroup <c> (the trivial
one included), x in the normalizer of <c>, and n - |orbits of <c, x>| odd.
The count does not depend on which generator represents <c>. PSL2(p) comes
from 2x2 matrices (checks.psl2_elements); the degree-55 action is PSL2(11)
acting by conjugation on the 55 conjugates of the normalizer of a cyclic
subgroup of order 6. Takes a few seconds, so runs do not repeat it.
"""

from __future__ import annotations

import json

from checks import EXPECTED_COUNTS, compose, invert, orbit_total, powers, psl2_elements


def odd_orbit_pairs(elements, n: int) -> int:
    subgroups = {}
    for g in sorted(elements):
        subgroups.setdefault(frozenset(powers(g)), g)
    total = 0
    for key, c in subgroups.items():
        for x in elements:
            if compose(compose(x, c), invert(x)) in key and (n - orbit_total([c, x], n)) % 2:
                total += 1
    return total


def conjugation_action_55() -> set:
    G = sorted(psl2_elements(11))
    c6 = next(g for g in G if len(powers(g)) == 6)
    C = frozenset(powers(c6))
    N = [g for g in G if compose(compose(g, c6), invert(g)) in C]
    assert len(N) == 12, len(N)

    def conj(g, S):
        gi = invert(g)
        return frozenset(compose(compose(g, s), gi) for s in S)

    points = sorted({conj(g, N) for g in G}, key=sorted)
    assert len(points) == 55, len(points)
    index = {S: i for i, S in enumerate(points)}
    return {tuple(index[conj(g, S)] for S in points) for g in G}


def main() -> None:
    counts = {
        "psl2 11": odd_orbit_pairs(psl2_elements(11), 12),
        "psl2 11 --action deg55": odd_orbit_pairs(conjugation_action_55(), 55),
        "psl2 13": odd_orbit_pairs(psl2_elements(13), 14),
    }
    EXPECTED_COUNTS.write_text(json.dumps(counts, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(counts))


if __name__ == "__main__":
    main()
