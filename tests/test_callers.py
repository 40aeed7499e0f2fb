"""Every top-level function of `rootgain` has a caller in `src/`.

A function that only its own definition mentions is dead code unless it is
kept on purpose; each kept public one names why, and no private one is kept.
Package exports (`from .x import name` in `__init__.py`) are not callers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rootgain"

KEEP = {
    "centralizer_scan": "named by an acceptance criterion, and the benchmark's centralizers",
    "klein_four_local": "named by an acceptance criterion (the worked biquadratic field)",
    "orbit_simulation_root_number": "the independent oracle of the node engine",
    "global_root_semistable": "a test oracle for W(E/Q), and the caller-to-be of ROADMAP item 14",
    "factor_degrees": "a test oracle for the Frobenius patterns, and ROADMAP item 3's factorizer",
    "is_irreducible_mod_p": "a test oracle for the Frobenius patterns, and ROADMAP item 3's factorizer",
    "inverse": "an independent oracle in tests for the row kernels",
    "fixed_points": "an independent oracle in tests for the row kernels",
    "cyclic_powers": "an independent oracle in tests for the cyclic-subgroup walk",
    "an_certificate": "a library entry point: its tests and the benchmark's A_n requests call it",
    "all_subgroups": "a library entry point: acceptance tests and the benchmark's lattices call it",
    "resultant": "a library entry point: discriminant reads the same _prs scalar off PolyFacts",
}


def _references():
    """(top-level functions by name, names referenced in src/ outside each
    function's own definition)."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defined = {
        node.name: node
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    counts = {}
    for tree in trees:
        for name in names(tree):
            counts[name] = counts.get(name, 0) + 1
    for name, node in defined.items():
        counts[name] = counts.get(name, 0) - sum(1 for n in names(node) if n == name)
    return defined, {name for name, count in counts.items() if count > 0}


def test_every_public_function_has_a_caller_or_a_reason():
    defined, referenced = _references()
    public = {name for name in defined if not name.startswith("_")}
    uncalled = sorted(public - referenced - set(KEEP))
    assert uncalled == [], f"public functions with no caller in src/: {uncalled}"


def test_every_private_function_has_a_caller():
    defined, referenced = _references()
    private = {name for name in defined if name.startswith("_")}
    uncalled = sorted(private - referenced)
    assert uncalled == [], f"private functions with no caller in src/: {uncalled}"


def test_keep_list_names_only_uncalled_functions():
    defined, referenced = _references()
    assert set(KEEP) <= set(defined)
    assert sorted(set(KEEP) & referenced) == []
    assert all(reason for reason in KEEP.values())
