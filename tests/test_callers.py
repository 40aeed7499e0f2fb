"""Every top-level function and every method of a top-level class of
`rootgain` has a caller in `src/`.

A function or method that only its own definition mentions is dead code
unless it is kept on purpose; each kept public one names why, and no private
one is kept. Methods are keyed `Class.name`, and a method counts as called
when its name is referenced anywhere in `src/` outside its own definition
(the scan reads names, not types). Package exports (`from .x import name` in
`__init__.py`) are not callers.

The record of a polynomial's facts, `algebra.PolyFacts`, is read from other
modules only through its public members: no other module names one of its
`_`-prefixed members (matched by attribute name).

Every name a module imports is read in that module, except in `__init__.py`,
whose imports are the package exports.

All arithmetic is exact and every run is the same: no module has a float
literal, names `float`, imports `random`, or uses a `math` function other
than gcd, isqrt and lcm.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rootgain"

KEEP = {
    "centralizer_scan": "named by an acceptance criterion, and the benchmark's centralizers",
    "klein_four_local": "named by an acceptance criterion (the worked biquadratic field)",
    "orbit_simulation_root_number": "the independent oracle of the node engine",
    "global_root_semistable": "a test oracle for W(E/Q), and the caller-to-be of ROADMAP item 14",
    "inverse": "an independent oracle in tests for the row kernels",
    "fixed_points": "an independent oracle in tests for the row kernels",
    "cyclic_powers": "an independent oracle in tests for the cyclic-subgroup power table",
    "an_certificate": "a library entry point: its tests and the benchmark's A_n requests call it",
    "all_subgroups": "a library entry point: acceptance tests and the benchmark's lattices call it",
    "resultant": "its values are hashed by the pinned corpus digest of tests/test_algebra.py",
    "EllipticCurveData.rescale": "the change of model that the reduction-type tests hold invariant",
}


def _references():
    """(top-level functions by name and methods of top-level classes by
    `Class.name`, names referenced in src/ outside each one's own
    definition)."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defined = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defined[f"{node.name}.{sub.name}"] = sub

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
    referenced = set()
    for key, node in defined.items():
        own = sum(1 for n in names(node) if n == node.name)
        if counts.get(node.name, 0) - own > 0:
            referenced.add(key)
    return defined, referenced


def _private(key):
    name = key.rsplit(".", 1)[-1]
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_public_function_has_a_caller_or_a_reason():
    defined, referenced = _references()
    public = {key for key in defined if not key.rsplit(".", 1)[-1].startswith("_")}
    uncalled = sorted(public - referenced - set(KEEP))
    assert uncalled == [], f"public functions and methods with no caller in src/: {uncalled}"


def test_every_private_function_has_a_caller():
    defined, referenced = _references()
    private = {key for key in defined if _private(key)}
    uncalled = sorted(private - referenced)
    assert uncalled == [], f"private functions and methods with no caller in src/: {uncalled}"


def test_keep_list_names_only_uncalled_functions():
    defined, referenced = _references()
    assert set(KEEP) <= set(defined)
    assert sorted(set(KEEP) & referenced) == []
    assert all(reason for reason in KEEP.values())


def _polyfacts_private_members():
    """The `_`-prefixed methods, properties and `self.` attributes of PolyFacts."""
    tree = ast.parse((SRC / "algebra.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PolyFacts"]
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
            names.add(node.attr)
    return {name for name in names if _private(name)}


def test_polyfacts_private_members_are_named_only_in_algebra():
    private = _polyfacts_private_members()
    assert {"_patterns", "_model", "_bad"} <= private
    outside = sorted(
        f"{path.name}:{node.lineno} {node.attr}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "algebra.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in private
    )
    assert outside == [], f"private PolyFacts members named outside algebra.py: {outside}"


def _unused_imports(tree):
    """(line, name) for each name bound by an import in a module's syntax tree
    (`__future__` features aside) that no expression of the module reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


def test_every_imported_name_is_read():
    found = sorted(
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text()))
    )
    assert found == [], f"imported names never read in src/: {found}"


def test_the_import_scan_finds_each_unread_name():
    source = """
from __future__ import annotations
import os.path
import numpy as np
from .algebra import PolyQ, valuation
from math import gcd, lcm
def f(x: PolyQ):
    import json
    return np.array([gcd(x, 2)])
"""
    found = sorted(name for _, name in _unused_imports(ast.parse(source)))
    assert found == ["json", "lcm", "os", "valuation"]


EXACT_MATH = {"gcd", "isqrt", "lcm"}


def _inexact_or_seeded(tree):
    """(line, what) for each float literal, name `float`, import of `random`
    and `math` function outside EXACT_MATH in a module's syntax tree."""
    math_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    yield node.lineno, "import random"
                elif alias.name == "math":
                    math_names.add(alias.asname or "math")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield node.lineno, "from random import"
            elif node.module == "math":
                for alias in node.names:
                    if alias.name not in EXACT_MATH:
                        yield node.lineno, f"math.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "float"
        elif (
            isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) in math_names
            and node.attr not in EXACT_MATH
        ):
            yield node.lineno, f"math.{node.attr}"


def test_no_module_uses_floats_random_or_inexact_math():
    found = sorted(
        f"{path.name}:{line} {what}"
        for path in sorted(SRC.glob("*.py"))
        for line, what in _inexact_or_seeded(ast.parse(path.read_text()))
    )
    assert found == [], f"inexact or seeded code in src/: {found}"


def test_the_exactness_scan_finds_each_kind():
    source = """
import random
import math as m
from math import gcd, sqrt
from random import choice
x = 0.5 + float(1) + m.log(2) + m.isqrt(4) + gcd(2, 4)
"""
    found = sorted(what for _, what in _inexact_or_seeded(ast.parse(source)))
    assert found == [
        "float", "from random import", "import random", "literal 0.5", "math.log", "math.sqrt"
    ]
