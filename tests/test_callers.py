"""Every top-level function and every method of a top-level class of
`rootgain` has a caller in `src/`.

A function or method that only its own definition mentions is dead code
unless it is kept on purpose; each kept public one names why, and no private
one is kept. Names are resolved through imports: a top-level function counts
as called only where its name is read in its own module, or in a module that
imports it with `from .module import name`, so a local variable or parameter
of the same name elsewhere is not a caller. Methods are keyed `Class.name`,
and a method counts as called only where its name is read as an attribute
(the scan reads names, not types). Reads inside a definition's own body do
not count.

The record of a polynomial's facts, `algebra.PolyFacts`, is read from other
modules only through its public members: no other module names one of its
`_`-prefixed members (matched by attribute name).

Every name a module imports is read in that module, `__init__.py` included,
so the package re-exports nothing, and each module imports on its own in a
fresh interpreter: nothing imports the modules in a fixed order first, which
could hide an import cycle.

All arithmetic is exact and every run is the same: no module has a float
literal, names `float`, imports `random`, or uses a `math` function other
than gcd, isqrt and lcm.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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
    "sign": "the tests' oracle for I_in_An",
    "PermGroup.elements": "how the benchmark and the acceptance tests read G as tuples",
}


def _references(sources=None):
    """(top-level functions by name and methods of top-level classes by
    `Class.name`, each mapped to its module and definition; the keys with a
    caller) over `sources`, module name -> source text (default: src/).

    A function is called where its name is read as a bare name in its own
    module, or in a module that binds it with `from .module import name`; a
    method is called where its name is read as an attribute. Reads inside the
    function's or method's own definition do not count."""
    if sources is None:
        sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[node.name] = module, node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defined[f"{node.name}.{sub.name}"] = module, sub

    def reads(node, kind):
        """How often each name is read under node, as a bare name (kind
        ast.Name) or as an attribute (kind ast.Attribute)."""
        return Counter(
            sub.id if kind is ast.Name else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, kind) and isinstance(sub.ctx, ast.Load)
        )

    names = {module: reads(tree, ast.Name) for module, tree in trees.items()}
    attributes = sum((reads(tree, ast.Attribute) for tree in trees.values()), Counter())
    bound = {}  # (defining module, name) -> [(importing module, name bound there)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound.setdefault((node.module, alias.name), []).append(
                        (module, alias.asname or alias.name)
                    )
    referenced = set()
    for key, (module, node) in defined.items():
        if "." in key:
            count = attributes[node.name] - reads(node, ast.Attribute)[node.name]
        else:
            count = names[module][node.name] - reads(node, ast.Name)[node.name]
            count += sum(names[m][name] for m, name in bound.get((module, node.name), []))
        if count > 0:
            referenced.add(key)
    return defined, referenced


def test_the_caller_scan_resolves_names_through_imports():
    sources = {
        "a": """
def sign(x):
    return x

def order(g):
    return order(g.gens)

class G:
    def elements(self):
        return self.elements()

    def degree(self):
        return 1
""",
        "b": """
from .a import order as size

def f(g, elements):
    sign = size(g) + g.degree()
    return sign, elements
""",
    }
    defined, referenced = _references(sources)
    assert sorted(set(defined) - referenced) == ["G.elements", "f", "sign"]


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


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__"))
def test_each_module_imports_on_its_own(module):
    path = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run(
        [sys.executable, "-c", f"import rootgain.{module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


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
