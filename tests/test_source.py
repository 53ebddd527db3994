"""Rules on the source, read with ``ast``.  On the library: the runtime
imports only the standard library and itself, every name a module imports
is read in it, no module reads the environment, the oracle takes from
the structural rules it certifies only the type it returns, and no other
module names those rules.  On the tests: every top-level function, class
and constant of a module under ``tests/``, other than the tests, the pytest
hooks and the fixtures, is read somewhere under ``tests/`` outside its own
definition, so a deleted comparison leaves no reference behind."""

import ast
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "invgen"
MODULES = sorted(SRC.glob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))
REFERENCE_MODULES = {path.stem for path in TEST_MODULES}
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}
RULES = {"maximal_subgroup_classes", "label_meets", "build_profiles"}


@lru_cache(maxsize=None)
def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_roots(tree) -> set[str]:
    """The top-level package of every import; a relative import is invgen."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots.add("invgen" if node.level else node.module.split(".")[0])
    return roots


def unused_imports(tree) -> set[str]:
    """The names an import binds that the module never reads, at any depth."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound - {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def names_from(tree, module: str) -> set[str]:
    """The names a from-import takes from ``module`` (a relative import is
    read inside invgen), and the dotted name of ``module`` itself where the
    whole module is imported."""
    package, _, leaf = module.rpartition(".")
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {module for alias in node.names if alias.name == module}
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                source = f"invgen.{source}".rstrip(".")
            if source == module:
                names |= {alias.name for alias in node.names}
            elif source == package:
                names |= {module for alias in node.names if alias.name == leaf}
    return names


def identifiers(tree) -> set[str]:
    """Every name the code binds, reads or imports, and every attribute it
    reads; strings and docstrings are not code."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


def reads_environment(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            return True
        if isinstance(node, ast.Name) and node.id in ENVIRONMENT:
            return True
        if isinstance(node, ast.ImportFrom) and any(a.name in ENVIRONMENT for a in node.names):
            return True
    return False


def reads(node) -> set[str]:
    """Every name other than its own locals, and every attribute of a test
    reference module, that the statement ``node`` reads; a name it binds,
    as a parameter or by assignment, is a local throughout it."""
    loads, local = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            (loads if isinstance(n.ctx, ast.Load) else local).add(n.id)
        elif isinstance(n, ast.arg):
            local.add(n.arg)
        elif isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in REFERENCE_MODULES:
            loads.add(n.attr)
    return loads - local


@lru_cache(maxsize=None)
def statement_reads(tree) -> frozenset[str]:
    """Every name that some top-level statement of ``tree`` reads."""
    return frozenset().union(*map(reads, tree.body))


def is_fixture(node) -> bool:
    """Whether a definition is decorated ``pytest.fixture``, called or not."""
    return any(isinstance(d, ast.Attribute) and d.attr == "fixture"
               for d in (getattr(d, "func", d) for d in node.decorator_list))


def unread_definitions(tree, elsewhere) -> set[str]:
    """The top-level functions, classes and constants of ``tree`` that no
    other statement of it reads and that are not in ``elsewhere``, the
    names read outside it; tests, pytest hooks and fixtures are read by
    pytest."""
    own = [reads(node) for node in tree.body]
    readers = Counter(name for names in own for name in names)  # statements reading each
    unread = set()
    for node, names_read in zip(tree.body, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node.name.startswith(("test_", "pytest_")) or is_fixture(node)):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
        else:
            continue
        unread |= {n for n in names - elsewhere if readers[n] == (n in names_read)}
    return unread


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "gf.py", "oracle.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_invgen(path):
    foreign = imported_roots(parse(path)) - set(sys.stdlib_module_names) - {"invgen"}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    unused = unused_imports(parse(path))
    assert not unused, f"{path.name} imports {sorted(unused)} without reading them"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_reads_the_environment(path):
    assert not reads_environment(parse(path)), f"{path.name} reads the environment"


def test_the_cli_reads_no_environment():
    # no option of the package comes from the environment
    assert not reads_environment(parse(SRC / "cli.py"))


def test_the_oracle_reads_one_name_of_the_structural_rules():
    # Psi2Table is the type it returns; its exit bound comes from q alone
    assert names_from(parse(SRC / "oracle.py"), "invgen.structure") == {"Psi2Table"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "structure.py"],
                         ids=lambda p: p.name)
def test_only_structure_names_the_rules(path):
    # the census is the one reader of Dickson's list and its rules
    named = identifiers(parse(path)) & RULES
    assert not named, f"{path.name} names {sorted(named)}"


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_every_reference_is_read(path):
    elsewhere = set().union(*(statement_reads(parse(p)) for p in TEST_MODULES if p != path))
    unread = unread_definitions(parse(path), elsewhere)
    assert not unread, f"{path.name} defines {sorted(unread)}, which no test reads"


@pytest.mark.parametrize("source,other,expected", [
    ("def f(): pass\ndef g(): f()", "", {"g"}),
    ("def f(): return f()", "", {"f"}),
    ("X = 1\nY: int = 2\nclass C: pass", "from helpers import X, C\nC()", {"X", "Y"}),
    ("def f(): pass", "import helpers\nhelpers.f()", set()),
    ("def f(): pass\ndef g(f): f()", "def h():\n    f = 1\n    return f", {"f", "g"}),
    ("def f(): pass", "s.f", {"f"}),
    ("def test_f(): pass\ndef pytest_configure(config): pass", "", set()),
    ("@pytest.fixture\ndef f(): pass\n@pytest.fixture(scope='module')\ndef g(): pass\n"
     "@other\ndef h(): pass", "", {"h"}),
], ids=["caller", "recursion", "import-only", "attribute", "shadowed", "field", "tests-and-hooks",
        "fixtures"])
def test_unread_definitions_are_recognised(source, other, expected):
    assert unread_definitions(ast.parse(source), statement_reads(ast.parse(other))) == expected


@pytest.mark.parametrize("source,expected", [
    ("from invgen.structure import label_meets as lm", {"label_meets", "lm"}),
    ("import invgen.structure.build_profiles", {"build_profiles"}),
    ("structure.maximal_subgroup_classes(ctx)", {"maximal_subgroup_classes"}),
    ("def label_meets(): pass", {"label_meets"}),
    ("'label_meets'\nx = 'build_profiles'", set()),
], ids=["alias", "dotted-import", "attribute", "def", "strings"])
def test_rule_names_are_recognised(source, expected):
    assert identifiers(ast.parse(source)) & (RULES | {"lm"}) == expected


@pytest.mark.parametrize("source,expected", [
    ("from invgen.structure import A, b", {"A", "b"}),
    ("from .structure import A", {"A"}),
    ("from invgen import structure", {"invgen.structure"}),
    ("from . import gf, structure", {"invgen.structure"}),
    ("import invgen.structure", {"invgen.structure"}),
    ("from invgen.psl2 import A\nimport invgen.structures", set()),
], ids=["names", "relative", "module", "relative-module", "import", "other"])
def test_names_from_a_module_are_recognised(source, expected):
    assert names_from(ast.parse(source), "invgen.structure") == expected


@pytest.mark.parametrize("source,expected", [
    ("import os\nos.environ.get('X')", True),
    ("import os\nos.getenv('X')", True),
    ("from os import environ", True),
    ("from os import getenv as g\ng('X')", True),
    ("import os\nos.path.join('a', 'b')", False),
], ids=["environ", "getenv", "from-environ", "from-getenv", "os-path"])
def test_environment_reads_are_recognised(source, expected):
    assert reads_environment(ast.parse(source)) is expected


@pytest.mark.parametrize("source,expected", [
    ("import numpy.linalg", {"numpy"}),
    ("from . import gf", {"invgen"}),
    ("from invgen.gf import GFContext\nimport json", {"invgen", "json"}),
], ids=["dotted", "relative", "from-and-import"])
def test_import_roots_are_recognised(source, expected):
    assert imported_roots(ast.parse(source)) == expected


@pytest.mark.parametrize("source,expected", [
    ("import os.path\nos.sep", set()),
    ("from a import b, c\nb()", {"c"}),
    ("from a import b as c\nb", {"c"}),
    ("from __future__ import annotations", set()),
    ("def f() -> None:\n    from a import B\nx: B", set()),
    ("import json\njson = 1", {"json"}),
], ids=["dotted", "one-of-two", "alias", "future", "annotation", "store-only"])
def test_unused_imports_are_recognised(source, expected):
    assert unused_imports(ast.parse(source)) == expected
