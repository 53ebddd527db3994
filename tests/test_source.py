"""Rules on the library source itself, read with ``ast``: the runtime imports
only the standard library and itself, every name a module imports is read
in it, only the CLI reads the environment, and the oracle takes from the
structural rules it certifies only the two names it needs."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "invgen"
MODULES = sorted(SRC.glob("*.py"))
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


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


def reads_environment(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            return True
        if isinstance(node, ast.Name) and node.id in ENVIRONMENT:
            return True
        if isinstance(node, ast.ImportFrom) and any(a.name in ENVIRONMENT for a in node.names):
            return True
    return False


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


def test_the_oracle_reads_two_names_of_the_structural_rules():
    # exit_bound, the largest order maximal_subgroup_classes lists, is the
    # oracle's one dependence on the rules it certifies; Psi2Table is the
    # type it returns
    assert names_from(parse(SRC / "oracle.py"), "invgen.structure") == {
        "Psi2Table", "maximal_subgroup_classes"}


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
