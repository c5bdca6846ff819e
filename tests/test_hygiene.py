"""Source hygiene: every name a module imports from the package is used
and public, every private module-level function and class is used in
its own module, every public one is used in the package unless it is an
entry point, every exception class the package defines derives from
ProverError, no module builds a self-referencing closure, the proof core
never names LamApp, and importing the command line loads no heavy stdlib
module."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import hintprover

PACKAGE = Path(hintprover.__file__).resolve().parent


def _unused_relative_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def test_no_unused_relative_imports():
    assert MODULES
    unused = [
        f"{p.name}:{line}: {name}"
        for p in MODULES
        for line, name in _unused_relative_imports(p.read_text())
    ]
    assert unused == []


def test_package_exceptions_derive_from_prover_error():
    from hintprover.sexpr import ProverError

    defined = [
        cls
        for p in MODULES
        for _, cls in inspect.getmembers(importlib.import_module(f"hintprover.{p.stem}"),
                                         inspect.isclass)
        if cls.__module__ == f"hintprover.{p.stem}" and issubclass(cls, BaseException)
    ]
    assert len(defined) >= 9
    assert [c.__qualname__ for c in defined if not issubclass(c, ProverError)] == []


def test_unused_import_is_reported():
    src = "from .sexpr import NIL, T\n\nx = T\n"
    assert _unused_relative_imports(src) == [(1, "NIL")]


def _private_relative_imports(source: str):
    """(line, name) of each _-prefixed name imported from a package module."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_no_module_imports_a_private_name():
    # a name another module needs is public in its own
    found = [
        f"{p.name}:{line}: {name}"
        for p in MODULES
        for line, name in _private_relative_imports(p.read_text())
    ]
    assert found == []


def test_private_import_is_reported():
    src = "from .hints import _parse, parse\nfrom os import _exit\n"
    assert _private_relative_imports(src) == [(1, "_parse")]


def _unnamed_private_definitions(source: str):
    """(line, name) of each module-level _-prefixed function or class that
    no other statement of the module names: a dead private helper."""
    body = ast.parse(source).body
    found = []
    for stmt in body:
        if not (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and stmt.name.startswith("_")):
            continue
        if not any(isinstance(n, ast.Name) and n.id == stmt.name
                   for other in body if other is not stmt for n in ast.walk(other)):
            found.append((stmt.lineno, stmt.name))
    return found


def test_no_module_defines_a_private_name_it_never_uses():
    found = [
        f"{p.name}:{line}: {name}"
        for p in MODULES
        for line, name in _unnamed_private_definitions(p.read_text())
    ]
    assert found == []


def test_unused_private_definition_is_reported():
    src = (
        "def _used():\n"
        "    return 1\n"
        "\n"
        "def _dead(n):\n"
        "    return _dead(n - 1) if n else _used()\n"
        "\n"
        "class _Dead:\n"
        "    pass\n"
        "\n"
        "def public():\n"
        "    return 2\n"
    )
    assert _unnamed_private_definitions(src) == [(4, "_dead"), (7, "_Dead")]


def _unnamed_public_definitions(sources: dict):
    """(module, line, name) of each public module-level function or class
    that no other statement of the package names.  sources maps each
    module's name to its text; a module other than the defining one
    names it only if it imports it from there."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if not (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                continue
            name = stmt.name
            if _named_in([s for s in tree.body if s is not stmt], name):
                continue
            if not any(_imports(other, module, name) and _named_in(other.body, name)
                       for m, other in trees.items() if m != module):
                found.append((module, stmt.lineno, name))
    return found


def _named_in(stmts, name):
    return any(isinstance(n, ast.Name) and n.id == name for s in stmts for n in ast.walk(s))


def _imports(tree, module, name):
    """Whether tree imports name from the package's module."""
    return any(isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == module
               and any(a.name == name for a in n.names) for n in ast.walk(tree))


# What the package defines for its callers alone, each with its reason
_ENTRY_POINTS = {
    ("cli", "run"),            # a run in-process: bench/harness.py runs each file so
    ("cli", "format_report"),  # a run's report text: bench/harness.py renders and times it
}


def test_every_public_definition_is_named_in_the_package():
    # code only tests call lives in tests; __init__'s re-exports keep nothing
    sources = {p.stem: p.read_text() for p in MODULES}
    found = [
        f"{module}.py:{line}: {name}"
        for module, line, name in _unnamed_public_definitions(sources)
        if (module, name) not in _ENTRY_POINTS
    ]
    assert found == []


def test_unused_public_definition_is_reported():
    sources = {
        "a": (
            "def used():\n"
            "    return 1\n"
            "\n"
            "def dead(n):\n"
            "    return dead(n - 1) if n else 0\n"
            "\n"
            "class Dead:\n"
            "    pass\n"
            "\n"
            "def _private():\n"
            "    return 2\n"
            "\n"
            "def helper():\n"
            "    return 3\n"
            "\n"
            "x = helper()\n"
        ),
        "b": "from .a import used\n\ndef go(dead):\n    return used() + dead\n",
        "c": "from .a import Dead\n",
    }
    assert _unnamed_public_definitions(sources) == [
        ("a", 4, "dead"), ("a", 7, "Dead"), ("b", 3, "go"),
    ]


def _self_referencing_nested_functions(source: str):
    """(line, name) of each function defined inside another function that
    mentions its own name: such a closure is a reference cycle per call."""
    found = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner)):
                found.append((inner.lineno, inner.name))
    return sorted(set(found))


def test_package_has_no_self_referencing_closures():
    found = [
        f"{p.name}:{line}: {name}"
        for p in MODULES
        for line, name in _self_referencing_nested_functions(p.read_text())
    ]
    assert found == []


def test_self_referencing_closure_is_reported():
    src = (
        "def outer(n):\n"
        "    def go(k):\n"
        "        return go(k - 1) if k else 0\n"
        "    def leaf(k):\n"
        "        return k\n"
        "    return go(n) + leaf(n)\n"
        "\n"
        "def top(k):\n"
        "    return top(k - 1) if k else 0\n"
    )
    assert _self_referencing_nested_functions(src) == [(2, "go")]


def _names_of(source: str, name: str):
    """Lines where source mentions name: imported, read or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.alias) and name in (node.name, node.asname)
        or isinstance(node, ast.Attribute) and node.attr == name
    )


def test_proof_core_never_names_lamapp():
    # terms enter the proof beta-reduced (tests/test_lambda_free.py), so the
    # rewriter, splitter, expander and world need no lambda path
    found = [
        f"{module}:{line}"
        for module in ("rewrite.py", "world.py")
        for line in _names_of((PACKAGE / module).read_text(), "LamApp")
    ]
    assert found == []


def test_a_named_lamapp_is_reported():
    src = "from .term import App, LamApp\n\nx = isinstance(t, term.LamApp)\n"
    assert _names_of(src, "LamApp") == [1, 3]


# Each of these costs milliseconds to import, and dataclasses brings
# inspect, ast, dis and tokenize; a prover run pays for every one.
_HEAVY_MODULES = {"dataclasses", "inspect", "typing", "ast"}

_NEW_MODULES = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import hintprover.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_no_heavy_module():
    done = subprocess.run([sys.executable, "-E", "-s", "-c", _NEW_MODULES, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "hintprover.cli" in loaded
    assert sorted(loaded & _HEAVY_MODULES) == []
