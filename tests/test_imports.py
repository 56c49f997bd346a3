"""Stdlib stand-ins for a linter's unused-import and dead-code rules.

Every name imported by a module of the package is used in that module
(``__init__.py`` re-exports names on purpose and is exempt).  Every
function, class and method the package defines is used outside its own
definition by the package or the code shipped beside it; a method only
through an attribute (``x.name``) or an import, not through a bare name
that may be a local of the same name.  The Smith-form
oracle of the tests imports nothing from the package it checks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "effss"
#: the code that may use a name the package defines; tests may not
USERS = (SRC, ROOT / "perfbench", ROOT / "demos", ROOT / "tools")
#: definitions no code in USERS names, each with the reason it stays
EXEMPT = {
    # argparse calls it: the CLI's parser raises UsageError from it
    "error",
    # the tests' normal-form predicate over the private violation scan,
    # which they hold every basis and product to
    "is_normal",
}


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == [(1, "os"), (2, "e")]
    assert unused_imports("from m import T\ndef f(x: T.U) -> None: pass\n") == []


def test_no_unused_imports_in_the_package():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            bad = unused_imports(path.read_text(encoding="utf-8"))
            if bad:
                found[path.name] = bad
    assert found == {}


def definitions(tree):
    """(name, first line, last line, whether a method) of every function,
    class and method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {
        id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
        for n in c.body if isinstance(n, functions)
    }
    return [(n.name, n.lineno, n.end_lineno, id(n) in methods)
            for n in ast.walk(tree) if isinstance(n, kinds)]


def uses(tree):
    """(name, line, whether a bare name) of every name read, attribute
    taken or name imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno, False


def unused_definitions(sources, defining):
    """The definitions in the ``defining`` files of ``sources`` (a map from
    file to source text) that no file uses outside the definition itself."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    used = {}
    for path, tree in trees.items():
        for name, line, bare in uses(tree):
            used.setdefault(name, []).append((path, line, bare))
    found = []
    for path in defining:
        for name, lo, hi, method in definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any((p != path or not lo <= line <= hi) and not (method and bare)
                       for p, line, bare in used.get(name, ())):
                found.append((path, name))
    return sorted(found)


def test_unused_definitions_are_found():
    lib = "def f():\n    return f()\n\nclass C:\n    def m(self): pass\n    def __len__(self): return 0\n"
    assert unused_definitions({"lib": lib, "app": "C()\n"}, ["lib"]) == [("lib", "f"), ("lib", "m")]
    assert unused_definitions({"lib": lib, "app": "from lib import f\nC().m()\n"}, ["lib"]) == []
    # a local named like a method does not use it
    mat = "class Mat:\n    def vec(self): pass\n"
    local = "Mat()\nvec = [0]\nprint(vec)\n"
    assert unused_definitions({"lib": mat, "app": local}, ["lib"]) == [("lib", "vec")]
    assert unused_definitions({"lib": mat, "app": local + "Mat().vec()\n"}, ["lib"]) == []


def test_every_definition_in_the_package_is_used():
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for top in USERS for path in sorted(top.rglob("*.py"))
    }
    defining = [p for p in sources if p.startswith("src")]
    found = [(p, name) for p, name in unused_definitions(sources, defining) if name not in EXEMPT]
    assert found == []


def test_the_smith_oracle_imports_nothing_from_the_package():
    tree = ast.parse((ROOT / "tests" / "smith_oracle.py").read_text(encoding="utf-8"))
    modules = [alias.name for n in ast.walk(tree) if isinstance(n, ast.Import) for alias in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "effss"] == []
