"""Stdlib stand-ins for a linter's unused-import and dead-code rules.

Every name imported by a module of the package is used in that module
(``__init__.py`` re-exports names on purpose and is exempt).  Every
function, class and method the package defines is used outside its own
definition by the package or the code shipped beside it; a method only
through an attribute (``x.name``) or an import, not through a bare name
that may be a local of the same name, and a method named like an
annotated field of a package class only through a call (``x.name(...)``),
since reading the field spells the same attribute.  The Smith-form
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
    """(name, first line, last line, whether a method, whether a property)
    of every function, class and method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {
        id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
        for n in c.body if isinstance(n, functions)
    }
    return [(n.name, n.lineno, n.end_lineno, id(n) in methods,
             any(isinstance(d, ast.Name) and d.id == "property" for d in n.decorator_list))
            for n in ast.walk(tree) if isinstance(n, kinds)]


def fields(tree):
    """The names of the annotated fields of every class."""
    return {n.target.id for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
            for n in c.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}


def uses(tree):
    """(name, line, whether a bare name, whether called) of every name
    read, attribute taken or name imported."""
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True, id(node) in called
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False, id(node) in called
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno, False, False


def unused_definitions(sources, defining):
    """The definitions in the ``defining`` files of ``sources`` (a map from
    file to source text) that no file uses outside the definition itself."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    used = {}
    for path, tree in trees.items():
        for name, line, bare, called in uses(tree):
            used.setdefault(name, []).append((path, line, bare, called))
    field_names = set().union(*(fields(trees[path]) for path in defining))
    found = []
    for path in defining:
        for name, lo, hi, method, prop in definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            only_called = method and not prop and name in field_names
            if not any((p != path or not lo <= line <= hi) and not (method and bare)
                       and (called or not only_called)
                       for p, line, bare, called in used.get(name, ())):
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
    # reading a field does not use a method of the same name; a property
    # named like a field is used by reading it
    grp = ("class Gen:\n    order: int\n\nclass Grp:\n    def order(self): pass\n"
           "    @property\n    def size(self): return 0\n\nclass Box:\n    size: int\n")
    read = "Gen().order\nGrp().size\nBox()\n"
    assert unused_definitions({"lib": grp, "app": read}, ["lib"]) == [("lib", "order")]
    assert unused_definitions({"lib": grp, "app": read + "Grp().order()\n"}, ["lib"]) == []


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
