"""Stdlib stand-ins for a linter's unused-import and dead-code rules.

Every name imported by a module of the package is used in that module
(``__init__.py`` re-exports names on purpose and is exempt).  Every
function, class and method the package defines is used outside its own
definition by the package or the code shipped beside it:

* a module-level function or class only through a bare name that no
  enclosing function binds (as a parameter or by assignment), an import,
  or an attribute of a name bound to a module (``import ... as``,
  ``import_module``), since a parameter, a local or another object's
  attribute may spell the same name;
* a method only through an attribute (``x.name``) or an import, not
  through a bare name that may be a local of the same name, and a method
  named like an annotated field of a package class only through a call
  (``x.name(...)``), since reading the field spells the same attribute.

The Smith-form oracle of the tests imports nothing from the package it
checks.
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
    """(name, first line, last line, whether a method, whether a property,
    whether module-level) of every function, class and method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {
        id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
        for n in c.body if isinstance(n, functions)
    }
    top = {id(n) for n in tree.body}
    return [(n.name, n.lineno, n.end_lineno, id(n) in methods,
             any(isinstance(d, ast.Name) and d.id == "property" for d in n.decorator_list),
             id(n) in top)
            for n in ast.walk(tree) if isinstance(n, kinds)]


def fields(tree):
    """The names of the annotated fields of every class."""
    return {n.target.id for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
            for n in c.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def bound(fn):
    """The names a function or lambda binds: its parameters and every name
    it assigns, imports or defines (nested scopes included, which only
    makes more names local)."""
    a = fn.args
    names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node is not fn:
            names.add(node.name)
    return names


def module_names(tree, modules):
    """The names bound to a module: ``import ... [as]``, ``from ... import``
    of one of ``modules``, and the result of ``import_module``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names if a.name in modules)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "attr", getattr(node.value.func, "id", None)) == "import_module"):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def uses(tree, modules):
    """(name, line, how, whether called) of every name read, attribute
    taken or name imported.  ``how`` is "free" for a bare name no enclosing
    function binds, "local" for one it binds, "module" for an attribute of
    a name ``module_names`` finds, "attribute" for any other attribute and
    "import" for an import."""
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    mods = module_names(tree, modules)

    def root(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def visit(node, local):
        if isinstance(node, SCOPES):
            local = local | bound(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, "local" if node.id in local else "free", id(node) in called
        elif isinstance(node, ast.Attribute):
            how = "module" if root(node.value) in mods else "attribute"
            yield node.attr, node.lineno, how, id(node) in called
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno, "import", False
        for child in ast.iter_child_nodes(node):
            yield from visit(child, local)

    return visit(tree, frozenset())


def unused_definitions(sources, defining):
    """The definitions in the ``defining`` files of ``sources`` (a map from
    file to source text) that no file uses outside the definition itself."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    modules = {Path(path).stem for path in sources}
    used = {}
    for path, tree in trees.items():
        for name, line, how, called in uses(tree, modules):
            used.setdefault(name, []).append((path, line, how, called))
    field_names = set().union(*(fields(trees[path]) for path in defining))
    found = []
    for path in defining:
        for name, lo, hi, method, prop, top in definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            if top:
                ways = ("free", "import", "module")
            elif method:
                ways = ("attribute", "module", "import")
            else:
                ways = ("free", "local", "attribute", "module", "import")
            only_called = method and not prop and name in field_names
            if not any((p != path or not lo <= line <= hi) and how in ways
                       and (called or not only_called)
                       for p, line, how, called in used.get(name, ())):
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
    # a module-level function is not used by a parameter or a local of its
    # name, nor by an attribute of anything but a module
    fn = "def weight(m): pass\n"
    shadow = "def area(weight): return weight\ndef box(d): return d.weight\n"
    assert unused_definitions({"lib": fn, "app": shadow}, ["lib"]) == [("lib", "weight")]
    assert unused_definitions({"lib": fn, "app": "import lib as L\nL.weight(1)\n"}, ["lib"]) == []
    assert unused_definitions({"lib": fn, "app": "from pkg import lib\nlib.weight(1)\n"}, ["lib"]) == []
    assert unused_definitions({"lib": fn, "app": "def g(x):\n    return weight(x)\n"}, ["lib"]) == []


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
