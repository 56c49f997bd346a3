"""Every name imported by a module of the package is used in that module.

A stdlib stand-in for a linter's unused-import rule.  ``__init__.py``
re-exports names on purpose and is exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "effss"


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
