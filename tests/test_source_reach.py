"""Every function, method and property the package defines has a caller in
the package: no code in src/pcddg is reached by the tests alone."""

import ast
import os

import pcddg

SRC = os.path.dirname(pcddg.__file__)


def _defs_and_references():
    """(name, file, line) of every def under SRC, dunders excepted, and per
    name the (file, enclosing def lines) of each place it is read, as a
    bare name or an attribute."""
    defs, refs = [], {}

    def walk(node, path, enclosing):
        for child in ast.iter_child_nodes(node):
            inner = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    defs.append((child.name, path, child.lineno))
                inner = enclosing | {child.lineno}
            elif isinstance(child, ast.Name):
                refs.setdefault(child.id, []).append((path, enclosing))
            elif isinstance(child, ast.Attribute):
                refs.setdefault(child.attr, []).append((path, enclosing))
            walk(child, path, inner)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path) as fh:
                walk(ast.parse(fh.read(), path), path, frozenset())
    return defs, refs


def test_every_definition_has_a_package_caller():
    defs, refs = _defs_and_references()
    assert len(defs) > 100
    unreached = [f"{os.path.basename(path)}:{line} {name}"
                 for name, path, line in defs
                 if not any(p != path or line not in enclosing
                            for p, enclosing in refs.get(name, ()))]
    assert unreached == []
