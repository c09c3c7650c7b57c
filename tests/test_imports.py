"""Every name that an import binds in a module of the package is read in
that module, so a deleted code path leaves no import behind.  No linter
runs on the package; this is the one check of its imports."""

import ast
from pathlib import Path

import pytest

import router_sim

MODULES = sorted(Path(router_sim.__file__).parent.glob("*.py"))

#: (module file, name) of imports kept for their effect, not to be read:
#: the package binds its errors module for ``router_sim.errors``.
KEPT = {("__init__.py", "errors")}


def unread_imports(source):
    """The names that the imports of ``source`` bind, ``__future__``
    aside, and that no expression of it reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = (a.asname or a.name.partition(".")[0] for a in node.names)
            unread += [name for name in names if name not in read]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    unread = unread_imports(path.read_text(encoding="utf-8"))
    assert [name for name in unread if (path.name, name) not in KEPT] == []


def test_the_check_sees_an_unread_import():
    assert unread_imports("from __future__ import annotations\n"
                          "import numpy as np\nimport os.path\n"
                          "from .fock import a, b as c\nc(os)\n") == [
        "np", "a"]
