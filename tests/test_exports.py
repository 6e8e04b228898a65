"""The package's public names: one list, no duplicates, every module's names exported.

And each module imports only names it uses.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import cechlab


def test_star_import_gives_the_package_names():
    namespace: dict = {}
    exec("from cechlab import *", namespace)
    assert set(cechlab.__all__) <= set(namespace)


def test_package_all_has_no_duplicates():
    assert len(cechlab.__all__) == len(set(cechlab.__all__))


def test_every_module_name_is_exported_by_the_package():
    exported = set(cechlab.__all__)
    modules = 0
    for info in pkgutil.iter_modules(cechlab.__path__):
        module = importlib.import_module(f"cechlab.{info.name}")
        names = getattr(module, "__all__", [])
        modules += bool(names)
        assert len(names) == len(set(names)), info.name
        for name in names:
            assert hasattr(module, name), (info.name, name)
            assert name in exported, (info.name, name)
            assert getattr(cechlab, name) is getattr(module, name), (info.name, name)
    assert modules >= 6, modules


def test_modules_import_only_what_they_use():
    sources = sorted(Path(cechlab.__file__).parent.glob("*.py"))
    checked = 0
    for source in sources:
        if source.name == "__init__.py":
            continue
        tree = ast.parse(source.read_text(), filename=str(source))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        # A name used as `name` or as `name.attribute` is a Name node either way.
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (source.name, sorted(imported - used))
        checked += 1
    assert checked >= 9, checked
