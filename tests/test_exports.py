"""The package's public names: one list, no duplicates, every module's names exported."""

from __future__ import annotations

import importlib
import pkgutil

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
