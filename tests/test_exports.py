"""The package's public names: one list, no duplicates, every module's names exported.

And each module imports only names it uses, and the program uses every public name.
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


def test_only_sampling_builds_random_streams():
    # Every stream is sampling's: `stream` for one, `_streams` for a batch of
    # trials, whose keys must stay SeedSequence's bit for bit.
    checked = 0
    for source in sorted(Path(cechlab.__file__).parent.glob("*.py")):
        if source.name != "sampling.py":
            text = source.read_text()
            for name in ("SeedSequence", "Philox"):
                assert name not in text, (source.name, name)
            checked += 1
    assert checked >= 9, checked


# Research entry points that the program itself never calls: the tests (and
# library users) call them to count, check and diagnose.
_ENTRY_POINTS = {
    "betti",  # persistent_betti at theta = 1
    "component_count",  # components of the geometric graph, by template
    "convergence_diagnostic",  # count means against their scaling law
    "count_property",  # p-subset counts in the trivial context
    "perturb_and_verify",  # stability of a witness under perturbation
    "Density.custom",  # densities other than a uniform box
    "PointCloud.from_points",  # clouds written out by hand
}


def _public_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions and classes by name, and the public methods of classes as Class.method."""
    found: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = item
    return found


def _referenced(tree: ast.AST, skip: ast.AST | None) -> set[str]:
    """Names of the Name and Attribute nodes of a tree, outside the subtree `skip`."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_program_uses_every_public_name():
    # Every exported name, and every public method of an exported class, is
    # referenced in the package outside its own definition or in the benchmark;
    # strings in __all__ and imports do not count. The entry points are exactly
    # the names left over, so the list cannot go stale.
    package = Path(cechlab.__file__).parent
    sources = sorted(package.glob("*.py"))
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sources + sorted((package.parents[1] / "bench").glob("*.py"))]
    definitions: dict[str, ast.AST] = {}
    for tree in trees[:len(sources)]:
        definitions.update(_public_definitions(tree))
    unused = set()
    for name in cechlab.__all__:
        for target in [name] + [key for key in definitions if key.startswith(name + ".")]:
            attr = target.rpartition(".")[2]
            if not any(attr in _referenced(tree, definitions.get(target)) for tree in trees):
                unused.add(target)
    assert unused == _ENTRY_POINTS, (sorted(unused - _ENTRY_POINTS),
                                     sorted(_ENTRY_POINTS - unused))


def _private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level private functions, classes and constants by name (dunder names excluded)."""
    found: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found.update((name, node) for name in names
                     if name.startswith("_") and not name.startswith("__"))
    return found


def test_program_uses_every_private_name():
    # Every private top-level function, class or constant of the package is
    # referenced outside its own definition, in the package or in the
    # benchmark, so no private code lives on for the tests alone; imports do
    # not count.
    package = Path(cechlab.__file__).parent
    sources = sorted(package.glob("*.py"))
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sources + sorted((package.parents[1] / "bench").glob("*.py"))]
    checked, unused = 0, []
    for source, tree in zip(sources, trees):
        for name, node in _private_definitions(tree).items():
            checked += 1
            if not any(name in _referenced(other, node) for other in trees):
                unused.append(f"{source.name}:{name}")
    assert not unused, unused
    assert checked >= 90, checked
