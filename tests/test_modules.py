"""Module boundaries: no module of the package reaches into a sibling's
private names, every name a module exports exists, every name a module
imports is used, and every public function is a plain function."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "viscosym"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling_import(node: ast.ImportFrom) -> bool:
    return node.level == 1 or (node.module or "").split(".")[0] == "viscosym"


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_from_siblings(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and _sibling_import(node)]
    offenders = [f"from {node.module} import {alias.name}" for node in imports
                 for alias in node.names if node.module and _private(alias.name)]
    # names bound to sibling modules by "from . import expr as e"
    siblings = {alias.asname or alias.name for node in imports
                if node.module in (None, "viscosym") for alias in node.names}
    offenders += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings and _private(node.attr)]
    assert offenders == []


@pytest.mark.parametrize("module", MODULES)
def test_names_from_siblings_are_exported(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and _sibling_import(node)]
    taken = [(node.module.split(".")[-1], alias.name) for node in imports
             if node.module not in (None, "viscosym") for alias in node.names]
    # names bound to sibling modules by "from . import expr as e"
    siblings = {alias.asname or alias.name: alias.name for node in imports
                if node.module in (None, "viscosym") for alias in node.names}
    taken += [(siblings[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in siblings]
    exported = {name: set(importlib.import_module(f"viscosym.{name}").__all__)
                for name, _ in taken}
    assert sorted(f"{mod}.{name}" for mod, name in taken if name not in exported[mod]) == []


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_exist(module):
    name = "viscosym" if module == "__init__" else f"viscosym.{module}"
    mod = importlib.import_module(name)
    assert [entry for entry in getattr(mod, "__all__", ()) if not hasattr(mod, entry)] == []


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_imported_names_are_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(importlib.import_module(f"viscosym.{module}"), "__all__", ()))
    assert sorted(imported[name] for name in imported if name not in used) == []


@pytest.mark.parametrize("module", MODULES)
def test_public_functions_are_plain_functions(module):
    # bench/tracing.py wraps only what inspect.isfunction accepts: a public
    # function behind lru_cache would silently drop out of every trace
    name = "viscosym" if module == "__init__" else f"viscosym.{module}"
    mod = importlib.import_module(name)
    offenders = [attr for attr, obj in vars(mod).items()
                 if not attr.startswith("_") and callable(obj) and not inspect.isclass(obj)
                 and getattr(obj, "__module__", None) == name and not inspect.isfunction(obj)]
    assert offenders == []
