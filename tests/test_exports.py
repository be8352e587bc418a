import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import astn

MODULES = sorted(m.name for m in pkgutil.iter_modules(astn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"astn.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"astn.{name}.__all__ names missing attributes: {missing}"


def test_package_exports_resolve():
    # every name the package re-exports is public API of the module it comes from
    tree = ast.parse(Path(astn.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name} is not in its __all__"
            assert getattr(astn, alias.asname or alias.name) is getattr(module, alias.name)
