"""Every exported name resolves: each module's __all__ and every name the
package's __init__ re-exports from its modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import fracspde

MODULES = sorted(info.name for info in pkgutil.iter_modules(fracspde.__path__))


def test_module_all_names_resolve():
    missing = []
    for name in MODULES:
        module = importlib.import_module(f"fracspde.{name}")
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert not missing
    assert "fbm" in MODULES and "experiments" in MODULES


def test_package_reexports_resolve():
    tree = ast.parse(Path(fracspde.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"fracspde.{node.module}")
        for alias in node.names:
            assert getattr(fracspde, alias.name) is getattr(module,
                                                            alias.name)
            if hasattr(module, "__all__"):
                assert alias.name in module.__all__, (node.module, alias.name)
