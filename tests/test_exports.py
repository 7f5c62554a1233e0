"""Every exported name resolves: each module's __all__, every name the
package's __init__ re-exports from its modules, and every fracspde name
the benchmark's workload script calls. The package re-exports only what
a CLI command reaches or the reachability audit allow-lists. Test-only
references live in tests/oracles.py, not in the package."""

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


def test_package_reexports_only_reached_or_allowed_names():
    """A re-exported function is reached by the audit's commands or is on
    its allow-list; a re-exported class has a method that is (its body,
    which runs at import, does not count)."""
    from test_reachability import ALLOWED, defined_functions, probe

    _, reached = probe()
    kept = (reached | set(ALLOWED)) & set(defined_functions())
    tree = ast.parse(Path(fracspde.__file__).read_text())
    names = [f"{node.module}.{alias.name}" for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names]
    assert names
    orphans = [name for name in names
               if name not in kept
               and not any(key.startswith(name + ".") for key in kept)]
    assert orphans == []


def test_benchmark_workload_calls_resolve():
    """Every attribute that perfbench/workload.py reads from a fracspde
    module it imports (fbm, solver, verify, rng, experiments, cli,
    kernels) exists, so a rename cannot break the benchmark silently."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workload.py"
    tree = ast.parse(path.read_text())
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module == "fracspde"
               for alias in node.names}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert {"fbm", "solver", "verify", "rng", "experiments"} <= modules
    assert ("solver", "linear_mild_reference") in used
    assert ("fbm", "aggregate_cylindrical") in used
    missing = sorted(f"{mod}.{attr}" for mod, attr in used
                     if not hasattr(importlib.import_module(f"fracspde.{mod}"),
                                    attr))
    assert not missing


def test_test_oracles_live_outside_the_package():
    """tests/oracles.py exports what it names, and no fracspde module
    defines those names: the independent checks do not sit beside the
    code they judge."""
    import oracles

    assert oracles.__all__
    for name in oracles.__all__ + ["_toeplitz_matvec", "_check_dims",
                                   "_block_increments"]:
        assert hasattr(oracles, name)
        for module in MODULES:
            assert not hasattr(importlib.import_module(f"fracspde.{module}"),
                               name), (module, name)
