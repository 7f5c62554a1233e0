"""Every exported name resolves: each module's __all__ and every
fracspde name a file under perfbench/ reads. The package itself exports
nothing but its version; callers import its modules. Test-only
references live in tests/oracles.py, not in the package."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
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
    """The package re-exports nothing, so no re-export can fail to
    resolve: its __init__ imports no module, and a fresh
    ``import fracspde`` binds no public name, not even a submodule."""
    tree = ast.parse(Path(fracspde.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == []
    src = str(Path(fracspde.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import fracspde; print(sorted(name for name "
         "in vars(fracspde) if not name.startswith('_')))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_package_reexports_only_reached_or_allowed_names():
    """Callers import modules (``from fracspde import solver``): the
    package binds no function or class, so none can sit there unreached
    by the audit's commands."""
    bound = sorted(name for name, value in vars(fracspde).items()
                   if inspect.isfunction(value) or inspect.isclass(value))
    assert bound == []


def test_benchmark_workload_calls_resolve():
    """Every attribute that a file under perfbench/ reads from a fracspde
    module it imports (``from fracspde import fbm, ...``) exists, so a
    change under src/ cannot break the benchmark, its reference recorder
    or its tests silently."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    used, importers = set(), {}
    for path in sorted(bench.rglob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "fracspde"
                   for alias in node.names}
        if modules:
            importers[path.relative_to(bench).as_posix()] = set(
                modules.values())
        used |= {(modules[node.value.id], node.attr)
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in modules}
    assert {"workload.py", "record_reference.py",
            "tests/test_perfbench.py"} <= set(importers)
    assert {"fbm", "solver", "verify", "rng", "experiments"} <= \
        importers["workload.py"]
    assert {("solver", "linear_mild_reference"),
            ("fbm", "aggregate_cylindrical"),
            ("kernels", "F_SCALED")} <= used
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
