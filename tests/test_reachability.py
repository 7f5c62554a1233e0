"""Reachability audit: every function defined in src/fracspde is reached
by a CLI command, or is on ALLOWED with the consumer that reads it.

The probe runs COMMANDS through fracspde.cli.main in a child process (one
worker, one BLAS thread) under sys.setprofile, installed before fracspde
is imported so that calls made at import time (cache decorators) count.
A function counts as reached when its code object is entered at least
once. Run ``python tests/test_reachability.py`` to print the code lines
of each src/fracspde module and their total (code_lines: no docstrings,
comments or blank lines), then every unreached function with its line
count; it exits 1 if one is not allow-listed.
"""

import ast
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fracspde"

# argv of fracspde.cli.main; the probe appends --out-dir, and --workers
# defaults to 1, so no pool starts. The first run has no --tag
# (cli._timestamp), and one run reads CONFIG from a file that the probe
# writes (cli._read_config_file, cli._value).
COMMANDS = [
    ["gen-fbm", "--method", "circulant", "--modes", "3"],
    ["gen-fbm", "--method", "cholesky", "--modes", "3", "--tag", "chol"],
    ["solve", "--modes", "16", "--steps", "64", "--tag", "n16"],
    ["solve", "--modes", "16", "--steps", "64", "--save-trajectory",
     "--tag", "n16-path"],
    ["solve", "--modes", "600", "--steps", "64", "--tag", "n600"],
    ["solve", "--modes", "16", "--steps", "64", "--zero-noise",
     "--zero-nonlinearity", "--tag", "linear"],
    ["solve", "--config", "{out}/solve.cfg", "--tag", "config"],
    ["converge", "--axis", "time", "--preset", "she-trace", "--samples", "2",
     "--tag", "time"],
    ["converge", "--axis", "space", "--preset", "she-identity",
     "--samples", "2", "--tag", "space"],
    ["verify", "--suite", "all", "--samples", "2", "--tag", "all"],
]

CONFIG = "# flat key = value lines\nmodes = 8\nsave-trajectory = yes\n"

# Unreached functions that stay, each with the consumer that reads it:
# "tests" (any tests/*.py), a repo file, or another entry's function.
ALLOWED = {
    # the frozen linear-oracle workload draws its fine sample, aggregates
    # it and solves each rung's sample
    "fbm.generate_cylindrical_fbm": "perfbench/workload.py",
    "fbm.aggregate_cylindrical": "perfbench/workload.py",
    "fbm._coarse_grid": "fbm.aggregate_cylindrical",
    "solver.solve_endpoint": "perfbench/workload.py",
    "solver._check_noise_sample": "solver.solve_endpoint",
    "fbm.CylindricalFbmSample.modes": "solver._check_noise_sample",
    "fbm.IncrementGrid.horizon": "solver._check_noise_sample",
    # tests empty the factor and form caches between cases
    "fbm.clear_caches": "tests",
    # the exact F = 0 oracle family: criterion 8, and ROADMAP items 2, 4
    # and 5 wire it into the convergence reports
    "solver.linear_mild_reference": "tests/test_acceptance.py",
    "solver.linear_support": "solver.linear_mild_reference",
    "solver.linear_weights": "solver.linear_mild_reference",
    "verify.expected_mild_rms_errors": "tests/test_acceptance.py",
    "verify.expected_rms_errors": "tests",
    "verify.expected_sobolev_rms": "tests",
    "verify.expected_increment_rms": "tests",
    "verify.linear_endpoint_moments": "verify.expected_sobolev_rms",
    "verify._response": "verify.linear_endpoint_moments",
    "verify._unit_forms": "verify._response",
    "verify._grid_form": "verify._unit_forms",
    "verify._grid_form.<locals>.form": "verify._grid_form",
    "verify._toeplitz_quadratic_form": "verify._grid_form",
    "verify._toeplitz_quadratic_form.<locals>.form":
        "verify._toeplitz_quadratic_form",
    "verify._form_size": "verify._unit_forms",
    # criterion 7, the Sobolev-norm ladder
    "verify.estimate_space_regularity": "tests/test_acceptance.py",
    "verify._norm_ladders": "verify.estimate_space_regularity",
    "verify.SpaceRegularityReport.growth_ratio": "tests/test_acceptance.py",
}

CHILD = """
import json, sys
package, out, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
reached = set()

def record(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        reached.add((code.co_filename, code.co_qualname))

sys.setprofile(record)
from fracspde import cli
codes = [cli.main(argv + ["--out-dir", out]) for argv in commands]
sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def _key(path, qualname: str) -> str:
    return f"{Path(path).stem}.{qualname}"


def defined_functions() -> dict:
    """'module.qualname' -> its def node, for every def in src/fracspde."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[_key(path, prefix + child.name)] = child
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


@functools.lru_cache(maxsize=1)
def probe() -> tuple:
    """(exit codes of COMMANDS, frozenset of reached 'module.qualname')."""
    env = dict(os.environ, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(PACKAGE.parent)]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    with tempfile.TemporaryDirectory() as out:
        Path(out, "solve.cfg").write_text(CONFIG)
        commands = [[arg.format(out=out) for arg in argv]
                    for argv in COMMANDS]
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(PACKAGE) + os.sep, out,
             json.dumps(commands)],
            env=env, cwd=out, capture_output=True, text=True, timeout=300,
            check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    reached = frozenset(_key(path, name) for path, name in result["reached"])
    return tuple(result["codes"]), reached


def unreached() -> dict:
    """'module.qualname' -> def node of each function the probe missed."""
    _, reached = probe()
    return {key: node for key, node in defined_functions().items()
            if key not in reached}


def _names_read(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _consumer_trees(consumer: str, functions: dict) -> list:
    if consumer == "tests":
        return [ast.parse(path.read_text())
                for path in sorted((ROOT / "tests").glob("*.py"))
                if path.name != Path(__file__).name]
    if consumer.endswith(".py"):
        return [ast.parse((ROOT / consumer).read_text())]
    return [functions[consumer]]


def test_every_function_is_reached_or_allowed():
    codes, reached = probe()
    # verify may fail a statistical suite at two samples (exit 1); its
    # calls, not its verdict, are under audit
    assert all(code == 0 or argv[0] == "verify" and code == 1
               for code, argv in zip(codes, COMMANDS)), codes
    assert sorted(set(unreached()) - set(ALLOWED)) == []
    # an entry the commands now reach no longer needs its exemption
    assert sorted(set(ALLOWED) & reached) == []


def test_allow_list_entries_exist_and_their_consumers_read_them():
    functions = defined_functions()
    assert sorted(set(ALLOWED) - set(functions)) == []
    stale = []
    for key, consumer in ALLOWED.items():
        if consumer in functions:
            # a function consumer is itself exempt, so every chain ends
            # at a file outside src/
            assert consumer in ALLOWED, (key, consumer)
        name = key.rsplit(".", 1)[1]
        if not any(name in _names_read(tree)
                   for tree in _consumer_trees(consumer, functions)):
            stale.append((key, consumer))
    assert stale == []


def _named_outside(names: set, homes: set, extra=()) -> list:
    """(module, name) for each of ``names`` that a src/ module outside
    ``homes``, or an ``extra`` file, references."""
    paths = [path for path in PACKAGE.glob("*.py") if path.stem not in homes]
    return sorted((path.stem, name) for path in paths + list(extra)
                  for name in names & _names_read(ast.parse(path.read_text())))


# Names that only solver, home of the one Monte Carlo map
# (solver.sample_map), may reference in src/: the sample blocks and the
# worker pool.
MAP_ONLY = {"_sample_blocks", "parallel_map"}


def test_only_the_map_cuts_draws_and_maps_blocks():
    assert _named_outside(MAP_ONLY, {"solver"}) == []


# The sampler's chunk rule, which only fbm may reference in src/ and in
# the tests' oracles: every other draw is one fbm.increment_rows call.
CHUNK_RULE = {"_ROW_CHUNK_BYTES"}


def test_only_the_sampler_knows_its_chunk_rule():
    assert _named_outside(CHUNK_RULE, {"fbm"},
                          [ROOT / "tests" / "oracles.py"]) == []


# The sweep's chunk budget, which only solver may reference in src/:
# _solve_block derives both its chunk and its staging panel from it.
SWEEP_BUDGET = {"_SWEEP_CHUNK_BYTES"}


def test_only_the_block_driver_knows_its_chunk_budget():
    assert _named_outside(SWEEP_BUDGET, {"solver"}) == []


# The seeded normal drawer, which only rng and fbm's sampler may name in
# src/: every other normal draw is numpy's own Generator.
DRAWER = {"NormalDrawer", "pcg64_states", "seed_words"}


def test_only_the_sampler_uses_the_normal_drawer():
    assert _named_outside(DRAWER, {"fbm", "rng"}) == []


# The F = sin switch and the dense sine matrix, which only solver may
# reference in src/: solver._sweep_setup picks the form and builds every
# factor, and kernels only steps.
SINE_SETUP = {"_FAST_SINE_MIN_MODES", "sine_matrix"}


def test_only_the_sweep_setup_builds_sine_factors():
    assert _named_outside(SINE_SETUP, {"solver"}) == []


# The orthonormal DST-I and its long-double scale, which only spectral
# may reference in src/: the fast F = sin step reads the scale through
# spectral._dst1_scale.
DST1 = {"_dst1", "longdouble"}


def test_only_spectral_computes_the_dst1_and_its_scale():
    assert _named_outside(DST1, {"spectral"}) == []


def test_only_experiments_formats_csv_values():
    # every CSV line goes through experiments.write_rows
    assert _named_outside({"_fmt"}, {"experiments"}) == []


def test_only_experiments_writes_json():
    # every JSON artifact goes through experiments.write_json, which
    # rejects NaN and infinity
    assert _named_outside({"dumps"}, {"experiments"}) == []


def test_every_cache_is_one_that_clear_caches_empties():
    # fbm._bounded_cache is src/'s one lru_cache: its caches are bounded,
    # and fbm.clear_caches empties each of them
    assert _named_outside({"lru_cache"}, {"fbm"}) == []


NON_CODE_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                   tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """Lines of ``path`` that hold code: lines with a token other than a
    comment, outside every module, class and function docstring."""
    text = Path(path).read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NON_CODE_TOKENS:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem:<12}  {count:4d} code lines")
    print(f"{'total':<12}  {total:4d} code lines")
    codes, _ = probe()
    missed = unreached()
    width = max(map(len, missed), default=0)
    lines = 0
    for key, node in missed.items():
        count = node.end_lineno - node.lineno + 1
        lines += count
        print(f"{key:<{width}}  {count:4d}  "
              f"{ALLOWED.get(key, 'NOT ALLOW-LISTED')}")
    bad = sorted(set(missed) - set(ALLOWED))
    print(f"{len(missed)} unreached functions, {lines} lines; "
          f"{len(bad)} not allow-listed; exit codes {list(codes)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
