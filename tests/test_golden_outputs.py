"""Output identity: the primary outputs of a small CLI matrix keep their
bytes.

COMMANDS run through fracspde.cli.main in one child process (one worker,
one BLAS thread), and the sha256 of every file they write, run manifests
excepted (they carry wall-clock data), must equal the hash recorded in
golden_outputs.json. One run reads its flags from CONFIG, a file written
beside the output directory. A refactor that moves a bit of any report fails
here. ``python tests/test_golden_outputs.py --record NAME...`` rewrites
the hashes of the named outputs only, and writes nothing and exits
non-zero if an output it was not given moved too; a change that
re-records names the byte change it makes.

The F = sin outputs depend on which BLAS kernel runs, so the file also
records the numpy build's BLAS and the SIMD extensions numpy found on
the host (blas_config); a failure says whether they differ from the
recorded ones, since a host difference is not a byte change of the code.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fracspde"
GOLDEN = Path(__file__).with_name("golden_outputs.json")

# argv of fracspde.cli.main; the child appends --out-dir, and {config}
# names the file that holds CONFIG
COMMANDS = [
    ["converge", "--axis", axis, "--preset", preset, "--samples", "4",
     "--tag", f"{axis}-{preset}"]
    for axis in ("time", "space") for preset in ("she-trace", "she-identity")
] + [
    ["solve", "--modes", str(n), "--steps", "64", "--tag", f"n{n}{suffix}"]
    + flags
    for n in (16, 600)
    for suffix, flags in (("", []), ("-path", ["--save-trajectory"]))
] + [
    ["verify", "--suite", "regularity", "--samples", "4", "--tag", "reg"],
] + [
    ["gen-fbm", "--modes", "3", "--method", method, "--tag", method]
    for method in ("circulant", "cholesky")
] + [
    ["solve", "--config", "{config}", "--tag", "config"],
]

CONFIG = "# flat key = value lines\nmodes = 8\nsave-trajectory = yes\n"

CHILD = """
import json, sys
from fracspde import cli
out, commands = sys.argv[1], json.loads(sys.argv[2])
print(json.dumps([cli.main(argv + ["--out-dir", out]) for argv in commands]))
"""


def output_hashes() -> dict:
    """File name -> sha256 of every primary output of COMMANDS."""
    env = dict(os.environ, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(PACKAGE.parent)]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    with tempfile.TemporaryDirectory() as tmp:
        out, config = Path(tmp, "out"), Path(tmp, "run.cfg")
        out.mkdir()
        config.write_text(CONFIG)
        commands = [[arg.format(config=config) for arg in argv]
                    for argv in COMMANDS]
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(out), json.dumps(commands)],
            env=env, cwd=out, capture_output=True, text=True, timeout=300,
            check=True)
        codes = json.loads(proc.stdout.strip().splitlines()[-1])
        if codes != [0] * len(COMMANDS):
            raise RuntimeError(f"exit codes {codes}: {proc.stderr}")
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.iterdir())
                if not path.name.endswith("_manifest.json")}


def blas_config() -> dict:
    """numpy's version, its BLAS build and the host's SIMD extensions, as
    np.show_config reports them."""
    config = {"numpy": np.__version__}
    try:
        shown = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints
        return config
    blas = shown.get("Build Dependencies", {}).get("blas", {})
    config["blas"] = {key: blas.get(key) for key in
                      ("name", "version", "openblas configuration")}
    config["simd"] = shown.get("SIMD Extensions", {})
    config["host"] = shown.get("Machine Information", {}).get("host", {})
    return config


def moved_outputs(hashes: dict, recorded: dict) -> list:
    """Names of the outputs whose hash differs from (or is missing in)
    the recorded ones."""
    return sorted(name for name in hashes.keys() | recorded
                  if hashes.get(name) != recorded.get(name))


def test_primary_outputs_keep_their_bytes():
    recorded = json.loads(GOLDEN.read_text())
    hashes = output_hashes()
    if hashes != recorded["hashes"]:
        config = blas_config()
        host = ("the same as the recorded one" if config == recorded["config"]
                else f"{config}, recorded on {recorded['config']}")
        moved = moved_outputs(hashes, recorded["hashes"])
        assert hashes == recorded["hashes"], (
            f"outputs {moved} changed bytes; BLAS and SIMD config: {host}")


def record(names: list) -> None:
    """Rewrite the recorded hashes of ``names``; SystemExit, writing
    nothing, if another output moved."""
    recorded = json.loads(GOLDEN.read_text())["hashes"]
    hashes = output_hashes()
    unknown = sorted(set(names) - hashes.keys() - recorded.keys())
    if unknown:
        sys.exit(f"no output named {unknown}")
    unnamed = sorted(set(moved_outputs(hashes, recorded)) - set(names))
    if unnamed:
        sys.exit(f"outputs {unnamed} moved too; nothing written")
    for name in names:
        if name in hashes:
            recorded[name] = hashes[name]
        else:
            recorded.pop(name, None)
    GOLDEN.write_text(json.dumps({"config": blas_config(),
                                  "hashes": recorded},
                                 indent=1, sort_keys=True) + "\n")
    print(f"recorded {names} in {GOLDEN}")


def test_record_rewrites_named_hashes_only(tmp_path, monkeypatch):
    module = sys.modules[__name__]
    golden = tmp_path / "golden.json"
    before = json.dumps({"config": {}, "hashes": {"a": "1", "b": "2",
                                                  "c": "3"}})
    golden.write_text(before)
    monkeypatch.setattr(module, "GOLDEN", golden)
    monkeypatch.setattr(module, "output_hashes",
                        lambda: {"a": "9", "b": "2", "d": "4"})
    for names, message in ((["a"], r"\['c', 'd'\] moved too"),
                           (["a", "c", "x"], r"no output named \['x'\]")):
        with pytest.raises(SystemExit, match=message):
            record(names)
        assert golden.read_text() == before
    record(["a", "c", "d"])
    assert json.loads(golden.read_text())["hashes"] == {
        "a": "9", "b": "2", "d": "4"}


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or not sys.argv[2:]:
        sys.exit("usage: python tests/test_golden_outputs.py --record "
                 "NAME...")
    record(sys.argv[2:])
