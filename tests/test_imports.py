"""Import footprint: the CLI and the runs it makes load no scipy module
and no process pool; only the phi quadrature suite reaches for scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the package and the CLI, runs a desk spatial study at N = 512
# (the FFT sweep) and the regularity suite, both on one worker, then prints
# the loaded modules that a run should not need, then runs the phi suite.
SCRIPT = """
import json, sys
import fracspde
from fracspde import cli

out = sys.argv[1]
codes = [
    cli.main(["converge", "--axis", "space", "--preset", "she-identity",
              "--samples", "2", "--workers", "1", "--out-dir", out,
              "--tag", "space"]),
    cli.main(["verify", "--suite", "regularity", "--samples", "2",
              "--workers", "1", "--out-dir", out, "--tag", "reg"]),
]
loaded = sorted(name for name in sys.modules
                if name.split(".")[0] == "scipy"
                or name.startswith("concurrent.futures"))
codes.append(cli.main(["verify", "--suite", "phi", "--out-dir", out,
                       "--tag", "phi"]))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_runs_load_no_scipy_and_no_pool(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["loaded"] == []
    # two samples may miss the regularity tolerance (exit 1); its imports,
    # not its verdict, are under test
    assert result["codes"][0] == 0 and result["codes"][1] in (0, 1)
    assert result["codes"][2] == 0
    assert (tmp_path / "verify_phi_phi.json").exists()
