"""Import boundary: scipy loads only with the Schur form of ``decompose``.

Importing arcwalk, graph loading, finite-time averages, ``evolve``,
``classical``, every exact Grover and Fourier average and the Fourier
``spectrum`` census run on numpy alone; only the Grover ``spectrum`` census
and the public dense ``decompose`` load scipy, at their first solve.  Each
case runs in a fresh interpreter, because this process has already imported
scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# runs ``arcwalk <argv>`` (or only the imports, with no argv) and prints
# whether scipy was loaded
_PROBE = """
import contextlib, io, sys
import arcwalk, arcwalk.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = arcwalk.cli.main(sys.argv[1:])
    if code != 0:
        sys.exit(f"arcwalk exited {code}")
print("scipy" in sys.modules)
"""

KARATE = ["--graph", "builtin:karate"]


def loads_scipy(*argv: str) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip() == "True"


def test_import_loads_numpy_only():
    assert not loads_scipy()


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", *KARATE, "--coin", "fourier"],
        ["average", *KARATE, "--start", "1"],
        ["sweep", *KARATE, "--q-list", "0.005,0.01"],
        ["spectrum", *KARATE],
        ["detect", *KARATE, "--coin", "grover"],
        ["average", *KARATE, "--coin", "grover", "--start", "1"],
        ["sweep", *KARATE, "--coin", "grover", "--q-list", "0.005,0.01"],
        ["detect", *KARATE, "--mode", "average-finite", "--steps", "5"],
        ["average", *KARATE, "--mode", "average-finite", "--start", "1"],
        ["evolve", *KARATE, "--start", "1", "--steps", "3"],
        ["classical", *KARATE, "--start", "1"],
    ],
    ids=" ".join,
)
def test_command_runs_on_numpy_alone(argv):
    assert not loads_scipy(*argv)


def test_grover_spectrum_loads_scipy():
    assert loads_scipy("spectrum", *KARATE, "--coin", "grover")
