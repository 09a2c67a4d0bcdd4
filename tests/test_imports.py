"""Import boundary: arcwalk runs on numpy alone.

Importing arcwalk, every CLI command under both coins and the public dense
``decompose`` leave scipy unloaded; the tests use it only as an oracle.
They leave ``concurrent.futures`` unloaded too: finite averages run their
threads on ``threading``, which numpy already loads, while importing
``concurrent.futures`` would add to every command's start-up.  Each case
runs in a fresh interpreter, because this process has already imported
both.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# runs ``arcwalk <argv>`` (or only the imports, with no argv; or
# ``decompose`` of a dense unitary, with the argv "decompose") and prints
# which of the modules arcwalk must not load were loaded
_PROBE = """
import contextlib, io, sys
import numpy, arcwalk, arcwalk.cli
if sys.argv[1:] == ["decompose"]:
    arcwalk.decompose(numpy.eye(3))
elif sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = arcwalk.cli.main(sys.argv[1:])
    if code != 0:
        sys.exit(f"arcwalk exited {code}")
print(",".join(name for name in ("scipy", "concurrent.futures") if name in sys.modules))
"""

KARATE = ["--graph", "builtin:karate"]


def unwanted_modules(*argv: str) -> str:
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
    return result.stdout.strip()


def test_import_loads_numpy_only():
    assert unwanted_modules() == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", *KARATE, "--coin", "fourier"],
        ["average", *KARATE, "--start", "1"],
        ["sweep", *KARATE, "--q-list", "0.005,0.01"],
        ["spectrum", *KARATE],
        ["spectrum", *KARATE, "--coin", "grover"],
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
    assert unwanted_modules(*argv) == ""


def test_decompose_runs_on_numpy_alone():
    assert unwanted_modules("decompose") == ""
