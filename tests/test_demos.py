"""Smoke test: each narrative demo runs to completion in its own process.

Demo 05 is left out: it needs the USAir97 Pajek file, which is not in the
repository, and exits 1 without it (with it, it diagonalizes a 4252 x 4252
unitary for minutes).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_three_communities",
    "02_karate_club",
    "03_spectral_degeneracy",
    "04_classical_vs_quantum",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
