"""Smoke test: each narrative demo runs to completion in its own process.

Demo 05 needs the USAir97 Pajek file, which is not in the repository (with
it, it diagonalizes a 4252 x 4252 unitary for minutes).  It runs here on
three_community written as a Pajek file, which exercises its loading,
degeneracy check and threshold sweep in well under a second.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import arcwalk as aw

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_three_communities",
    "02_karate_club",
    "03_spectral_degeneracy",
    "04_classical_vs_quantum",
]


def run_demo(demo, **env_extra):
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_airport_demo_runs_on_a_pajek_stand_in(tmp_path):
    g = aw.builtin("three_community")
    edges = [f"{t + 1} {h + 1}" for t, h in zip(g.arc_tail, g.arc_head) if t < h]
    path = tmp_path / "stand_in.net"
    path.write_text("\n".join([f"*Vertices {g.node_count}", "*Edges", *edges]) + "\n")
    result = run_demo("05_airport_hierarchy", ARCWALK_USAIR97=str(path))
    assert result.returncode == 0, result.stderr
    assert "N=21, D=78, b1=19" in result.stdout
    assert "observed (+1,-1) = (20,18), predicted (20,18)" in result.stdout
    sweep = [ln.strip() for ln in result.stdout.splitlines() if ln.startswith("  q = ")]
    # every airport threshold lies far below 1/D = 1/78, so one community holds all 21 nodes
    assert sweep == [
        f"q = {q}: 1 communities, sizes (21,)"
        for q in ("0.0002351834", "0.0002354634", "0.0002355834")
    ]
