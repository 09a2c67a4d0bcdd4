"""Smoke test: each narrative demo runs to completion in its own process,
and the README's library tour and CLI commands run as written.

Demo 05 needs the USAir97 Pajek file, which is not in the repository (with
it, it diagonalizes one 4252 x 4252 unitary in about half a minute).  It runs
here on three_community written as a Pajek file, which exercises its loading
and threshold sweep in well under a second.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import arcwalk as aw
from arcwalk.cli import main

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
    sweep = [ln.strip() for ln in result.stdout.splitlines() if ln.startswith("  q = ")]
    # every airport threshold lies far below 1/D = 1/78, so one community holds all 21 nodes
    assert sweep == [
        f"q = {q}: 1 communities, sizes (21,)"
        for q in ("0.0002351834", "0.0002354634", "0.0002355834")
    ]


def test_readme_library_tour_runs():
    # a renamed or removed name fails here, not first in a reader's session
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md (library tour)", "exec"), namespace)
    assert namespace["part"].hubs == (34, 1)


def test_readme_cli_commands_run(capsys):
    # a removed flag or renamed mode shown to readers fails here; the USAir97
    # line needs a file that is not in the repository
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    text = re.search(r"```sh\n(.*?)```", block, re.DOTALL).group(1)
    commands = [shlex.split(line) for line in text.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if "pajek:data/usair97.net" not in argv]
    assert len(commands) == 5
    for argv in commands:
        assert argv[0] == "arcwalk"
        assert main(argv[1:]) == 0, argv
    assert "error" not in capsys.readouterr().err
