"""The benchmark's workloads: which graphs each one reads and which CLI
commands it runs on them.

A command is a dict of CLI fields; ``cli_args`` turns it into the argument
list of ``arcwalk``, and the traced run reads the same dict, so both always
describe one pipeline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from planted import PlantedGraph, planted_partition

DEFAULT_SEED = 1

# Sizes are chosen so that one CLI job takes a few seconds on a 2-core
# machine, which leaves room for several samples in one timed run.
PLANTED = {
    # N=60, D=496: Fourier spectrum, every eigenvalue group simple
    "planted-60": ((20, 20, 20), 0.35, 0.04),
    # N=80, D=704: Grover spectrum with large +-1 groups (about b1 each)
    "planted-80": ((27, 27, 26), 0.28, 0.03),
}

# sweep thresholds bracket q = 1/D on each builtin
_SWEEP_Q = {
    "three_community": "0.01,0.0128205128205,0.015",
    "karate": "0.005,0.00641025641026,0.008",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graphs: tuple[str, ...]  # planted names or builtin:NAME sources
    commands: tuple[dict, ...]


def _builtin_commands(name: str) -> tuple[dict, ...]:
    g = f"builtin:{name}"
    return (
        {"key": f"{name}/detect", "command": "detect", "graph": g, "coin": "fourier",
         "mode": "average-infinite"},
        {"key": f"{name}/spectrum", "command": "spectrum", "graph": g, "coin": "grover"},
        {"key": f"{name}/average", "command": "average", "graph": g, "coin": "fourier",
         "mode": "average-finite", "start": 1},
        {"key": f"{name}/sweep", "command": "sweep", "graph": g, "coin": "fourier",
         "mode": "average-infinite", "q_list": _SWEEP_Q[name]},
        {"key": f"{name}/evolve", "command": "evolve", "graph": g, "coin": "fourier",
         "start": 1, "steps": 15},
        {"key": f"{name}/classical", "command": "classical", "graph": g, "start": 1},
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fourier-exact",
            "exact Cesaro detect with a simple Fourier spectrum: Cesaro kernel and Schur carry the time",
            ("planted-60",),
            ({"key": "detect", "command": "detect", "graph": "planted-60", "coin": "fourier",
              "mode": "average-infinite"},),
        ),
        Workload(
            "grover-exact",
            "exact Cesaro detect with a degenerate Grover spectrum: few large projector groups",
            ("planted-80",),
            ({"key": "detect", "command": "detect", "graph": "planted-80", "coin": "grover",
              "mode": "average-infinite"},),
        ),
        Workload(
            "finite-t100",
            "finite-time T=100 detect on the grover-exact graph: operator stepping, no eigensolver",
            ("planted-80",),
            ({"key": "detect", "command": "detect", "graph": "planted-80", "coin": "fourier",
              "mode": "average-finite", "steps": 100},),
        ),
        Workload(
            "paper-builtins",
            "README commands on three_community and karate: startup, io, cli, classical and evolve carry the time",
            ("builtin:three_community", "builtin:karate"),
            _builtin_commands("three_community") + _builtin_commands("karate"),
        ),
    )
}


def make_inputs(workload: Workload, seed: int, input_dir: str) -> dict[str, dict]:
    """Write the workload's generated graphs; return label -> graph record.

    Each record holds the CLI ``source`` string and, for generated graphs,
    the expected ``stats`` (N, D, b1, bipartite).  Paths are relative to the
    checkout root, where every process runs.
    """
    records: dict[str, dict] = {}
    for label in workload.graphs:
        if label.startswith("builtin:"):
            records[label] = {"source": label, "stats": None}
            continue
        blocks, p_in, p_out = PLANTED[label]
        graph: PlantedGraph = planted_partition(blocks, p_in, p_out, seed)
        path = os.path.join(input_dir, f"{label}-seed{seed}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(graph.edge_list_text())
        records[label] = {"source": f"edgelist:{path}", "stats": graph.stats()}
    return records


def cli_args(command: dict, source: str, output: str) -> list[str]:
    """Argument list of one ``arcwalk`` invocation."""
    args = [command["command"], "--graph", source, "--output", output]
    if "coin" in command:
        args += ["--coin", command["coin"]]
    if "mode" in command:
        args += ["--mode", command["mode"]]
    for field, flag in (("start", "--start"), ("steps", "--steps"), ("q_list", "--q-list")):
        if field in command:
            args += [flag, str(command[field])]
    return args
