"""The public names the benchmark harness and the package exports rely on.

``perfbench/`` calls the library through ``aw.X`` / ``arcwalk.X`` attributes
and ``from arcwalk.M import ...`` lines; a rename or deletion in the package
must fail here, not first in a benchmark run.  The traced pipeline also
calls methods and arguments no name lookup sees, so it is run here too.
Every name a module lists in ``__all__`` must also exist, so no export can
go stale.
"""

import ast
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import arcwalk
from arcwalk.cli import RunConfig, run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ATTRIBUTE = re.compile(r"\b(?:aw|arcwalk)\.(\w+)")
FROM_IMPORT = re.compile(r"^\s*from (arcwalk(?:\.\w+)?) import ([\w, ]+)", re.MULTILINE)
MODULES = sorted(m.name for m in pkgutil.iter_modules(arcwalk.__path__) if not m.ispkg)


def perfbench_references() -> list[tuple[str, str]]:
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        text = path.read_text()
        refs.update(("arcwalk", name) for name in ATTRIBUTE.findall(text))
        for module, names in FROM_IMPORT.findall(text):
            refs.update((module, name.strip()) for name in names.split(","))
    return sorted(refs)


def test_perfbench_references_are_found():
    refs = perfbench_references()
    assert ("arcwalk", "relaxation_trace") in refs
    assert ("arcwalk.community", "DEFAULT_MARGINAL_BAND") in refs


@pytest.mark.parametrize("module, name", perfbench_references())
def test_perfbench_reference_resolves(module, name):
    owner = importlib.import_module(module)
    # ``arcwalk.cli`` names a submodule, which is an attribute once imported
    if not hasattr(owner, name):
        importlib.import_module(f"{module}.{name}")


@pytest.mark.parametrize("module", ["arcwalk"] + [f"arcwalk.{m}" for m in MODULES])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists missing names {missing}"


def required_spans() -> set[str]:
    """The span names ``run.py`` refuses a traced run without."""
    for node in ast.walk(ast.parse((PERFBENCH / "run.py").read_text())):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["required"]:
            return ast.literal_eval(node.value)
    raise AssertionError("run.py names no required spans")


def test_traced_pipeline_runs_and_passes_its_checks(perfbench):
    import traced

    tracers = []
    karate = "builtin:karate"
    for coin, mode in [("fourier", "average-infinite"), ("grover", "average-infinite"), ("fourier", "average-finite")]:
        tracers.append(traced.Tracer(f"{coin}-{mode}"))
        task = {"label": "karate", "source": karate, "coin": coin, "mode": mode, "steps": 20}
        got = traced.run_detect(tracers[-1], task)["document"]["payload"]
        cli_doc = json.loads(run(RunConfig("detect", karate, coin=coin, mode=mode, steps=20)).to_json())
        assert (got["hubs"], got["assignment"]) == (cli_doc["payload"]["hubs"], cli_doc["payload"]["assignment"])
    three = {"label": "three_community", "source": "builtin:three_community"}
    probes = [dict(three, what=what, coin="fourier") for what in ("finite", "exact", "apply_step", "classical")]
    probes.append(dict(three, what="spectrum", coin="grover"))
    tracers.append(traced.Tracer("probe"))
    traced.run_probes(tracers[-1], {"probes": probes})
    failed = [c for tr in tracers for c in tr.checks if not c["ok"]]
    assert not failed and all(tr.checks for tr in tracers)
    missing = required_spans() - {s["name"] for tr in tracers for s in tr.spans}
    assert not missing, f"no span for {sorted(missing)}"
