"""The public names the benchmark harness and the package exports rely on.

``perfbench/`` calls the library through ``aw.X`` / ``arcwalk.X`` attributes
and ``from arcwalk.M import ...`` lines; a rename or deletion in the package
must fail here, not first in a benchmark run.  Every name a module lists in
``__all__`` must also exist, so no export can go stale.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import arcwalk

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
