"""Record the golden CLI documents that ``tests/test_golden.py`` compares against.

Every CLI command runs on ``three_community`` and ``karate`` under both coins;
``average`` runs in both modes with and without ``--start``, ``detect`` in
both modes, and ``evolve`` with and without ``--slot``.  Each document is the
command's JSON output, stored as ``tests/golden/<case>.json``.

Run from the repository root:

    PYTHONPATH=src python3 tests/record_golden.py

Re-record only when a change of output is intended, and say so where the
change is described: the documents are the gate a refactor must pass.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from arcwalk.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")

_Q_LIST = "0.004,0.006,0.008,0.01,0.0128,0.02"


def _cases() -> dict[str, list[str]]:
    cases = {}
    for graph in ("three_community", "karate"):
        for coin in ("fourier", "grover"):
            common = ["--graph", f"builtin:{graph}", "--coin", coin]
            variants = {
                "evolve": ["evolve", "--start", "1"],
                "evolve-slot": ["evolve", "--start", "3", "--slot", "2"],
                "average": ["average"],
                "average-start": ["average", "--start", "2"],
                "average-finite": ["average", "--mode", "average-finite"],
                "average-finite-start": ["average", "--mode", "average-finite", "--start", "2"],
                "spectrum": ["spectrum"],
                "detect": ["detect"],
                "detect-finite": ["detect", "--mode", "average-finite"],
                "sweep": ["sweep", "--q-list", _Q_LIST],
                "classical": ["classical", "--start", "1", "--steps", "40"],
            }
            for variant, argv in variants.items():
                cases[f"{graph}-{coin}-{variant}"] = argv[:1] + common + argv[1:]
    return cases


CASES = _cases()


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def strict_json(text: str):
    """``json.loads`` without Python's NaN, Infinity and -Infinity extension,
    which strict parsers reject."""
    return json.loads(text, parse_constant=_reject_constant)


def cli_document(argv: list[str]) -> dict:
    """Parsed JSON document printed by ``arcwalk <argv>``; it must be strict JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"arcwalk {' '.join(argv)} exited {code}")
    return strict_json(out.getvalue())


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        doc = cli_document(argv)
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        (GOLDEN_DIR / f"{name}.json").write_text(text + "\n")


if __name__ == "__main__":
    record()
