"""Record the golden CLI documents that ``tests/test_golden.py`` compares against.

Every CLI command runs on ``three_community`` and ``karate`` under both coins,
except ``classical``, whose random walk has no coin; ``average`` runs in both
modes with and without ``--start``, ``detect`` in both modes, and ``evolve``
from nodes 1 and 3.  Each document is the command's JSON output, stored as
``tests/golden/<case>.json``.  The Fourier case of each CSV layout is also
stored as its ``--format csv`` output, ``tests/golden/csv/<case>.csv``.

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
CSV_DIR = GOLDEN_DIR / "csv"

_Q_LIST = "0.004,0.006,0.008,0.01,0.0128,0.02"


def _cases() -> dict[str, list[str]]:
    cases = {}
    for graph in ("three_community", "karate"):
        for coin in ("fourier", "grover"):
            common = ["--graph", f"builtin:{graph}", "--coin", coin]
            variants = {
                "evolve": ["evolve", "--start", "1"],
                "evolve-start3": ["evolve", "--start", "3"],
                "average": ["average"],
                "average-start": ["average", "--start", "2"],
                "average-finite": ["average", "--mode", "average-finite"],
                "average-finite-start": ["average", "--mode", "average-finite", "--start", "2"],
                "spectrum": ["spectrum"],
                "detect": ["detect"],
                "detect-finite": ["detect", "--mode", "average-finite"],
                "sweep": ["sweep", "--q-list", _Q_LIST],
            }
            for variant, argv in variants.items():
                cases[f"{graph}-{coin}-{variant}"] = argv[:1] + common + argv[1:]
        # the document records the RunConfig default coin, fourier
        cases[f"{graph}-fourier-classical"] = [
            "classical", "--graph", f"builtin:{graph}", "--start", "1", "--steps", "40"
        ]
    return cases


CASES = _cases()

# one case per CSV layout
CSV_CASES = {
    f"{graph}-fourier-{variant}": CASES[f"{graph}-fourier-{variant}"] + ["--format", "csv"]
    for graph in ("three_community", "karate")
    for variant in ("evolve", "average", "average-start", "spectrum", "detect", "sweep", "classical")
}


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def strict_json(text: str, parse_float=float):
    """``json.loads`` without Python's NaN, Infinity and -Infinity extension,
    which strict parsers reject."""
    return json.loads(text, parse_constant=_reject_constant, parse_float=parse_float)


def cli_text(argv: list[str]) -> str:
    """The text ``arcwalk <argv>`` prints; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"arcwalk {' '.join(argv)} exited {code}")
    return out.getvalue()


def cli_document(argv: list[str], parse_float=float) -> dict:
    """Parsed JSON document printed by ``arcwalk <argv>``; it must be strict JSON."""
    return strict_json(cli_text(argv), parse_float)


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        doc = cli_document(argv)
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        (GOLDEN_DIR / f"{name}.json").write_text(text + "\n")
    CSV_DIR.mkdir(exist_ok=True)
    for name, argv in CSV_CASES.items():
        (CSV_DIR / f"{name}.csv").write_text(cli_text(argv))


if __name__ == "__main__":
    record()
