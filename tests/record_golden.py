"""Record the golden CLI documents that ``tests/test_golden.py`` compares against.

Every CLI command runs on ``three_community`` and ``karate`` under both coins,
except ``classical``, whose random walk has no coin; ``average`` runs in both
modes with and without ``--start``, ``detect`` in both modes, and ``evolve``
from nodes 1 and 3.  One more ``detect`` on karate sets ``--threshold 0.01``.
Each document is the command's JSON output, stored as
``tests/golden/<case>.json``.  The Fourier case of each CSV layout is also
stored as its ``--format csv`` output, ``tests/golden/csv/<case>.csv``.

The gate that ``tests/test_golden.py`` applies, :func:`json_mismatches` and
:func:`csv_mismatches`, lives here too, and a stored file that the fresh
output passes is left untouched: re-recording rewrites only what changed.

Run from the repository root:

    PYTHONPATH=src python3 tests/record_golden.py

Re-record only when a change of output is intended, and say so where the
change is described: the documents are the gate a refactor must pass.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
from decimal import Decimal, InvalidOperation
from pathlib import Path

from arcwalk.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")
CSV_DIR = GOLDEN_DIR / "csv"

_Q_LIST = "0.004,0.006,0.008,0.01,0.0128,0.02"
FLOAT_ATOL = Decimal("1e-12")
SIGNIFICANT_DIGITS = 12


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
    cases["karate-fourier-detect-threshold"] = cases["karate-fourier-detect"] + ["--threshold", "0.01"]
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


def _angle(z: dict) -> float:
    theta = cmath.phase(complex(z["re"], z["im"]))
    # -1 may land on either side of the branch cut
    return theta - 2 * math.pi if theta > math.pi - 1e-9 else theta


def _normalize(doc: dict) -> dict:
    payload = dict(doc["payload"])
    if "eigenvalues" in payload:
        pairs = sorted(zip(payload["eigenvalues"], payload["ipr"]), key=lambda pair: _angle(pair[0]))
        payload["eigenvalues"] = [z for z, _ in pairs]
        payload["ipr"] = [value for _, value in pairs]
    return {"metadata": doc["metadata"], "payload": payload}


def _diff(ref, got, path: str, out: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            out.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}")
            return
        for key in ref:
            _diff(ref[key], got[key], f"{path}.{key}", out)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            out.append(f"{path}: expected a list of {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _diff(r, g, f"{path}[{i}]", out)
    elif isinstance(ref, Decimal) and type(got) in (int, Decimal):
        if not abs(got - ref) <= FLOAT_ATOL:
            out.append(f"{path}: {got!r} differs from {ref!r}")
    elif type(ref) is not type(got) or ref != got:
        out.append(f"{path}: {got!r} != {ref!r}")


def json_mismatches(reference: str, fresh: str) -> list[str]:
    """Where the fresh JSON document misses the stored one (test_golden's
    docstring); empty when it passes."""
    out: list[str] = []
    _diff(_normalize(strict_json(reference, Decimal)), _normalize(strict_json(fresh, Decimal)), "doc", out)
    return out


def _cell(text: str):
    try:
        value = Decimal(text)
    except InvalidOperation:
        return text
    return value if value.is_finite() else text


def _csv_rows(text: str) -> tuple[list[str], list[list]]:
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = [[_cell(c) for c in line.split(",")] for line in lines[len(comments):]]
    if rows[0] == ["mu", "re", "im"]:
        body = sorted(rows[1:], key=lambda row: _angle({"re": float(row[1]), "im": float(row[2])}))
        rows = rows[:1] + [[mu, re, im] for mu, (_, re, im) in enumerate(body)]
    return comments, rows


def csv_mismatches(reference: str, fresh: str) -> list[str]:
    """Where the fresh CSV document misses the stored one, or writes a
    number with more than 12 significant digits (test_golden's docstring);
    empty when it passes."""
    ref_comments, ref_rows = _csv_rows(reference)
    got_comments, got_rows = _csv_rows(fresh)
    out = [] if got_comments == ref_comments else [f"# lines {got_comments!r} != {ref_comments!r}"]
    _diff(ref_rows, got_rows, "csv", out)
    out.extend(
        f"csv[{i}][{j}]: {cell} has more than {SIGNIFICANT_DIGITS} significant digits"
        for i, row in enumerate(got_rows)
        for j, cell in enumerate(row)
        if isinstance(cell, Decimal) and len(cell.normalize().as_tuple().digits) > SIGNIFICANT_DIGITS
    )
    return out


def _store(path: Path, fresh: str, mismatches) -> None:
    """Write ``fresh`` to ``path`` unless the stored file passes the gate."""
    if not path.exists() or mismatches(path.read_text(), fresh):
        path.write_text(fresh)


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        text = json.dumps(cli_document(argv), sort_keys=True, separators=(",", ":")) + "\n"
        _store(GOLDEN_DIR / f"{name}.json", text, json_mismatches)
    CSV_DIR.mkdir(exist_ok=True)
    for name, argv in CSV_CASES.items():
        _store(CSV_DIR / f"{name}.csv", cli_text(argv), csv_mismatches)


if __name__ == "__main__":
    record()
