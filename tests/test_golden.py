"""Golden-document gate: CLI output must match the documents recorded in
``tests/golden/`` (see ``record_golden.py``).

Every document must parse as strict JSON (RFC 8259: no NaN or Infinity).
Integers, booleans and strings (hubs, assignments, marginal flags,
multiplicities, counts) must match exactly; floats within 1e-12 absolute.
Both documents are parsed to exact decimals, so a field that differs by one
unit of the 12-significant-digit rendering of a value in [0.1, 1), exactly
1e-12, passes however the two decimals would round to binary.
Spectrum eigenvalues are compared with their IPRs as (eigenvalue, IPR) pairs
sorted by argument: the eigensolver's order is arbitrary, and each member of
a degenerate group reports the IPR of the group's mean node profile, which
does not depend on the basis chosen inside the group.

The CSV gate compares the ``--format csv`` output of one case per layout with
``tests/golden/csv/``: ``#`` metadata lines and non-numeric cells exactly,
numeric cells as decimals within the same 1e-12.  Spectrum rows are compared
in the same argument order, each row renumbered by its place in it.
"""

import cmath
import math
from decimal import Decimal, InvalidOperation

import pytest
from record_golden import CASES, CSV_CASES, CSV_DIR, GOLDEN_DIR, cli_document, cli_text, strict_json

FLOAT_ATOL = Decimal("1e-12")


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


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case):
    reference = strict_json((GOLDEN_DIR / f"{case}.json").read_text(), Decimal)
    got = cli_document(CASES[case], Decimal)
    mismatches: list[str] = []
    _diff(_normalize(reference), _normalize(got), "doc", mismatches)
    assert not mismatches, "\n".join(mismatches[:20])


def test_every_golden_document_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


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


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_matches_golden(case):
    ref_comments, ref_rows = _csv_rows((CSV_DIR / f"{case}.csv").read_text())
    got_comments, got_rows = _csv_rows(cli_text(CSV_CASES[case]))
    assert got_comments == ref_comments
    mismatches: list[str] = []
    _diff(ref_rows, got_rows, "csv", mismatches)
    assert not mismatches, "\n".join(mismatches[:20])


def test_every_golden_csv_has_a_case():
    assert sorted(p.stem for p in CSV_DIR.glob("*.csv")) == sorted(CSV_CASES)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_documents_are_parsed_as_strict_json(constant):
    with pytest.raises(ValueError, match="not JSON"):
        strict_json(f'{{"threshold": {constant}}}')
