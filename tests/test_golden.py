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
numeric cells as decimals within the same 1e-12, and every numeric cell of
the fresh CSV must have at most 12 significant digits, the text the JSON
document writes.  Spectrum rows are compared in the same argument order,
each row renumbered by its place in it.  Both comparisons live in
``record_golden.py``, whose recorder rewrites only the files they fail.
"""

import pytest
from record_golden import (
    CASES,
    CSV_CASES,
    CSV_DIR,
    GOLDEN_DIR,
    cli_text,
    csv_mismatches,
    json_mismatches,
    strict_json,
)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case):
    mismatches = json_mismatches((GOLDEN_DIR / f"{case}.json").read_text(), cli_text(CASES[case]))
    assert not mismatches, "\n".join(mismatches[:20])


def test_every_golden_document_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_matches_golden(case):
    mismatches = csv_mismatches((CSV_DIR / f"{case}.csv").read_text(), cli_text(CSV_CASES[case]))
    assert not mismatches, "\n".join(mismatches[:20])


def test_every_golden_csv_has_a_case():
    assert sorted(p.stem for p in CSV_DIR.glob("*.csv")) == sorted(CSV_CASES)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_documents_are_parsed_as_strict_json(constant):
    with pytest.raises(ValueError, match="not JSON"):
        strict_json(f'{{"threshold": {constant}}}')
