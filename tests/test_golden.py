"""Golden-document gate: CLI output must match the documents recorded in
``tests/golden/`` (see ``record_golden.py``).

Every document must parse as strict JSON (RFC 8259: no NaN or Infinity).
Integers, booleans and strings (hubs, assignments, marginal flags,
multiplicities, counts) must match exactly; floats within 1e-12 absolute.
Spectrum eigenvalues are compared as a list sorted by argument, and the
per-eigenvector IPR is skipped: inside a degenerate eigenspace the basis,
and so its IPR, is arbitrary.
"""

import cmath
import json
import math

import pytest
from record_golden import CASES, GOLDEN_DIR, cli_document, strict_json

FLOAT_ATOL = 1e-12


def _angle(z: dict) -> float:
    theta = cmath.phase(complex(z["re"], z["im"]))
    # -1 may land on either side of the branch cut
    return theta - 2 * math.pi if theta > math.pi - 1e-9 else theta


def _normalize(doc: dict) -> dict:
    payload = dict(doc["payload"])
    if "eigenvalues" in payload:
        payload["eigenvalues"] = sorted(payload["eigenvalues"], key=_angle)
        payload.pop("ipr")
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
    elif isinstance(ref, float) and type(got) in (int, float):
        if not abs(got - ref) <= FLOAT_ATOL:
            out.append(f"{path}: {got!r} differs from {ref!r}")
    elif type(ref) is not type(got) or ref != got:
        out.append(f"{path}: {got!r} != {ref!r}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case):
    reference = json.loads((GOLDEN_DIR / f"{case}.json").read_text())
    mismatches: list[str] = []
    _diff(_normalize(reference), _normalize(cli_document(CASES[case])), "doc", mismatches)
    assert not mismatches, "\n".join(mismatches[:20])


def test_every_golden_document_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_documents_are_parsed_as_strict_json(constant):
    with pytest.raises(ValueError, match="not JSON"):
        strict_json(f'{{"threshold": {constant}}}')
