"""Output checks for the CLI documents the benchmark produces.

Two kinds of check:

* ``compare_to_reference``: against a document recorded for the default
  seed.  Integers, booleans and strings (hubs, assignments, marginal flags,
  multiplicities, counts) must match exactly; floats must match within
  ``RTOL``/``ATOL``.  Keys the reference lacks are ignored, so documents may
  gain fields.  Spectrum eigenvalues are compared as a list sorted by
  argument, and per-eigenvector IPR is not compared, because inside a
  degenerate eigenspace the eigenbasis (and so its IPR) is arbitrary.
* ``detect_invariants``: seed-independent properties of a detect document.
"""

from __future__ import annotations

import cmath
import math

RTOL = 1e-7
ATOL = 1e-10


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _angle(z: dict) -> float:
    theta = cmath.phase(complex(z["re"], z["im"]))
    return theta - 2 * math.pi if theta > math.pi - 1e-9 else theta


def _normalize(doc: dict) -> dict:
    meta = dict(doc.get("metadata", {}))
    if "graph" in meta:
        meta["graph"] = {k: v for k, v in meta["graph"].items() if k != "source"}
    payload = dict(doc.get("payload", {}))
    if "eigenvalues" in payload:
        payload["eigenvalues"] = sorted(payload["eigenvalues"], key=_angle)
        payload.pop("ipr", None)
    return {"metadata": meta, "payload": payload}


def _diff(ref, got, path: str, out: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            out.append(f"{path}: expected an object")
            return
        for key, value in ref.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                _diff(value, got[key], f"{path}.{key}", out)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            out.append(f"{path}: expected a list of {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _diff(r, g, f"{path}[{i}]", out)
    elif isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if not _close(float(got), ref):
            out.append(f"{path}: {got!r} differs from {ref!r}")
    elif type(ref) is not type(got) or ref != got:
        out.append(f"{path}: {got!r} != {ref!r}")


def compare_to_reference(reference: dict, document: dict) -> list[str]:
    """Mismatches between a document and its reference; empty when it passes."""
    out: list[str] = []
    _diff(_normalize(reference), _normalize(document), "doc", out)
    return out


def detect_invariants(document: dict, stats: dict | None = None) -> list[str]:
    """Violations of what every detect document must satisfy.

    Every node is assigned exactly once, each hub belongs to its own
    community, communities agree with the assignment, and the threshold is
    q = 1/D.  ``stats`` (from the generator) must match the graph metadata.
    """
    out: list[str] = []
    graph = document["metadata"]["graph"]
    payload = document["payload"]
    if stats is not None:
        for key, value in stats.items():
            if graph.get(key) != value:
                out.append(f"graph.{key}: {graph.get(key)!r} != generated {value!r}")
    n = graph["nodes"]
    hubs = payload["hubs"]
    assignment = payload["assignment"]
    if sorted(assignment, key=int) != [str(i) for i in range(1, n + 1)]:
        out.append("assignment does not cover every node exactly once")
    if len(set(hubs)) != len(hubs):
        out.append("a hub leads two communities")
    for index, hub in enumerate(hubs):
        if assignment.get(str(hub)) != index:
            out.append(f"hub {hub} is not in its own community {index}")
    for index, community in enumerate(payload["communities"]):
        members = sorted(int(node) for node, c in assignment.items() if c == index)
        if community["hub"] != hubs[index] or community["members"] != members:
            out.append(f"community {index} disagrees with the assignment")
    if any(not 0 <= c < len(hubs) for c in assignment.values()):
        out.append("assignment names a community that does not exist")
    if not _close(payload["threshold"], 1.0 / graph["arcs"]):
        out.append(f"threshold {payload['threshold']} is not 1/D")
    if len(payload["margins"]) != n * len(hubs):
        out.append("margins do not list every (node, hub) pair")
    return out
