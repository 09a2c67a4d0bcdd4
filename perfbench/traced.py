"""Traced in-process run of the arcwalk pipeline (one child process per task).

Usage: ``python3 perfbench/traced.py TASK.json OUT.json``

A ``detect`` task calls the library's public functions in the order the CLI's
``detect`` command does -- load, build_walk_operator, then materialize_dense,
decompose and infinite_time_average_matrix (or finite_time_average_matrix),
then detect, margin_report and cli.render -- with a span around each call.
A ``probe`` task times the layers a workload's detect path does not reach
(finite-time averaging, the eigensolver, single stepping chunks, the
classical baseline), so every per-layer metric exists on every workload.

Each span records name, start, end, parent and the tracemalloc peak above
its starting level.  Spans stay in memory and are written with the checks
at the end.  Invariant checks run inside a top-level ``checks`` span so the
parent can take their time out of the traced total.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

APPLY_CHUNK_ARCS = 1024
APPLY_STEPS = 20
CLASSICAL_STEPS = 100
FINITE_STEPS = 100


class Tracer:
    def __init__(self, job: str) -> None:
        self.job = job
        self.spans: list[dict] = []
        self.checks: list[dict] = []
        self._open: list[dict] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        current, peak = tracemalloc.get_traced_memory()
        if parent is not None:
            parent["_peak"] = max(parent["_peak"], peak)
        tracemalloc.reset_peak()
        record = {
            "id": len(self.spans),
            "job": self.job,
            "name": name,
            "parent": None if parent is None else parent["id"],
            "attrs": attrs,
            "_base": current,
            "_peak": current,
        }
        self.spans.append(record)
        self._open.append(record)
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            peak = max(record.pop("_peak"), tracemalloc.get_traced_memory()[1])
            self._open.pop()
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
            record["start"] = start - self._t0
            record["end"] = end - self._t0
            record["peak_mb"] = (peak - record.pop("_base")) / 2**20

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"job": self.job, "name": name, "ok": bool(ok), "detail": detail})


def _graph_tags(record: dict, graph) -> dict:
    record["attrs"].update(N=graph.node_count, D=graph.arc_count)
    return record["attrs"]


def _spectral_checks(tr: Tracer, aw, np, tags: dict, graph, dense, dec, p=None, norm=None) -> dict:
    """Invariants on values the run already holds; returns the group counts."""
    d = dense.shape[0]
    drift = float(np.max(np.abs(dense.conj().T @ dense - np.eye(d))))
    tr.check("dense U is unitary", drift < 1e-10, f"max|U*U - I| = {drift:.2e}")
    if p is not None:
        _row_check(tr, np, p)
        asym = float(np.max(np.abs(norm - norm.T)))
        tr.check("normalized infinite-time matrix is symmetric", asym < 1e-12, f"{asym:.2e}")
    with tr.span("spectral.degeneracy", **tags):
        report = aw.degeneracy_report(dec, graph)
    if tags["coin"] == "grover":
        tr.check(
            "Grover +-1 multiplicities match the Betti prediction",
            report.matches_prediction,
            f"+1: {report.plus_one}/{report.predicted_plus_one}, "
            f"-1: {report.minus_one}/{report.predicted_minus_one}",
        )
    sizes = [len(g) for g in dec.groups]
    return {
        "groups": len(sizes),
        "max_group": max(sizes),
        "degenerate_dim": sum(s for s in sizes if s > 1),
    }


def _row_check(tr: Tracer, np, p) -> None:
    err = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
    tr.check("rows of p sum to 1", err < 1e-9, f"max row-sum error {err:.2e}")


def run_detect(tr: Tracer, task: dict) -> dict:
    """The CLI's detect pipeline, one span per public call."""
    import numpy as np

    import arcwalk as aw
    from arcwalk.cli import render
    from loadgraph import load

    coin, mode = task["coin"], task["mode"]
    result: dict = {"decompositions": []}
    with tr.span("job", graph=task["label"], coin=coin, mode=mode):
        with tr.span("graph.load", graph=task["label"], coin=coin) as record:
            graph = load(task["source"])
        tags = _graph_tags(record, graph)
        with tr.span("operators.build", **tags):
            op = aw.build_walk_operator(graph, aw.CoinKind(coin))
        if mode == "average-infinite":
            with tr.span("operators.materialize", **tags):
                dense = aw.materialize_dense(op)
            with tr.span("spectral.decompose", **tags):
                dec = aw.decompose(dense)
            with tr.span("spectral.cesaro", **tags):
                p, norm = aw.infinite_time_average_matrix(dec, graph)
        else:
            with tr.span("evolution.finite_average", steps=task["steps"], **tags):
                p, norm = aw.finite_time_average_matrix(op, steps=task["steps"])
        q = 1.0 / graph.arc_count
        with tr.span("community.detect", **tags):
            partition = aw.detect(norm, graph, q, source=mode)
        with tr.span("community.margin", **tags):
            margins = aw.margin_report(norm, partition)
        with tr.span("io.document", **tags):
            doc = _detect_document(aw, task, graph, partition, margins, q)
        with tr.span("io.render", **tags):
            text = render(doc, "json")
    with tr.span("checks"):
        if mode == "average-infinite":
            counts = _spectral_checks(tr, aw, np, tags, graph, dense, dec, p, norm)
            result["decompositions"].append(counts)
        else:
            _row_check(tr, np, p)
    result["doc_bytes"] = len(text.encode("utf-8"))
    result["document"] = json.loads(text)
    return result


def _detect_document(aw, task, graph, partition, margins, q):
    """The document ``arcwalk detect`` emits, built from the same values."""
    from arcwalk.community import DEFAULT_MARGINAL_BAND

    metadata = {
        "tool": "arcwalk",
        "version": aw.__version__,
        "command": "detect",
        "graph": {
            "source": task["source"],
            "nodes": graph.node_count,
            "arcs": graph.arc_count,
            "betti": aw.betti_number(graph),
            "bipartite": aw.is_bipartite(graph),
        },
        "coin": task["coin"],
        "parameters": {"mode": task["mode"], "threshold": q, "marginal_band": DEFAULT_MARGINAL_BAND},
    }
    payload = {
        "threshold": q,
        "hubs": list(partition.hubs),
        "communities": [
            {"hub": hub, "members": list(partition.members(i))}
            for i, hub in enumerate(partition.hubs)
        ],
        "assignment": {str(node): c for node, c in sorted(partition.assignment.items())},
        "margins": [
            {"node": m.node, "hub": m.hub, "margin": m.margin, "marginal": m.marginal}
            for m in margins
        ],
    }
    return aw.OutputDocument(metadata, payload)


def run_probes(tr: Tracer, task: dict) -> dict:
    """Layers the workload's detect path does not reach, on its own graphs."""
    import numpy as np

    import arcwalk as aw
    from loadgraph import load

    result: dict = {"decompositions": []}
    for probe in task["probes"]:
        what, coin = probe["what"], probe.get("coin", "-")
        with tr.span("probe", what=what, graph=probe["label"], coin=coin):
            with tr.span("probe.load", graph=probe["label"], coin=coin) as record:
                graph = load(probe["source"])
            tags = _graph_tags(record, graph)
            if what == "classical":
                with tr.span("classical.trace", **tags):
                    aw.relaxation_trace(graph, 1, CLASSICAL_STEPS)
                continue
            with tr.span("operators.build", **tags):
                op = aw.build_walk_operator(graph, aw.CoinKind(coin))
            if what == "apply_step":
                rows = min(APPLY_CHUNK_ARCS, graph.arc_count)
                batch = np.zeros((rows, graph.arc_count), dtype=complex)
                batch[np.arange(rows), np.arange(rows)] = 1.0
                for _ in range(APPLY_STEPS):
                    with tr.span("operators.apply_step", rows=rows, **tags):
                        batch = op.apply_amplitudes(batch)
            elif what == "finite":
                with tr.span("evolution.finite_average", steps=FINITE_STEPS, **tags):
                    p, _ = aw.finite_time_average_matrix(op, steps=FINITE_STEPS)
                with tr.span("checks"):
                    _row_check(tr, np, p)
            elif what in ("exact", "spectrum"):
                with tr.span("operators.materialize", **tags):
                    dense = aw.materialize_dense(op)
                with tr.span("spectral.decompose", **tags):
                    dec = aw.decompose(dense)
                p = norm = None
                if what == "exact":
                    with tr.span("spectral.cesaro", **tags):
                        p, norm = aw.infinite_time_average_matrix(dec, graph)
                with tr.span("checks"):
                    counts = _spectral_checks(tr, aw, np, tags, graph, dense, dec, p, norm)
                result["decompositions"].append(counts)
            else:
                raise ValueError(f"unknown probe {what!r}")
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: traced.py TASK.json OUT.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        task = json.load(handle)
    tr = Tracer(task["job"])
    # the import is timed but not traced: tracemalloc would slow it several
    # times over and its allocations are not the pipeline's
    with tr.span("import"):
        import arcwalk.cli  # noqa: F401  (imports numpy, scipy and every module)
        import loadgraph  # noqa: F401
    tracemalloc.start()
    runner = run_detect if task["kind"] == "detect" else run_probes
    result = runner(tr, task)
    result.update(spans=tr.spans, checks=tr.checks)
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
