"""Command-line interface.

One command is one process; results are emitted as JSON or CSV documents
with a metadata block, written atomically when an output path is given.
Exit codes: 2 for configuration errors, 3 for data errors, 4 for numerical
failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .classical import relaxation_trace, stationary
from .community import (
    DEFAULT_MARGINAL_BAND,
    detect,
    margin_report,
    sweep,
)
from .evolution import DEFAULT_AVERAGE_STEPS, finite_time_average_matrix, transition_rows
from .graph import Graph, GraphError, betti_number, builtin, is_bipartite, load_edge_list, load_pajek
from .io import OutputDocument, emit_heatmap_csv, format_float, write_atomic
from .operators import (
    DEFAULT_DENSE_CAP,
    CoinKind,
    DenseCapExceeded,
    build_walk_operator,
    materialize_dense,
)
from .spectral import (
    DEFAULT_DEGENERACY_TOL,
    SpectralError,
    argument_histogram,
    decompose,
    degeneracy_report,
    eigenstate_node_probability,
    grover_average_matrix,
    infinite_time_average_matrix,
    ipr,
    walk_decompose,
)

__all__ = ["RunConfig", "ConfigError", "run", "main"]

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    command: str
    graph_source: str
    coin: str = "fourier"
    mode: str = "average-infinite"
    start: int | None = None
    slot: int | None = None
    steps: int = DEFAULT_AVERAGE_STEPS
    threshold: str = "auto"
    q_list: tuple[float, ...] = ()
    bins: int = 20
    include_start: bool = False
    marginal_band: float = DEFAULT_MARGINAL_BAND
    output: str | None = None
    format: str = "json"
    dense_cap: int = DEFAULT_DENSE_CAP
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL


def _load_graph(source: str) -> Graph:
    kind, sep, rest = source.partition(":")
    if not sep:
        kind, rest = "builtin", source
    if kind == "builtin":
        return builtin(rest)
    if kind in ("edgelist", "pajek"):
        try:
            with open(rest, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphError(f"cannot read {rest}: {exc}") from exc
        return load_edge_list(text) if kind == "edgelist" else load_pajek(text)
    raise ConfigError(
        f"unknown graph source {source!r}; use builtin:NAME, edgelist:PATH or pajek:PATH"
    )


def _coin_kind(name: str) -> CoinKind:
    try:
        return CoinKind(name.lower())
    except ValueError:
        raise ConfigError(f"unknown coin {name!r}; choose fourier or grover") from None


def _resolve_mode(config: RunConfig) -> str:
    mode = {"finite": "average-finite", "infinite": "average-infinite"}.get(config.mode, config.mode)
    if mode not in ("average-finite", "average-infinite"):
        raise ConfigError(f"unknown averaging mode {config.mode!r}")
    return mode


def _average_matrices(config: RunConfig, graph: Graph) -> tuple[dict, np.ndarray, np.ndarray]:
    """The (p, P) matrices and the document parameters that say how they
    were computed: the mode, and the time window of finite averages or the
    eigensolver of exact ones."""
    coin = _coin_kind(config.coin)
    mode = _resolve_mode(config)
    if mode == "average-finite":
        if config.steps < 1:
            raise ConfigError("average-finite needs --steps of at least 1")
        p, norm = finite_time_average_matrix(
            build_walk_operator(graph, coin), steps=config.steps, include_start=config.include_start
        )
        window_start = 0 if config.include_start else 1
        return {"mode": mode, "steps": config.steps, "window_start": window_start}, p, norm
    if config.include_start:
        raise ConfigError("--include-t0 applies only to --mode average-finite")
    if coin is CoinKind.GROVER:
        p, norm = grover_average_matrix(graph, config.degeneracy_tol)
        return {"mode": mode, "eigensolver": "grover-spectral-map"}, p, norm
    op = build_walk_operator(graph, coin)
    try:
        dec = walk_decompose(op, config.degeneracy_tol, config.dense_cap)
    except DenseCapExceeded as exc:
        msg = f"{exc}; use --mode average-finite or raise --dense-cap"
        raise DenseCapExceeded(msg) from None
    p, norm = infinite_time_average_matrix(dec, graph)
    return {"mode": mode, "eigensolver": "cayley-real-evd"}, p, norm


def _threshold(config: RunConfig, graph: Graph) -> float:
    if config.threshold == "auto":
        return 1.0 / graph.arc_count
    try:
        q = float(config.threshold)
    except ValueError:
        raise ConfigError(f"threshold must be a number or 'auto', got {config.threshold!r}") from None
    if not (np.isfinite(q) and q > 0):
        raise ConfigError(f"threshold must be finite and positive, got {config.threshold!r}")
    return q


def _metadata(config: RunConfig, graph: Graph, **extra) -> dict:
    meta = {
        "tool": "arcwalk",
        "version": __version__,
        "command": config.command,
        "graph": {
            "source": config.graph_source,
            "nodes": graph.node_count,
            "arcs": graph.arc_count,
            "betti": betti_number(graph),
            "bipartite": is_bipartite(graph),
        },
        "coin": config.coin,
    }
    meta.update(extra)
    return meta


def _node_ids(graph: Graph) -> list[int]:
    return list(range(1, graph.node_count + 1))


def _run_evolve(config: RunConfig, graph: Graph) -> OutputDocument:
    if config.start is None:
        raise ConfigError("evolve requires --start")
    op = build_walk_operator(graph, _coin_kind(config.coin))
    if config.slot is not None and not 0 <= config.slot < graph.degree(config.start):
        raise ConfigError(f"slot {config.slot} out of range for node {config.start}")
    rows = [
        {"t": t, "probability": p, "normalized": p / graph.degrees}
        for t, p in enumerate(transition_rows(op, config.start, config.steps, config.slot))
    ]
    payload = {"start": config.start, "rows": rows}
    meta = _metadata(config, graph, parameters={"start": config.start, "steps": config.steps})
    return OutputDocument(meta, payload)


def _run_average(config: RunConfig, graph: Graph) -> OutputDocument:
    if config.start is not None and not 1 <= config.start <= graph.node_count:
        raise GraphError(f"node {config.start} out of range 1..{graph.node_count}")
    params, p, norm = _average_matrices(config, graph)
    if config.start is not None:
        payload = {
            "start": config.start,
            "probability": p[config.start - 1],
            "normalized": norm[config.start - 1],
        }
    else:
        payload = {"node_ids": _node_ids(graph), "probability": p, "normalized": norm}
    return OutputDocument(_metadata(config, graph, parameters=params), payload)


def _run_spectrum(config: RunConfig, graph: Graph) -> OutputDocument:
    if config.bins < 2:
        raise ConfigError("--bins must be at least 2")
    coin = _coin_kind(config.coin)
    op = build_walk_operator(graph, coin)
    if coin is CoinKind.FOURIER:
        dec = walk_decompose(op, config.degeneracy_tol, config.dense_cap)
    else:
        # the Schur form puts the -1 group where the recorded Grover censuses do
        dec = decompose(materialize_dense(op, cap=config.dense_cap), config.degeneracy_tol)
    report = degeneracy_report(dec, graph)
    counts, edges = argument_histogram(dec, config.bins)
    payload = {
        "eigenvalues": [complex(v) for v in dec.eigenvalues],
        "degeneracy": {
            "groups": [
                {"eigenvalue": rep, "multiplicity": mult} for rep, mult in report.entries
            ],
            "plus_one": report.plus_one,
            "minus_one": report.minus_one,
            "predicted_plus_one": report.predicted_plus_one,
            "predicted_minus_one": report.predicted_minus_one,
        },
        "histogram": {"counts": counts, "bin_edges": edges},
        "ipr": ipr(eigenstate_node_probability(dec, graph)),
    }
    meta = _metadata(
        config, graph, parameters={"bins": config.bins, "degeneracy_tol": config.degeneracy_tol}
    )
    return OutputDocument(meta, payload)


def _run_detect(config: RunConfig, graph: Graph) -> OutputDocument:
    params, _, norm = _average_matrices(config, graph)
    q = _threshold(config, graph)
    partition = detect(norm, graph, q, source=params["mode"])
    margins = margin_report(norm, partition, band=config.marginal_band)
    payload = {
        "threshold": q,
        "hubs": list(partition.hubs),
        "communities": [
            {"hub": hub, "members": list(partition.members(idx))}
            for idx, hub in enumerate(partition.hubs)
        ],
        "assignment": {str(node): c for node, c in sorted(partition.assignment.items())},
        "margins": [
            {"node": m.node, "hub": m.hub, "margin": m.margin, "marginal": m.marginal}
            for m in margins
        ],
    }
    meta = _metadata(
        config,
        graph,
        parameters={**params, "threshold": q, "marginal_band": config.marginal_band},
    )
    return OutputDocument(meta, payload)


def _run_sweep(config: RunConfig, graph: Graph) -> OutputDocument:
    if not config.q_list:
        raise ConfigError("sweep requires --q-list")
    qs = list(config.q_list)
    if not all(np.isfinite(q) and q > 0 for q in qs) or qs != sorted(qs):
        raise ConfigError("--q-list must hold finite positive thresholds in ascending order")
    params, _, norm = _average_matrices(config, graph)
    entries = sweep(norm, graph, config.q_list, source=params["mode"])
    payload = {
        "entries": [
            {"q": q, "count": count, "sizes": list(sizes)} for q, count, sizes in entries
        ]
    }
    meta = _metadata(config, graph, parameters={**params, "q_list": list(config.q_list)})
    return OutputDocument(meta, payload)


def _run_classical(config: RunConfig, graph: Graph) -> OutputDocument:
    if config.start is None:
        raise ConfigError("classical requires --start")
    if config.steps < 1:
        raise ConfigError("classical needs --steps of at least 1")
    trace, tv = relaxation_trace(graph, config.start, config.steps)
    flat = stationary(graph)
    payload = {
        "start": config.start,
        "stationary": flat,
        "normalized_stationary": flat / graph.degrees,
        "trace": [
            {"t": t, "probability": p, "tv_to_stationary": float(v)}
            for t, (p, v) in enumerate(zip(trace, tv), start=1)
        ],
    }
    meta = _metadata(config, graph, parameters={"start": config.start, "steps": config.steps})
    return OutputDocument(meta, payload)


_RUNNERS = {
    "evolve": _run_evolve,
    "average": _run_average,
    "spectrum": _run_spectrum,
    "detect": _run_detect,
    "sweep": _run_sweep,
    "classical": _run_classical,
}


def run(config: RunConfig) -> OutputDocument:
    """Dispatch one configured analysis and return its output document."""
    if config.command not in _RUNNERS:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.format not in ("json", "csv"):
        raise ConfigError(f"unknown output format {config.format!r}")
    if config.steps < 0:
        raise ConfigError("steps must be non-negative")
    if not (np.isfinite(config.degeneracy_tol) and config.degeneracy_tol > 0):
        raise ConfigError(f"--deg-tol must be finite and positive, got {config.degeneracy_tol}")
    if not (np.isfinite(config.marginal_band) and config.marginal_band >= 0):
        raise ConfigError(
            f"--marginal-band must be finite and non-negative, got {config.marginal_band}"
        )
    graph = _load_graph(config.graph_source)
    return _RUNNERS[config.command](config, graph)


def _csv_evolve(doc: OutputDocument) -> list[str]:
    n = doc.metadata["graph"]["nodes"]
    header = "t,kind," + ",".join(str(i) for i in range(1, n + 1))
    lines = [header]
    for row in doc.payload["rows"]:
        for kind in ("probability", "normalized"):
            values = ",".join(format_float(v) for v in row[kind])
            lines.append(f"{row['t']},{kind},{values}")
    return lines


def _csv_average(doc: OutputDocument) -> list[str]:
    n = doc.metadata["graph"]["nodes"]
    ids = list(range(1, n + 1))
    if "start" in doc.payload:
        matrix = np.asarray(doc.payload["normalized"])[None, :]
        return emit_heatmap_csv(matrix, [doc.payload["start"]], ids).splitlines()
    return emit_heatmap_csv(np.asarray(doc.payload["normalized"]), ids).splitlines()


def _csv_spectrum(doc: OutputDocument) -> list[str]:
    lines = ["mu,re,im"]
    for mu, v in enumerate(doc.payload["eigenvalues"]):
        lines.append(f"{mu},{format_float(v.real)},{format_float(v.imag)}")
    return lines


def _csv_detect(doc: OutputDocument) -> list[str]:
    lines = ["node,community,hub,margin,marginal"]
    flagged = {(m["node"], m["hub"]): m for m in doc.payload["margins"]}
    for node, comm in sorted(doc.payload["assignment"].items(), key=lambda kv: int(kv[0])):
        hub = doc.payload["hubs"][comm]
        entry = flagged[(int(node), hub)]
        lines.append(
            f"{node},{comm},{hub},{format_float(entry['margin'])},{entry['marginal']}"
        )
    return lines


def _csv_sweep(doc: OutputDocument) -> list[str]:
    lines = ["q,count,sizes"]
    for entry in doc.payload["entries"]:
        sizes = ";".join(str(s) for s in entry["sizes"])
        lines.append(f"{format_float(entry['q'])},{entry['count']},{sizes}")
    return lines


def _csv_classical(doc: OutputDocument) -> list[str]:
    n = doc.metadata["graph"]["nodes"]
    header = "t,tv," + ",".join(str(i) for i in range(1, n + 1))
    lines = [header]
    for row in doc.payload["trace"]:
        values = ",".join(format_float(v) for v in row["probability"])
        lines.append(f"{row['t']},{format_float(row['tv_to_stationary'])},{values}")
    return lines


_CSV_RENDERERS = {
    "evolve": _csv_evolve,
    "average": _csv_average,
    "spectrum": _csv_spectrum,
    "detect": _csv_detect,
    "sweep": _csv_sweep,
    "classical": _csv_classical,
}


def render(doc: OutputDocument, fmt: str) -> str:
    if fmt == "json":
        return doc.to_json()
    command = doc.metadata["command"]
    lines = doc.metadata_comment_lines() + _CSV_RENDERERS[command](doc)
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcwalk",
        description="Coined discrete-time quantum walks and walk-based community detection.",
    )
    parser.add_argument("--version", action="version", version=f"arcwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # dests are RunConfig field names, and a flag left unset stays out of the
    # namespace, so RunConfig alone holds the defaults
    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument(
            "--graph",
            dest="graph_source",
            required=True,
            help="builtin:NAME | edgelist:PATH | pajek:PATH",
        )
        p.add_argument("--coin", choices=["fourier", "grover"])
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=["json", "csv"])
        dense = "cap on the arc count D of the dense D x D arrays of exact Fourier averages"
        dense += f" and of spectrum (default {DEFAULT_DENSE_CAP})"
        p.add_argument("--dense-cap", type=int, help=dense)
        p.add_argument("--deg-tol", dest="degeneracy_tol", type=float)
        return p

    def averaging(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mode",
            choices=["average-finite", "average-infinite", "finite", "infinite"],
            help="averaging mode (default: exact infinite-time; finite time only on request)",
        )
        p.add_argument("--steps", type=int)
        p.add_argument("--include-t0", dest="include_start", action="store_true")

    p = command("evolve", "time evolution of a transition row")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--slot", type=int)
    p.add_argument("--steps", type=int, default=15)

    p = command("average", "time-averaged transition probabilities")
    averaging(p)
    p.add_argument("--start", type=int)

    p = command("spectrum", "eigenvalues, degeneracy report, IPR")
    p.add_argument("--bins", type=int)

    p = command("detect", "threshold community detection")
    averaging(p)
    p.add_argument("--threshold")
    p.add_argument("--marginal-band", type=float)

    p = command("sweep", "community counts over a threshold list")
    averaging(p)
    p.add_argument("--q-list", required=True, help="comma-separated ascending thresholds")

    p = command("classical", "classical random-walk baseline")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--steps", type=int)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = vars(args)
    text = fields.pop("q_list", "")
    try:
        q_list = tuple(float(v) for v in text.split(",")) if text else ()
    except ValueError:
        raise ConfigError(f"--q-list must be comma-separated numbers, got {text!r}") from None
    return RunConfig(**fields, q_list=q_list)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        doc = run(config)
        text = render(doc, config.format)
    except GraphError as exc:
        print(f"arcwalk: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SpectralError as exc:
        print(f"arcwalk: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, DenseCapExceeded) as exc:
        print(f"arcwalk: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if config.output:
        write_atomic(config.output, text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
