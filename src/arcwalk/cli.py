"""Command-line interface.

One command is one process; results are emitted as JSON or CSV documents
with a metadata block, written atomically when an output path is given.
Exit codes: 2 for configuration errors (an output path that cannot be
written among them), 3 for data errors, 4 for numerical failures; ``main``
alone words them.  The averaging commands check their options and take
the parameter record and the rows of (p, P) they read from
``evolution.average_rows``, the library's one averaging entry.
"""

from __future__ import annotations

import argparse
import os
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
from .evolution import DEFAULT_AVERAGE_STEPS, average_rows, transition_rows
from .graph import Graph, GraphError, betti_number, builtin, is_bipartite, load_edge_list, load_pajek
from .io import OutputDocument, emit_heatmap_csv, format_float, write_atomic
from .operators import CoinKind, DenseCapExceeded, build_walk_operator
from .spectral import (
    DEFAULT_DEGENERACY_TOL,
    SpectralError,
    argument_histogram,
    degeneracy_report,
    eigenstate_node_probability,
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
    output: str | None = None
    format: str = "json"


def _load_graph(source: str) -> Graph:
    kind, sep, rest = source.partition(":")
    if not sep:
        kind, rest = "builtin", source
    if kind == "builtin":
        return builtin(rest)
    if kind in ("edgelist", "pajek"):
        try:
            # utf-8-sig drops a leading byte-order mark, which some editors write
            with open(rest, encoding="utf-8-sig") as handle:
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
    """The averaging mode, once the options that average_rows would
    refuse with a ValueError are checked."""
    if config.mode not in ("average-finite", "average-infinite"):
        raise ConfigError(f"unknown averaging mode {config.mode!r}")
    if config.mode == "average-finite" and config.steps < 1:
        raise ConfigError("average-finite needs --steps of at least 1")
    return config.mode


def _averages(config: RunConfig, graph: Graph):
    return average_rows(graph, _coin_kind(config.coin), _resolve_mode(config), config.steps)


def _normalized(rows):
    return lambda nodes: rows(nodes)[1]


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


def _metadata(config: RunConfig, graph: Graph, parameters: dict) -> dict:
    return {
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
        "parameters": parameters,
    }


def _run_evolve(config: RunConfig, graph: Graph) -> tuple[dict, dict]:
    if config.start is None:
        raise ConfigError("evolve requires --start")
    op = build_walk_operator(graph, _coin_kind(config.coin))
    if config.slot is not None and not 0 <= config.slot < graph.degree(config.start):
        raise ConfigError(f"slot {config.slot} out of range for node {config.start}")
    rows = [
        {"t": t, "probability": p, "normalized": p / graph.degrees}
        for t, p in enumerate(transition_rows(op, config.start, config.steps, config.slot))
    ]
    return {"start": config.start, "steps": config.steps}, {"start": config.start, "rows": rows}


def _run_average(config: RunConfig, graph: Graph) -> tuple[dict, dict]:
    if config.start is not None:
        graph.degree(config.start)  # raises GraphError for a node out of range
    params, rows = _averages(config, graph)
    if config.start is None:
        p, norm = rows(slice(None))
        ids = list(range(1, graph.node_count + 1))
        return params, {"node_ids": ids, "probability": p, "normalized": norm}
    p, norm = rows(config.start - 1)
    return params, {"start": config.start, "probability": p, "normalized": norm}


def _run_spectrum(config: RunConfig, graph: Graph) -> tuple[dict, dict]:
    op = build_walk_operator(graph, _coin_kind(config.coin))
    dec = walk_decompose(op)
    report = degeneracy_report(dec, graph)
    # a degenerate group's basis is arbitrary, its mean node profile is not
    profiles = eigenstate_node_probability(dec, graph)
    for group in dec.groups:
        profiles[group] = profiles[group].mean(axis=0)
    counts, edges = argument_histogram(dec)
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
        "ipr": ipr(profiles),
    }
    return {"bins": len(counts), "degeneracy_tol": DEFAULT_DEGENERACY_TOL}, payload


def _run_detect(config: RunConfig, graph: Graph) -> tuple[dict, dict]:
    params, rows = _averages(config, graph)
    q = _threshold(config, graph)
    norm = _normalized(rows)
    partition = detect(norm, graph, q, source=params["mode"])
    margins = margin_report(norm, partition)
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
    return {**params, "threshold": q, "marginal_band": DEFAULT_MARGINAL_BAND}, payload


def _run_sweep(config: RunConfig, graph: Graph) -> tuple[dict, dict]:
    if not config.q_list:
        raise ConfigError("sweep requires --q-list")
    qs = list(config.q_list)
    if not all(np.isfinite(q) and q > 0 for q in qs) or qs != sorted(qs):
        raise ConfigError("--q-list must hold finite positive thresholds in ascending order")
    params, rows = _averages(config, graph)
    entries = sweep(_normalized(rows), graph, config.q_list)
    payload = {
        "entries": [
            {"q": q, "count": count, "sizes": list(sizes)} for q, count, sizes in entries
        ]
    }
    return {**params, "q_list": list(config.q_list)}, payload


def _run_classical(config: RunConfig, graph: Graph) -> tuple[dict, dict]:
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
    return {"start": config.start, "steps": config.steps}, payload


# each runner returns the parameters and the payload of its command's document
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
    if config.output and not os.path.isdir(os.path.dirname(os.path.abspath(config.output))):
        raise ConfigError(f"cannot write {config.output}: its directory does not exist")
    graph = _load_graph(config.graph_source)
    parameters, payload = _RUNNERS[config.command](config, graph)
    return OutputDocument(_metadata(config, graph, parameters), payload)


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
    ids = list(range(1, doc.metadata["graph"]["nodes"] + 1))
    rows = [doc.payload["start"]] if "start" in doc.payload else ids
    return emit_heatmap_csv(np.atleast_2d(doc.payload["normalized"]), rows, ids).splitlines()


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
    # namespace, so RunConfig holds the defaults; evolve's --steps 15 alone
    # is set here
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
        return p

    def averaging(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mode",
            choices=["average-finite", "average-infinite"],
            help="averaging mode (default: exact infinite-time; finite time only on request)",
        )
        p.add_argument("--steps", type=int)

    p = command("evolve", "time evolution of a transition row")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--slot", type=int)
    p.add_argument("--steps", type=int, default=15)

    p = command("average", "time-averaged transition probabilities")
    averaging(p)
    p.add_argument("--start", type=int)

    command("spectrum", "eigenvalues, degeneracy report, IPR")

    p = command("detect", "threshold community detection")
    averaging(p)
    p.add_argument("--threshold")

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


def _fail(code: int, kind: str, reason) -> int:
    print(f"arcwalk: {kind} error: {reason}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        text = render(run(config), config.format)
    except GraphError as exc:
        return _fail(EXIT_DATA, "data", exc)
    except SpectralError as exc:
        return _fail(EXIT_NUMERICAL, "numerical", exc)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", exc)
    except DenseCapExceeded as exc:
        # only spectrum and exact Fourier averages build a D x D array, and
        # only the averages have a mode that does without it
        way_out = "" if args.command == "spectrum" else "; use --mode average-finite"
        return _fail(EXIT_CONFIG, "config", f"{exc}{way_out}")
    if not config.output:
        sys.stdout.write(text)
        return 0
    try:
        write_atomic(config.output, text)
    except OSError as exc:
        return _fail(EXIT_CONFIG, "config", f"cannot write {config.output}: {exc}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
