"""Command-line interface.

One command is one process; results are emitted as JSON or CSV documents
with a metadata block, written atomically when an output path is given.
Exit codes: 2 for configuration errors (an output path or a stdout that
cannot be written among them), 3 for data errors, 4 for numerical
failures; ``main`` alone words them.  The library refuses bad averaging
options, thresholds, threshold lists and step counts, and exact Fourier
averages above the dense cap, with ``graph.ConfigError`` (re-exported
here) and start nodes out of range with ``GraphError``, before it computes
anything; the CLI checks only the command, the format, the output path, the
graph source's scheme, the coin name, the text of ``--threshold`` and
``--q-list``, whether ``--start`` is given, and ``steps >= 0``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .classical import relaxation_trace, stationary
from .community import DEFAULT_MARGINAL_BAND, detect, margin_report, sweep
from .evolution import DEFAULT_AVERAGE_STEPS, average_rows, transition_rows
from .graph import ConfigError, Graph, GraphError, betti_number, builtin, is_bipartite, load_edge_list, load_pajek
from .io import OutputDocument, csv_table, write_atomic
from .operators import CoinKind, build_walk_operator
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


@dataclass
class RunConfig:
    command: str
    graph_source: str
    coin: str = "fourier"
    mode: str = "average-infinite"
    start: int | None = None
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
        choices = " or ".join(kind.value for kind in CoinKind)
        raise ConfigError(f"unknown coin {name!r}; choose {choices}") from None


def _normalized(rows):
    return lambda nodes: rows(nodes)[1]


def _threshold(config: RunConfig, graph: Graph) -> float:
    if config.threshold == "auto":
        return 1.0 / graph.arc_count
    try:
        return float(config.threshold)
    except ValueError:
        raise ConfigError(f"threshold must be a number or 'auto', got {config.threshold!r}") from None


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
    rows = [
        {"t": t, "probability": p, "normalized": p / graph.degrees}
        for t, p in enumerate(transition_rows(op, config.start, config.steps))
    ]
    return {"start": config.start, "steps": config.steps}, {"start": config.start, "rows": rows}


def _run_average(config: RunConfig, graph: Graph) -> tuple[dict, dict]:
    params, rows = average_rows(graph, _coin_kind(config.coin), config.mode, config.steps)
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
    params, rows = average_rows(graph, _coin_kind(config.coin), config.mode, config.steps)
    q = _threshold(config, graph)
    norm = _normalized(rows)
    partition = detect(norm, graph, q)
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
    params, rows = average_rows(graph, _coin_kind(config.coin), config.mode, config.steps)
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


# each renderer returns the header and the rows of its command's CSV table,
# from the payload and the node ids 1..N
def _csv_evolve(payload: dict, ids: range):
    kinds = ("probability", "normalized")
    rows = ([row["t"], kind, *row[kind]] for row in payload["rows"] for kind in kinds)
    return ["t", "kind", *ids], rows


def _csv_average(payload: dict, ids: range):
    starts = [payload["start"]] if "start" in payload else ids
    rows = zip(starts, np.atleast_2d(payload["normalized"]))
    return ["l", *ids], ([start, *row] for start, row in rows)


def _csv_spectrum(payload: dict, ids: range):
    rows = ([mu, v.real, v.imag] for mu, v in enumerate(payload["eigenvalues"]))
    return ["mu", "re", "im"], rows


def _csv_detect(payload: dict, ids: range):
    flagged = {(m["node"], m["hub"]): m for m in payload["margins"]}
    rows = []
    for node, comm in sorted(payload["assignment"].items(), key=lambda kv: int(kv[0])):
        hub = payload["hubs"][comm]
        entry = flagged[(int(node), hub)]
        rows.append([node, comm, hub, entry["margin"], entry["marginal"]])
    return ["node", "community", "hub", "margin", "marginal"], rows


def _csv_sweep(payload: dict, ids: range):
    rows = ([e["q"], e["count"], ";".join(map(str, e["sizes"]))] for e in payload["entries"])
    return ["q", "count", "sizes"], rows


def _csv_classical(payload: dict, ids: range):
    rows = ([r["t"], r["tv_to_stationary"], *r["probability"]] for r in payload["trace"])
    return ["t", "tv", *ids], rows


class _Command(NamedTuple):
    summary: str
    # returns the parameters and the payload of the command's document
    run: Callable[[RunConfig, Graph], tuple[dict, dict]]
    csv: Callable[[dict, range], tuple]


# one entry per command, in the order --help lists them
_COMMANDS = {
    "evolve": _Command("time evolution of a transition row", _run_evolve, _csv_evolve),
    "average": _Command("time-averaged transition probabilities", _run_average, _csv_average),
    "spectrum": _Command("eigenvalues, degeneracy report, IPR", _run_spectrum, _csv_spectrum),
    "detect": _Command("threshold community detection", _run_detect, _csv_detect),
    "sweep": _Command("community counts over a threshold list", _run_sweep, _csv_sweep),
    "classical": _Command("classical random-walk baseline", _run_classical, _csv_classical),
}


def run(config: RunConfig) -> OutputDocument:
    """Dispatch one configured analysis and return its output document."""
    if config.command not in _COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.format not in ("json", "csv"):
        raise ConfigError(f"unknown output format {config.format!r}")
    if config.steps < 0:
        raise ConfigError("steps must be non-negative")
    if config.output and not os.path.isdir(os.path.dirname(os.path.abspath(config.output))):
        raise ConfigError(f"cannot write {config.output}: its directory does not exist")
    graph = _load_graph(config.graph_source)
    parameters, payload = _COMMANDS[config.command].run(config, graph)
    return OutputDocument(_metadata(config, graph, parameters), payload)


def render(doc: OutputDocument, fmt: str) -> str:
    if fmt == "json":
        return doc.to_json()
    renderer = _COMMANDS[doc.metadata["command"]].csv
    ids = range(1, doc.metadata["graph"]["nodes"] + 1)
    lines = doc.metadata_comment_lines() + csv_table(*renderer(doc.payload, ids))
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
    for name, entry in _COMMANDS.items():
        p = sub.add_parser(name, help=entry.summary, argument_default=argparse.SUPPRESS)
        p.add_argument(
            "--graph",
            dest="graph_source",
            required=True,
            help="builtin:NAME | edgelist:PATH | pajek:PATH",
        )
        if name != "classical":  # a classical random walk has no coin
            p.add_argument("--coin", choices=[kind.value for kind in CoinKind])
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=["json", "csv"])

    def averaging(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mode",
            choices=["average-finite", "average-infinite"],
            help="averaging mode (default: exact infinite-time; finite time only on request)",
        )
        p.add_argument("--steps", type=int)

    p = sub.choices["evolve"]
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--steps", type=int, default=15)

    p = sub.choices["average"]
    averaging(p)
    p.add_argument("--start", type=int)

    p = sub.choices["detect"]
    averaging(p)
    p.add_argument("--threshold")

    p = sub.choices["sweep"]
    averaging(p)
    p.add_argument("--q-list", required=True, help="comma-separated ascending thresholds")

    p = sub.choices["classical"]
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
    try:
        if config.output:
            write_atomic(config.output, text)
        else:
            # flushed here, so that a failed write is reported here; the
            # interpreter's own flush at exit then finds nothing to write
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        return _fail(EXIT_CONFIG, "config", f"cannot write {config.output or 'stdout'}: {exc}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
