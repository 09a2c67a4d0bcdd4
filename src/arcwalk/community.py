"""Threshold-based community detection on averaged normalized probabilities.

Candidates are visited in degree-descending order (ties broken by ascending
node id).  An unclassified candidate becomes the hub of a new community and
absorbs every unclassified node whose normalized average exceeds the
threshold; a candidate that was already absorbed hands its would-be members
to the community it belongs to.  Nodes exceeding no threshold end up as
singleton communities, surfacing outliers instead of forcing a fit.

:func:`detect` returns a :class:`CommunityPartition`; :func:`sweep` returns
plain (q, count, sizes) tuples, one per threshold; :func:`margin_report`
computes every node's margin against every hub from the hubs' rows and
flags it marginal within the fixed band DEFAULT_MARGINAL_BAND (10 % of the
threshold), which ``detect`` documents record.  Every margin and the
threshold are in the document, so another band can be recomputed from them.
Given a callable from node indices to rows of the matrix, ``detect`` reads
the rows of the candidates it visits and ``margin_report`` the hubs'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ConfigError, Graph

__all__ = [
    "CommunityPartition",
    "MarginEntry",
    "detect",
    "sweep",
    "margin_report",
    "DEFAULT_MARGINAL_BAND",
]

DEFAULT_MARGINAL_BAND = 0.1
_FIRST_BATCH = 8  # candidates whose rows detect asks for first


@dataclass(frozen=True)
class CommunityPartition:
    """Result of one detection run.

    ``hubs`` lists each community's hub in creation order; ``assignment``
    maps every node (1-based) to a community index.  Margins against the
    threshold come from :func:`margin_report`.
    """

    hubs: tuple[int, ...]
    assignment: dict[int, int]
    threshold: float
    source: str

    @property
    def community_count(self) -> int:
        return len(self.hubs)

    def members(self, community: int) -> tuple[int, ...]:
        return tuple(
            sorted(node for node, c in self.assignment.items() if c == community)
        )

    def sizes(self) -> tuple[int, ...]:
        counts = [0] * len(self.hubs)
        for c in self.assignment.values():
            counts[c] += 1
        return tuple(counts)


@dataclass(frozen=True)
class MarginEntry:
    node: int
    hub: int
    margin: float
    marginal: bool


def _candidate_order(graph: Graph) -> list[int]:
    return sorted(range(graph.node_count), key=lambda i: (-int(graph.degrees[i]), i))


def _rows(matrix, nodes: np.ndarray) -> np.ndarray:
    return matrix(nodes) if callable(matrix) else np.asarray(matrix, dtype=float)[nodes]


def detect(matrix, graph: Graph, threshold: float, source: str = "average") -> CommunityPartition:
    """Partition the graph given the N x N normalized average matrix, or a
    callable from 0-based node indices to those rows of it, which is asked
    for the candidates in batches of 8, 16, 32, ... until all are assigned.
    Raises :class:`ConfigError` before reading a row unless the threshold is
    finite and positive."""
    n = graph.node_count
    if not callable(matrix) and np.shape(matrix) != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {np.shape(matrix)}")
    if not (np.isfinite(threshold) and threshold > 0):
        raise ConfigError(f"threshold must be finite and positive, got {threshold}")
    order = _candidate_order(graph)
    rows: list[np.ndarray] = []
    assignment: dict[int, int] = {}
    hubs: list[int] = []
    for visited, cand in enumerate(order):
        if visited == len(rows):
            rows.extend(_rows(matrix, np.array(order[visited : 2 * visited + _FIRST_BATCH])))
        if cand in assignment:
            community = assignment[cand]
        else:
            community = len(hubs)
            hubs.append(cand)
            assignment[cand] = community
        members = [
            l
            for l in np.flatnonzero(rows[visited] > threshold)
            if int(l) not in assignment
        ]
        for l in members:
            assignment[int(l)] = community
        if len(assignment) == n:
            break
    return CommunityPartition(
        hubs=tuple(h + 1 for h in hubs),
        assignment={node + 1: c for node, c in assignment.items()},
        threshold=threshold,
        source=source,
    )


def sweep(matrix, graph: Graph, thresholds) -> tuple[tuple[float, int, tuple[int, ...]], ...]:
    """One (q, community count, community sizes) entry per threshold, from a
    detection per threshold; ``matrix`` is what :func:`detect` takes, asked
    again per threshold.  Raises :class:`ConfigError` before the first
    detection unless the thresholds are finite, positive and ascending."""
    values = [float(q) for q in thresholds]
    if not values:
        raise ConfigError("threshold list is empty")
    if not all(np.isfinite(q) and q > 0 for q in values) or values != sorted(values):
        raise ConfigError(f"thresholds must be finite, positive and ascending, got {values}")
    entries = []
    for q in values:
        part = detect(matrix, graph, q)
        entries.append((q, part.community_count, part.sizes()))
    return tuple(entries)


def margin_report(matrix, partition: CommunityPartition) -> list[MarginEntry]:
    """Margins of every node against every hub, from the hubs' rows of
    ``matrix`` (what :func:`detect` takes).

    A node is flagged marginal against a hub when |P(hub -> node) - q| is
    below DEFAULT_MARGINAL_BAND * q, i.e. its classification would flip
    under a small threshold change.
    """
    q = partition.threshold
    hub_rows = _rows(matrix, np.array(partition.hubs) - 1)
    entries = []
    for node in sorted(partition.assignment):
        for hub, row in zip(partition.hubs, hub_rows):
            margin = float(row[node - 1] - q)
            marginal = abs(margin) < DEFAULT_MARGINAL_BAND * q
            entries.append(MarginEntry(node=node, hub=hub, margin=margin, marginal=marginal))
    return entries
