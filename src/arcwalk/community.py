"""Threshold-based community detection on averaged normalized probabilities.

Candidates are visited in degree-descending order (ties broken by ascending
node id).  An unclassified candidate becomes the hub of a new community and
absorbs every unclassified node whose normalized average exceeds the
threshold; a candidate that was already absorbed hands its would-be members
to the community it belongs to.  Nodes exceeding no threshold end up as
singleton communities, surfacing outliers instead of forcing a fit.

:func:`detect` returns a :class:`CommunityPartition`; :func:`sweep` returns
plain (q, count, sizes) tuples, one per threshold; :func:`margin_report`
computes every node's margin against every hub from the same matrix and
flags it marginal within the fixed band DEFAULT_MARGINAL_BAND (10 % of the
threshold), which ``detect`` documents record.  Every margin and the
threshold are in the document, so another band can be recomputed from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

__all__ = [
    "CommunityPartition",
    "MarginEntry",
    "detect",
    "sweep",
    "margin_report",
    "DEFAULT_MARGINAL_BAND",
]

DEFAULT_MARGINAL_BAND = 0.1


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


def detect(
    matrix: np.ndarray, graph: Graph, threshold: float, source: str = "average"
) -> CommunityPartition:
    """Partition the graph given the full N x N normalized average matrix."""
    n = graph.node_count
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {matrix.shape}")
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    assignment: dict[int, int] = {}
    hubs: list[int] = []
    for cand in _candidate_order(graph):
        if cand in assignment:
            community = assignment[cand]
        else:
            community = len(hubs)
            hubs.append(cand)
            assignment[cand] = community
        members = [
            l
            for l in np.flatnonzero(matrix[cand] > threshold)
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


def sweep(
    matrix: np.ndarray, graph: Graph, thresholds, source: str = "average"
) -> tuple[tuple[float, int, tuple[int, ...]], ...]:
    """Run detection per threshold; thresholds must be ascending.

    Returns one (q, community count, community sizes) entry per threshold.
    """
    values = [float(q) for q in thresholds]
    if not values:
        raise ValueError("threshold list is empty")
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError("threshold list must be ascending")
    entries = []
    for q in values:
        part = detect(matrix, graph, q, source=source)
        entries.append((q, part.community_count, part.sizes()))
    return tuple(entries)


def margin_report(matrix: np.ndarray, partition: CommunityPartition) -> list[MarginEntry]:
    """Margins of every node against every hub.

    A node is flagged marginal against a hub when |P(hub -> node) - q| is
    below DEFAULT_MARGINAL_BAND * q, i.e. its classification would flip
    under a small threshold change.
    """
    q = partition.threshold
    entries = []
    for node in sorted(partition.assignment):
        for hub in partition.hubs:
            margin = float(matrix[hub - 1, node - 1] - q)
            marginal = abs(margin) < DEFAULT_MARGINAL_BAND * q
            entries.append(MarginEntry(node=node, hub=hub, margin=margin, marginal=marginal))
    return entries
