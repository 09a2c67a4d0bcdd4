"""Undirected graphs with a canonical directed-arc basis.

Every graph is simple, connected, and free of isolated nodes.  Adjacency
lists are sorted ascending by neighbor id, which fixes the arc basis and
therefore the walk dynamics; all quantitative results are ordering-dependent.
Node ids are 1-based at the API boundary and 0-based internally.
The library's two error classes live here: :class:`GraphError` for input
data, and :class:`ConfigError` for an option that a library call refuses
before it computes anything.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "ConfigError",
    "load_edge_list",
    "load_pajek",
    "betti_number",
    "is_bipartite",
    "builtin",
]


class GraphError(ValueError):
    """Raised for malformed input data or violated graph invariants."""


class ConfigError(ValueError):
    """Raised for an invalid run option, before anything is computed."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph with flat arc indexing.

    The arc basis enumerates directed arcs (i -> j) grouped by tail node:
    arc ``arc_offsets[i] + s`` is the arc from node ``i`` to its ``s``-th
    neighbor in sorted order.  ``reverse_arc`` is the involutive permutation
    sending each arc to its reverse.  ``fan_classes`` groups the arc fans by
    degree: per distinct degree k, ascending, the (n_k, k) flat indices of
    the arcs leaving the n_k nodes of degree k, one row per node, so that a
    per-node operation is one array operation per class.  ``colors`` is the
    0/1 color of every node with no edge inside a color (node 0 has color
    0), or None when the graph is not bipartite.

    Construction raises :class:`GraphError` unless the rows hold ids in
    0..N-1, strictly ascending, with no self-loop, and the graph has edges,
    is symmetric and is connected.
    """

    adjacency: tuple[tuple[int, ...], ...]
    degrees: np.ndarray = field(init=False, repr=False)
    arc_offsets: np.ndarray = field(init=False, repr=False)
    arc_tail: np.ndarray = field(init=False, repr=False)
    arc_head: np.ndarray = field(init=False, repr=False)
    reverse_arc: np.ndarray = field(init=False, repr=False)
    fan_classes: tuple[np.ndarray, ...] = field(init=False, repr=False)
    colors: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.adjacency)
        degrees = np.array([len(nbrs) for nbrs in self.adjacency], dtype=np.intp)
        offsets = np.concatenate([[0], np.cumsum(degrees)])
        tail = np.repeat(np.arange(n), degrees)
        head = np.fromiter(
            (j for nbrs in self.adjacency for j in nbrs), dtype=np.intp, count=offsets[-1]
        )
        if not head.size:
            raise GraphError("graph has no edges")
        if head.min() < 0 or head.max() >= n:
            raise GraphError(f"neighbor ids must lie in 0..{n - 1}")
        loops = np.flatnonzero(tail == head)
        if loops.size:
            raise GraphError(f"self-loop at node {tail[loops[0]] + 1}")
        # arcs in basis order have ascending keys exactly when every row is
        # strictly ascending; the reverse of each arc is then a binary search
        keys = tail * n + head
        unsorted = np.flatnonzero(np.diff(keys) <= 0)
        if unsorted.size:
            node = tail[unsorted[0] + 1] + 1
            raise GraphError(f"neighbors of node {node} are not strictly ascending")
        reverse_keys = head * n + tail
        reverse = np.searchsorted(keys, reverse_keys).clip(max=head.size - 1)
        lone = np.flatnonzero(keys[reverse] != reverse_keys)
        if lone.size:
            a, b = tail[lone[0]] + 1, head[lone[0]] + 1
            raise GraphError(f"adjacency is not symmetric: node {a} lists {b}, not the reverse")
        # one search from node 0: its tree's parities 2-color the graph
        # exactly when no arc joins two equal parities
        parity = [-1] * n
        parity[0] = 0
        stack = [0]
        while stack:
            i = stack.pop()
            for j in self.adjacency[i]:
                if parity[j] < 0:
                    parity[j] = 1 - parity[i]
                    stack.append(j)
        colors = np.array(parity, dtype=np.int8)
        if colors.min() < 0:
            raise GraphError("graph is disconnected")
        if np.any(colors[tail] == colors[head]):
            colors = None
        fans = tuple(
            offsets[np.flatnonzero(degrees == k)][:, None] + np.arange(k)
            for k in sorted(set(degrees.tolist()))
        )
        for arcs in fans:
            arcs.setflags(write=False)
        for name, value in [
            ("degrees", degrees),
            ("arc_offsets", offsets),
            ("arc_tail", tail),
            ("arc_head", head),
            ("reverse_arc", reverse),
            ("colors", colors),
        ]:
            if value is not None:
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "fan_classes", fans)

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return self.arc_count // 2

    @property
    def arc_count(self) -> int:
        """Hilbert-space dimension: sum of degrees (edges double-counted)."""
        return int(self.arc_offsets[-1])

    def degree(self, node: int) -> int:
        """Degree of a node (1-based id)."""
        if not 1 <= node <= self.node_count:
            raise GraphError(f"node {node} out of range 1..{self.node_count}")
        return int(self.degrees[node - 1])

    def arc_between(self, tail: int, head: int) -> int:
        """Flat index of the arc from 0-based ``tail`` to 0-based ``head``."""
        row = self.adjacency[tail] if 0 <= tail < self.node_count else ()
        slot = bisect_left(row, head)
        if slot == len(row) or row[slot] != head:
            raise GraphError(f"nodes {tail + 1} and {head + 1} are not adjacent")
        return int(self.arc_offsets[tail]) + slot

    def fan_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum of (D, ...) values over each node's outgoing arcs: (N, ...)."""
        out = np.empty((self.node_count,) + values.shape[1:], dtype=values.dtype)
        for arcs in self.fan_classes:
            out[self.arc_tail[arcs[:, 0]]] = values[arcs].sum(axis=1)
        return out

    @classmethod
    def from_edges(cls, edges) -> "Graph":
        """Build a graph from 0-based undirected edge pairs on the nodes
        0..(largest id).

        Rejects negative ids, duplicate edges and isolated nodes, and, through
        the construction checks, self-loops and disconnected graphs.
        """
        edge_set: set[tuple[int, int]] = set()
        max_node = -1
        for a, b in edges:
            if a < 0 or b < 0:
                raise GraphError(f"negative node index in edge ({a}, {b})")
            key = (min(a, b), max(a, b))
            if key in edge_set:
                raise GraphError(f"duplicate edge {key[0] + 1}-{key[1] + 1}")
            edge_set.add(key)
            max_node = max(max_node, a, b)
        adj: list[list[int]] = [[] for _ in range(max_node + 1)]
        for a, b in edge_set:
            adj[a].append(b)
            adj[b].append(a)
        for i, nbrs in enumerate(adj):
            if not nbrs:
                raise GraphError(f"node {i + 1} is isolated")
        return cls(tuple(tuple(sorted(nbrs)) for nbrs in adj))


def _records(text: str, comment: str):
    """(line number, tokens, stripped line) of each line not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith(comment):
            yield lineno, line.split(), line


def _edge_ids(lineno: int, parts: list[str], line: str, positive: bool = False) -> tuple[int, int]:
    """The two node ids that open an edge record; with ``positive``, ids
    below 1 are refused before a self-loop is."""
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(f"line {lineno}: non-integer node id in {line!r}") from None
    if positive and (a < 1 or b < 1):
        raise GraphError(f"line {lineno}: node ids must be positive")
    if a == b:
        raise GraphError(f"line {lineno}: self-loop at node {a}")
    return a, b


def load_edge_list(text: str) -> Graph:
    """Parse a whitespace-separated, 1-indexed edge list.

    Lines starting with '#' and blank lines are ignored.  Node ids are
    compacted to 1..N preserving numeric order.
    """
    raw_edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, parts, line in _records(text, "#"):
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected two node ids, got {line!r}")
        a, b = _edge_ids(lineno, parts, line, positive=True)
        key = (min(a, b), max(a, b))
        if key in seen:
            raise GraphError(f"line {lineno}: duplicate edge {a}-{b}")
        seen.add(key)
        raw_edges.append((a, b))
    if not raw_edges:
        raise GraphError("edge list is empty")
    ids = sorted({v for e in raw_edges for v in e})
    compact = {v: k for k, v in enumerate(ids)}
    return Graph.from_edges([(compact[a], compact[b]) for a, b in raw_edges])


def load_pajek(text: str) -> Graph:
    """Parse a Pajek network file as an unweighted undirected graph.

    Both ``*Edges`` and ``*Arcs`` sections are treated symmetrically and
    any weight column is discarded.
    """
    n_declared: int | None = None
    edges: list[tuple[int, int]] = []
    edge_seen: set[tuple[int, int]] = set()
    section = None
    for lineno, parts, line in _records(text, "%"):
        # the whole first token, so that *Edgeslist and *Arcslist (one node
        # and its neighbours per line) are not read as (a, b) pairs
        header = parts[0].lower()
        if header == "*vertices":
            if len(parts) < 2:
                raise GraphError(f"line {lineno}: malformed *Vertices header")
            try:
                n_declared = int(parts[1])
            except ValueError:
                raise GraphError(f"line {lineno}: malformed *Vertices count") from None
            section = "vertices"
        elif header in ("*edges", "*arcs"):
            if n_declared is None:
                raise GraphError(f"line {lineno}: edge section before *Vertices header")
            section = "edges"
        elif header.startswith("*"):
            raise GraphError(f"line {lineno}: unknown section {parts[0]!r}")
        elif section == "edges":
            if len(parts) < 2:
                raise GraphError(f"line {lineno}: malformed edge record {line!r}")
            a, b = _edge_ids(lineno, parts, line)
            if not (1 <= a <= n_declared and 1 <= b <= n_declared):
                raise GraphError(
                    f"line {lineno}: node id outside declared range 1..{n_declared}"
                )
            key = (min(a, b), max(a, b))
            if key not in edge_seen:
                edge_seen.add(key)
                edges.append(key)
        # vertex label lines are ignored
    if n_declared is None:
        raise GraphError("missing *Vertices header")
    if not edges:
        raise GraphError("Pajek file declares no edges")
    mentioned = {v for e in edges for v in e}
    missing = sorted(set(range(1, n_declared + 1)) - mentioned)
    if missing:
        raise GraphError(f"isolated declared vertex {missing[0]}")
    # every declared vertex is named by an edge, so the largest id is n_declared
    return Graph.from_edges([(a - 1, b - 1) for a, b in edges])


def betti_number(graph: Graph) -> int:
    """First Betti number |E| - |V| + 1 (every Graph is connected)."""
    return graph.edge_count - graph.node_count + 1


def is_bipartite(graph: Graph) -> bool:
    """Whether the graph is two-colorable (``Graph.colors`` is set)."""
    return graph.colors is not None


def _three_community() -> Graph:
    # Three 7-node communities; hub wired to all members, members on a
    # 6-cycle, hubs pairwise connected.  N=21, |E|=39, D=78, b1=19.
    edges: list[tuple[int, int]] = []
    for hub, members in [(0, range(1, 7)), (12, [7, 8, 9, 10, 11, 13]), (20, range(14, 20))]:
        members = list(members)
        edges.extend((hub, m) for m in members)
        edges.extend(zip(members, members[1:] + members[:1]))
    edges.extend([(0, 12), (12, 20), (0, 20)])
    return Graph.from_edges(edges)


def _karate() -> Graph:
    text = resources.files("arcwalk.data").joinpath("karate.txt").read_text()
    return load_edge_list(text)


def _cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle requires n >= 3")
    return Graph.from_edges([(i, (i + 1) % n) for i in range(n)])


def _path(n: int) -> Graph:
    if n < 2:
        raise GraphError("path requires n >= 2")
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


def _complete(n: int) -> Graph:
    if n < 2:
        raise GraphError("complete requires n >= 2")
    return Graph.from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])


def _square_triangle() -> Graph:
    # Square 1-2-3-4 sharing the edge 1-2 with the triangle 1-2-5.
    # |V|=5, |E|=6, b1=2, non-bipartite.
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])


_PARAMETRIC = {"cycle": _cycle, "path": _path, "complete": _complete}
_FIXED = {
    "three_community": _three_community,
    "karate": _karate,
    "square_triangle": _square_triangle,
}


def builtin(name: str) -> Graph:
    """Return a named built-in graph, e.g. ``karate`` or ``cycle(6)``."""
    name = name.strip()
    if name in _FIXED:
        return _FIXED[name]()
    match = re.fullmatch(r"(cycle|path|complete)\((\d+)\)", name)
    if match:
        return _PARAMETRIC[match.group(1)](int(match.group(2)))
    raise GraphError(f"unknown builtin graph {name!r}")
