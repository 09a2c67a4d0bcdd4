"""Seeded planted-partition graphs for the benchmark.

Kept out of the library on purpose: the generator exists only to give the
benchmark fixed, reproducible inputs, which it hands to the CLI as edge-list
files.

Edge counts are fixed at round(p * pairs) per kind (inside a block, between
blocks) instead of drawing every pair independently, so N, D and b1 are the
same for every seed and only the placement of the edges moves.  A chain
1-2-...-N is always part of the edge set, which keeps the graph connected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class PlantedGraph:
    blocks: tuple[int, ...]
    p_in: float
    p_out: float
    seed: int
    edges: tuple[tuple[int, int], ...]  # 0-based (i, j) with i < j, sorted

    @property
    def node_count(self) -> int:
        return sum(self.blocks)

    @property
    def arc_count(self) -> int:
        return 2 * len(self.edges)

    @property
    def betti(self) -> int:
        return len(self.edges) - self.node_count + 1

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    @property
    def bipartite(self) -> bool:
        adj = self.adjacency()
        color = [-1] * self.node_count
        color[0] = 0
        stack = [0]
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if color[j] < 0:
                    color[j] = 1 - color[i]
                    stack.append(j)
                elif color[j] == color[i]:
                    return False
        return True

    def stats(self) -> dict:
        """The graph block of the CLI's metadata, as this graph must produce it."""
        return {
            "nodes": self.node_count,
            "arcs": self.arc_count,
            "betti": self.betti,
            "bipartite": self.bipartite,
        }

    def edge_list_text(self) -> str:
        """1-indexed edge list in the format ``arcwalk --graph edgelist:PATH`` reads."""
        header = (
            f"# planted partition blocks={','.join(map(str, self.blocks))} "
            f"p_in={self.p_in} p_out={self.p_out} seed={self.seed}\n"
        )
        return header + "".join(f"{a + 1} {b + 1}\n" for a, b in self.edges)


def planted_partition(
    blocks: tuple[int, ...], p_in: float, p_out: float, seed: int
) -> PlantedGraph:
    """Connected planted-partition graph with blocks of the given sizes."""
    if len(blocks) < 1 or min(blocks) < 1:
        raise ValueError("blocks must be positive sizes")
    if not (0.0 <= p_out <= 1.0 and 0.0 <= p_in <= 1.0):
        raise ValueError("p_in and p_out must lie in [0, 1]")
    n = sum(blocks)
    if n < 2:
        raise ValueError("a planted graph needs at least two nodes")
    label = [b for b, size in enumerate(blocks) for _ in range(size)]
    chain = {(i, i + 1) for i in range(n - 1)}
    inside = [(i, j) for i in range(n) for j in range(i + 1, n) if label[i] == label[j]]
    between = [(i, j) for i in range(n) for j in range(i + 1, n) if label[i] != label[j]]
    rng = random.Random(seed)
    edges = set(chain)
    for pairs, p in ((inside, p_in), (between, p_out)):
        free = [e for e in pairs if e not in chain]
        want = round(p * len(pairs)) - (len(pairs) - len(free))
        edges.update(rng.sample(free, max(0, min(want, len(free)))))
    return PlantedGraph(tuple(blocks), p_in, p_out, seed, tuple(sorted(edges)))
