"""Coin matrices, the arc-reversal shift, and the composed walk unitary.

The walk unitary U = (shift) x (block-diagonal coin) is kept in structured
form: one coin block per degree value plus the reverse-arc permutation.
Applying it costs O(sum of k_i^2) and never materializes the D x D matrix.

States are arcs-first, shape (D,) or (D, B) for a batch of B walks.  A step
loops once over the degree classes: gather each node's arc fan as an
(n_k, k, B) array, apply the k x k coin block as one batched GEMM, and
scatter to the reversed arcs, which applies the shift without a second copy.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, GraphError, builtin

__all__ = [
    "CoinKind",
    "fourier_coin",
    "grover_coin",
    "coin_matrix",
    "WalkOperator",
    "build_walk_operator",
    "materialize_dense",
    "check_dense_cap",
    "verify_shift_equivalence",
    "DEFAULT_DENSE_CAP",
    "DenseCapExceeded",
]

DEFAULT_DENSE_CAP = 6000
_DENSE_CAP_ENV = "ARCWALK_DENSE_CAP"


class DenseCapExceeded(RuntimeError):
    """Raised when a dense materialization would exceed the size guard."""


class CoinKind(enum.Enum):
    FOURIER = "fourier"
    GROVER = "grover"


def fourier_coin(k: int) -> np.ndarray:
    """k x k Fourier (DFT) coin: entry (a, b) = exp(2*pi*i*a*b/k) / sqrt(k)."""
    if k < 1:
        raise ValueError(f"coin dimension must be positive, got {k}")
    a = np.arange(k)
    return np.exp(2j * np.pi * np.outer(a, a) / k) / np.sqrt(k)


def grover_coin(k: int) -> np.ndarray:
    """k x k Grover coin: (2-k)/k on the diagonal, 2/k elsewhere."""
    if k < 1:
        raise ValueError(f"coin dimension must be positive, got {k}")
    return (2.0 / k) * np.ones((k, k)) - np.eye(k) + 0j


def coin_matrix(kind: CoinKind, k: int) -> np.ndarray:
    return fourier_coin(k) if kind is CoinKind.FOURIER else grover_coin(k)


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """Structured form of the walk unitary U = SC on a graph.

    ``blocks`` holds one coin matrix per distinct degree (all nodes of equal
    degree share a block); ``shift`` is the reverse-arc permutation.
    Immutable and reentrant: one operator may drive many walks concurrently.
    """

    graph: Graph
    coin: CoinKind
    blocks: dict[int, np.ndarray] = field(init=False, repr=False)
    # per distinct degree k: (block, arcs, reverse_arc[arcs]), with arcs the
    # (n_k, k) flat arc indices of the nodes of degree k, one row per node
    _classes: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        g = self.graph
        classes = []
        for k in sorted(set(int(d) for d in g.degrees)):
            arcs = g.arc_offsets[np.flatnonzero(g.degrees == k)][:, None] + np.arange(k)
            classes.append((coin_matrix(self.coin, k), arcs, g.reverse_arc[arcs]))
        object.__setattr__(self, "blocks", {len(c[0]): c[0] for c in classes})
        object.__setattr__(self, "_classes", tuple(classes))

    @property
    def shift(self) -> np.ndarray:
        """The arc-reversal permutation (involutive)."""
        return self.graph.reverse_arc

    @property
    def dimension(self) -> int:
        return self.graph.arc_count

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """U @ psi along axis 0, for psi of shape (D,) or (D, B)."""
        if psi.shape[0] != self.dimension:
            raise ValueError(f"state dimension {psi.shape[0]} does not match D={self.dimension}")
        # a 1-D psi would make psi[arcs] an (n_k, k) matrix, which matmul
        # would contract against the block on the wrong axis
        batch = psi.reshape(self.dimension, -1)
        out = np.empty(batch.shape, dtype=complex)
        for block, arcs, dst in self._classes:
            out[dst] = np.matmul(block, batch[arcs])
        return out.reshape(psi.shape)

    def fan_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum of (D,) or (D, B) values over each node's arc fan: (N,) or (N, B)."""
        g = self.graph
        out = np.empty((g.node_count,) + values.shape[1:], dtype=values.dtype)
        for _, arcs, _ in self._classes:
            out[g.arc_tail[arcs[:, 0]]] = values[arcs].sum(axis=1)
        return out

    def apply_amplitudes(self, psi: np.ndarray) -> np.ndarray:
        """Apply U to amplitude vector(s) of shape (..., D)."""
        return np.moveaxis(self.apply(np.moveaxis(psi, -1, 0)), 0, -1)


def build_walk_operator(graph: Graph, coin: CoinKind) -> WalkOperator:
    return WalkOperator(graph, coin)


def check_dense_cap(dimension: int, cap: int | None = None) -> None:
    """Refuse a dense D x D array above ``cap`` (default 6000, overridable
    via ARCWALK_DENSE_CAP)."""
    if cap is None:
        env = os.environ.get(_DENSE_CAP_ENV)
        try:
            cap = int(env) if env else DEFAULT_DENSE_CAP
        except ValueError:  # refuse to materialize under a guard that cannot be read
            raise DenseCapExceeded(f"{_DENSE_CAP_ENV} must be an integer, got {env!r}") from None
    if dimension > cap:
        raise DenseCapExceeded(f"D={dimension} exceeds dense materialization cap {cap}")


def materialize_dense(op: WalkOperator, cap: int | None = None) -> np.ndarray:
    """Dense D x D matrix of the walk unitary, guarded by :func:`check_dense_cap`."""
    check_dense_cap(op.dimension, cap)
    return op.apply(np.eye(op.dimension, dtype=complex))


def verify_shift_equivalence(n: int) -> bool:
    """Check the flip-operator identity between the two shift conventions.

    On the n-cycle, the arc-reversal shift S times the per-node flip P equals
    the standard shift S' (right-movers stay right-movers), and consequently
    S(PC) = S'C for any coin C; checked here with the Fourier coin.
    """
    if n < 3:
        raise GraphError("shift equivalence check needs a cycle of length >= 3")
    graph = builtin(f"cycle({n})")
    d = graph.arc_count
    s = np.zeros((d, d))
    s[graph.reverse_arc, np.arange(d)] = 1.0
    flip = np.zeros((d, d))
    for i in range(graph.node_count):
        o = graph.arc_offsets[i]
        flip[o, o + 1] = flip[o + 1, o] = 1.0
    # standard shift: |x -> y>  ->  |2x - y -> x (mod n)>; movers keep their
    # direction while the walker advances one site
    s_std = np.zeros((d, d))
    slot = {
        (i, j): s_
        for i, nbrs in enumerate(graph.adjacency)
        for s_, j in enumerate(nbrs)
    }
    for arc in range(d):
        x, y = int(graph.arc_tail[arc]), int(graph.arc_head[arc])
        z = (2 * x - y) % n
        s_std[graph.arc_offsets[z] + slot[(z, x)], arc] = 1.0
    if not np.array_equal(s @ flip, s_std):
        return False
    # S is an involution, so S U is the block-diagonal coin C
    coin = s @ materialize_dense(build_walk_operator(graph, CoinKind.FOURIER), cap=d)
    return bool(np.max(np.abs(s @ (flip @ coin) - s_std @ coin)) < 1e-15)
