"""Coin matrices, the arc-reversal shift, and the composed walk unitary.

The walk unitary U = (shift) x (block-diagonal coin) is kept in structured
form: one coin block per degree value plus the reverse-arc permutation.
Applying it costs O(sum of k_i^2) and never materializes the D x D matrix.

States are arcs-first, shape (D,) or (D, B) for a batch of B walks.  A step
loops once over the graph's degree classes (``Graph.fan_classes``): gather
each node's arc fan as an (n_k, k, B) array, apply the k x k coin block as
one batched GEMM, and scatter to the reversed arcs, which applies the shift
without a second copy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph

__all__ = [
    "CoinKind",
    "fourier_coin",
    "grover_coin",
    "coin_matrix",
    "WalkOperator",
    "build_walk_operator",
    "materialize_dense",
    "check_dense_cap",
    "DEFAULT_DENSE_CAP",
    "DenseCapExceeded",
]

DEFAULT_DENSE_CAP = 6000


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
    degree share a block), applied to the graph's ``fan_classes``; ``shift``
    is the reverse-arc permutation.  Immutable and reentrant: one operator
    may drive many walks concurrently.
    """

    graph: Graph
    coin: CoinKind
    blocks: dict[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        degrees = (arcs.shape[1] for arcs in self.graph.fan_classes)
        object.__setattr__(self, "blocks", {k: coin_matrix(self.coin, k) for k in degrees})

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
        for arcs in self.graph.fan_classes:
            # the scatter to the reversed arcs applies the shift
            out[self.shift[arcs]] = np.matmul(self.blocks[arcs.shape[1]], batch[arcs])
        return out.reshape(psi.shape)

    def apply_amplitudes(self, psi: np.ndarray) -> np.ndarray:
        """Apply U to amplitude vector(s) of shape (..., D)."""
        return np.moveaxis(self.apply(np.moveaxis(psi, -1, 0)), 0, -1)


def build_walk_operator(graph: Graph, coin: CoinKind) -> WalkOperator:
    return WalkOperator(graph, coin)


def check_dense_cap(dimension: int, cap: int | None = None) -> None:
    """Refuse a dense D x D array above ``cap`` (default :data:`DEFAULT_DENSE_CAP`)."""
    if cap is None:
        cap = DEFAULT_DENSE_CAP
    if dimension > cap:
        raise DenseCapExceeded(f"D={dimension} exceeds dense materialization cap {cap}")


def materialize_dense(op: WalkOperator, cap: int | None = None) -> np.ndarray:
    """Dense D x D matrix of the walk unitary, guarded by :func:`check_dense_cap`."""
    check_dense_cap(op.dimension, cap)
    return op.apply(np.eye(op.dimension, dtype=complex))

