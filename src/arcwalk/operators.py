"""Coin matrices, the arc-reversal shift, and the composed walk unitary.

The walk unitary U = (shift) x (block-diagonal coin) is kept in structured
form: one coin block per degree value plus the reverse-arc permutation.
Applying it costs O(sum of k_i^2) and never materializes the D x D matrix.

Stepping runs in a class-ordered arc layout, fixed when the operator is
built: the arcs of each degree class (``Graph.fan_classes``) form one
contiguous node-major block, so a class of n_k nodes of degree k is an
(n_k, k, B) view of a (D, B) batch.  One step is one batched GEMM per
class into a work array, then one gather with a precomputed index that
applies the shift back into the state; a node's fan sum is a reduction
over contiguous rows of its class.  :meth:`WalkOperator.apply` takes and
returns states arcs-first in the graph's basis order, shape (D,) or
(D, B), and permutes them in and out of that layout around the same step.
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
    is the reverse-arc permutation.  The class-ordered layout (module
    docstring) puts basis arc ``arc_order[j]`` at row j, so that
    ``arc_position`` is its inverse, and the fan of node ``node_order[m]``
    at the m-th fan of its class.  Immutable and reentrant: one operator
    may drive many walks concurrently.
    """

    graph: Graph
    coin: CoinKind
    blocks: dict[int, np.ndarray] = field(init=False, repr=False)
    arc_order: np.ndarray = field(init=False, repr=False)
    arc_position: np.ndarray = field(init=False, repr=False)
    node_order: np.ndarray = field(init=False, repr=False)
    # per class: its coin block and its arc and node rows in the layout
    _classes: tuple[tuple[np.ndarray, slice, slice], ...] = field(init=False, repr=False)
    # row j of a step's result is row _source[j] of the coin's result
    _source: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        fans = self.graph.fan_classes
        order = np.concatenate([arcs.ravel() for arcs in fans])
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        classes, arc_start, node_start = [], 0, 0
        for arcs in fans:
            n, k = arcs.shape
            block = coin_matrix(self.coin, k)
            classes.append((block, slice(arc_start, arc_start + n * k), slice(node_start, node_start + n)))
            arc_start, node_start = arc_start + n * k, node_start + n
        # (U psi)[b] = (C psi)[rev b], read in the layout on both sides
        source = position[self.graph.reverse_arc[order]]
        for name, value in [
            ("blocks", {block.shape[0]: block for block, _, _ in classes}),
            ("arc_order", order),
            ("arc_position", position),
            ("node_order", np.concatenate([self.graph.arc_tail[arcs[:, 0]] for arcs in fans])),
            ("_classes", tuple(classes)),
            ("_source", source),
        ]:
            object.__setattr__(self, name, value)

    @property
    def shift(self) -> np.ndarray:
        """The arc-reversal permutation (involutive)."""
        return self.graph.reverse_arc

    @property
    def dimension(self) -> int:
        return self.graph.arc_count

    def step_classed(self, x: np.ndarray, work: np.ndarray) -> None:
        """x <- U x in place, for C-contiguous complex (D, B) states x in the
        class-ordered layout; ``work``, of the same shape and dtype, is
        overwritten with the coin's result."""
        b = x.shape[1]
        for block, arcs, nodes in self._classes:
            shape = (nodes.stop - nodes.start, block.shape[0], b)
            np.matmul(block, x[arcs].reshape(shape), out=work[arcs].reshape(shape))
        # mode="clip" lets numpy write straight into x; the default "raise"
        # buffers the output.  _source is a permutation, so nothing clips
        np.take(work, self._source, axis=0, out=x, mode="clip")

    def fan_sum_classed(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Sum of C-contiguous (D, B) values in the class-ordered layout over
        each node's arcs, into the (N, B) ``out`` with rows in ``node_order``."""
        b = values.shape[1]
        for block, arcs, nodes in self._classes:
            shape = (nodes.stop - nodes.start, block.shape[0], b)
            np.sum(values[arcs].reshape(shape), axis=1, out=out[nodes])
        return out

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """U @ psi along axis 0, for psi of shape (D,) or (D, B)."""
        if psi.shape[0] != self.dimension:
            raise ValueError(f"state dimension {psi.shape[0]} does not match D={self.dimension}")
        x = np.take(psi.reshape(self.dimension, -1), self.arc_order, axis=0).astype(complex, copy=False)
        work = np.empty_like(x)
        self.step_classed(x, work)
        work[self.arc_order] = x
        return work.reshape(psi.shape)

    def apply_amplitudes(self, psi: np.ndarray) -> np.ndarray:
        """Apply U to amplitude vector(s) of shape (..., D)."""
        return np.moveaxis(self.apply(np.moveaxis(psi, -1, 0)), 0, -1)


def build_walk_operator(graph: Graph, coin: CoinKind) -> WalkOperator:
    return WalkOperator(graph, coin)


def materialize_dense(op: WalkOperator, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense D x D matrix of the walk unitary; refused above ``cap`` arcs.

    Its only nonzeros are U[rev a, b] = C_k[slot a, slot b] for the arcs a, b
    of one node of degree k, written in place."""
    if op.dimension > cap:
        raise DenseCapExceeded(f"D={op.dimension} exceeds dense materialization cap {cap}")
    u = np.zeros((op.dimension, op.dimension), dtype=complex)
    for arcs in op.graph.fan_classes:
        u[op.shift[arcs][:, :, None], arcs[:, None, :]] = op.blocks[arcs.shape[1]]
    return u
