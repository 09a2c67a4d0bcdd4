"""Coin matrices, the arc-reversal shift, and the composed walk unitary.

The walk unitary U = (shift) x (block-diagonal coin) is kept in structured
form: one coin block per degree value plus the reverse-arc permutation.
Applying it costs O(sum of k_i^2) and never materializes the D x D matrix.

Stepping runs in real arithmetic, in a real layout fixed when the operator
is built.  A batch of B complex states is one C-contiguous float64 (2D, B)
array.  The nodes of each degree class (``Graph.fan_classes``) form one
contiguous block of it: node by node, a node's k real rows and then its k
imaginary rows, so a class of n_k nodes of degree k is an (n_k, 2k, B)
view.  One step is one batched real GEMM per class into a work array, then
one gather with a precomputed row index that applies the shift back into
the state.  A complex coin C steps a node as the 2k x 2k block
[[Re C, -Im C], [Im C, Re C]]; a coin block with no imaginary part (every
Grover block, and the Fourier k = 1 block) applies its k x k block to the
(2 n_k, k, B) view, half the flops, and keeps a real start real.  A node's
probability is the sum of squares of its 2k rows, one ``einsum`` per
class, so |psi|^2 never forms a (D, B) array.
:meth:`WalkOperator.apply` takes and returns complex states arcs-first in
the graph's basis order, shape (D,) or (D, B), and applies the complex coin
blocks to them directly, fan class by fan class, writing each result to the
reverse arcs; :func:`materialize_dense` is ``apply`` on the identity.  Only
this module and ``evolution``'s one start builder, where every walk it steps
starts, know the real layout: ``spectral`` checks its eigenbases through
``apply``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph

__all__ = [
    "CoinKind",
    "coin_matrix",
    "WalkOperator",
    "build_walk_operator",
    "materialize_dense",
    "DENSE_CAP",
    "DenseCapExceeded",
]

DENSE_CAP = 6000


class DenseCapExceeded(RuntimeError):
    """Raised when a dense materialization would exceed the size guard."""


class CoinKind(enum.Enum):
    FOURIER = "fourier"
    GROVER = "grover"


def coin_matrix(kind: CoinKind, k: int) -> np.ndarray:
    """k x k coin: Fourier (DFT), entry (a, b) = exp(2*pi*i*a*b/k) / sqrt(k),
    or Grover, (2-k)/k on the diagonal and 2/k elsewhere."""
    if k < 1:
        raise ValueError(f"coin dimension must be positive, got {k}")
    if kind is CoinKind.FOURIER:
        a = np.arange(k)
        return np.exp(2j * np.pi * np.outer(a, a) / k) / np.sqrt(k)
    return (2.0 / k) * np.ones((k, k)) - np.eye(k) + 0j


@dataclass(frozen=True, eq=False)
class WalkOperator:
    """Structured form of the walk unitary U = SC on a graph.

    ``blocks`` holds one coin matrix per distinct degree (all nodes of equal
    degree share a block), applied to the graph's ``fan_classes``; ``shift``
    is the reverse-arc permutation.  In the real layout (module docstring)
    basis arc a keeps its real part at row ``arc_rows[0, a]`` and its
    imaginary part at row ``arc_rows[1, a]``, and the fan of node
    ``node_order[m]`` is the m-th fan of its class.  Immutable and
    reentrant: one operator may drive many walks concurrently.
    """

    graph: Graph
    coin: CoinKind
    blocks: dict[int, np.ndarray] = field(init=False, repr=False)
    arc_rows: np.ndarray = field(init=False, repr=False)
    node_order: np.ndarray = field(init=False, repr=False)
    # per class: its real stepping block and its rows and node rows
    _classes: tuple[tuple[np.ndarray, slice, slice], ...] = field(init=False, repr=False)
    # row j of a step's result is row _source[j] of the coin's result
    _source: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        fans = self.graph.fan_classes
        rows = np.empty((2, self.dimension), dtype=np.intp)
        blocks, classes, row_start, node_start = {}, [], 0, 0
        for arcs in fans:
            n, k = arcs.shape
            rows[0, arcs] = row_start + 2 * k * np.arange(n)[:, None] + np.arange(k)
            rows[1, arcs] = rows[0, arcs] + k
            block = blocks[k] = coin_matrix(self.coin, k)
            if block.imag.any():
                step = np.block([[block.real, -block.imag], [block.imag, block.real]])
            else:  # a real coin acts on the real and the imaginary rows alike
                step = block.real.copy()
            classes.append((step, slice(row_start, row_start + 2 * n * k), slice(node_start, node_start + n)))
            row_start, node_start = row_start + 2 * n * k, node_start + n
        # (U psi)[b] = (C psi)[rev b], for the real and the imaginary parts
        source = np.empty(2 * self.dimension, dtype=np.intp)
        source[rows] = rows[:, self.graph.reverse_arc]
        rows.setflags(write=False)
        for name, value in [
            ("blocks", blocks),
            ("arc_rows", rows),
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
        """x <- U x in place, for C-contiguous float64 (2D, B) states x in the
        real layout; ``work``, of the same shape, is overwritten with the
        coin's result."""
        b = x.shape[1]
        for block, rows, _ in self._classes:
            # a node's 2k rows, or its k real and its k imaginary rows
            shape = (-1, block.shape[0], b)
            np.matmul(block, x[rows].reshape(shape), out=work[rows].reshape(shape))
        # mode="clip" lets numpy write straight into x; the default "raise"
        # buffers the output.  _source is a permutation, so nothing clips
        np.take(work, self._source, axis=0, out=x, mode="clip")

    def probabilities_classed(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Node probabilities of C-contiguous (2D, B) states in the real
        layout, the sum of squares of each node's 2k rows, into the (N, B)
        ``out`` with rows in ``node_order``."""
        b = x.shape[1]
        for _, rows, nodes in self._classes:
            fans = x[rows].reshape(nodes.stop - nodes.start, -1, b)
            np.einsum("nrb,nrb->nb", fans, fans, out=out[nodes])
        return out

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """U @ psi along axis 0, for psi of shape (D,) or (D, B)."""
        if psi.shape[0] != self.dimension:
            raise ValueError(f"state dimension {psi.shape[0]} does not match D={self.dimension}")
        columns = psi.reshape(self.dimension, -1)
        out = np.empty(columns.shape, dtype=complex)
        # (U psi)[rev a] = (C_k psi)[a] for the arcs a of each fan of degree k
        for arcs in self.graph.fan_classes:
            out[self.shift[arcs]] = self.blocks[arcs.shape[1]] @ columns[arcs]
        return out.reshape(psi.shape)

    def apply_amplitudes(self, psi: np.ndarray) -> np.ndarray:
        """Apply U to amplitude vector(s) of shape (..., D)."""
        return np.moveaxis(self.apply(np.moveaxis(psi, -1, 0)), 0, -1)


def build_walk_operator(graph: Graph, coin: CoinKind) -> WalkOperator:
    return WalkOperator(graph, coin)


def _check_cap(op: WalkOperator) -> None:
    if op.dimension > DENSE_CAP:
        raise DenseCapExceeded(f"D={op.dimension} exceeds dense materialization cap {DENSE_CAP}")


def materialize_dense(op: WalkOperator) -> np.ndarray:
    """Dense D x D matrix of the walk unitary, U applied to the identity;
    refused above ``DENSE_CAP`` arcs.  No command builds it."""
    _check_cap(op)
    return op.apply(np.eye(op.dimension, dtype=complex))
