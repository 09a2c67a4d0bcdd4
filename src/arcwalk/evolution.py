"""Walk states, time stepping, and time-averaged transition probabilities.

Transition rows follow the site-averaging convention: a walk from node i is
started once per outgoing arc and the resulting node probabilities are
averaged with weight 1/k_i.  The normalized row divides by the target
degree k_l, which removes the degree bias of the raw probabilities.

One streaming core, ``_node_probabilities``, steps a batch of start arcs and
yields their (N, B) node probabilities at t = 0..T.  Single-time rows,
finite-time averages (per node and as a matrix) and the CLI's ``evolve``
rows are folds over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError
from .operators import WalkOperator

__all__ = [
    "WalkState",
    "TransitionRow",
    "basis_state",
    "step",
    "evolve",
    "node_probability",
    "transition_probability",
    "finite_time_average",
    "finite_time_average_matrix",
    "DEFAULT_AVERAGE_STEPS",
]

DEFAULT_AVERAGE_STEPS = 100


@dataclass(frozen=True)
class WalkState:
    """Unit-norm amplitude vector over the D directed arcs at time t."""

    graph: Graph
    amplitudes: np.ndarray
    time: int = 0

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class TransitionRow:
    """Per-target-node probabilities of a walk started at ``start``.

    ``probability`` is p(start -> l), summing to 1; ``normalized`` is
    p(start -> l) / k_l.  ``time`` is the step count, or the averaging
    window (first, last) for time-averaged rows.
    """

    start: int
    probability: np.ndarray
    normalized: np.ndarray
    time: int | tuple[int, int | None]


def basis_state(graph: Graph, node: int, slot: int = 0) -> WalkState:
    """Delta state on the arc leaving ``node`` (1-based) at ``slot``."""
    amplitudes = np.zeros(graph.arc_count, dtype=complex)
    amplitudes[graph.arc_index(node - 1, slot)] = 1.0
    return WalkState(graph, amplitudes, 0)


def step(op: WalkOperator, state: WalkState) -> WalkState:
    """One application of the walk unitary."""
    return WalkState(state.graph, op.apply(state.amplitudes), state.time + 1)


def evolve(op: WalkOperator, state: WalkState, steps: int) -> WalkState:
    if steps < 0:
        raise ValueError("step count must be non-negative")
    amplitudes = state.amplitudes
    for _ in range(steps):
        amplitudes = op.apply(amplitudes)
    return WalkState(state.graph, amplitudes, state.time + steps)


def node_probability(state: WalkState) -> np.ndarray:
    """p(i; t): squared amplitudes summed over each node's outgoing arcs."""
    return np.add.reduceat(np.abs(state.amplitudes) ** 2, state.graph.arc_offsets[:-1])


def _start_arcs(graph: Graph, node: int) -> np.ndarray:
    """Flat indices of the outgoing arcs of ``node`` (1-based)."""
    if not 1 <= node <= graph.node_count:
        raise GraphError(f"node {node} out of range 1..{graph.node_count}")
    return np.arange(graph.arc_offsets[node - 1], graph.arc_offsets[node])


def _node_probabilities(op: WalkOperator, arcs: np.ndarray, steps: int):
    """Yield the (N, B) node probabilities at t = 0..steps of the B walks
    started on the basis states of ``arcs``; column b belongs to arcs[b]."""
    psi = np.zeros((op.dimension, len(arcs)), dtype=complex)
    psi[arcs, np.arange(len(arcs))] = 1.0
    yield op.fan_sum(np.abs(psi) ** 2)
    for _ in range(steps):
        psi = op.apply(psi)
        yield op.fan_sum(np.abs(psi) ** 2)


def _window_mean(op: WalkOperator, arcs: np.ndarray, steps: int, include_start: bool):
    """Mean over the averaging window of the (N, B) node probabilities."""
    if steps < 1:
        raise ValueError("averaging window must contain at least one step")
    probs = _node_probabilities(op, arcs, steps)
    if not include_start:
        next(probs)
    return sum(probs) / (steps + include_start)


def transition_probability(op: WalkOperator, node: int, steps: int) -> TransitionRow:
    """p(i -> l; t) and its degree-normalized form at a single time step."""
    if steps < 0:
        raise ValueError("step count must be non-negative")
    graph = op.graph
    for probs in _node_probabilities(op, _start_arcs(graph, node), steps):
        pass
    p = probs.mean(axis=1)
    return TransitionRow(node, p, p / graph.degrees, steps)


def finite_time_average(
    op: WalkOperator,
    node: int,
    steps: int = DEFAULT_AVERAGE_STEPS,
    include_start: bool = False,
) -> TransitionRow:
    """Arithmetic mean of the transition row over t = 1..steps.

    ``include_start`` widens the window to t = 0..steps; the default excludes
    t = 0, which would only weight the diagonal.
    """
    graph = op.graph
    p = _window_mean(op, _start_arcs(graph, node), steps, include_start).mean(axis=1)
    window = (0 if include_start else 1, steps)
    return TransitionRow(node, p, p / graph.degrees, window)


def finite_time_average_matrix(
    op: WalkOperator,
    steps: int = DEFAULT_AVERAGE_STEPS,
    include_start: bool = False,
    chunk_arcs: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """Time-averaged (p, P) matrices over all start nodes.

    Returns two (N, N) arrays indexed [start, target].  Work is chunked over
    initial arcs to bound memory on large graphs.
    """
    graph = op.graph
    d = graph.arc_count
    # [target, start arc]
    target_arc_prob = np.empty((graph.node_count, d))
    for lo in range(0, d, chunk_arcs):
        hi = min(lo + chunk_arcs, d)
        target_arc_prob[:, lo:hi] = _window_mean(op, np.arange(lo, hi), steps, include_start)
    # average the columns of each start node's outgoing arcs
    p = np.add.reduceat(target_arc_prob, graph.arc_offsets[:-1], axis=1).T
    p /= graph.degrees[:, None]
    return p, p / graph.degrees[None, :]
