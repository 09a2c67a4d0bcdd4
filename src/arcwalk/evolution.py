"""Time stepping and finite-time averaged transition probabilities.

Transition rows follow the site-averaging convention: a walk from node i is
started once per outgoing arc and the resulting node probabilities are
averaged with weight 1/k_i.  The normalized row divides by the target
degree k_l, which removes the degree bias of the raw probabilities.

One streaming core, ``_node_probabilities``, steps a batch of start arcs and
yields their (N, B) node probabilities at t = 0..T.  Two folds over it return
arrays: :func:`transition_rows`, the rows p(i -> l; t) of one start node at
every t, and :func:`finite_time_average_matrix`, the window mean over all
start nodes.
"""

from __future__ import annotations

import numpy as np

from .operators import WalkOperator

__all__ = [
    "transition_rows",
    "finite_time_average_matrix",
    "DEFAULT_AVERAGE_STEPS",
]

DEFAULT_AVERAGE_STEPS = 100
_CHUNK_ARCS = 1024  # start arcs stepped together by finite_time_average_matrix


def _node_probabilities(op: WalkOperator, arcs: np.ndarray, steps: int):
    """Yield the (N, B) node probabilities at t = 0..steps of the B walks
    started on the basis states of ``arcs``; column b belongs to arcs[b]."""
    psi = np.zeros((op.dimension, len(arcs)), dtype=complex)
    psi[arcs, np.arange(len(arcs))] = 1.0
    yield op.graph.fan_sum(np.abs(psi) ** 2)
    for _ in range(steps):
        psi = op.apply(psi)
        yield op.graph.fan_sum(np.abs(psi) ** 2)


def _window_mean(op: WalkOperator, arcs: np.ndarray, steps: int, include_start: bool):
    """Mean over the averaging window of the (N, B) node probabilities."""
    if steps < 1:
        raise ValueError("averaging window must contain at least one step")
    probs = _node_probabilities(op, arcs, steps)
    if not include_start:
        next(probs)
    return sum(probs) / (steps + include_start)


def transition_rows(
    op: WalkOperator, node: int, steps: int, slot: int | None = None
) -> np.ndarray:
    """p(node -> l; t) for t = 0..steps as a (steps + 1, N) array.

    ``node`` is 1-based.  The walk starts on each outgoing arc of ``node``,
    weighted 1/k, or only on the arc at ``slot`` (0-based) when given.
    """
    if steps < 0:
        raise ValueError("step count must be non-negative")
    graph = op.graph
    degree = graph.degree(node)
    if slot is None:
        arcs = graph.arc_offsets[node - 1] + np.arange(degree)
    else:
        arcs = np.array([graph.arc_index(node - 1, slot)])
    return np.stack([probs.mean(axis=1) for probs in _node_probabilities(op, arcs, steps)])


def finite_time_average_matrix(
    op: WalkOperator,
    steps: int = DEFAULT_AVERAGE_STEPS,
    include_start: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Time-averaged (p, P) matrices over all start nodes.

    The window is t = 1..steps, or t = 0..steps with ``include_start`` (t = 0
    would only weight the diagonal).  Returns two (N, N) arrays indexed
    [start, target].  Work is chunked over initial arcs to bound memory on
    large graphs.
    """
    graph = op.graph
    d = graph.arc_count
    arc_target_prob = np.empty((d, graph.node_count))
    for lo in range(0, d, _CHUNK_ARCS):
        hi = min(lo + _CHUNK_ARCS, d)
        arc_target_prob[lo:hi] = _window_mean(op, np.arange(lo, hi), steps, include_start).T
    # average the rows of each start node's outgoing arcs
    p = graph.fan_sum(arc_target_prob) / graph.degrees[:, None]
    return p, p / graph.degrees[None, :]
