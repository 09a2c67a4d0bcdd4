"""Classical random-walk baseline.

Distributions are pushed forward deterministically through the transition
kernel p'(l) = sum over neighbors i of p(i)/k_i, so every trace is exact and
directly comparable to the quantum probability rows.  Both functions return
plain arrays over the nodes (column l - 1 is node l).  The degree-normalized
stationary distribution is flat at 1/D, which is what motivates the
community threshold q = 1/D: the classical average carries no community
signal at all.
"""

from __future__ import annotations

import numpy as np

from .graph import ConfigError, Graph

__all__ = ["stationary", "relaxation_trace"]


def stationary(graph: Graph) -> np.ndarray:
    """Stationary distribution k_l / D, shape (N,); its degree-normalized
    form is 1/D."""
    return graph.degrees / graph.arc_count


def relaxation_trace(graph: Graph, start: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Evolve a delta distribution and track distance to stationarity.

    Returns the (steps, N) distributions at t = 1..steps and the (steps,)
    total-variation distance to the stationary distribution at each step.
    Convergence claims only make sense on non-bipartite graphs, where the
    walk is aperiodic.  Raises :class:`ConfigError` for ``steps`` below 1.
    """
    if steps < 1:
        raise ConfigError("trace needs at least one step")
    graph.degree(start)  # raises GraphError for a node out of range
    n = graph.node_count
    trace = np.empty((steps, n))
    p = np.zeros(n)
    p[start - 1] = 1.0
    for t in range(steps):
        # mass splits evenly over a node's links: each arc carries p(tail)/k
        p = np.bincount(graph.arc_head, weights=(p / graph.degrees)[graph.arc_tail], minlength=n)
        trace[t] = p
    tv = 0.5 * np.abs(trace - stationary(graph)).sum(axis=1)
    return trace, tv
