"""Eigendecomposition of the walk unitary and spectrally exact time averages.

The complex Schur form is used as the eigensolver: for a unitary (normal)
matrix its triangular factor is numerically diagonal and the Schur vectors
form an exactly orthonormal eigenbasis, which a raw nonsymmetric eigensolver
does not guarantee inside degenerate eigenspaces.

Infinite-time (Cesaro) averages sum |P_g[a, b]|^2 over eigenspace projectors
P_g and over the arc fans of the start and target nodes, so they stay correct
when eigenvalues are degenerate (the Grover walk always is).  For a simple
eigenvalue P_g = v v^*, so |P_g[a, b]|^2 = |v_a|^2 |v_b|^2 and its fan sum is
the product of two node probabilities of v: all simple groups together are
one N x N GEMM of fan-summed |v|^2.  Only degenerate groups build D x D
projectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .evolution import TransitionRow, WalkState
from .graph import Graph, GraphError, betti_number, is_bipartite
from .operators import CoinKind, WalkOperator, build_walk_operator

__all__ = [
    "SpectralDecomposition",
    "DegeneracyReport",
    "SpectralError",
    "decompose",
    "degeneracy_report",
    "infinite_time_average",
    "infinite_time_average_matrix",
    "ipr",
    "participation_ratio",
    "eigenstate_node_probability",
    "eigenstate_profile",
    "loop_eigenvector",
    "argument_histogram",
    "DEFAULT_DEGENERACY_TOL",
]

DEFAULT_DEGENERACY_TOL = 1e-8


class SpectralError(RuntimeError):
    """Raised for non-unitary input or eigensolver failure."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Unit-modulus eigenvalues, orthonormal eigenvectors (columns), and the
    partition of eigenvalue indices into degenerate groups."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple[np.ndarray, ...]
    degeneracy_tol: float

    @property
    def dimension(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class DegeneracyReport:
    """Observed eigenvalue multiplicities with the loop-count prediction.

    ``entries`` lists (representative eigenvalue, multiplicity) sorted by
    argument.  The +1/-1 counts are compared against the prediction from the
    Betti number b1: (b1+1, b1+1) on bipartite graphs, (b1+1, b1-1) otherwise.
    """

    entries: tuple[tuple[complex, int], ...]
    plus_one: int
    minus_one: int
    predicted_plus_one: int
    predicted_minus_one: int

    @property
    def matches_prediction(self) -> bool:
        return (
            self.plus_one == self.predicted_plus_one
            and self.minus_one == self.predicted_minus_one
        )


def _group_by_argument(eigenvalues: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    args = np.angle(eigenvalues)
    order = np.argsort(args, kind="stable")
    groups: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if args[idx] - args[groups[-1][-1]] < tol:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    # arguments wrap at +-pi: merge the first and last cluster if they meet
    if len(groups) > 1:
        gap = (args[groups[0][0]] + 2 * np.pi) - args[groups[-1][-1]]
        if gap < tol:
            groups[-1].extend(groups.pop(0))
    return tuple(np.array(g, dtype=np.intp) for g in groups)


def decompose(
    unitary: np.ndarray, degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
) -> SpectralDecomposition:
    """Eigendecomposition of a unitary matrix with degeneracy grouping."""
    u = np.asarray(unitary, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise SpectralError("input must be a square matrix")
    d = u.shape[0]
    if np.max(np.abs(u.conj().T @ u - np.eye(d))) > 1e-10:
        raise SpectralError("input matrix is not unitary within 1e-10")
    try:
        t, z = scipy.linalg.schur(u, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise SpectralError(f"eigensolver failed to converge: {exc}") from exc
    eigenvalues = np.diag(t).copy()
    if np.max(np.abs(np.abs(eigenvalues) - 1.0)) > 1e-10:
        raise SpectralError("computed eigenvalues leave the unit circle")
    residual = np.max(np.linalg.norm(u @ z - z * eigenvalues, axis=0))
    if residual > 1e-8:
        raise SpectralError(f"eigenvector residual {residual:.2e} exceeds 1e-8")
    groups = _group_by_argument(eigenvalues, degeneracy_tol)
    return SpectralDecomposition(eigenvalues, z, groups, degeneracy_tol)


def degeneracy_report(dec: SpectralDecomposition, graph: Graph) -> DegeneracyReport:
    """Multiplicity census with the Betti-number prediction for Grover ±1."""
    entries = []
    plus = minus = 0
    for group in dec.groups:
        rep = complex(np.mean(dec.eigenvalues[group]))
        entries.append((rep, len(group)))
        if abs(rep - 1.0) < 1e-6:
            plus = len(group)
        elif abs(rep + 1.0) < 1e-6:
            minus = len(group)
    entries.sort(key=lambda e: np.angle(e[0]))
    b1 = betti_number(graph)
    bip = is_bipartite(graph)
    return DegeneracyReport(
        entries=tuple(entries),
        plus_one=plus,
        minus_one=minus,
        predicted_plus_one=b1 + 1,
        predicted_minus_one=b1 + 1 if bip else b1 - 1,
    )


def infinite_time_average(
    dec: SpectralDecomposition, graph: Graph, node: int
) -> TransitionRow:
    """Cesaro-limit transition row from ``node`` (1-based): one row of
    :func:`infinite_time_average_matrix`."""
    if not 1 <= node <= graph.node_count:
        raise GraphError(f"node {node} out of range 1..{graph.node_count}")
    p, norm = infinite_time_average_matrix(dec, graph)
    return TransitionRow(node, p[node - 1], norm[node - 1], (0, None))


def infinite_time_average_matrix(
    dec: SpectralDecomposition, graph: Graph
) -> tuple[np.ndarray, np.ndarray]:
    """Cesaro-limit (p, P) matrices over all start nodes, indexed [start, target].

    The node block sums |P_g[a, b]|^2 over eigenspace projectors P_g and over
    both arc fans.  For a simple eigenvalue the term is W[g, target] W[g, start]
    with W the fan-summed |v|^2 (``eigenstate_node_probability``), so every
    simple group enters through one N x N GEMM W_s^T W_s; only degenerate
    groups build a D x D projector.
    """
    offsets = graph.arc_offsets[:-1]
    simple = [int(g[0]) for g in dec.groups if g.size == 1]
    w = eigenstate_node_probability(dec, graph)[simple]
    block = w.T @ w  # [target, start]
    for group in dec.groups:
        if group.size > 1:
            v = dec.eigenvectors[:, group]
            kernel = np.abs(v @ v.conj().T) ** 2
            block += np.add.reduceat(
                np.add.reduceat(kernel, offsets, axis=0), offsets, axis=1
            )
    p = block.T / graph.degrees[:, None]
    return p, p / graph.degrees[None, :]


def participation_ratio(node_prob: np.ndarray) -> float:
    """Inverse participation ratio of one probability vector: sum of squares."""
    p = np.asarray(node_prob, dtype=float)
    total = p.sum()
    return float(np.sum(p**2) / total**2)


def eigenstate_node_probability(dec: SpectralDecomposition, graph: Graph) -> np.ndarray:
    """p_mu(l) for all eigenvectors: (D, N) array of per-node probabilities."""
    weights = np.abs(dec.eigenvectors) ** 2  # [arc, mu]
    return np.add.reduceat(weights, graph.arc_offsets[:-1], axis=0).T


def ipr(dec: SpectralDecomposition, graph: Graph) -> np.ndarray:
    """Inverse participation ratio of every eigenvector."""
    node_prob = eigenstate_node_probability(dec, graph)
    return np.sum(node_prob**2, axis=1) / np.sum(node_prob, axis=1) ** 2


def eigenstate_profile(dec: SpectralDecomposition, graph: Graph, mu: int) -> np.ndarray:
    """Degree-normalized node probability P_mu(l) of eigenvector ``mu`` (0-based)."""
    if not 0 <= mu < dec.dimension:
        raise IndexError(f"eigenstate index {mu} out of range")
    weights = np.abs(dec.eigenvectors[:, mu]) ** 2
    p = np.add.reduceat(weights, graph.arc_offsets[:-1])
    return p / graph.degrees


def _cycle_arcs(graph: Graph, cycle: list[int]) -> np.ndarray:
    """Flat arc indices around a node cycle (1-based ids): forward then back."""
    n = len(cycle)
    if n < 3:
        raise GraphError("a cycle needs at least three nodes")
    if len(set(cycle)) != n:
        raise GraphError("cycle nodes must be distinct")
    slot = {
        (i, j): s for i, nbrs in enumerate(graph.adjacency) for s, j in enumerate(nbrs)
    }
    arcs = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        key = (a - 1, b - 1)
        if key not in slot:
            raise GraphError(f"nodes {a} and {b} are not adjacent; not a cycle")
        arcs.append(graph.arc_offsets[a - 1] + slot[key])
    for b, a in zip(cycle[1:] + cycle[:1], cycle):
        arcs.append(graph.arc_offsets[b - 1] + slot[(b - 1, a - 1)])
    return np.array(arcs, dtype=np.intp)


def loop_eigenvector(
    graph: Graph,
    cycle: list[int],
    sign_pattern: list[int] | None = None,
    eigenvalue: int | None = None,
) -> tuple[WalkState, int] | None:
    """Search for a Grover-walk eigenvector supported on a node cycle.

    Amplitudes are ±1/sqrt(2n) on the 2n arcs of the cycle and zero
    elsewhere.  With no explicit ``sign_pattern`` all 2^(2n) patterns are
    tried (cycle length capped at 6); ``eigenvalue`` restricts the accepted
    eigenvalue to +1 or -1.  Returns (state, eigenvalue) or None.
    """
    arcs = _cycle_arcs(graph, cycle)
    n = len(cycle)
    if sign_pattern is None and n > 6:
        raise GraphError("exhaustive sign search is limited to cycles of length <= 6")
    op = build_walk_operator(graph, CoinKind.GROVER)
    scale = 1.0 / np.sqrt(2 * n)
    patterns = (
        [tuple(sign_pattern)]
        if sign_pattern is not None
        else itertools.product((1, -1), repeat=2 * n)
    )
    targets = (1, -1) if eigenvalue is None else (eigenvalue,)
    for pattern in patterns:
        if len(pattern) != 2 * n or any(s not in (1, -1) for s in pattern):
            raise GraphError("sign pattern must hold ±1 for each of the 2n arcs")
        amplitudes = np.zeros(graph.arc_count, dtype=complex)
        amplitudes[arcs] = np.asarray(pattern, dtype=float) * scale
        image = op.apply(amplitudes)
        for lam in targets:
            if np.max(np.abs(image - lam * amplitudes)) < 1e-10:
                return WalkState(graph, amplitudes, 0), lam
    return None


def argument_histogram(
    dec: SpectralDecomposition, bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of eigenvalue arguments over one turn of the unit circle.

    Bins are centered on the canonical angles (-pi and 0 are bin centers,
    not edges), so degenerate clusters at ±1 each land in a single bin
    instead of straddling an edge.  Returns (counts, bin edges).
    """
    if bins < 2:
        raise ValueError("histogram needs at least two bins")
    width = 2 * np.pi / bins
    args = np.angle(dec.eigenvalues).copy()
    args[args >= np.pi - width / 2] -= 2 * np.pi
    counts, edges = np.histogram(
        args, bins=bins, range=(-np.pi - width / 2, np.pi - width / 2)
    )
    return counts, edges
