"""Eigendecomposition of the walk unitary and spectrally exact time averages.

* :func:`walk_decompose` returns the :class:`SpectralDecomposition`
  (unit-modulus eigenvalues, orthonormal eigenvector columns, groups of
  degenerate eigenvalues) of a walk operator's U = SC in real arithmetic.
  Both coins are symmetric and S is a real involution, so with
  Q = [[1, i], [1, -i]] / sqrt2 on each arc pair (a, rev a), S = Q Q^T and
  U' = Q* U Q = Q^T C Q is a symmetric unitary (Dyson's circular orthogonal
  ensemble, J. Math. Phys. 3, 1962; Takagi's factorization, Horn and
  Johnson, Matrix Analysis 4.4).  Its real and imaginary parts commute, so
  for W = -e^{-i phi} U' = A + iB the Cayley image H = (I + A)^-1 B is real
  symmetric, with the eigenvectors of U' and the eigenvalues tan(theta / 2)
  for those e^{i theta} of W.  An eigenvalues-only pass puts the map's pole
  (the point of the circle it sends to infinity) in the widest gap of the
  spectrum; then one real LU solve and one real divide-and-conquer ``eigh``
  (numpy's; LAPACK syevd) give a real orthonormal O, and V = Q O, so
  |V_a|^2 = |V_{rev a}|^2 = (O_a^2 + O_{rev a}^2) / 2.  A symmetric solver
  keeps the basis orthonormal inside degenerate eigenspaces too.  It serves
  the Fourier averages and the ``spectrum`` census of both coins.
* :func:`decompose` takes any dense unitary U and returns its
  :class:`SpectralDecomposition` from the same pole-placed core on the
  complex Cayley image i(I - W)(I + W)^-1, which is Hermitian with U's
  eigenvectors.
* Every eigenbasis here, the two above and T's below, passes one check,
  ``_check_basis``: U's eigenvalues on the unit circle, orthonormality and
  residuals |M v - lambda v| within 1e-8, the walk's M v from
  :meth:`WalkOperator.apply`, so no code here knows the stepping layout.
* :func:`grover_average_matrix` gives the Grover walk's exact averages in
  node space by the spectral mapping theorem (Szegedy 2004; Higuchi, Konno,
  Sato and Segawa 2014), with no D x D array.  With (d* f)_a =
  f(tail a) / sqrt(k_tail), U = S(2 d*d - I) and T = d S d* = K^-1/2 A K^-1/2.
  Each eigenvalue cos theta of T in (-1, 1) gives U the pair e^{+-i theta},
  with eigenvectors (I - e^{+-i theta} S) d*f / (sqrt2 sin theta).  With
  Q = (I - S)/2 and Q' = (I + S)/2, U's +1 eigenprojector is
  Q - Q d* [(I - T)/2]^+ d Q + 11^T/D and its -1 one Q' - Q' d* [(I + T)/2]^+
  d Q' (plus the color-signed vector if bipartite).  So one N x N ``eigh``
  of T gives every eigenprojector as P[a, b] = alpha[a = b] +
  beta[a = rev b] + X[tail a, b] + Y[head a, b], with (N, D) arrays X, Y.
  The same theorem sets the +1 and -1 multiplicities from the Betti number
  b1: b1 + 1 and b1 - 1, or b1 + 1 for both if the graph is bipartite.
* :func:`loop_eigenvector` builds a +-1 eigenvector on a node cycle:
  +-1/sqrt(2n) on its 2n arcs, summing to zero at each node, so the coin
  negates it and U sends psi(a) to -psi(rev a).  For +1 the signs circulate
  (forward +, reverse -); for -1 they alternate around an even cycle with
  psi(rev a) = psi(a).

Every eigensolver here is numpy's ``eigh`` or ``eigvalsh``.

Infinite-time (Cesaro) averages sum |P_g[a, b]|^2 over eigenspace projectors
P_g and over the arc fans of the start and target nodes, so they stay correct
when eigenvalues are degenerate (the Grover walk always is).  For a simple
eigenvalue P_g = v v^*, so |P_g[a, b]|^2 = |v_a|^2 |v_b|^2 and its fan sum is
the product of two node probabilities of v: all simple groups together are
one N x N GEMM of fan-summed |v|^2.  Only degenerate groups build
projectors: D x D ones, or the Grover kernel's X and Y.  Which eigenvalues
share a projector is fixed, not an option: a group is a chain of eigenvalues
whose arguments lie within DEFAULT_DEGENERACY_TOL (1e-8) of the next, across
+-pi too, and ``spectrum`` documents record that value.  A looser tolerance
would merge distinct eigenspaces and change the averages.

Every quantity comes back as an array: the (p, P) matrices indexed [start,
target], the (D, N) eigenstate node probabilities (a row over the degrees
is an eigenstate's normalized profile), the IPR of any probability rows, a
loop eigenvector's amplitudes, and a histogram of the eigenvalue arguments
in a fixed 20 bins (any other binning can be recomputed from the
eigenvalues).  Sums over a node's arcs are ``Graph.fan_sum``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError, betti_number, is_bipartite
from .operators import WalkOperator, _check_cap

__all__ = [
    "SpectralDecomposition",
    "DegeneracyReport",
    "SpectralError",
    "decompose",
    "walk_decompose",
    "grover_average_matrix",
    "degeneracy_report",
    "infinite_time_average_matrix",
    "ipr",
    "eigenstate_node_probability",
    "loop_eigenvector",
    "argument_histogram",
    "DEFAULT_DEGENERACY_TOL",
]

# the fixed grouping tolerance and histogram bins (module docstring)
DEFAULT_DEGENERACY_TOL = 1e-8
_HISTOGRAM_BINS = 20


class SpectralError(RuntimeError):
    """Raised for non-unitary input, eigensolver failure, or averaged
    transition rows that do not sum to 1."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Unit-modulus eigenvalues, orthonormal eigenvectors (columns), and the
    partition of eigenvalue indices into degenerate groups."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class DegeneracyReport:
    """Observed eigenvalue multiplicities with the loop-count prediction.

    ``entries`` lists (representative eigenvalue, multiplicity) sorted by
    argument.  The +1/-1 counts are compared against their prediction from
    the Betti number b1 (module docstring).
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


def _group_by_argument(eigenvalues: np.ndarray) -> tuple[np.ndarray, ...]:
    """Indices of the eigenvalues in groups whose arguments chain together
    (single linkage) in steps below DEFAULT_DEGENERACY_TOL, across +-pi too."""
    args = np.angle(eigenvalues)
    order = np.argsort(args, kind="stable")
    groups: list[list[int]] = []
    for idx in order:
        if groups and args[idx] - args[groups[-1][-1]] < DEFAULT_DEGENERACY_TOL:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    # arguments wrap at +-pi: merge the first and last cluster if they meet
    if len(groups) > 1:
        gap = (args[groups[0][0]] + 2 * np.pi) - args[groups[-1][-1]]
        if gap < DEFAULT_DEGENERACY_TOL:
            groups[-1].extend(groups.pop(0))
    return tuple(np.array(g, dtype=np.intp) for g in groups)


# The Cayley map sends the unit circle to the real line and one point of it,
# the pole, to infinity: the eigenvalue e^{i theta} of W goes to
# tan(theta / 2) = sin theta / (1 + cos theta).  With the nearest eigenvalue a
# distance delta from the pole, I + A has an eigenvalue of about delta^2 / 2
# (I + W of the complex image, about delta), and the rounding of the solve
# makes the basis less accurate by a factor that grows as delta shrinks.  So
# the pole goes in the middle of the widest gap of the spectrum, which an
# eigenvalues-only pass with the pole at a fixed angle locates.  That angle
# is one no structured spectrum favours (the Grover walk's exact -1
# eigenvalues make I + A singular for a pole at pi).  Within about 1e-7 of
# that pole, 1 + cos theta sinks to the rounding of I + A, and the solve then
# spoils every eigenvalue of the pass, not only the nearest one (their sum
# missed tr U' by 3e-3 to 1 for an eigenvalue 1e-7 to 1e-9 from the pole).
# So the pass places the gap only if no eigenvalue lies within _POLE_TRUST of
# its pole and its eigenvalues sum to tr U' within _POLE_TRUST; otherwise the
# pole goes to the opposite point.
_FIRST_POLE = 2.0
_POLE_TRUST = 1e-6
# columns per block of U V - V Lambda and of V*V, which are never held
# whole; at 128 columns the temporaries of WalkOperator.apply raised the
# peak RSS of small graphs (karate spectrum: 34.2 MB at 64, 35.4 MB at 128)
_BLOCK = 64


def decompose(unitary: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a dense unitary matrix with degeneracy grouping,
    from ``eigh`` of its complex Cayley image (:func:`_hermitian_cayley_image`)
    with the pole placed as in :func:`walk_decompose`.  U must be unitary
    within 1e-10 and the basis must pass :func:`_check_basis`; a failure
    raises :class:`SpectralError`."""
    u = _checked_unitary(unitary)
    eigenvalues, z = _cayley_eigh(u, _hermitian_cayley_image)
    _check_basis(eigenvalues, z, u.__matmul__, np.abs(np.abs(eigenvalues) - 1.0))
    return SpectralDecomposition(eigenvalues, z, _group_by_argument(eigenvalues))


def _checked_unitary(unitary: np.ndarray) -> np.ndarray:
    u = np.asarray(unitary, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise SpectralError("input must be a square matrix")
    # written as "not x <= bound" so that a NaN fails the check
    if not _gram_drift(u) <= 1e-10:
        raise SpectralError("input matrix is not unitary within 1e-10")
    return u


def walk_decompose(op: WalkOperator) -> SpectralDecomposition:
    """Eigendecomposition of the walk unitary U = SC with degeneracy grouping,
    in real arithmetic from the walk's time-reversal symmetry (module
    docstring), U' written from the coin blocks.  Every coin block must be
    symmetric within 1e-12 and unitary within 1e-10, and the basis must pass
    :func:`_check_basis` with U applied by :meth:`WalkOperator.apply`; a
    failure raises :class:`SpectralError`.  Above ``DENSE_CAP`` arcs it
    raises :class:`DenseCapExceeded` before any D x D array is made."""
    _check_cap(op)
    for k, block in op.blocks.items():
        # written as "not x <= bound" so that a NaN fails the check
        if not np.max(np.abs(block - block.T)) <= 1e-12:
            raise SpectralError(f"the degree-{k} coin is not symmetric within 1e-12")
        if not np.max(np.abs(block.conj().T @ block - np.eye(k))) <= 1e-10:
            raise SpectralError(f"the degree-{k} coin is not unitary within 1e-10")
    # U' and O keep the two components of the arc pair (a, rev a), a < rev a,
    # at the indices a and rev a, and V = QO holds (o_a +- i o_rev a) / sqrt2
    # there
    fwd = np.flatnonzero(np.arange(op.dimension) < op.shift)
    rev = op.shift[fwd]

    def lift(o: np.ndarray) -> np.ndarray:  # V = Q O
        v = np.empty(o.shape, dtype=complex)
        v.real[fwd] = v.real[rev] = o[fwd] / np.sqrt(2)
        v.imag[fwd] = o[rev] / np.sqrt(2)
        v.imag[rev] = -v.imag[fwd]
        return v

    # U' is passed as a temporary, so that _cayley_eigh can free it
    eigenvalues, o = _cayley_eigh(_symmetric_unitary(op), _cayley_image)
    # Q is unitary: U'O = O Lambda and O^T O = I say UV = V Lambda and V*V = I;
    # the residuals step one block of V at a time through op.apply
    _check_basis(eigenvalues, o, op.apply, np.abs(np.abs(eigenvalues) - 1.0), lift)
    return SpectralDecomposition(eigenvalues, lift(o), _group_by_argument(eigenvalues))


def _symmetric_unitary(op: WalkOperator) -> np.ndarray:
    """U' = Q^T C Q from the coin blocks.  Row a of sqrt2 Q is 1 at
    min(a, rev a) and +i (a < rev a) or -i at max(a, rev a), so the coin entry
    C_k[i, j] / 2 of a node with arcs a_i and a_j lands, weighted by their two
    rows, in the 2 x 2 block of their pairs.  Both ends of an edge add to their
    pair's diagonal block: np.add.at keeps both where a fancy += keeps one."""
    arcs, rev = np.arange(op.dimension), op.shift
    # each arc's two columns of sqrt2 Q and its entries there
    pair = np.stack([np.minimum(arcs, rev), np.maximum(arcs, rev)], axis=1)
    weight = np.stack([np.ones(op.dimension), np.where(arcs < rev, 1j, -1j)], axis=1)
    u = np.zeros((op.dimension, op.dimension), dtype=complex)
    for fans in op.graph.fan_classes:
        rows, w = pair[fans][..., None, None], weight[fans][..., None, None]
        cols, v = rows.transpose(0, 3, 4, 1, 2), w.transpose(0, 3, 4, 1, 2)
        np.add.at(u, (rows, cols), w * (op.blocks[fans.shape[1]][:, None, :, None] / 2) * v)
    return u


def _cayley_eigh(u: np.ndarray, image: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and an orthonormal eigenbasis of a unitary U from ``eigh``
    of ``image(u, pole)``: a Hermitian matrix with U's eigenvectors and the
    eigenvalues tan(theta / 2) for those e^{i theta} of W = -e^{-i pole} U, or
    None if I + W is singular, the pole placed by an eigenvalues-only pass
    (see above).  ``image`` may use u as scratch space if it puts U back."""

    def circle(lam: np.ndarray, pole: float) -> np.ndarray:  # tan(theta / 2) -> U
        return -np.exp(1j * pole) * (1 + 1j * lam) / (1 - 1j * lam)

    trace = np.trace(u)
    pole = _FIRST_POLE + np.pi
    try:
        h = image(u, _FIRST_POLE)
        first = None if h is None else circle(np.linalg.eigvalsh(h), _FIRST_POLE)
        del h  # before the next image is formed
        if first is not None:
            nearest = np.min(np.abs(np.angle(first * np.exp(-1j * _FIRST_POLE))))
            if nearest >= _POLE_TRUST and abs(np.sum(first) - trace) <= _POLE_TRUST:
                pole = _widest_gap_middle(first)
        h = image(u, pole)
        # frees U before the eigh when the caller passed it as a temporary
        del u
        if h is None:
            raise SpectralError("I + W is singular at both places of the Cayley pole")
        lam, o = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise SpectralError(f"eigensolver failed to converge: {exc}") from exc
    return circle(lam, pole), o


def _cayley_image(u: np.ndarray, pole: float) -> np.ndarray | None:
    """The real Cayley image H = (I + A)^-1 B of a symmetric unitary U', where
    A + iB = W = -e^{-i pole} U' puts the map's pole at the eigenvalue
    e^{i pole} of U'; None if I + A is singular.  I + A and B are formed in
    place in u, and u holds U' again, to rounding, on return."""
    rotation = -np.exp(-1j * pole)
    diagonal = np.diag_indices_from(u)
    u *= rotation
    u.real[diagonal] += 1.0
    try:
        return np.linalg.solve(u.real, u.imag)
    except np.linalg.LinAlgError:
        return None
    finally:
        u.real[diagonal] -= 1.0
        u /= rotation


def _hermitian_cayley_image(u: np.ndarray, pole: float) -> np.ndarray | None:
    """H = i(I - W)(I + W)^-1 = 2i(I + W)^-1 - iI, the complex Cayley image of
    any unitary U with W = -e^{-i pole} U; None if I + W is singular."""
    w = u * -np.exp(-1j * pole)
    w[np.diag_indices_from(w)] += 1.0
    try:
        h = np.linalg.inv(w)
    except np.linalg.LinAlgError:
        return None
    h *= 2j
    h[np.diag_indices_from(h)] -= 1j
    return h


def _widest_gap_middle(eigenvalues: np.ndarray) -> float:
    """Angle halfway across the widest gap between eigenvalues on the circle."""
    args = np.sort(np.angle(eigenvalues))
    gaps = np.diff(args, append=args[0] + 2 * np.pi)
    k = int(np.argmax(gaps))
    return float(args[k] + gaps[k] / 2)


def _gram_drift(m: np.ndarray) -> float:
    """max |M*M - I| over the upper triangle of M*M, formed one block of
    rows at a time, so that neither M*M nor a conjugated copy of M is held."""
    drift = 0.0
    for start in range(0, m.shape[1], _BLOCK):
        rows = m[:, start : start + _BLOCK].conj().T
        gram = rows @ m[:, start:]
        gram[:, : rows.shape[0]] -= np.eye(rows.shape[0])
        # np.maximum, unlike max, keeps a NaN
        drift = np.maximum(drift, np.max(np.abs(gram)))
    return float(drift)


def _check_basis(
    eigenvalues: np.ndarray, basis: np.ndarray, apply: Callable[[np.ndarray], np.ndarray],
    off_circle: np.ndarray, lift: Callable[[np.ndarray], np.ndarray] = lambda block: block,
) -> None:
    """Raise :class:`SpectralError` unless ``off_circle``, how far each
    eigenvalue puts U's off the unit circle, is within 1e-10, ``basis`` is
    orthonormal within 1e-10 and every residual |M v - lambda v| is within
    1e-8, where v = lift(b) for a column b of ``basis``, formed one block of
    columns at a time, and ``apply`` computes M v."""
    # written as "not x <= bound" so that a NaN fails the check
    if not np.max(off_circle) <= 1e-10:
        raise SpectralError("computed eigenvalues leave the unit circle")
    norms = np.empty(eigenvalues.size)
    for start in range(0, eigenvalues.size, _BLOCK):
        cols = slice(start, start + _BLOCK)
        v = lift(basis[:, cols])
        norms[cols] = np.linalg.norm(apply(v) - v * eigenvalues[cols], axis=0)
    worst = np.max(norms)
    if not worst <= 1e-8:
        raise SpectralError(f"eigenvector residual {worst:.2e} exceeds 1e-8")
    drift = _gram_drift(basis)
    if not drift <= 1e-10:
        raise SpectralError(f"eigenvectors are not orthonormal: max|V*V - I| = {drift:.2e}")


def grover_average_matrix(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The Grover walk's Cesaro-limit (p, P), as from
    :func:`infinite_time_average_matrix`, in node space (module docstring).
    Raises :class:`SpectralError` unless T's eigenpairs pass
    :func:`_check_basis` (|cos theta| <= 1 puts U's eigenvalues on the unit
    circle), the +-1 projector traces equal the Betti multiplicities and
    every row of p sums to 1 within 1e-10."""
    n, d = graph.node_count, graph.arc_count
    tail, head, deg = graph.arc_tail, graph.arc_head, graph.degrees
    adj = np.zeros((n, n))
    adj[tail, head] = 1.0
    t = adj / np.sqrt(np.outer(deg, deg))
    lam, f = np.linalg.eigh(t)  # ascending
    _check_basis(lam, f, t.__matmul__, np.abs(lam) - 1.0)
    g = f / np.sqrt(deg)[:, None]
    colors = graph.colors
    # T's eigenvalue 1 (top) is simple on a connected graph and -1 (bottom)
    # exists, simple, iff it is bipartite
    low = 0 if colors is None else 1
    plus, minus = _pm_one_multiplicities(graph)
    block = np.zeros((n, n))
    for sign, keep, vec, expected in (
        (1, slice(0, n - 1), np.ones(n), plus),
        (-1, slice(low, n), np.zeros(n) if colors is None else 1 - 2.0 * colors, minus),
    ):
        # K^-1/2 [(I - sign T)/2]^+ K^-1/2 grows like an effective resistance
        # (~N on a path), its differences along an arc b stay O(1): squaring
        # only differences keeps the rounding near eps N, not eps N^2
        r = (g[:, keep] * (2.0 / (1.0 - sign * lam[keep]))) @ g[:, keep].T
        h = r[:, tail] - sign * r[:, head]
        x = np.outer(vec, vec[tail]) / d - h / 4
        y = sign * h / 4
        block += _fan_summed_square(graph, adj, x, y, 0.5, -sign / 2)
        trace = d / 2 + np.sum(x[tail, np.arange(d)] + y[head, np.arange(d)])
        if not abs(trace - expected) <= 1e-6:
            msg = f"the {sign:+d} eigenprojector has trace {trace:.6g}, not {expected}"
            raise SpectralError(msg)
    lam, g = lam[low : n - 1], g[:, low : n - 1]
    sin = np.sqrt(1.0 - lam**2)
    mu = lam + 1j * sin
    # the groups at e^{+-i theta} have conjugate projectors, so one |P|^2
    # counted twice; a group of m enters as the Gram matrix of its (N, m^2)
    # fan-summed v_i conj(v_j) (simple: |v|^2) or in the x, y form of
    # _fan_summed_square, whichever array is smaller
    groups = _group_by_argument(mu)
    pairs = [(i, j) for grp in groups if grp.size**2 <= d for i in grp for j in grp]
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    ag = adj @ g
    gi, gj = g[:, i], g[:, j]
    fanned = deg[:, None] * gi * gj - mu[j].conj() * gi * ag[:, j] - mu[i] * ag[:, i] * gj
    fanned += mu[i] * mu[j].conj() * (adj @ (gi * gj))
    fanned /= 2 * sin[i] * sin[j]
    block += 2 * (fanned @ fanned.conj().T).real
    for grp in groups:
        if grp.size**2 > d:
            c = g[:, grp] / (2 * sin[grp] ** 2)
            v = (g[tail[:, None], grp] - mu[grp] * g[head[:, None], grp]).conj().T  # (m, D)
            block += 2 * _fan_summed_square(graph, adj, c @ v, -(c * mu[grp]) @ v)
    return _transition_matrices(block, graph)


def _transition_matrices(block: np.ndarray, graph: Graph, starts=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """(p, p / k_target) from the fan-summed [start, target] block of the
    start nodes ``starts`` (all of them by default), which becomes p,
    divided in place by k_start.  Raises :class:`SpectralError` unless every
    row of p sums to 1 within 1e-10."""
    block /= graph.degrees[starts, None]
    # written as "not x <= bound" so that a NaN fails the check
    drift = np.max(np.abs(block.sum(axis=1) - 1.0))
    if not drift <= 1e-10:
        raise SpectralError(f"rows of p miss 1 by up to {drift:.2e}")
    return block, block / graph.degrees[None, :]


def _fan_summed_square(
    graph: Graph, adj: np.ndarray, x: np.ndarray, y: np.ndarray, alpha=0.0, beta=0.0
) -> np.ndarray:
    """(N, N) sums of |P[a, b]|^2 over a leaving u and b leaving v, where
    P[a, b] = alpha[a = b] + beta[a = rev b] + x[tail a, b] + y[head a, b]."""
    tail, head, b = graph.arc_tail, graph.arc_head, np.arange(graph.arc_count)
    s = graph.degrees[:, None] * np.abs(x) ** 2 + adj @ np.abs(y) ** 2
    s += 2 * np.real(x.conj() * (adj @ y))
    # a = b leaves u = tail b; a = rev b leaves u = head b
    s[tail, b] += 2 * alpha * np.real(x[tail, b] + y[head, b]) + alpha**2
    s[head, b] += 2 * beta * np.real(x[head, b] + y[tail, b]) + beta**2
    return graph.fan_sum(s.T).T


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
    predicted_plus, predicted_minus = _pm_one_multiplicities(graph)
    return DegeneracyReport(
        entries=tuple(entries),
        plus_one=plus,
        minus_one=minus,
        predicted_plus_one=predicted_plus,
        predicted_minus_one=predicted_minus,
    )


def _pm_one_multiplicities(graph: Graph) -> tuple[int, int]:
    """Dimensions of the Grover walk's +1 and -1 eigenspaces (module
    docstring)."""
    b1 = betti_number(graph)
    return b1 + 1, b1 + 1 if is_bipartite(graph) else b1 - 1


def infinite_time_average_matrix(
    dec: SpectralDecomposition, graph: Graph
) -> tuple[np.ndarray, np.ndarray]:
    """Cesaro-limit (p, P) matrices over all start nodes, indexed [start, target].

    The node block sums |P_g[a, b]|^2 over eigenspace projectors P_g and over
    both arc fans.  For a simple eigenvalue the term is W[g, target] W[g, start]
    with W the fan-summed |v|^2 (``eigenstate_node_probability``), so every
    simple group enters through one N x N GEMM W_s^T W_s; only degenerate
    groups build a D x D projector.  Raises :class:`SpectralError` unless
    every row of p sums to 1 within 1e-10.
    """
    simple = [int(g[0]) for g in dec.groups if g.size == 1]
    w = eigenstate_node_probability(dec, graph)[simple]
    block = w.T @ w  # [target, start]
    for group in dec.groups:
        if group.size > 1:
            v = dec.eigenvectors[:, group]
            kernel = np.abs(v @ v.conj().T) ** 2
            block += graph.fan_sum(graph.fan_sum(kernel).T).T
    return _transition_matrices(block.T.copy(), graph)


def eigenstate_node_probability(dec: SpectralDecomposition, graph: Graph) -> np.ndarray:
    """p_mu(l) for all eigenvectors: (D, N) array of per-node probabilities.
    Row mu divided by ``graph.degrees`` is the degree-normalized profile."""
    return graph.fan_sum(np.abs(dec.eigenvectors) ** 2).T


def ipr(node_prob: np.ndarray) -> np.ndarray:
    """Inverse participation ratio sum(p^2) / sum(p)^2 over the last axis:
    a scalar for one probability vector, one value per row of
    :func:`eigenstate_node_probability`."""
    p = np.asarray(node_prob, dtype=float)
    return np.sum(p**2, axis=-1) / np.sum(p, axis=-1) ** 2


def _cycle_arcs(graph: Graph, cycle: list[int]) -> np.ndarray:
    """Flat arc indices around a node cycle (1-based ids): forward then back."""
    n = len(cycle)
    if n < 3:
        raise GraphError("a cycle needs at least three nodes")
    if len(set(cycle)) != n:
        raise GraphError("cycle nodes must be distinct")
    try:
        forward = [graph.arc_between(a - 1, b - 1) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    except GraphError as exc:
        raise GraphError(f"{exc}; not a cycle") from None
    return np.concatenate([forward, graph.reverse_arc[forward]])


def loop_eigenvector(
    graph: Graph, cycle: list[int], eigenvalue: int = 1
) -> tuple[np.ndarray, int] | None:
    """The Grover-walk eigenvector with eigenvalue +1 or -1 that a node cycle
    carries (module docstring), as (amplitudes, eigenvalue), or None for -1
    on an odd cycle."""
    if eigenvalue not in (1, -1):
        raise ValueError(f"a loop eigenvalue is +1 or -1, got {eigenvalue!r}")
    arcs = _cycle_arcs(graph, cycle)
    n = len(cycle)
    if eigenvalue == -1 and n % 2:
        return None
    forward = np.ones(n) if eigenvalue == 1 else (-1.0) ** np.arange(n)
    amplitudes = np.zeros(graph.arc_count, dtype=complex)
    amplitudes[arcs] = np.concatenate([forward, -eigenvalue * forward]) * (1.0 / np.sqrt(2 * n))
    return amplitudes, eigenvalue


def argument_histogram(dec: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of eigenvalue arguments over one turn of the unit circle in
    _HISTOGRAM_BINS bins.

    Bins are centered on the canonical angles (-pi and 0 are bin centers,
    not edges), so degenerate clusters at ±1 each land in a single bin
    instead of straddling an edge.  Returns (counts, bin edges).
    """
    width = 2 * np.pi / _HISTOGRAM_BINS
    args = np.angle(dec.eigenvalues).copy()
    args[args >= np.pi - width / 2] -= 2 * np.pi
    counts, edges = np.histogram(
        args, bins=_HISTOGRAM_BINS, range=(-np.pi - width / 2, np.pi - width / 2)
    )
    return counts, edges
