"""Time stepping and time-averaged transition probabilities.

Transition rows follow the site-averaging convention: a walk from node i is
started once per outgoing arc and the resulting node probabilities are
averaged with weight 1/k_i.  The normalized row divides by the target
degree k_l, which removes the degree bias of the raw probabilities.

One streaming core, ``_node_probabilities``, steps a batch of start arcs in
the operator's real layout (``operators`` module docstring), each walk a 1
in its start arc's real row, and yields their (N, B) node probabilities at
t = 0..T, rows in the operator's ``node_order``.  Two folds over it return
arrays in node order: :func:`transition_rows`, the rows p(i -> l; t) of one
start node at every t, and :func:`finite_time_average_matrix`, their mean
over the window t = 1..T for all start nodes.  The latter splits the start
arcs into balanced column chunks and steps them on one thread per usable
core, while every node's real GEMM stays small enough for BLAS to run it on
the calling thread: (2k)^2 B below ``_SERIAL_GEMM`` (2^18).  numpy releases
the GIL in the GEMMs, gathers and ``einsum`` folds of a step.  Each thread
holds about 32 D B bytes for a chunk of B columns, two (2D, B) float64
arrays, and all chunks in flight together hold at most ``_CHUNK_ARCS``
(1,024) columns.  The caller makes every thread's arrays (``_workspace``)
before the threads start and the threads reuse them for each of their
chunks, so the threads allocate nothing large and the peak memory does not
depend on their scheduling.

:func:`average_matrices` alone picks the averaging kernel for every caller:
this stepping, or one of ``spectral``'s exact kernels.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .graph import Graph
from .operators import CoinKind, WalkOperator, build_walk_operator
from .spectral import _transition_matrices, grover_average_matrix, infinite_time_average_matrix, walk_decompose

__all__ = ["average_matrices", "transition_rows", "finite_time_average_matrix", "DEFAULT_AVERAGE_STEPS"]

DEFAULT_AVERAGE_STEPS = 100
_CHUNK_ARCS = 1024  # start arcs stepped at once by finite_time_average_matrix
# chunks start at multiples of _ALIGN arcs: a GEMM kernel may round the
# columns past its last full panel differently, and aligned chunks give
# every start arc the same kernel however the columns are split (OpenBLAS's
# SkylakeX dgemm: splits at multiples of 4 columns changed the results for
# blocks of 16 rows or more, at multiples of 8 no column changed)
_ALIGN = 8
# bytes a thread's chunk may hold: wider chunks fall out of cache
_CHUNK_BYTES = 16 << 20
# OpenBLAS runs a real GEMM on its calling thread while m n k < _SERIAL_GEMM
# and hands larger ones to its own thread pool, which stepping threads queue
# for.  Threads step only chunks that keep every node's 2k x 2k by 2k x B
# GEMM serial, and only when that still leaves _MIN_THREAD_WIDTH columns
_SERIAL_GEMM = 1 << 18
_MIN_THREAD_WIDTH = 64


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _workspace(op: WalkOperator, width: int) -> list[np.ndarray]:
    """Flat arrays for stepping up to ``width`` start arcs at once: the state
    and the coin's output in the real layout, and the node probabilities."""
    d, n = op.dimension, op.graph.node_count
    return [np.empty(2 * d * width), np.empty(2 * d * width), np.empty(n * width)]


def _node_probabilities(op: WalkOperator, starts: np.ndarray, steps: int, space: list | None = None):
    """Yield the (N, B) node probabilities, rows in ``op.node_order``, at
    t = 0..steps of the B walks started on the basis arcs ``starts``; column
    b belongs to starts[b].  The same array is yielded each time, overwritten
    by the next step.  The arrays live in ``space``, a :func:`_workspace` at
    least B wide, or in a new one."""
    b = len(starts)
    d, n = op.dimension, op.graph.node_count
    if space is None:
        space = _workspace(op, b)
    x, work, probs = (flat[: rows * b].reshape(rows, b) for flat, rows in zip(space, (2 * d, 2 * d, n)))
    x.fill(0)
    x[op.arc_rows[0, starts], np.arange(b)] = 1.0
    for t in range(steps + 1):
        if t:
            op.step_classed(x, work)
        yield op.probabilities_classed(x, probs)


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
    rows = np.empty((steps + 1, graph.node_count))
    for t, probs in enumerate(_node_probabilities(op, arcs, steps)):
        rows[t, op.node_order] = probs.mean(axis=1)
    return rows


def _run_threads(task, chunks: list, spaces: list) -> None:
    """task(chunk, spaces[i]) for every chunk, the i-th on thread i mod
    len(spaces); the first exception raised on any thread is raised here."""
    errors = []
    workers = len(spaces)

    def run(share, space):
        try:
            for chunk in share:
                task(chunk, space)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(chunks[i::workers], spaces[i])) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    run(chunks[::workers], spaces[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _chunk_bounds(d: int, max_degree: int) -> tuple[np.ndarray, int]:
    """Start-arc bounds of the chunks for ``d`` arcs and the threads that
    step them: whole groups of _ALIGN arcs per chunk, as few chunks as the
    caps allow, and as many chunks on every thread."""
    threads = max(1, min(_usable_cores(), _CHUNK_ARCS // _ALIGN))
    serial = (_SERIAL_GEMM - 1) // (2 * max_degree) ** 2
    if serial < _MIN_THREAD_WIDTH:
        threads = 1
    width = min(_CHUNK_ARCS // threads, _CHUNK_BYTES // (32 * d))
    if threads > 1:
        width = min(width, serial)
    groups = -(-d // _ALIGN)
    count = -(-groups // max(1, width // _ALIGN))
    threads = min(threads, count)
    count = min(groups, -(-count // threads) * threads)
    return np.minimum(np.arange(count + 1) * groups // count * _ALIGN, d), threads


def finite_time_average_matrix(
    op: WalkOperator, steps: int = DEFAULT_AVERAGE_STEPS
) -> tuple[np.ndarray, np.ndarray]:
    """Time-averaged (p, P) matrices over all start nodes.

    The window is t = 1..steps.  The t = 0..steps mean of p is
    (steps p + I) / (steps + 1), since t = 0 only weights the diagonal.
    Returns two (N, N) arrays indexed [start, target].  Work is chunked over
    initial arcs and threads to bound memory on large graphs (module
    docstring).  Raises :class:`SpectralError` unless every row of p sums to
    1 within 1e-10.
    """
    if steps < 1:
        raise ValueError("averaging window must contain at least one step")
    graph = op.graph
    d, n = graph.arc_count, graph.node_count
    bounds, threads = _chunk_bounds(d, max(op.blocks))
    # [start arc, target node], arcs in basis order, nodes in op.node_order
    arc_target_prob = np.empty((d, n))

    # every thread's arrays are made here, before any thread starts, so
    # that they are all alive at once however the threads are scheduled
    width = int(np.diff(bounds).max())
    spaces = [(_workspace(op, width), np.empty(n * width)) for _ in range(threads)]

    def window_mean(chunk, space):
        lo, hi = chunk
        walk, flat = space
        total = flat[: n * (hi - lo)].reshape(n, hi - lo)
        total.fill(0)
        for t, probs in enumerate(_node_probabilities(op, np.arange(lo, hi), steps, walk)):
            if t:
                total += probs
        arc_target_prob[lo:hi] = np.divide(total, steps, out=total).T

    _run_threads(window_mean, list(zip(bounds[:-1], bounds[1:])), spaces)
    block = np.empty((n, n))
    block[:, op.node_order] = graph.fan_sum(arc_target_prob)
    return _transition_matrices(block, graph)


def average_matrices(
    graph: Graph,
    coin: CoinKind,
    mode: str = "average-infinite",
    steps: int = DEFAULT_AVERAGE_STEPS,
) -> tuple[dict, np.ndarray, np.ndarray]:
    """Time-averaged (p, P) of the ``coin`` walk on ``graph``, indexed
    [start, target], and the parameter record that documents carry for them.

    "average-finite" steps over t = 1..steps, which the record's
    ``window_start`` of 1 states; "average-infinite" is the exact Cesaro
    limit, in node space for the Grover coin and from the eigenvectors of the
    D x D U' = Q^T C Q, refused above ``DENSE_CAP`` arcs, for the
    Fourier coin, where a ``detect`` at D = 4,232 took 24.1 s and 734 MB on 2
    cores (46664ce): use "average-finite" there.  Raises ValueError for
    another mode.
    """
    if mode == "average-finite":
        p, norm = finite_time_average_matrix(build_walk_operator(graph, coin), steps)
        return {"mode": mode, "steps": steps, "window_start": 1}, p, norm
    if mode != "average-infinite":
        raise ValueError(f"unknown averaging mode {mode!r}")
    if coin is CoinKind.GROVER:
        p, norm = grover_average_matrix(graph)
        return {"mode": mode, "eigensolver": "grover-spectral-map"}, p, norm
    dec = walk_decompose(build_walk_operator(graph, coin))
    p, norm = infinite_time_average_matrix(dec, graph)
    return {"mode": mode, "eigensolver": "cayley-real-evd"}, p, norm
