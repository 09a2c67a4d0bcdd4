"""Time stepping and time-averaged transition probabilities.

Transition rows follow the site-averaging convention: a walk from node i is
started once per outgoing arc and the resulting node probabilities are
averaged with weight 1/k_i.  The normalized row divides by the target
degree k_l, which removes the degree bias of the raw probabilities.

One streaming core, ``_node_probabilities``, steps a batch of walks in the
operator's real layout (``operators`` module docstring), each started as a
1 in the real or imaginary rows of its start arcs, and yields their (N, B)
node probabilities at t = 0..T, rows in the operator's ``node_order``.  Two
folds over it return arrays in node order: :func:`transition_rows`, the rows
p(i -> l; t) of one start node at every t, and ``_window_rows``, their mean
over the window t = 1..T for any set of start nodes, stepping only those
nodes' start arcs; :func:`finite_time_average_matrix` calls it for all
nodes.  A real (Grover) coin steps the imaginary rows as the real ones, so
there one column carries two start arcs of a node.  The columns are split
into balanced chunks and stepped on one thread per usable
core, while every node's real GEMM stays small enough for BLAS to run it on
the calling thread: (2k)^2 B below ``_SERIAL_GEMM`` (2^18).  numpy releases
the GIL in the GEMMs, gathers and ``einsum`` folds of a step.  Each thread
holds about 32 D B bytes for a chunk of B columns, two (2D, B) float64
arrays, and all chunks in flight together hold at most ``_CHUNK_ARCS``
(1,024) columns.  The caller makes every thread's arrays (``_workspace``)
before the threads start and the threads reuse them for each of their
chunks, so the threads allocate nothing large and the peak memory does not
depend on their scheduling.  Batches are padded with zero states to whole
groups of ``_ALIGN`` columns, so a row is bit-identical in every batch.

:func:`average_rows` is the one averaging entry: it alone picks the
averaging kernel for every caller, this stepping or one of ``spectral``'s
exact kernels, and hands out the rows of (p, P) on demand.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .graph import Graph
from .operators import CoinKind, WalkOperator, build_walk_operator
from .spectral import _transition_matrices, grover_average_matrix, infinite_time_average_matrix, walk_decompose

__all__ = ["average_rows", "transition_rows", "finite_time_average_matrix", "DEFAULT_AVERAGE_STEPS"]

DEFAULT_AVERAGE_STEPS = 100
_CHUNK_ARCS = 1024  # columns stepped at once by _window_rows
# batches and chunks are whole groups of _ALIGN columns: a GEMM kernel may
# round the columns past its last full panel differently, and aligned chunks
# give every column the same kernel however the columns are split (OpenBLAS's
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


def _node_probabilities(op: WalkOperator, rows, columns, b: int, steps: int, space: list | None = None):
    """Yield the (N, b) node probabilities, rows in ``op.node_order``, at
    t = 0..steps of b walks, the walk in column columns[j] started with a 1
    in real-layout row rows[j] for every j.  The same array is yielded each
    time, overwritten by the next step.  The arrays live in ``space``, a
    :func:`_workspace` at least b wide, or in a new one."""
    d, n = op.dimension, op.graph.node_count
    if space is None:
        space = _workspace(op, b)
    x, work, probs = (flat[: r * b].reshape(r, b) for flat, r in zip(space, (2 * d, 2 * d, n)))
    x.fill(0)
    x[rows, columns] = 1.0
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
    for t, probs in enumerate(_node_probabilities(op, op.arc_rows[0, arcs], np.arange(len(arcs)), len(arcs), steps)):
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


def _chunk_bounds(columns: int, d: int, max_degree: int) -> tuple[np.ndarray, int]:
    """Bounds of the chunks for a batch of ``columns`` walks, padded to whole
    groups of _ALIGN columns, and the threads that step them: as few chunks
    as the caps allow, and as many chunks on every thread.  A column takes
    32 ``d`` bytes for an operator of ``d`` arcs, however narrow the batch."""
    threads = max(1, min(_usable_cores(), _CHUNK_ARCS // _ALIGN))
    serial = (_SERIAL_GEMM - 1) // (2 * max_degree) ** 2
    if serial < _MIN_THREAD_WIDTH:
        threads = 1
    width = min(_CHUNK_ARCS // threads, _CHUNK_BYTES // (32 * d))
    if threads > 1:
        width = min(width, serial)
    groups = -(-columns // _ALIGN)
    count = -(-groups // max(1, width // _ALIGN))
    threads = min(threads, count)
    count = min(groups, -(-count // threads) * threads)
    return np.arange(count + 1) * groups // count * _ALIGN, threads


def _window_rows(op: WalkOperator, nodes: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``nodes`` (0-based, in that order) of the time-averaged (p, P)
    over the window t = 1..steps, stepped from those nodes' start arcs
    alone.  Raises :class:`SpectralError` unless each of these rows of p
    sums to 1 within 1e-10."""
    graph = op.graph
    n = graph.node_count
    # a real coin steps the imaginary rows as it steps the real ones, so a
    # column can carry two start arcs of one node, one in each
    pack = 1 if any(block.imag.any() for block in op.blocks.values()) else 2
    degrees = graph.degrees[nodes]
    widths = -(-degrees // pack)
    first = np.cumsum(widths) - widths  # each node's first column
    slot = np.arange(degrees.sum()) - np.repeat(np.cumsum(degrees) - degrees, degrees)
    arcs = np.repeat(graph.arc_offsets[nodes], degrees) + slot
    columns = np.repeat(first, degrees) + slot // pack
    rows = op.arc_rows[slot % pack, arcs]
    bounds, threads = _chunk_bounds(int(widths.sum()), graph.arc_count, max(op.blocks))
    # [column, target node], nodes in op.node_order
    column_target_prob = np.empty((bounds[-1], n))

    # every thread's arrays are made here, before any thread starts, so
    # that they are all alive at once however the threads are scheduled
    width = int(np.diff(bounds).max())
    spaces = [(_workspace(op, width), np.empty(n * width)) for _ in range(threads)]

    def window_mean(chunk, space):
        lo, hi = chunk
        walk, flat = space
        i, j = np.searchsorted(columns, (lo, hi))
        total = flat[: n * (hi - lo)].reshape(n, hi - lo)
        total.fill(0)
        for t, probs in enumerate(_node_probabilities(op, rows[i:j], columns[i:j] - lo, hi - lo, steps, walk)):
            if t:
                total += probs
        column_target_prob[lo:hi] = np.divide(total, steps, out=total).T

    _run_threads(window_mean, list(zip(bounds[:-1], bounds[1:])), spaces)
    block = np.zeros((len(nodes), n))
    for s in range(widths.max()):  # each node's columns, summed in order
        block[widths > s] += column_target_prob[first[widths > s] + s]
    return _transition_matrices(block[:, np.argsort(op.node_order)], graph, nodes)


def finite_time_average_matrix(
    op: WalkOperator, steps: int = DEFAULT_AVERAGE_STEPS
) -> tuple[np.ndarray, np.ndarray]:
    """Time-averaged (p, P) matrices over all start nodes, two (N, N) arrays
    indexed [start, target], over the window t = 1..steps (module docstring).
    The t = 0..steps mean of p is (steps p + I) / (steps + 1), since t = 0
    only weights the diagonal.  Raises :class:`SpectralError` unless every
    row of p sums to 1 within 1e-10."""
    if steps < 1:
        raise ValueError("averaging window must contain at least one step")
    return _window_rows(op, np.arange(op.graph.node_count), steps)


def average_rows(graph: Graph, coin: CoinKind, mode: str = "average-infinite", steps: int = DEFAULT_AVERAGE_STEPS):
    """The parameter record that documents carry for the time-averaged (p, P)
    of the ``coin`` walk on ``graph``, and a function from 0-based node
    indices, or a slice, to those rows of p and P, indexed [start, target],
    as new arrays that the caller owns: ``rows(slice(None))`` gives both
    whole matrices.

    "average-infinite" is the exact Cesaro limit, computed here for all
    nodes: in node space for the Grover coin, and from the eigenvectors of
    the D x D U' = Q^T C Q, refused above ``DENSE_CAP`` arcs, for the Fourier
    coin, where a ``detect`` at D = 4,232 took 24.1 s and 734 MB on 2 cores
    (46664ce).  "average-finite" averages over t = 1..steps, which the
    record's ``window_start`` of 1 states, and steps only the nodes asked for
    that no earlier call stepped: ``detect`` steps the candidates it visits,
    ``sweep`` those of all its thresholds, ``average --start i`` node i
    alone.  It is far cheaper at D = 4,232, but another answer, not a faster
    exact one: T = 100 flips 668 of the 4,316 threshold decisions in that
    graph's 13 highest-degree rows.  Raises ValueError for another mode, or
    for ``steps`` below 1 in finite mode.
    """
    n = graph.node_count
    if mode == "average-finite":
        if steps < 1:
            raise ValueError("averaging window must contain at least one step")
        op = build_walk_operator(graph, coin)
        p, norm, done = np.empty((n, n)), np.empty((n, n)), np.zeros(n, dtype=bool)
        record = {"mode": mode, "steps": steps, "window_start": 1}
    elif mode == "average-infinite":
        if coin is CoinKind.GROVER:
            p, norm = grover_average_matrix(graph)
            record = {"mode": mode, "eigensolver": "grover-spectral-map"}
        else:
            p, norm = infinite_time_average_matrix(walk_decompose(build_walk_operator(graph, coin)), graph)
            record = {"mode": mode, "eigensolver": "cayley-real-evd"}
        done = np.ones(n, dtype=bool)  # every exact row is computed here
    else:
        raise ValueError(f"unknown averaging mode {mode!r}")

    def rows(nodes):
        # a mask, not np.unique: its first call in a process raised the
        # peak RSS of an exact Grover detect on planted-80 by 0.4 MB
        asked = np.zeros(n, dtype=bool)
        asked[nodes] = True
        todo = np.flatnonzero(asked & ~done)
        if len(todo):
            p[todo], norm[todo] = _window_rows(op, todo, steps)
            done[todo] = True
        # copies, a slice's too: an edit by the caller must not reach the
        # rows that later calls hand out
        return p[nodes].copy(), norm[nodes].copy()

    return record, rows
