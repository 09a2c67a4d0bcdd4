import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cesaro_kernel import connected_graphs

import arcwalk as aw
from arcwalk import evolution
from arcwalk.cli import RunConfig, run
from arcwalk.graph import ConfigError, GraphError
from arcwalk.spectral import grover_average_matrix


def one_arc_probabilities(op, arc, steps):
    """Node probabilities, in node order, at t = 0..steps of the one walk
    started on basis arc ``arc``."""
    return [
        probs[np.argsort(op.node_order), 0].copy()
        for probs in evolution._node_probabilities(op, op.arc_rows[0, [arc]], [0], 1, steps)
    ]


def test_basis_state(karate, three_community):
    # a walk started on one arc is the delta on its tail at t = 0
    op = aw.build_walk_operator(karate, aw.CoinKind.FOURIER)
    assert one_arc_probabilities(op, 0, 0)[0][0] == 1.0
    op = aw.build_walk_operator(three_community, aw.CoinKind.FOURIER)
    assert one_arc_probabilities(op, three_community.arc_offsets[12] + 2, 0)[0][12] == 1.0


def test_basis_state_rejects_bad_arc(karate):
    op = aw.build_walk_operator(karate, aw.CoinKind.FOURIER)
    with pytest.raises(GraphError, match="out of range 1..34"):
        aw.transition_rows(op, 0, 0)
    with pytest.raises(GraphError, match="out of range 1..34"):
        aw.transition_rows(op, 35, 0)


def test_transition_rows_rejects_negative_steps(karate):
    op = aw.build_walk_operator(karate, aw.CoinKind.FOURIER)
    with pytest.raises(ConfigError) as info:
        aw.transition_rows(op, 1, -1)
    assert str(info.value) == "step count must be non-negative"


def test_uniform_state_probability(karate):
    d = karate.arc_count
    psi = np.full(d, 1 / np.sqrt(d), dtype=complex)
    assert np.allclose(karate.fan_sum(np.abs(psi) ** 2), karate.degrees / d, atol=1e-12)


def test_node_probability_sums_to_one(three_community, rng):
    psi = rng.normal(size=78) + 1j * rng.normal(size=78)
    psi /= np.linalg.norm(psi)
    assert abs(three_community.fan_sum(np.abs(psi) ** 2).sum() - 1.0) < 1e-10


def test_one_step_matches_dense_oracle():
    g = aw.builtin("cycle(3)")
    op = aw.build_walk_operator(g, aw.CoinKind.FOURIER)
    u = aw.materialize_dense(op)
    oracle = u[:, g.arc_offsets[0]]
    expected = np.add.reduceat(np.abs(oracle) ** 2, g.arc_offsets[:-1])
    probs = one_arc_probabilities(op, g.arc_offsets[0], 1)
    assert len(probs) == 2
    assert np.allclose(probs[1], expected, atol=1e-12)


def test_transition_row_t0_is_identity(karate):
    op = aw.build_walk_operator(karate, aw.CoinKind.FOURIER)
    rows = aw.transition_rows(op, 5, 0)
    expected = np.zeros((1, 34))
    expected[0, 4] = 1.0
    assert np.array_equal(rows, expected)


@pytest.mark.parametrize("t", [1, 2, 3, 7])
def test_transition_matches_matrix_power(t):
    g = aw.builtin("cycle(4)")
    op = aw.build_walk_operator(g, aw.CoinKind.GROVER)
    u = aw.materialize_dense(op)
    ut = np.linalg.matrix_power(u, t)
    k = 2
    expected = np.zeros(4)
    for j in range(k):
        col = ut[:, g.arc_offsets[0] + j]
        expected += np.add.reduceat(np.abs(col) ** 2, g.arc_offsets[:-1]) / k
    rows = aw.transition_rows(op, 1, t)
    assert rows.shape == (t + 1, 4)
    assert np.abs(rows[t] - expected).max() < 1e-12


def test_rows_sum_to_one(three_community):
    op = aw.build_walk_operator(three_community, aw.CoinKind.FOURIER)
    for node in (1, 7, 13):
        rows = aw.transition_rows(op, node, 40)
        assert np.abs(rows[[1, 5, 40]].sum(axis=1) - 1.0).max() < 1e-10


def test_fourier_spreads_over_first_community(three_community):
    op = aw.build_walk_operator(three_community, aw.CoinKind.FOURIER)
    rows = aw.transition_rows(op, 1, 15)
    assert np.all(rows[3:, :7].sum(axis=1) > 0.5)


def test_finite_average_path2_hand_computed():
    # single edge: U is the swap, so the walk oscillates 1 -> 2 -> 1 -> ...
    g = aw.builtin("path(2)")
    for kind in aw.CoinKind:
        op = aw.build_walk_operator(g, kind)
        p, norm = aw.finite_time_average_matrix(op, steps=2)
        assert np.allclose(p[0], [0.5, 0.5])
        assert np.allclose(norm[0], [0.5, 0.5])


def test_finite_average_matches_per_step_mean(three_community):
    op = aw.build_walk_operator(three_community, aw.CoinKind.FOURIER)
    steps = 12
    manual = aw.transition_rows(op, 4, steps)[1:].mean(axis=0)
    p, _ = aw.finite_time_average_matrix(op, steps=steps)
    assert np.abs(p[3] - manual).max() < 1e-12


@pytest.mark.parametrize("steps", [1, 7, 40])
@pytest.mark.parametrize("kind", list(aw.CoinKind))
@pytest.mark.parametrize("name", ["three_community", "karate", "square_triangle"])
def test_window_from_t0_is_recomputed_from_p(name, kind, steps):
    # the walk starts on its own node, so p at t = 0 is I and the mean over
    # t = 0..T is (T p + I) / (T + 1) of the t = 1..T mean p
    op = aw.build_walk_operator(aw.builtin(name), kind)
    n = op.graph.node_count
    p, _ = aw.finite_time_average_matrix(op, steps)
    from_t0 = (steps * p + np.eye(n)) / (steps + 1)
    for node in range(1, n + 1):
        rows = aw.transition_rows(op, node, steps)
        assert np.abs(rows.mean(axis=0) - from_t0[node - 1]).max() <= 1e-14


def test_average_matrix_matches_rows(three_community, monkeypatch):
    monkeypatch.setattr(evolution, "_CHUNK_ARCS", 13)
    op = aw.build_walk_operator(three_community, aw.CoinKind.GROVER)
    p, norm = aw.finite_time_average_matrix(op, steps=20)
    for node in (1, 9, 21):
        row = aw.transition_rows(op, node, 20)[1:].mean(axis=0)
        assert np.abs(p[node - 1] - row).max() < 1e-12
        assert np.abs(norm[node - 1] - row / three_community.degrees).max() < 1e-12


def test_light_cone_on_long_cycle():
    g = aw.builtin("cycle(51)")
    op = aw.build_walk_operator(g, aw.CoinKind.FOURIER)
    start = 26
    rows = aw.transition_rows(op, start, 25)
    for t in (1, 5, 12, 25):
        support = np.flatnonzero(rows[t] > 1e-15) + 1
        ring_dist = np.minimum(np.abs(support - start), 51 - np.abs(support - start))
        assert ring_dist.max() <= t


def test_determinism(karate):
    op = aw.build_walk_operator(karate, aw.CoinKind.FOURIER)
    a = aw.transition_rows(op, 3, 30)
    b = aw.transition_rows(op, 3, 30)
    assert np.array_equal(a, b)


def test_norm_conserved_on_all_builtins(rng):
    for name in ["three_community", "karate", "cycle(5)", "path(4)", "complete(4)", "square_triangle"]:
        g = aw.builtin(name)
        op = aw.build_walk_operator(g, aw.CoinKind.FOURIER)
        psi = np.zeros(g.arc_count, dtype=complex)
        psi[0] = 1.0
        for _ in range(1000):
            psi = op.apply(psi)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def row_layout_steps(graph, u, arcs, steps):
    """Reference stepping: one basis state per start arc as a row, stepped by
    the dense U; returns the (B, N) node probabilities at t = 0..steps."""
    batch = np.zeros((len(arcs), graph.arc_count), dtype=complex)
    batch[np.arange(len(arcs)), arcs] = 1.0
    probs = []
    for t in range(steps + 1):
        if t > 0:
            batch = batch @ u.T
        probs.append(np.add.reduceat(np.abs(batch) ** 2, graph.arc_offsets[:-1], axis=-1))
    return probs


@settings(max_examples=20)
@given(
    graph=st.booleans().flatmap(lambda bip: connected_graphs(bip)),
    kind=st.sampled_from(list(aw.CoinKind)),
)
def test_real_layout_probabilities_match_dense_oracle(graph, kind):
    # every start arc at once, stepped as (Re, Im) rows, against the complex
    # dense U applied to basis rows
    op = aw.build_walk_operator(graph, kind)
    starts = np.arange(graph.arc_count)
    expected = row_layout_steps(graph, aw.materialize_dense(op), starts, 7)
    for t, probs in enumerate(evolution._node_probabilities(op, op.arc_rows[0, starts], starts, len(starts), 7)):
        assert np.abs(probs.T - expected[t][:, op.node_order]).max() <= 1e-14


def average_matrix_oracle(graph, u, steps, chunk_arcs):
    """Reference (p, P): the chunked row-layout loop over all start arcs."""
    d = graph.arc_count
    arc_node_prob = np.zeros((d, graph.node_count))
    for lo in range(0, d, chunk_arcs):
        hi = min(lo + chunk_arcs, d)
        probs = row_layout_steps(graph, u, np.arange(lo, hi), steps)
        arc_node_prob[lo:hi] = sum(probs[1:]) / steps
    p = np.add.reduceat(arc_node_prob, graph.arc_offsets[:-1], axis=0)
    p /= graph.degrees[:, None]
    return p, p / graph.degrees[None, :]


def node_arcs(graph, node):
    return np.arange(graph.arc_offsets[node - 1], graph.arc_offsets[node])


@pytest.mark.parametrize("kind", list(aw.CoinKind))
@pytest.mark.parametrize("chunk_arcs", [1024, 17])
def test_average_matrix_matches_row_layout_oracle(three_community, kind, chunk_arcs, monkeypatch):
    # D = 78, so chunks of 17 leave a short last chunk
    monkeypatch.setattr(evolution, "_CHUNK_ARCS", chunk_arcs)
    op = aw.build_walk_operator(three_community, kind)
    u = aw.materialize_dense(op)
    p, norm = aw.finite_time_average_matrix(op, steps=15)
    p_ref, norm_ref = average_matrix_oracle(three_community, u, 15, chunk_arcs)
    assert np.abs(p - p_ref).max() <= 1e-12
    assert np.abs(norm - norm_ref).max() <= 1e-12
    for node in (1, 13):
        row = aw.transition_rows(op, node, 15)[1:].mean(axis=0)
        assert np.abs(row - p_ref[node - 1]).max() <= 1e-12


@pytest.mark.parametrize("name", ["three_community", "karate"])
@pytest.mark.parametrize("kind", list(aw.CoinKind))
def test_average_matrix_is_independent_of_threads_and_chunks(name, kind, monkeypatch):
    # every start arc's walk is the same arithmetic however the start arcs
    # are split into batches and chunks and the chunks over threads, so p is
    # bit-identical, for all nodes and for rows on demand alike; more threads
    # than cores and a short switch interval interleave the threads' writes,
    # which a lost one would show
    op = aw.build_walk_operator(aw.builtin(name), kind)
    n = op.graph.node_count
    batches = [np.arange(n)[::-1], np.arange(n)[n // 2 :], np.array([n - 1, 0, 5])]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        p, norm = aw.finite_time_average_matrix(op, steps=10)
        for cores in (1, 8):
            for chunk_arcs in (1024, 64, 24, 8):
                monkeypatch.setattr(evolution, "_usable_cores", lambda: cores)
                monkeypatch.setattr(evolution, "_CHUNK_ARCS", chunk_arcs)
                got = aw.finite_time_average_matrix(op, steps=10)
                assert np.array_equal(got[0], p) and np.array_equal(got[1], norm)
                for nodes in batches:
                    rows = evolution._window_rows(op, nodes, 10)
                    assert np.array_equal(rows[0], p[nodes]) and np.array_equal(rows[1], norm[nodes])
                monkeypatch.undo()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cores", [1, 2, 8])
@pytest.mark.parametrize("d, max_degree", [(78, 7), (704, 13), (704, 15), (4232, 22), (824, 60)])
def test_chunks_bound_memory_and_keep_threaded_gemms_serial(d, max_degree, cores, monkeypatch):
    monkeypatch.setattr(evolution, "_usable_cores", lambda: cores)
    # every start arc, and batches of fewer columns than D, which still take
    # 32 D bytes per column
    for columns in (d, d // 2 - 3, d // 10 + 1):
        bounds, threads = evolution._chunk_bounds(columns, d, max_degree)
        widths = np.diff(bounds)
        padded = -(-columns // evolution._ALIGN) * evolution._ALIGN
        assert bounds[0] == 0 and bounds[-1] == padded and widths.min() > 0
        assert np.all(bounds % evolution._ALIGN == 0)
        assert 1 <= threads <= cores and widths.max() * threads <= evolution._CHUNK_ARCS
        # two (2D, B) float64 arrays per thread: the state and the coin's output
        assert widths.max() * 32 * d <= max(evolution._CHUNK_BYTES, 32 * d * evolution._ALIGN)
        if threads > 1:
            # OpenBLAS would hand a larger real GEMM to its own pool
            assert evolution._SERIAL_GEMM == 1 << 18
            assert (2 * max_degree) ** 2 * widths.max() < evolution._SERIAL_GEMM
            assert len(widths) % threads == 0
        if max_degree > 32:
            assert threads == 1


def test_thread_failure_is_raised_to_the_caller(three_community, monkeypatch):
    monkeypatch.setattr(evolution, "_usable_cores", lambda: 2)
    monkeypatch.setattr(evolution, "_CHUNK_ARCS", 16)
    op = aw.build_walk_operator(three_community, aw.CoinKind.FOURIER)
    calls = []
    probabilities = evolution._node_probabilities

    def failing_on_second_chunk(op, rows, columns, width, steps, space):
        start = int(np.flatnonzero(op.arc_rows[0] == rows[0])[0])
        calls.append(start)
        if start == 8:  # the chunk the second thread takes first
            raise RuntimeError("step failed")
        return probabilities(op, rows, columns, width, steps, space)

    monkeypatch.setattr(evolution, "_node_probabilities", failing_on_second_chunk)
    with pytest.raises(RuntimeError, match="step failed"):
        aw.finite_time_average_matrix(op, steps=3)
    assert 8 in calls


def test_thread_arrays_are_made_before_the_threads_start(three_community, monkeypatch):
    # arrays made on the threads would make the peak memory depend on
    # whether the threads overlap in time
    monkeypatch.setattr(evolution, "_usable_cores", lambda: 2)
    monkeypatch.setattr(evolution, "_CHUNK_ARCS", 16)
    op = aw.build_walk_operator(three_community, aw.CoinKind.FOURIER)
    made_on = []
    workspace = evolution._workspace

    def recording(op, width):
        made_on.append(threading.current_thread())
        return workspace(op, width)

    monkeypatch.setattr(evolution, "_workspace", recording)
    bounds, threads = evolution._chunk_bounds(op.dimension, op.dimension, max(op.blocks))
    assert threads == 2 and len(bounds) - 1 > threads  # several chunks per thread
    aw.finite_time_average_matrix(op, steps=3)
    assert made_on == [threading.main_thread()] * threads


@pytest.mark.parametrize("t", [0, 1, 7])
def test_transition_matches_row_layout_oracle(karate, t):
    op = aw.build_walk_operator(karate, aw.CoinKind.FOURIER)
    u = aw.materialize_dense(op)
    for node in (1, 12, 34):
        expected = row_layout_steps(karate, u, node_arcs(karate, node), t)[t].mean(axis=0)
        rows = aw.transition_rows(op, node, t)
        assert np.abs(rows[t] - expected).max() <= 1e-12


@pytest.mark.parametrize("kind", list(aw.CoinKind))
def test_cli_evolve_matches_row_layout_oracle(karate, kind):
    # node 3 has degree 10, so a real (Grover) coin packs its walks into 5 columns
    config = RunConfig(command="evolve", graph_source="builtin:karate", coin=kind.value, start=3, steps=9)
    rows = run(config).payload["rows"]
    u = aw.materialize_dense(aw.build_walk_operator(karate, kind))
    expected = row_layout_steps(karate, u, node_arcs(karate, 3), 9)
    assert [row["t"] for row in rows] == list(range(10))
    for row, probs in zip(rows, expected):
        assert np.abs(row["probability"] - probs.mean(axis=0)).max() <= 1e-12
        assert np.abs(row["normalized"] - probs.mean(axis=0) / karate.degrees).max() <= 1e-12


@settings(max_examples=20)
@given(
    graph=st.booleans().flatmap(lambda bip: connected_graphs(bip)),
    kind=st.sampled_from(list(aw.CoinKind)),
    data=st.data(),
)
def test_transition_rows_properties(graph, kind, data):
    op = aw.build_walk_operator(graph, kind)
    node = data.draw(st.integers(1, graph.node_count), label="node")
    steps = data.draw(st.integers(1, 12), label="steps")
    rows = aw.transition_rows(op, node, steps)
    assert rows.shape == (steps + 1, graph.node_count)
    assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
    delta = np.zeros(graph.node_count)
    delta[node - 1] = 1.0
    assert np.array_equal(rows[0], delta)
    p, _ = aw.finite_time_average_matrix(op, steps=steps)
    assert np.abs(rows[1:].mean(axis=0) - p[node - 1]).max() <= 1e-12


# the (mode, steps) cases of the parity test, and the eigensolver each
# coin's exact documents name
AVERAGING_CASES = {
    "exact": ("average-infinite", evolution.DEFAULT_AVERAGE_STEPS),
    "finite-20": ("average-finite", 20),
    "finite-7": ("average-finite", 7),
}
EXACT_SOLVER = {aw.CoinKind.FOURIER: "cayley-real-evd", aw.CoinKind.GROVER: "grover-spectral-map"}


def kernel_matrices(graph, kind, mode, steps):
    """(p, P) from a direct call of the kernel for the mode and coin."""
    if mode == "average-finite":
        return aw.finite_time_average_matrix(aw.build_walk_operator(graph, kind), steps)
    if kind is aw.CoinKind.GROVER:
        return grover_average_matrix(graph)
    return aw.infinite_time_average_matrix(aw.walk_decompose(aw.build_walk_operator(graph, kind)), graph)


@pytest.mark.parametrize("case", sorted(AVERAGING_CASES))
@pytest.mark.parametrize("kind", list(aw.CoinKind))
@pytest.mark.parametrize(
    "name",
    ["three_community", "karate", "square_triangle", "path(3)", "cycle(6)", "complete(5)", "planted-80"],
)
def test_average_rows_is_the_kernel_call_with_its_record(name, kind, case, request):
    graph = request.getfixturevalue("planted_80") if name == "planted-80" else aw.builtin(name)
    mode, steps = AVERAGING_CASES[case]
    params, rows = aw.average_rows(graph, kind, mode, steps)
    p, norm = rows(slice(None))
    p_ref, norm_ref = kernel_matrices(graph, kind, mode, steps)
    assert np.array_equal(p, p_ref) and np.array_equal(norm, norm_ref)
    if mode == "average-finite":
        assert params == {"mode": mode, "steps": steps, "window_start": 1}
    else:
        assert params == {"mode": mode, "eigensolver": EXACT_SOLVER[kind]}


def test_average_rows_rejects_an_unknown_mode_at_the_call(karate):
    with pytest.raises(ValueError, match="unknown averaging mode 'median'"):
        aw.average_rows(karate, aw.CoinKind.FOURIER, "median")


def test_average_rows_rejects_an_empty_window_at_the_call(karate):
    with pytest.raises(ValueError, match="at least one step"):
        aw.average_rows(karate, aw.CoinKind.FOURIER, "average-finite", 0)


def test_average_rows_refuses_exact_fourier_above_the_dense_cap_at_the_call(no_averages):
    graph = aw.builtin("cycle(3001)")  # D = 6002
    message = "^D=6002 exceeds dense materialization cap 6000; use --mode average-finite$"
    with pytest.raises(ConfigError, match=message):
        aw.average_rows(graph, aw.CoinKind.FOURIER, "average-infinite")
    # the Grover kernel holds no D x D array, and the finite mode steps the walk
    aw.average_rows(graph, aw.CoinKind.GROVER, "average-infinite")
    aw.average_rows(graph, aw.CoinKind.FOURIER, "average-finite")


@pytest.mark.parametrize("mode", ["average-infinite", "average-finite"])
@pytest.mark.parametrize(
    "nodes, node", [(-1, 0), (34, 35), ([0, 34], 35), (np.array([-3, 1]), -2)], ids=["-1", "N", "list", "array"]
)
def test_rows_refuses_a_node_outside_the_graph(karate, mode, nodes, node, no_averages):
    # in Graph.degree's words, the node 1-based
    _, rows = aw.average_rows(karate, aw.CoinKind.FOURIER, mode, 5)
    with pytest.raises(GraphError, match=f"^node {node} out of range 1..34$"):
        rows(nodes)


@pytest.mark.parametrize("kind", list(aw.CoinKind))
@pytest.mark.parametrize("mode", ["average-infinite", "average-finite"])
def test_average_rows_computes_nothing_until_a_row_is_read(karate, kind, mode, monkeypatch):
    calls = []
    for name in ("build_walk_operator", "_window_rows", "infinite_time_average_matrix", "grover_average_matrix"):
        real = getattr(evolution, name)
        monkeypatch.setattr(evolution, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    _, rows = aw.average_rows(karate, kind, mode, 5)
    assert calls == []
    rows(3)
    made = len(calls)
    assert made
    rows([3])  # a row once computed is handed out again
    assert len(calls) == made


@pytest.mark.parametrize("mode", ["average-infinite", "average-finite"])
@pytest.mark.parametrize("nodes", [slice(None), slice(2, 5), 3, [3, 0]], ids=["all", "slice", "index", "array"])
def test_rows_hands_out_arrays_the_caller_owns(karate, mode, nodes):
    _, rows = aw.average_rows(karate, aw.CoinKind.FOURIER, mode, 20)
    p, norm = rows(nodes)
    kept = p.copy(), norm.copy()
    p[...] = norm[...] = 0.0
    again = rows(nodes)
    assert np.array_equal(again[0], kept[0]) and np.array_equal(again[1], kept[1])
