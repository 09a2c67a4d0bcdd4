import numpy as np
import pytest

import arcwalk as aw
from arcwalk.cli import RunConfig, run
from arcwalk.graph import GraphError


def test_basis_state(karate, three_community):
    state = aw.basis_state(karate, 1, 0)
    assert state.norm() == 1.0
    assert aw.node_probability(state)[0] == 1.0
    state = aw.basis_state(three_community, 13, 2)
    assert aw.node_probability(state)[12] == 1.0


def test_basis_state_rejects_bad_arc(karate):
    with pytest.raises(GraphError):
        aw.basis_state(karate, 1, 99)
    with pytest.raises(GraphError):
        aw.basis_state(karate, 0, 0)


def test_uniform_state_probability(karate):
    d = karate.arc_count
    state = aw.WalkState(karate, np.full(d, 1 / np.sqrt(d), dtype=complex))
    assert np.allclose(aw.node_probability(state), karate.degrees / d, atol=1e-12)


def test_node_probability_sums_to_one(three_community, rng):
    psi = rng.normal(size=78) + 1j * rng.normal(size=78)
    psi /= np.linalg.norm(psi)
    state = aw.WalkState(three_community, psi)
    assert abs(aw.node_probability(state).sum() - 1.0) < 1e-10


def test_one_step_matches_dense_oracle():
    g = aw.builtin("cycle(3)")
    op = aw.build_walk_operator(g, aw.CoinKind.FOURIER)
    u = aw.materialize_dense(op)
    state = aw.basis_state(g, 1, 0)
    stepped = aw.step(op, state)
    assert stepped.time == 1
    oracle = u @ state.amplitudes
    expected = np.add.reduceat(np.abs(oracle) ** 2, g.arc_offsets[:-1])
    assert np.allclose(aw.node_probability(stepped), expected, atol=1e-12)


def test_transition_row_t0_is_identity(karate):
    op = aw.build_walk_operator(karate, aw.CoinKind.FOURIER)
    row = aw.transition_probability(op, 5, 0)
    expected = np.zeros(34)
    expected[4] = 1.0
    assert np.array_equal(row.probability, expected)


@pytest.mark.parametrize("t", [1, 2, 3, 7])
def test_transition_matches_matrix_power(t):
    g = aw.builtin("cycle(4)")
    op = aw.build_walk_operator(g, aw.CoinKind.GROVER)
    u = aw.materialize_dense(op)
    ut = np.linalg.matrix_power(u, t)
    k = 2
    expected = np.zeros(4)
    for j in range(k):
        col = ut[:, g.arc_index(0, j)]
        expected += np.add.reduceat(np.abs(col) ** 2, g.arc_offsets[:-1]) / k
    row = aw.transition_probability(op, 1, t)
    assert np.abs(row.probability - expected).max() < 1e-12
    assert np.allclose(row.normalized, row.probability / g.degrees)


def test_rows_sum_to_one(three_community):
    op = aw.build_walk_operator(three_community, aw.CoinKind.FOURIER)
    for t in (1, 5, 40):
        for node in (1, 7, 13):
            row = aw.transition_probability(op, node, t)
            assert abs(row.probability.sum() - 1.0) < 1e-10


def test_fourier_spreads_over_first_community(three_community):
    op = aw.build_walk_operator(three_community, aw.CoinKind.FOURIER)
    for t in range(3, 16):
        row = aw.transition_probability(op, 1, t)
        assert row.probability[:7].sum() > 0.5


def test_finite_average_path2_hand_computed():
    # single edge: U is the swap, so the walk oscillates 1 -> 2 -> 1 -> ...
    g = aw.builtin("path(2)")
    for kind in aw.CoinKind:
        op = aw.build_walk_operator(g, kind)
        row = aw.finite_time_average(op, 1, steps=2)
        assert np.allclose(row.probability, [0.5, 0.5])
        assert np.allclose(row.normalized, [0.5, 0.5])
        row0 = aw.finite_time_average(op, 1, steps=2, include_start=True)
        assert np.allclose(row0.probability, [2 / 3, 1 / 3])


def test_finite_average_matches_per_step_mean(three_community):
    op = aw.build_walk_operator(three_community, aw.CoinKind.FOURIER)
    steps = 12
    manual = np.mean(
        [aw.transition_probability(op, 4, t).probability for t in range(1, steps + 1)],
        axis=0,
    )
    row = aw.finite_time_average(op, 4, steps=steps)
    assert np.abs(row.probability - manual).max() < 1e-12
    assert row.time == (1, steps)


def test_average_matrix_matches_rows(three_community):
    op = aw.build_walk_operator(three_community, aw.CoinKind.GROVER)
    p, norm = aw.finite_time_average_matrix(op, steps=20, chunk_arcs=13)
    for node in (1, 9, 21):
        row = aw.finite_time_average(op, node, steps=20)
        assert np.abs(p[node - 1] - row.probability).max() < 1e-12
        assert np.abs(norm[node - 1] - row.normalized).max() < 1e-12


def test_light_cone_on_long_cycle():
    g = aw.builtin("cycle(51)")
    op = aw.build_walk_operator(g, aw.CoinKind.FOURIER)
    start = 26
    for t in (1, 5, 12, 25):
        row = aw.transition_probability(op, start, t)
        support = np.flatnonzero(row.probability > 1e-15) + 1
        ring_dist = np.minimum(np.abs(support - start), 51 - np.abs(support - start))
        assert ring_dist.max() <= t


def test_determinism(karate):
    op = aw.build_walk_operator(karate, aw.CoinKind.FOURIER)
    a = aw.finite_time_average(op, 3, steps=30)
    b = aw.finite_time_average(op, 3, steps=30)
    assert np.array_equal(a.probability, b.probability)


def test_norm_conserved_on_all_builtins(rng):
    for name in ["three_community", "karate", "cycle(5)", "path(4)", "complete(4)", "square_triangle"]:
        g = aw.builtin(name)
        op = aw.build_walk_operator(g, aw.CoinKind.FOURIER)
        state = aw.basis_state(g, 1, 0)
        final = aw.evolve(op, state, 1000)
        assert abs(final.norm() - 1.0) < 1e-10
        assert final.time == 1000


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


def average_matrix_oracle(graph, u, steps, include_start, chunk_arcs):
    """Reference (p, P): the chunked row-layout loop over all start arcs."""
    d = graph.arc_count
    arc_node_prob = np.zeros((d, graph.node_count))
    for lo in range(0, d, chunk_arcs):
        hi = min(lo + chunk_arcs, d)
        probs = row_layout_steps(graph, u, np.arange(lo, hi), steps)
        window = probs if include_start else probs[1:]
        arc_node_prob[lo:hi] = sum(window) / len(window)
    p = np.add.reduceat(arc_node_prob, graph.arc_offsets[:-1], axis=0)
    p /= graph.degrees[:, None]
    return p, p / graph.degrees[None, :]


def node_arcs(graph, node):
    return np.arange(graph.arc_offsets[node - 1], graph.arc_offsets[node])


@pytest.mark.parametrize("kind", list(aw.CoinKind))
@pytest.mark.parametrize("include_start", [False, True])
@pytest.mark.parametrize("chunk_arcs", [1024, 17])
def test_average_matrix_matches_row_layout_oracle(three_community, kind, include_start, chunk_arcs):
    # D = 78, so chunks of 17 leave a short last chunk
    op = aw.build_walk_operator(three_community, kind)
    u = aw.materialize_dense(op)
    p, norm = aw.finite_time_average_matrix(
        op, steps=15, include_start=include_start, chunk_arcs=chunk_arcs
    )
    p_ref, norm_ref = average_matrix_oracle(three_community, u, 15, include_start, chunk_arcs)
    assert np.abs(p - p_ref).max() <= 1e-12
    assert np.abs(norm - norm_ref).max() <= 1e-12
    for node in (1, 13):
        row = aw.finite_time_average(op, node, steps=15, include_start=include_start)
        assert np.abs(row.probability - p_ref[node - 1]).max() <= 1e-12


@pytest.mark.parametrize("t", [0, 1, 7])
def test_transition_matches_row_layout_oracle(karate, t):
    op = aw.build_walk_operator(karate, aw.CoinKind.FOURIER)
    u = aw.materialize_dense(op)
    for node in (1, 12, 34):
        expected = row_layout_steps(karate, u, node_arcs(karate, node), t)[t].mean(axis=0)
        row = aw.transition_probability(op, node, t)
        assert np.abs(row.probability - expected).max() <= 1e-12


@pytest.mark.parametrize("slot", [None, 2])
def test_cli_evolve_matches_row_layout_oracle(karate, slot):
    config = RunConfig(command="evolve", graph_source="builtin:karate", start=3, slot=slot, steps=9)
    rows = run(config).payload["rows"]
    u = aw.materialize_dense(aw.build_walk_operator(karate, aw.CoinKind.FOURIER))
    arcs = node_arcs(karate, 3)
    if slot is not None:
        arcs = arcs[slot : slot + 1]
    expected = row_layout_steps(karate, u, arcs, 9)
    assert [row["t"] for row in rows] == list(range(10))
    for row, probs in zip(rows, expected):
        assert np.abs(row["probability"] - probs.mean(axis=0)).max() <= 1e-12
        assert np.abs(row["normalized"] - probs.mean(axis=0) / karate.degrees).max() <= 1e-12
