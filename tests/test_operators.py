import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cesaro_kernel import connected_graphs

import arcwalk as aw
from arcwalk.operators import DENSE_CAP, _check_cap, coin_matrix

FOURIER, GROVER = aw.CoinKind.FOURIER, aw.CoinKind.GROVER


def unitarity_defect(m):
    return np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()


def test_fourier_coin_small():
    assert np.allclose(coin_matrix(FOURIER, 1), [[1.0]])
    assert np.allclose(coin_matrix(FOURIER, 2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    w = np.exp(2j * np.pi / 3)
    expected = np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w**4]]) / np.sqrt(3)
    assert np.allclose(coin_matrix(FOURIER, 3), expected, atol=1e-12)


def test_grover_coin_small():
    assert np.allclose(coin_matrix(GROVER, 2), [[0, 1], [1, 0]])
    expected = np.array([[-1, 2, 2], [2, -1, 2], [2, 2, -1]]) / 3
    assert np.allclose(coin_matrix(GROVER, 3), expected)


def test_grover_two_element_vector_flips():
    v = np.array([1.0, -1.0, 0.0, 0.0, 0.0])
    assert np.allclose(coin_matrix(GROVER, 5) @ v, -v)


@pytest.mark.parametrize("k", range(1, 13))
def test_coins_unitary(k):
    assert unitarity_defect(coin_matrix(FOURIER, k)) < 1e-12
    assert unitarity_defect(coin_matrix(GROVER, k)) < 1e-12


@pytest.mark.parametrize("k", range(2, 9))
def test_grover_minus_one_eigenvectors(k):
    coin = coin_matrix(GROVER, k)
    for a in range(k):
        for b in range(a + 1, k):
            v = np.zeros(k)
            v[a], v[b] = 1.0, -1.0
            assert np.allclose(coin @ v, -v, atol=1e-12)


@pytest.mark.parametrize("k", [0, -3])
def test_coin_rejects_nonpositive(k):
    with pytest.raises(ValueError):
        coin_matrix(FOURIER, k)
    with pytest.raises(ValueError):
        coin_matrix(GROVER, k)


def test_build_cycle4_grover():
    g = aw.builtin("cycle(4)")
    op = aw.build_walk_operator(g, aw.CoinKind.GROVER)
    assert not np.any(op.shift == np.arange(g.arc_count))
    assert np.allclose(op.blocks[2], [[0, 1], [1, 0]])


def test_blocks_unitary(three_community, karate):
    for g in (three_community, karate):
        for kind in aw.CoinKind:
            op = aw.build_walk_operator(g, kind)
            for block in op.blocks.values():
                assert unitarity_defect(block) < 1e-12


def test_path2_is_swap():
    g = aw.builtin("path(2)")
    for kind in aw.CoinKind:
        op = aw.build_walk_operator(g, kind)
        assert np.allclose(aw.materialize_dense(op), [[0, 1], [1, 0]])


def test_dense_unitary_three_community(three_community):
    op = aw.build_walk_operator(three_community, aw.CoinKind.FOURIER)
    u = aw.materialize_dense(op)
    assert u.shape == (78, 78)
    assert unitarity_defect(u) < 1e-12


def dense_oracle(graph, kind):
    """U = SC built entry by entry: row a of SC is row reverse_arc[a] of C."""
    d = graph.arc_count
    coin = np.zeros((d, d), dtype=complex)
    for lo, hi in zip(graph.arc_offsets[:-1], graph.arc_offsets[1:]):
        k = hi - lo
        coin[lo:hi, lo:hi] = coin_matrix(kind, k)
    return coin[graph.reverse_arc]


def assert_apply_matches_dense(graph, kind):
    op = aw.build_walk_operator(graph, kind)
    u = aw.materialize_dense(op)
    assert np.abs(u - dense_oracle(graph, kind)).max() <= 1e-12
    rng = np.random.default_rng(7)
    d = graph.arc_count
    states = rng.normal(size=(d, 50)) + 1j * rng.normal(size=(d, 50))
    states /= np.linalg.norm(states, axis=0, keepdims=True)
    expected = u @ states
    assert np.abs(op.apply(states) - expected).max() <= 1e-12
    assert np.abs(op.apply(states[:, 0]) - expected[:, 0]).max() <= 1e-12
    assert np.abs(op.apply_amplitudes(states.T) - expected.T).max() <= 1e-12


@pytest.mark.parametrize("name", ["cycle(6)", "three_community", "karate", "square_triangle"])
@pytest.mark.parametrize("kind", list(aw.CoinKind))
def test_apply_matches_dense(name, kind):
    assert_apply_matches_dense(aw.builtin(name), kind)


K4_PENDANT = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]


@pytest.mark.parametrize("kind", list(aw.CoinKind))
def test_apply_matches_dense_when_class_size_equals_degree(kind):
    # K4 plus a pendant: three nodes of degree 3, so the degree-3 class is a
    # 3 x 3 fan matrix that a 1-D state could contract on the wrong axis
    g = aw.Graph.from_edges(K4_PENDANT)
    assert sorted(g.degrees) == [1, 3, 3, 3, 4]
    assert_apply_matches_dense(g, kind)


@settings(max_examples=20)
@given(
    graph=st.booleans().flatmap(lambda bip: connected_graphs(bip)),
    kind=st.sampled_from(list(aw.CoinKind)),
)
def test_apply_matches_dense_on_random_graphs(graph, kind):
    assert_apply_matches_dense(graph, kind)


def unitary_from_definition(graph, kind):
    """U[rev a, b] = C_k[slot a, slot b] for every pair of arcs a, b that
    leave one node of degree k, and 0 elsewhere; built arc pair by arc pair."""
    d = graph.arc_count
    u = np.zeros((d, d), dtype=complex)
    for a in range(d):
        tail = graph.arc_tail[a]
        lo, k = graph.arc_offsets[tail], graph.degrees[tail]
        coin = coin_matrix(kind, k)
        for b in range(lo, lo + k):
            u[graph.reverse_arc[a], b] = coin[a - lo, b - lo]
    return u


@st.composite
def stars_and_paths(draw):
    n = draw(st.integers(2, 9))
    if draw(st.booleans()):
        return aw.Graph.from_edges([(0, i) for i in range(1, n)])
    return aw.Graph.from_edges([(i, i + 1) for i in range(n - 1)])


@settings(max_examples=40)
@given(
    graph=st.one_of(stars_and_paths(), st.booleans().flatmap(lambda bip: connected_graphs(bip))),
    kind=st.sampled_from(list(aw.CoinKind)),
    data=st.data(),
)
def test_structured_operator_matches_its_definition(graph, kind, data):
    # stars and paths put degree-1 and degree-2 classes among the others
    op = aw.build_walk_operator(graph, kind)
    u = unitary_from_definition(graph, kind)
    assert np.array_equal(aw.materialize_dense(op), u)
    d = graph.arc_count
    width = data.draw(st.integers(1, 2 * d), label="batch")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    states = rng.normal(size=(d, width)) + 1j * rng.normal(size=(d, width))
    assert np.abs(op.apply(states) - u @ states).max() <= 1e-12
    assert np.abs(op.apply(states[:, 0]) - u @ states[:, 0]).max() <= 1e-12


@pytest.mark.parametrize("name", ["three_community", "karate", "square_triangle"])
def test_grover_walk_from_a_basis_start_stays_real(name):
    # the Grover coin is real: it steps the real and the imaginary rows of
    # the real layout apart, so imaginary rows that start at 0 stay exactly 0
    graph = aw.builtin(name)
    op = aw.build_walk_operator(graph, GROVER)
    d = graph.arc_count
    x = np.zeros((2 * d, d))
    x[op.arc_rows[0], np.arange(d)] = 1.0
    work = np.empty_like(x)
    for _ in range(50):
        op.step_classed(x, work)
        assert not x[op.arc_rows[1]].any()
    assert x[op.arc_rows[0]].any()
    # a Fourier walk leaves the real plane at once
    op = aw.build_walk_operator(graph, FOURIER)
    x = np.zeros((2 * d, d))
    x[op.arc_rows[0], np.arange(d)] = 1.0
    op.step_classed(x, work)
    assert x[op.arc_rows[1]].any()


def test_norm_preserved_over_many_applications(karate, rng):
    op = aw.build_walk_operator(karate, aw.CoinKind.FOURIER)
    psi = rng.normal(size=156) + 1j * rng.normal(size=156)
    psi /= np.linalg.norm(psi)
    for _ in range(1000):
        psi = op.apply_amplitudes(psi)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_dangling_bond_behavior():
    # the k=1 coin is the identity, so the arc out of a dangling node is
    # deterministically reversed; the neighbor's coin decides what returns
    g = aw.builtin("path(3)")
    # start on arc 1 -> 2, node 1 dangling
    rows = aw.transition_rows(aw.build_walk_operator(g, aw.CoinKind.GROVER), 1, 2)
    assert rows[1, 1] == 1.0  # now on arc 2 -> 1
    assert rows[2, 2] == pytest.approx(1.0)  # swap coin passes through

    rows = aw.transition_rows(aw.build_walk_operator(g, aw.CoinKind.FOURIER), 1, 2)
    assert rows[2, 0] == pytest.approx(0.5)  # half the amplitude returns toward node 1
    assert rows[2, 2] == pytest.approx(0.5)


def test_grover_squared_identity_on_path2():
    g = aw.builtin("path(2)")
    op = aw.build_walk_operator(g, aw.CoinKind.GROVER)
    u = aw.materialize_dense(op)
    assert np.array_equal(u @ u, np.eye(2))


def test_dimension_mismatch_rejected(karate):
    op = aw.build_walk_operator(karate, aw.CoinKind.FOURIER)
    with pytest.raises(ValueError, match="dimension"):
        op.apply_amplitudes(np.zeros(10, dtype=complex))


def test_dense_cap(karate):
    # the paper's largest graph, USAir97 (D = 4252), stays under the fixed cap
    assert 4252 < DENSE_CAP == 6000
    assert aw.materialize_dense(aw.build_walk_operator(karate, FOURIER)).shape == (156, 156)
    # D equal to the cap is accepted (the check alone, no dense array)
    at_cap = aw.build_walk_operator(aw.builtin(f"cycle({DENSE_CAP // 2})"), FOURIER)
    assert at_cap.dimension == DENSE_CAP
    _check_cap(at_cap.graph)
    # complete(79), D = 6162, is refused before any D x D array is built
    op = aw.build_walk_operator(aw.builtin("complete(79)"), FOURIER)
    tracemalloc.start()
    try:
        with pytest.raises(aw.ConfigError, match="^D=6162 exceeds dense materialization cap 6000$"):
            aw.materialize_dense(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below even one real D x D array (a complex one takes 16 D^2 bytes)
    assert peak < 8 * op.dimension**2


def verify_shift_equivalence(n):
    """Check the flip-operator identity between the two shift conventions.

    On the n-cycle, the arc-reversal shift S times the per-node flip P equals
    the standard shift S' (right-movers stay right-movers), and consequently
    S(PC) = S'C for any coin C; checked here with the Fourier coin.
    """
    graph = aw.builtin(f"cycle({n})")
    d = graph.arc_count
    s = np.zeros((d, d))
    s[graph.reverse_arc, np.arange(d)] = 1.0
    flip = np.zeros((d, d))
    for i in range(graph.node_count):
        o = graph.arc_offsets[i]
        flip[o, o + 1] = flip[o + 1, o] = 1.0
    # standard shift: |x -> y>  ->  |2x - y -> x (mod n)>; movers keep their
    # direction while the walker advances one site
    s_std = np.zeros((d, d))
    for arc in range(d):
        x, y = int(graph.arc_tail[arc]), int(graph.arc_head[arc])
        s_std[graph.arc_between((2 * x - y) % n, x), arc] = 1.0
    if not np.array_equal(s @ flip, s_std):
        return False
    # S is an involution, so S U is the block-diagonal coin C
    coin = s @ aw.materialize_dense(aw.build_walk_operator(graph, aw.CoinKind.FOURIER))
    return bool(np.max(np.abs(s @ (flip @ coin) - s_std @ coin)) < 1e-15)


@pytest.mark.parametrize("n", [3, 4, 5, 10])
def test_shift_equivalence(n):
    assert verify_shift_equivalence(n)
