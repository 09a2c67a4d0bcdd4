import numpy as np
import pytest

import arcwalk as aw

# reporting threshold for the relaxation time; arbitrary but fixed
TV_CONVERGENCE_THRESHOLD = 0.01


def transition_matrix(graph):
    n = graph.node_count
    t = np.zeros((n, n))
    for i, nbrs in enumerate(graph.adjacency):
        for j in nbrs:
            t[j, i] = 1.0 / graph.degrees[i]
    return t


def test_step_on_path2():
    g = aw.builtin("path(2)")
    trace, _ = aw.relaxation_trace(g, 1, 2)
    assert trace.shape == (2, 2)
    assert np.array_equal(trace[0], [0.0, 1.0])
    assert np.array_equal(trace[1], [1.0, 0.0])


def test_stationary_is_fixed_point():
    for name in ["three_community", "karate", "cycle(6)", "path(4)", "complete(5)", "square_triangle"]:
        g = aw.builtin(name)
        pi = aw.stationary(g)
        assert pi.shape == (g.node_count,)
        assert np.abs(transition_matrix(g) @ pi - pi).max() < 1e-12


def test_step_matches_matrix_power():
    for name in ["cycle(4)", "square_triangle", "karate"]:
        g = aw.builtin(name)
        t = transition_matrix(g)
        for start in (1, g.node_count):
            trace, _ = aw.relaxation_trace(g, start, 50)
            expected = np.zeros(g.node_count)
            expected[start - 1] = 1.0
            for row in trace:
                expected = t @ expected
                assert np.abs(row - expected).max() < 1e-12


def test_simplex_preserved(karate):
    # the walk is linear, so every delta start staying on the simplex covers
    # every initial distribution
    for start in range(1, karate.node_count + 1):
        trace, _ = aw.relaxation_trace(karate, start, 100)
        assert np.abs(trace.sum(axis=1) - 1.0).max() < 1e-12
        assert trace.min() >= 0


def test_normalized_stationary_is_flat():
    for name in ["three_community", "karate", "cycle(6)", "complete(5)"]:
        g = aw.builtin(name)
        normalized = aw.stationary(g) / g.degrees
        assert np.abs(normalized - 1.0 / g.arc_count).max() < 1e-15


def test_karate_threshold_value(karate):
    assert np.allclose(aw.stationary(karate) / karate.degrees, 1 / 156)


def test_relaxation_three_community(three_community):
    trace, tv = aw.relaxation_trace(three_community, 1, 300)
    assert trace.shape == (300, 21)
    assert tv.shape == (300,)
    pi = aw.stationary(three_community)
    assert np.abs(tv - [0.5 * np.abs(row - pi).sum() for row in trace]).max() < 1e-15
    assert tv[-1] < TV_CONVERGENCE_THRESHOLD
    # non-increasing after burn-in
    tail = tv[50:]
    assert np.all(np.diff(tail) <= 1e-12)


def test_relaxation_karate(karate):
    _, tv = aw.relaxation_trace(karate, 1, 200)
    steps_needed = int(np.argmax(tv < TV_CONVERGENCE_THRESHOLD)) + 1
    assert tv[-1] < TV_CONVERGENCE_THRESHOLD
    assert steps_needed >= 1


def test_bipartite_cycle_oscillates():
    g = aw.builtin("cycle(4)")
    _, tv = aw.relaxation_trace(g, 1, 40)
    # parity trap: distance to stationarity stays bounded away from zero
    assert tv[-1] > 0.4
    assert tv[-2] == pytest.approx(tv[-4])


def test_relaxation_rejects_bad_args(karate):
    with pytest.raises(ValueError):
        aw.relaxation_trace(karate, 1, 0)
    with pytest.raises(aw.GraphError):
        aw.relaxation_trace(karate, 99, 5)
    with pytest.raises(aw.GraphError):
        aw.relaxation_trace(karate, 0, 5)
