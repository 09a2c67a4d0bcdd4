import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcwalk as aw
from arcwalk.cli import RunConfig, run
from arcwalk.spectral import (
    DEFAULT_DEGENERACY_TOL,
    SpectralError,
    _cycle_arcs,
    _gram_drift,
    _group_by_argument,
    argument_histogram,
    eigenstate_node_probability,
)


def grover_dec(name):
    g = aw.builtin(name)
    op = aw.build_walk_operator(g, aw.CoinKind.GROVER)
    return g, aw.decompose(aw.materialize_dense(op))


def test_path2_eigenvalues():
    g = aw.builtin("path(2)")
    op = aw.build_walk_operator(g, aw.CoinKind.FOURIER)
    dec = aw.decompose(aw.materialize_dense(op))
    assert sorted(np.round(dec.eigenvalues.real, 12)) == [-1.0, 1.0]


def test_decompose_rejects_non_unitary():
    with pytest.raises(SpectralError, match="not unitary"):
        aw.decompose(np.diag([1.0, 2.0]))
    with pytest.raises(SpectralError, match="square"):
        aw.decompose(np.ones((2, 3)))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decompose_rejects_nan_and_inf(bad):
    with pytest.raises(SpectralError, match="not unitary"):
        aw.decompose(np.full((2, 2), bad))
    u = np.eye(3, dtype=complex)
    u[1, 2] = bad
    with pytest.raises(SpectralError, match="not unitary"):
        aw.decompose(u)


def blockwise_gram_drift(m):
    """max |M*M - I| over the upper triangle of M*M, formed 64 rows at a
    time: the oracle for the one product of _gram_drift."""
    drift = 0.0
    for start in range(0, m.shape[1], 64):
        rows = m[:, start : start + 64].conj().T
        gram = rows @ m[:, start:]
        gram[:, : rows.shape[0]] -= np.eye(rows.shape[0])
        drift = np.maximum(drift, np.max(np.abs(gram)))
    return float(drift)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("d", [1, 5, 63, 65, 130, 201])
def test_gram_drift_equals_the_blockwise_oracle(rng, d, dtype):
    m = rng.standard_normal((d, d))
    if dtype is complex:
        m = m + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(m)
    assert _gram_drift(m) == pytest.approx(blockwise_gram_drift(m), rel=1e-12)
    assert _gram_drift(q) == pytest.approx(blockwise_gram_drift(q), abs=1e-14)
    assert _gram_drift(q) <= 1e-13


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("dtype", [float, complex])
def test_gram_drift_keeps_a_nan(rng, dtype):
    q, _ = np.linalg.qr(rng.standard_normal((70, 70)).astype(dtype))
    q[40, 67] = np.nan
    assert np.isnan(_gram_drift(q))
    with pytest.raises(SpectralError, match="not unitary"):
        aw.decompose(q)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "corrupt,match",
    [("eigenvalue", "unit circle"), ("vector", "residual"), ("basis", "not orthonormal")],
)
def test_decompose_rejects_nan_from_the_eigensolver(monkeypatch, corrupt, match):
    eigh = np.linalg.eigh

    def corrupt_eigh(h):
        lam, z = eigh(h)
        if corrupt == "eigenvalue":
            lam[0] = np.nan
        elif corrupt == "vector":
            z[0, 0] = np.nan
        else:
            # U = I maps every vector to itself: only V*V = I sees a repeat
            z[:, 1] = z[:, 0]
        return lam, z

    monkeypatch.setattr(np.linalg, "eigh", corrupt_eigh)
    with pytest.raises(SpectralError, match=match):
        aw.decompose(np.eye(3))


def test_decomposition_invariants(three_fourier_dec, three_community):
    dec = three_fourier_dec
    assert np.abs(np.abs(dec.eigenvalues) - 1.0).max() < 1e-10
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert np.abs(gram - np.eye(dec.eigenvalues.size)).max() < 1e-8
    sizes = sorted(len(g) for g in dec.groups)
    assert sizes == [1] * 78  # Fourier spectrum is simple


def test_fourier_karate_non_degenerate(karate_fourier_dec):
    assert max(len(g) for g in karate_fourier_dec.groups) == 1


def test_grover_degeneracies_three_community(three_grover_dec, three_community):
    report = aw.degeneracy_report(three_grover_dec, three_community)
    assert (report.plus_one, report.minus_one) == (20, 18)
    assert report.matches_prediction
    assert sum(mult for _, mult in report.entries) == 78


def test_grover_degeneracies_karate(karate):
    op = aw.build_walk_operator(karate, aw.CoinKind.GROVER)
    dec = aw.decompose(aw.materialize_dense(op))
    report = aw.degeneracy_report(dec, karate)
    assert (report.plus_one, report.minus_one) == (46, 44)
    assert report.matches_prediction


def test_grover_degeneracies_square_triangle():
    g, dec = grover_dec("square_triangle")
    report = aw.degeneracy_report(dec, g)
    assert (report.plus_one, report.minus_one) == (3, 1)
    assert (report.predicted_plus_one, report.predicted_minus_one) == (3, 1)


def test_grover_degeneracies_cycle4():
    g, dec = grover_dec("cycle(4)")
    report = aw.degeneracy_report(dec, g)
    # bipartite, b1 = 1: prediction (2, 2)
    assert (report.predicted_plus_one, report.predicted_minus_one) == (2, 2)
    assert (report.plus_one, report.minus_one) == (2, 2)


@pytest.mark.parametrize("name", ["three_community", "karate", "cycle(5)", "cycle(6)", "path(4)", "complete(4)", "square_triangle"])
def test_betti_prediction_on_builtins(name):
    g, dec = grover_dec(name)
    report = aw.degeneracy_report(dec, g)
    assert report.matches_prediction


@pytest.mark.parametrize("name,kind", [
    ("cycle(6)", aw.CoinKind.FOURIER),
    ("three_community", aw.CoinKind.GROVER),
    ("karate", aw.CoinKind.FOURIER),
])
def test_spectral_reconstruction(name, kind):
    g = aw.builtin(name)
    op = aw.build_walk_operator(g, kind)
    u = aw.materialize_dense(op)
    dec = aw.decompose(u)
    rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert np.abs(rebuilt - u).max() < 1e-8


def test_infinite_average_row_matches_matrix(three_fourier_avg):
    # the CLI's single-start document is one row of the matrix
    p, norm = three_fourier_avg
    for node in (1, 8, 21):
        doc = run(RunConfig(command="average", graph_source="builtin:three_community", start=node))
        assert doc.payload["start"] == node
        assert np.abs(doc.payload["probability"] - p[node - 1]).max() < 1e-12
        assert np.abs(doc.payload["normalized"] - norm[node - 1]).max() < 1e-12
    with pytest.raises(aw.GraphError, match="out of range"):
        run(RunConfig(command="average", graph_source="builtin:three_community", start=22))


def test_infinite_average_conservation_and_symmetry(three_fourier_avg):
    p, norm = three_fourier_avg
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-10
    assert np.abs(norm - norm.T).max() < 1e-10


def test_grover_infinite_average_projector_form(three_grover_dec, three_community):
    # degenerate spectrum: projector Cesaro limit must still conserve
    # probability and stay symmetric after normalization
    p, norm = aw.infinite_time_average_matrix(three_grover_dec, three_community)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-10
    assert np.abs(norm - norm.T).max() < 1e-10


def test_projector_form_equals_naive_sum_when_simple(karate_fourier_dec, karate):
    dec = karate_fourier_dec
    weights = np.abs(dec.eigenvectors) ** 2  # [arc, mu]
    kernel = weights @ weights.T  # naive per-eigenvector double sum
    block = np.add.reduceat(
        np.add.reduceat(kernel, karate.arc_offsets[:-1], axis=0),
        karate.arc_offsets[:-1],
        axis=1,
    )
    naive_p = block.T / karate.degrees[:, None]
    p, _ = aw.infinite_time_average_matrix(dec, karate)
    assert np.abs(p - naive_p).max() < 1e-12


def test_karate_marginal_values(karate_fourier_avg):
    _, norm = karate_fourier_avg
    q = 1.0 / 156
    p_1_20 = norm[0, 19]
    p_34_20 = norm[33, 19]
    assert p_1_20 > p_34_20 > q
    # published magnitudes, neighbor-ordering-dependent: accept within 15 percent
    assert p_1_20 == pytest.approx(0.007062, rel=0.15)
    assert p_34_20 == pytest.approx(0.006451, rel=0.15)


def test_participation_ratio_extremes():
    delta = np.zeros(21)
    delta[3] = 1.0
    assert aw.ipr(delta) == 1.0
    uniform = np.full(21, 1 / 21)
    assert aw.ipr(uniform) == pytest.approx(1 / 21)
    community = np.zeros(21)
    community[:7] = 1 / 7
    assert aw.ipr(community) == pytest.approx(1 / 7)
    assert np.allclose(aw.ipr(np.stack([delta, uniform, community])), [1, 1 / 21, 1 / 7])


def test_ipr_bounds(three_fourier_dec, three_community):
    values = aw.ipr(eigenstate_node_probability(three_fourier_dec, three_community))
    n = three_community.node_count
    assert np.all(values >= 1 / n - 1e-12)
    assert np.all(values <= 1.0 + 1e-12)


def test_eigenstate_profile_normalization(three_fourier_dec, three_community):
    node_prob = eigenstate_node_probability(three_fourier_dec, three_community)
    assert node_prob.shape == (78, 21)
    assert np.abs(node_prob.sum(axis=1) - 1.0).max() < 1e-10


def test_fourier_eigenstate_localizes_in_community(three_fourier_dec, three_community):
    node_prob = eigenstate_node_probability(three_fourier_dec, three_community)
    communities = [slice(0, 7), slice(7, 14), slice(14, 21)]
    best = max(
        node_prob[mu, c].sum() for mu in range(node_prob.shape[0]) for c in communities
    )
    assert best > 0.6


def test_grover_pm_one_eigenstate_localizes_on_few_nodes(three_grover_dec, three_community):
    # any basis of the degenerate +1 eigenspace is valid, so test its
    # projector: it must fix the loop state on the arcs of triangle 1-2-3
    dec = three_grover_dec
    (plus,) = [g for g in dec.groups if abs(np.mean(dec.eigenvalues[g]) - 1) < 1e-6]
    basis = dec.eigenvectors[:, plus]
    loop, _ = aw.loop_eigenvector(three_community, [1, 2, 3], eigenvalue=1)
    assert np.abs(basis @ (basis.conj().T @ loop) - loop).max() < 1e-10


def test_loop_eigenvector_triangle(three_community):
    found = aw.loop_eigenvector(three_community, [1, 2, 3], eigenvalue=1)
    assert found is not None
    amplitudes, lam = found
    assert lam == 1
    assert abs(np.linalg.norm(amplitudes) - 1.0) < 1e-12
    assert np.count_nonzero(amplitudes) == 6
    # the circulation: forward arcs +, reverse arcs -
    arcs = _cycle_arcs(three_community, [1, 2, 3])
    assert amplitudes[arcs].tolist() == [1 / np.sqrt(6)] * 3 + [-1 / np.sqrt(6)] * 3
    assert aw.loop_eigenvector(three_community, [1, 2, 3], eigenvalue=-1) is None


def test_loop_eigenvector_square():
    g = aw.builtin("cycle(4)")
    plus = aw.loop_eigenvector(g, [1, 2, 3, 4], eigenvalue=1)
    minus = aw.loop_eigenvector(g, [1, 2, 3, 4], eigenvalue=-1)
    assert plus is not None and plus[1] == 1
    assert minus is not None and minus[1] == -1


def assert_loop_eigenvector(graph, cycle, eigenvalue):
    amplitudes, lam = aw.loop_eigenvector(graph, cycle, eigenvalue)
    assert lam == eigenvalue
    assert abs(np.linalg.norm(amplitudes) - 1.0) < 1e-12
    assert set(np.flatnonzero(amplitudes)) == set(_cycle_arcs(graph, cycle).tolist())
    op = aw.build_walk_operator(graph, aw.CoinKind.GROVER)
    assert np.max(np.abs(op.apply(amplitudes) - eigenvalue * amplitudes)) < 1e-12


@pytest.mark.parametrize("eigenvalue", [1, -1])
def test_loop_eigenvector_long_cycle(eigenvalue):
    assert_loop_eigenvector(aw.builtin("cycle(8)"), list(range(1, 9)), eigenvalue)


@pytest.mark.parametrize("eigenvalue", [0, 2, -2])
def test_loop_eigenvector_rejects_other_eigenvalues(three_community, eigenvalue):
    with pytest.raises(ValueError, match="loop eigenvalue is \\+1 or -1"):
        aw.loop_eigenvector(three_community, [1, 2, 3], eigenvalue)


@st.composite
def ringed_graphs(draw):
    """A connected graph around a ring of 3-12 nodes, with pendant trees and
    chords added and its labels shuffled, and the ring's 1-based ids in cycle
    order."""
    ring = draw(st.integers(3, 12))
    n = ring + draw(st.integers(0, 6))
    edges = {(i, (i + 1) % ring) for i in range(ring)}
    edges |= {(draw(st.integers(0, i - 1)), i) for i in range(ring, n)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=8)))
    label = draw(st.permutations(range(n)))
    graph = aw.Graph.from_edges(sorted({tuple(sorted((label[a], label[b]))) for a, b in edges}))
    return graph, [label[i] + 1 for i in range(ring)]


@settings(max_examples=40)
@given(case=ringed_graphs(), eigenvalue=st.sampled_from([1, -1]))
def test_loop_eigenvector_on_random_rings(case, eigenvalue):
    graph, ring = case
    if eigenvalue == -1 and len(ring) % 2:
        assert aw.loop_eigenvector(graph, ring, eigenvalue) is None
    else:
        assert_loop_eigenvector(graph, ring, eigenvalue)


def test_cycle_arcs_run_forward_then_back(three_community):
    g = three_community
    pairs = [(1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)]
    expected = [g.arc_between(a - 1, b - 1) for a, b in pairs]
    assert _cycle_arcs(g, [1, 2, 3]).tolist() == expected


def test_loop_eigenvector_rejects_non_cycle(three_community):
    with pytest.raises(aw.GraphError, match="not a cycle"):
        aw.loop_eigenvector(three_community, [1, 2, 9])


def test_argument_histogram_fourier(three_fourier_dec):
    counts, edges = argument_histogram(three_fourier_dec)
    assert counts.sum() == 78
    assert counts.min() > 0
    assert counts.max() <= 3 * counts.mean()


def test_argument_histogram_grover(three_grover_dec):
    counts, edges = argument_histogram(three_grover_dec)
    centers = 0.5 * (edges[:-1] + edges[1:])
    zero_bin = int(np.argmin(np.abs(centers)))
    pi_bin = 0  # -1 eigenvalues are folded into the bin centered at -pi
    assert counts[zero_bin] >= 20
    assert counts[pi_bin] >= 18
    assert counts.sum() == 78


TOL = DEFAULT_DEGENERACY_TOL


@pytest.mark.parametrize(
    "args, groups",
    [
        # single linkage: 0 and 1.2 tol are one group through 0.6 tol
        ([1.2 * TOL, 0.0, 0.6 * TOL, 1.0], [[1, 2, 0], [3]]),
        ([0.0, 1.5 * TOL], [[0], [1]]),
        # arguments wrap at +-pi
        ([np.pi - 0.3 * TOL, 0.5, -np.pi + 0.3 * TOL], [[1], [0, 2]]),
        ([], []),
    ],
    ids=["chain", "split", "wrap", "empty"],
)
def test_group_by_argument_at_the_fixed_tolerance(args, groups):
    found = _group_by_argument(np.exp(1j * np.array(args, dtype=float)))
    assert isinstance(found, tuple)  # an empty spectrum gives ()
    assert [g.tolist() for g in found] == groups
