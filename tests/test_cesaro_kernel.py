"""The fan-aggregated Cesaro kernel against the per-group projector oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcwalk as aw

BUILTINS = [
    "three_community",
    "karate",
    "square_triangle",
    "cycle(5)",
    "cycle(6)",
    "path(4)",
    "complete(4)",
    "complete(5)",
]
COINS = [aw.CoinKind.FOURIER, aw.CoinKind.GROVER]


def projector_oracle(dec, graph):
    """Reference Cesaro limit: one D x D projector per eigenvalue group."""
    d = graph.arc_count
    kernel = np.zeros((d, d))
    for group in dec.groups:
        v = dec.eigenvectors[:, group]
        projector = v @ v.conj().T
        kernel += projector.real**2
        kernel += projector.imag**2
    offsets = graph.arc_offsets[:-1]
    block = np.add.reduceat(np.add.reduceat(kernel, offsets, axis=0), offsets, axis=1)
    p = block.T / graph.degrees[:, None]
    return p, p / graph.degrees[None, :]


def decomposition(graph, coin):
    return aw.decompose(aw.materialize_dense(aw.build_walk_operator(graph, coin)))


def assert_matches_oracle(graph, coin):
    dec = decomposition(graph, coin)
    p, norm = aw.infinite_time_average_matrix(dec, graph)
    p_ref, norm_ref = projector_oracle(dec, graph)
    assert np.abs(p - p_ref).max() <= 1e-12
    assert np.abs(norm - norm_ref).max() <= 1e-12
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-10
    assert np.abs(norm - norm.T).max() < 1e-12


@pytest.mark.parametrize("coin", COINS, ids=lambda c: c.value)
@pytest.mark.parametrize("name", BUILTINS)
def test_kernel_matches_projector_oracle_on_builtins(name, coin):
    assert_matches_oracle(aw.builtin(name), coin)


@pytest.mark.parametrize(
    "name,off_pm_one",
    [("complete(5)", [4, 4]), ("cycle(6)", [2, 2, 2, 2]), ("square_triangle", [])],
)
def test_kernel_matches_oracle_with_degenerate_groups(name, off_pm_one):
    # square_triangle's only degenerate Grover group is +1 (multiplicity 3)
    g = aw.builtin(name)
    dec = decomposition(g, aw.CoinKind.GROVER)
    degenerate = [grp for grp in dec.groups if len(grp) > 1]
    inner = [
        len(grp)
        for grp in degenerate
        if np.abs(np.abs(dec.eigenvalues[grp].real) - 1.0).max() > 1e-6
    ]
    assert degenerate and sorted(inner) == off_pm_one
    assert_matches_oracle(g, aw.CoinKind.GROVER)


@st.composite
def connected_graphs(draw, bipartite):
    """Small connected graphs: a random tree plus extra edges.

    Bipartite graphs only add edges across the tree's 2-colouring; the
    others add at least one edge inside a colour class, closing an odd cycle.
    """
    n = draw(st.integers(3, 9))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    edges = {(p, i) for i, p in enumerate(parents, start=1)}
    colour = [0] * n
    for i, p in enumerate(parents, start=1):
        colour[i] = 1 - colour[p]
    free = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    cross = [e for e in free if colour[e[0]] != colour[e[1]]]
    if not bipartite:
        edges.add(draw(st.sampled_from([e for e in free if e not in cross])))
    pool = cross if bipartite else free
    if pool:
        edges.update(draw(st.lists(st.sampled_from(pool), max_size=6)))
    graph = aw.Graph.from_edges(sorted(edges))
    assert aw.is_bipartite(graph) == bipartite
    return graph


@settings(max_examples=20)
@given(
    graph=st.booleans().flatmap(lambda bip: connected_graphs(bip)),
    coin=st.sampled_from(COINS),
)
def test_kernel_matches_oracle_on_random_graphs(graph, coin):
    assert_matches_oracle(graph, coin)


def test_lost_group_fails_the_row_check(karate_fourier_dec, karate):
    dec = dataclasses.replace(karate_fourier_dec, groups=karate_fourier_dec.groups[1:])
    with pytest.raises(aw.SpectralError, match="rows of p miss 1"):
        aw.infinite_time_average_matrix(dec, karate)


def test_nan_in_the_block_fails_the_row_check(karate_fourier_dec, karate):
    vectors = karate_fourier_dec.eigenvectors.copy()
    vectors[0, 0] = np.nan
    dec = dataclasses.replace(karate_fourier_dec, eigenvectors=vectors)
    with pytest.raises(aw.SpectralError, match="rows of p miss 1 by up to nan"):
        aw.infinite_time_average_matrix(dec, karate)
