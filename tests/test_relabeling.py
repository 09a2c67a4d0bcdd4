"""How the averages depend on the node numbering of the input.

A node's fan slots follow ascending neighbour id.  The Grover coin is
invariant under any permutation of its slots, so its (p, P) only follow the
nodes when they are renamed.  The Fourier coin is the DFT on the slots,
which only the maps a -> +-a mod k fix, so its (p, P) depend on the
numbering: criterion 05's karate split holds under the file's numbering.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cesaro_kernel import connected_graphs

import arcwalk as aw


def relabeled(graph, perm):
    """``graph`` with node i renamed perm[i] (0-based)."""
    edges = [(perm[a], perm[b]) for a, b in zip(graph.arc_tail, graph.arc_head) if a < b]
    return aw.Graph.from_edges(edges)


def moved_by(graph, perm, coin, *mode):
    """max |p' - p| and max |P' - P| between the averages on ``graph`` and on
    its relabeling, the latter mapped back to the original ids."""
    p, norm = aw.average_rows(graph, coin, *mode)[1](slice(None))
    p_new, norm_new = aw.average_rows(relabeled(graph, perm), coin, *mode)[1](slice(None))
    back = np.ix_(perm, perm)
    return np.abs(p_new[back] - p).max(), np.abs(norm_new[back] - norm).max()


@settings(max_examples=30)
@given(
    graph=st.booleans().flatmap(lambda bip: connected_graphs(bip)),
    mode=st.sampled_from([("average-infinite",), ("average-finite", 20)]),
    data=st.data(),
)
def test_grover_averages_follow_a_relabeling(graph, mode, data):
    perm = np.array(data.draw(st.permutations(range(graph.node_count))))
    assert max(moved_by(graph, perm, aw.CoinKind.GROVER, *mode)) <= 1e-13


@pytest.fixture(scope="module")
def karate_perm():
    """A fixed seeded relabeling of karate."""
    perm = list(range(34))
    random.Random(1).shuffle(perm)
    return np.array(perm)


def test_fourier_averages_depend_on_the_fan_order(karate, karate_perm):
    _, moved = moved_by(karate, karate_perm, aw.CoinKind.FOURIER)
    # by more than the threshold q = 1/D that detection compares P with
    assert moved > 1 / karate.arc_count
    assert max(moved_by(karate, karate_perm, aw.CoinKind.GROVER)) <= 1e-13
