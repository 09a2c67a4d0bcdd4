import numpy as np
import pytest

import arcwalk as aw

ZACHARY_GROUP_1 = {1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 17, 18, 20, 22}
ZACHARY_GROUP_34 = {9, 10, 15, 16, 19, 21, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34}


def test_three_community_partition(three_fourier_avg, three_community):
    _, norm = three_fourier_avg
    part = aw.detect(norm, three_community, 1.0 / 78)
    assert part.hubs == (1, 13, 21)
    assert part.members(0) == tuple(range(1, 8))
    assert part.members(1) == tuple(range(8, 15))
    assert part.members(2) == tuple(range(15, 22))


def test_karate_partition(karate_fourier_avg, karate):
    _, norm = karate_fourier_avg
    q = 1.0 / 156
    part = aw.detect(norm, karate, q)
    assert set(part.hubs) == {1, 34}
    assert part.community_count == 2
    group_of = {34: set(part.members(part.assignment[34])), 1: set(part.members(part.assignment[1]))}
    mismatched_1 = group_of[1] ^ ZACHARY_GROUP_1
    mismatched_34 = group_of[34] ^ ZACHARY_GROUP_34
    assert mismatched_1 <= {3, 20}
    assert mismatched_34 <= {3, 20}
    report = aw.margin_report(norm, part)
    flagged = {(m.node, m.hub) for m in report if m.marginal}
    for node in mismatched_1 | mismatched_34:
        assert any(n == node for n, _ in flagged)


def test_karate_marginal_nodes_flagged(karate_fourier_avg, karate):
    _, norm = karate_fourier_avg
    part = aw.detect(norm, karate, 1.0 / 156)
    report = {(m.node, m.hub): m for m in aw.margin_report(norm, part)}
    assert report[(20, 34)].marginal
    assert report[(3, 1)].marginal
    # a core member of the first community sits well above the threshold
    assert not report[(2, 1)].marginal and report[(2, 1)].margin > 0


def test_three_community_member_not_marginal(three_fourier_avg, three_community):
    _, norm = three_fourier_avg
    part = aw.detect(norm, three_community, 1.0 / 78)
    report = {(m.node, m.hub): m for m in aw.margin_report(norm, part)}
    entry = report[(2, 1)]
    assert entry.margin > 0 and not entry.marginal


@pytest.mark.parametrize("kind", list(aw.CoinKind))
def test_complete_graph_single_community(kind):
    # on K5 the quantum average overweights the diagonal, so the classical
    # threshold 1/D = 0.05 sits just above the off-diagonal entries; any
    # threshold below them lets the first hub absorb everything
    g = aw.builtin("complete(5)")
    op = aw.build_walk_operator(g, kind)
    dec = aw.decompose(aw.materialize_dense(op))
    _, norm = aw.infinite_time_average_matrix(dec, g)
    off_diag = norm[~np.eye(5, dtype=bool)]
    assert off_diag.min() > 0.04
    part = aw.detect(norm, g, 0.04)
    assert part.community_count == 1
    assert part.members(0) == (1, 2, 3, 4, 5)


def test_extreme_thresholds(three_fourier_avg, three_community):
    _, norm = three_fourier_avg
    tiny = aw.detect(norm, three_community, 1e-12)
    assert tiny.community_count == 1
    huge = aw.detect(norm, three_community, 10.0)
    assert huge.community_count == 21
    assert all(size == 1 for size in huge.sizes())


def test_sweep(three_fourier_avg, three_community):
    _, norm = three_fourier_avg
    entries = aw.sweep(norm, three_community, [1e-4, 1.0 / 78, 1.0])
    assert [q for q, _, _ in entries] == [1e-4, 1.0 / 78, 1.0]
    counts = [count for _, count, _ in entries]
    assert counts == [1, 3, 21]
    for _, _, sizes in entries:
        assert sum(sizes) == 21


def test_sweep_rejects_bad_lists(three_fourier_avg, three_community):
    _, norm = three_fourier_avg
    with pytest.raises(ValueError):
        aw.sweep(norm, three_community, [])
    with pytest.raises(ValueError):
        aw.sweep(norm, three_community, [0.2, 0.1])


def test_detect_rejects_bad_inputs(three_fourier_avg, three_community):
    _, norm = three_fourier_avg
    with pytest.raises(ValueError):
        aw.detect(norm, three_community, 0.0)
    with pytest.raises(ValueError):
        aw.detect(norm[:5, :5], three_community, 0.1)


def test_first_hub_has_max_degree(karate_fourier_avg, karate):
    _, norm = karate_fourier_avg
    part = aw.detect(norm, karate, 1.0 / 156)
    assert karate.degree(part.hubs[0]) == int(karate.degrees.max())


def test_relabel_invariance(three_community):
    # reflect each community's 6-cycle of members: a graph automorphism that
    # preserves degrees and the canonical sorted adjacency structure
    perm = {1: 1, 13: 13, 21: 21}
    perm.update({2: 2, 3: 7, 4: 6, 5: 5, 6: 4, 7: 3})
    perm.update({8: 8, 9: 14, 10: 12, 11: 11, 12: 10, 14: 9})
    perm.update({15: 15, 16: 20, 17: 19, 18: 18, 19: 17, 20: 16})
    g = three_community
    edges = [
        (perm[i + 1] - 1, perm[j + 1] - 1)
        for i, nbrs in enumerate(g.adjacency)
        for j in nbrs
        if i < j
    ]
    relabeled = aw.Graph.from_edges(edges)
    op = aw.build_walk_operator(relabeled, aw.CoinKind.FOURIER)
    dec = aw.decompose(aw.materialize_dense(op))
    _, norm_r = aw.infinite_time_average_matrix(dec, relabeled)
    part_r = aw.detect(norm_r, relabeled, 1.0 / 78)

    op0 = aw.build_walk_operator(g, aw.CoinKind.FOURIER)
    dec0 = aw.decompose(aw.materialize_dense(op0))
    _, norm0 = aw.infinite_time_average_matrix(dec0, g)
    part0 = aw.detect(norm0, g, 1.0 / 78)

    unrelabeled = {perm_inv(perm, node): c for node, c in part_r.assignment.items()}
    assert unrelabeled == part0.assignment


def perm_inv(perm, node):
    return next(k for k, v in perm.items() if v == node)
