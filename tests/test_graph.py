import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cesaro_kernel import connected_graphs
from test_operators import K4_PENDANT

import arcwalk as aw
from arcwalk.graph import GraphError
from arcwalk.spectral import grover_average_matrix


TRIANGLE = "1 2\n2 3\n1 3"

PAJEK_TRIANGLE = """\
*Vertices 3
1 "a"
2 "b"
3 "c"
*Edges
1 2 0.5
2 3 2.0
1 3 7
"""


def test_edge_list_triangle():
    g = aw.load_edge_list(TRIANGLE)
    assert g.node_count == 3
    assert g.arc_count == 6
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))


def test_edge_list_comments_and_blanks():
    g = aw.load_edge_list("# header\n\n1 2\n# mid\n2 3\n1 3\n")
    assert g.node_count == 3


def test_edge_list_compacts_ids():
    g = aw.load_edge_list("10 30\n30 70\n10 70")
    assert g.node_count == 3
    assert g.arc_count == 6


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1 1", "self-loop"),
        ("1 2\n2 1\n2 3\n1 3", "duplicate"),
        ("1 2\n2 3\n1 3\n1 2 3", "two node ids"),
        ("", "empty"),
        ("1 2\n3 4", "disconnected"),
    ],
)
def test_edge_list_rejects(text, fragment):
    with pytest.raises(GraphError, match=fragment):
        aw.load_edge_list(text)


def test_pajek_weights_discarded():
    g = aw.load_pajek(PAJEK_TRIANGLE)
    ref = aw.load_edge_list(TRIANGLE)
    assert g.adjacency == ref.adjacency


def test_pajek_arcs_treated_symmetric():
    text = "*Vertices 3\n*Arcs\n1 2\n2 1\n2 3\n1 3\n"
    g = aw.load_pajek(text)
    assert g.arc_count == 6


def test_pajek_edges_header_with_trailing_tokens():
    g = aw.load_pajek('*Vertices 3\n*Edges :1 "links"\n1 2\n2 3\n1 3\n')
    assert g.arc_count == 6


@pytest.mark.parametrize("section", ["*Edgeslist", "*Arcslist"])
def test_pajek_list_sections_are_unknown(section):
    # a list line is a node and all its neighbours: 1 2 3 4 holds three edges
    text = f"*Vertices 4\n{section}\n1 2 3 4\n2 3\n3 4\n"
    with pytest.raises(GraphError, match=f"line 2: unknown section '\\{section}'"):
        aw.load_pajek(text)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("*Edges\n1 2", "before \\*Vertices"),
        ("*Vertices x\n*Edges\n1 2", "malformed"),
        ("*Vertices 2\n*Edges\n1 3", "declared range"),
        ("*Vertices 4\n*Edges\n1 2\n2 3\n3 1", "isolated declared vertex 4"),
        ("1 2", "missing \\*Vertices"),
        ("*Vertices\n*Edges\n1 2", "^line 1: malformed \\*Vertices header$"),
        ("*Vertices 2\n1 \"a\"\n*Edges\n", "^Pajek file declares no edges$"),
    ],
)
def test_pajek_rejects(text, fragment):
    with pytest.raises(GraphError, match=fragment):
        aw.load_pajek(text)


@pytest.mark.parametrize(
    "load,text,message",
    [
        # line numbers count the blank and comment lines the readers skip
        (aw.load_edge_list, "# ids\n\n1 x\n", "line 3: non-integer node id in '1 x'"),
        (aw.load_edge_list, "1 2\n2 2\n", "line 2: self-loop at node 2"),
        # an edge list refuses an id below 1 before a self-loop
        (aw.load_edge_list, "0 0\n", "line 1: node ids must be positive"),
        (aw.load_pajek, "% ids\n*Vertices 2\n\n*Edges\n1 2.5 1\n", "line 5: non-integer node id in '1 2.5 1'"),
        (aw.load_pajek, "*Vertices 2\n*Edges\n2 2 1.0\n", "line 3: self-loop at node 2"),
        (aw.load_pajek, "*Vertices 2\n*Edges\n0 0\n", "line 3: self-loop at node 0"),
        (aw.load_pajek, "*Vertices 2\n*Edges\n1\n", "line 3: malformed edge record '1'"),
    ],
)
def test_loaders_share_their_edge_record_errors(load, text, message):
    with pytest.raises(GraphError) as info:
        load(text)
    assert str(info.value) == message


def test_karate_dimensions(karate):
    assert karate.node_count == 34
    assert karate.arc_count == 156
    degrees = karate.degrees
    # hubs: instructor (node 1) and administrator (node 34) carry max degree
    assert {int(np.argmax(degrees)) + 1, 34} == {34}
    assert degrees[0] == 16 and degrees[33] == 17


def test_betti_numbers(three_community, karate):
    assert aw.betti_number(three_community) == 19
    assert aw.betti_number(karate) == 45
    assert aw.betti_number(aw.builtin("path(5)")) == 0
    assert aw.betti_number(aw.builtin("square_triangle")) == 2


def test_bipartite():
    assert aw.is_bipartite(aw.builtin("cycle(4)"))
    assert not aw.is_bipartite(aw.load_edge_list(TRIANGLE))
    assert not aw.is_bipartite(aw.builtin("square_triangle"))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 11])
def test_cycle_invariants(n):
    g = aw.builtin(f"cycle({n})")
    assert aw.betti_number(g) == 1
    assert aw.is_bipartite(g) == (n % 2 == 0)


def test_three_community_structure(three_community):
    g = three_community
    assert g.node_count == 21
    assert g.edge_count == 39
    assert g.arc_count == 78
    hubs = [i + 1 for i in np.flatnonzero(g.degrees == g.degrees.max())]
    assert hubs == [1, 13, 21]
    assert not aw.is_bipartite(g)


def test_builtin_unknown():
    with pytest.raises(GraphError, match="unknown builtin"):
        aw.builtin("petersen")
    with pytest.raises(GraphError):
        aw.builtin("cycle(2)")


@pytest.mark.parametrize(
    "name", ["three_community", "karate", "square_triangle", "cycle(7)", "path(4)", "complete(5)"]
)
def test_arc_offsets_bijection(name):
    # arc arc_offsets[i] + s, for s < k_i, leaves node i, and these arcs
    # are every arc once
    g = aw.builtin(name)
    assert int(g.degrees.sum()) == g.arc_count
    assert g.arc_count % 2 == 0
    seen = set()
    for i in range(g.node_count):
        for s in range(int(g.degrees[i])):
            flat = int(g.arc_offsets[i]) + s
            assert g.arc_tail[flat] == i
            seen.add(flat)
    assert seen == set(range(g.arc_count))


@pytest.mark.parametrize("name", ["three_community", "karate", "cycle(6)"])
def test_reverse_is_involution(name):
    g = aw.builtin(name)
    rev = g.reverse_arc
    assert np.array_equal(rev[rev], np.arange(g.arc_count))
    # reverse swaps tail and head
    assert np.array_equal(g.arc_tail[rev], g.arc_head)
    assert np.array_equal(g.arc_head[rev], g.arc_tail)


def test_graph_is_immutable(karate):
    with pytest.raises(ValueError):
        karate.degrees[0] = 99


@pytest.mark.parametrize("name", ["three_community", "karate", "square_triangle"])
def test_arc_between_inverts_the_arc_layout(name):
    g = aw.builtin(name)
    for arc in range(g.arc_count):
        assert g.arc_between(int(g.arc_tail[arc]), int(g.arc_head[arc])) == arc


def test_arc_between_rejects_non_adjacent_nodes(three_community):
    with pytest.raises(GraphError, match="nodes 1 and 9 are not adjacent"):
        three_community.arc_between(0, 8)
    # node 21 is adjacent to node 1, but index -1 names no node
    for tail in (-1, 21):
        with pytest.raises(GraphError, match="not adjacent"):
            three_community.arc_between(tail, 0)


@pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (2, -1)], [(-1, 0), (0, 1)]])
def test_from_edges_rejects_negative_ids(edges):
    with pytest.raises(GraphError, match="negative node index"):
        aw.Graph.from_edges(edges)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: aw.Graph.from_edges([(0, 1), (1, 2), (2, 1)]), "duplicate edge 2-3"),
        (lambda: aw.Graph.from_edges([(0, 2), (2, 3)]), "node 2 is isolated"),
        (lambda: aw.builtin("path(1)"), "path requires n >= 2"),
        (lambda: aw.builtin("complete(1)"), "complete requires n >= 2"),
    ],
    ids=["duplicate", "isolated", "path(1)", "complete(1)"],
)
def test_graph_builders_reject(build, message):
    with pytest.raises(GraphError) as info:
        build()
    assert str(info.value) == message


def test_degree_rejects_out_of_range_node(karate):
    assert karate.degree(34) == 17
    for node in (0, 35):
        with pytest.raises(GraphError, match="out of range 1..34"):
            karate.degree(node)


def assert_fan_sum_matches_reduceat(graph):
    rng = np.random.default_rng(11)
    offsets = graph.arc_offsets[:-1]
    for shape in [(graph.arc_count,), (graph.arc_count, 9)]:
        values = rng.random(shape)
        expected = np.add.reduceat(values, offsets, axis=0)
        got = graph.fan_sum(values)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12


def test_fan_sum_matches_reduceat_when_class_size_equals_degree():
    assert_fan_sum_matches_reduceat(aw.Graph.from_edges(K4_PENDANT))


@settings(max_examples=20)
@given(graph=st.booleans().flatmap(lambda bip: connected_graphs(bip)))
def test_fan_sum_matches_reduceat_on_random_graphs(graph):
    assert_fan_sum_matches_reduceat(graph)


@pytest.mark.parametrize(
    "adjacency,fragment",
    [
        (((1,), (0,), (3,), (2,)), "disconnected"),
        (((1, 2), (0,), (1,)), "not symmetric: node 1 lists 3"),
        (((1, 2), (0, 2), (1, 0)), "node 3 are not strictly ascending"),
        (((1, 1), (0, 0)), "node 1 are not strictly ascending"),
        (((0, 1), (0,)), "self-loop at node 1"),
        (((1,), (2,)), "must lie in 0..1"),
        (((), ()), "no edges"),
    ],
)
def test_graph_checks_its_invariants_at_construction(adjacency, fragment):
    with pytest.raises(GraphError, match=fragment):
        aw.Graph(adjacency)


# the dict-and-search oracle: reverse arcs from a (tail, head) lookup, and
# connectivity, 2-coloring and Betti number each from their own search


def arc_lookup_oracle(graph):
    return {
        (i, j): int(graph.arc_offsets[i]) + s
        for i, nbrs in enumerate(graph.adjacency)
        for s, j in enumerate(nbrs)
    }


def is_connected_oracle(graph):
    seen = np.zeros(graph.node_count, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in graph.adjacency[i]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return bool(seen.all())


def two_coloring_oracle(graph):
    color = np.full(graph.node_count, -1, dtype=np.int8)
    for start in range(graph.node_count):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            i = queue.pop()
            for j in graph.adjacency[i]:
                if color[j] < 0:
                    color[j] = 1 - color[i]
                    queue.append(j)
                elif color[j] == color[i]:
                    return None
    return color


def betti_oracle(graph):
    assert is_connected_oracle(graph)
    return graph.edge_count - graph.node_count + 1


def assert_matches_graph_oracle(graph):
    lookup = arc_lookup_oracle(graph)
    reverse = [lookup[(j, i)] for i, j in zip(graph.arc_tail, graph.arc_head)]
    assert graph.reverse_arc.tolist() == reverse
    for i in range(graph.node_count):
        for j in range(graph.node_count):
            if (i, j) in lookup:
                assert graph.arc_between(i, j) == lookup[(i, j)]
            else:
                with pytest.raises(GraphError, match="not adjacent"):
                    graph.arc_between(i, j)
    colors = two_coloring_oracle(graph)
    assert aw.is_bipartite(graph) == (colors is not None)
    if colors is None:
        assert graph.colors is None
    else:
        assert graph.colors.tolist() == colors.tolist()
    assert aw.betti_number(graph) == betti_oracle(graph)


@settings(max_examples=30)
@given(graph=st.booleans().flatmap(lambda bip: connected_graphs(bip)))
def test_stored_facts_match_the_oracle_on_random_graphs(graph):
    assert_matches_graph_oracle(graph)


class Unsearchable:
    def __iter__(self):
        raise AssertionError("the adjacency rows were searched again")


def test_graph_facts_need_no_further_search():
    # with rows that cannot be read, a graph still answers from its arrays
    # and the coloring it stored at construction
    graph = aw.builtin("cycle(6)")
    object.__setattr__(graph, "adjacency", tuple(Unsearchable() for _ in graph.adjacency))
    assert (aw.betti_number(graph), aw.is_bipartite(graph)) == (1, True)
    p, _ = grover_average_matrix(graph)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-10
