"""Finite-time rows computed on demand: only the start nodes a command reads
are stepped, and each row is bit-identical to that row of the full matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cesaro_kernel import connected_graphs

import arcwalk as aw
from arcwalk import evolution
from arcwalk.cli import RunConfig, main, run
from arcwalk.community import _candidate_order


@settings(max_examples=40)
@given(
    graph=st.booleans().flatmap(lambda bip: connected_graphs(bip)),
    kind=st.sampled_from(list(aw.CoinKind)),
    data=st.data(),
)
def test_rows_on_demand_equal_the_all_nodes_call(graph, kind, data):
    # D is rarely a multiple of 8, so most batches end in zero-state padding
    op = aw.build_walk_operator(graph, kind)
    steps = data.draw(st.integers(1, 12), label="steps")
    p, norm = aw.finite_time_average_matrix(op, steps)
    for _ in range(3):
        nodes = np.array(data.draw(st.permutations(range(graph.node_count)), label="order"))
        nodes = nodes[: data.draw(st.integers(1, graph.node_count), label="count")]
        got_p, got_norm = evolution._window_rows(op, nodes, steps)
        assert np.array_equal(got_p, p[nodes]) and np.array_equal(got_norm, norm[nodes])


@pytest.fixture
def stepped(monkeypatch):
    """The start arcs of every stepped batch, in call order."""
    batches = []
    probabilities = evolution._node_probabilities

    def counting(op, rows, columns, width, steps, space=None):
        batches.append(len(rows))
        return probabilities(op, rows, columns, width, steps, space)

    monkeypatch.setattr(evolution, "_node_probabilities", counting)
    return batches


def planted_source(tmp_path, perfbench):
    from planted import planted_partition
    from workloads import PLANTED

    path = tmp_path / "planted-80.txt"
    path.write_text(planted_partition(*PLANTED["planted-80"], seed=1).edge_list_text())
    return f"edgelist:{path}"


@pytest.mark.parametrize("kind", list(aw.CoinKind))
@pytest.mark.parametrize("name", ["three_community", "karate", "planted-80"])
def test_detect_sweep_and_margins_on_demand_equal_the_full_matrix(name, kind, request):
    graph = request.getfixturevalue("planted_80") if name == "planted-80" else aw.builtin(name)
    for mode, steps in [("average-finite", 100), ("average-finite", 7), ("average-infinite", 100)]:
        _, norm = aw.average_rows(graph, kind, mode, steps)[1](slice(None))
        _, rows = aw.average_rows(graph, kind, mode, steps)

        def on_demand(nodes):
            return rows(nodes)[1]

        q = 1 / graph.arc_count
        part = aw.detect(on_demand, graph, q)
        assert part == aw.detect(norm, graph, q)
        assert aw.margin_report(on_demand, part) == aw.margin_report(norm, part)
        qs = [q / 2, q, 2 * q]
        assert aw.sweep(on_demand, graph, qs) == aw.sweep(norm, graph, qs)


def test_detect_asks_for_a_prefix_of_the_candidates_in_growing_batches(karate, karate_fourier_avg):
    _, norm = karate_fourier_avg
    asked = []

    def rows(nodes):
        asked.append(list(nodes))
        return norm[nodes]

    order = _candidate_order(karate)
    aw.detect(rows, karate, 1e-9)  # one community: only the first batch
    aw.detect(rows, karate, 1.0)  # singletons: every candidate
    assert asked == [order[:8], order[:8], order[8:24], order[24:34]]


def test_finite_fourier_detect_steps_a_fraction_of_the_start_arcs(tmp_path, perfbench, stepped):
    source = planted_source(tmp_path, perfbench)
    run(RunConfig("detect", source, mode="average-finite"))
    assert 0 < sum(stepped) < 704 / 4


def test_each_row_is_stepped_once_per_command(tmp_path, perfbench, monkeypatch):
    source = planted_source(tmp_path, perfbench)
    window_rows = evolution._window_rows
    nodes = []

    def recording(op, batch, steps):
        nodes.extend(batch)
        return window_rows(op, batch, steps)

    monkeypatch.setattr(evolution, "_window_rows", recording)
    for command, fields in [("detect", {}), ("sweep", {"q_list": (1e-4, 1 / 704, 1e-2)})]:
        nodes.clear()
        run(RunConfig(command, source, coin="grover", mode="average-finite", **fields))
        assert len(nodes) == len(set(nodes)) > 8


@pytest.mark.parametrize("kind", list(aw.CoinKind))
def test_average_start_steps_only_that_node(karate, kind, stepped):
    doc = run(RunConfig("average", "builtin:karate", coin=kind.value, mode="average-finite", start=34))
    assert sum(stepped) == karate.degree(34)
    p, norm = aw.average_rows(karate, kind, "average-finite")[1](slice(None))
    assert np.array_equal(doc.payload["probability"], p[33])
    assert np.array_equal(doc.payload["normalized"], norm[33])


def test_corrupted_step_in_a_later_batch_is_a_numerical_error(tmp_path, perfbench, monkeypatch, capsys):
    # Grover detect on planted-80 reads two batches; the walks of the second
    # batch's first candidate gain probability with every step
    source = planted_source(tmp_path, perfbench)
    graph = aw.load_edge_list((tmp_path / "planted-80.txt").read_text())
    node = _candidate_order(graph)[8]
    op = aw.build_walk_operator(graph, aw.CoinKind.GROVER)
    corrupt = op.arc_rows[:, graph.arc_offsets[node] : graph.arc_offsets[node + 1]].ravel()
    probabilities = evolution._node_probabilities
    batches = []

    def scaled(op, rows, columns, width, steps, space=None):
        batches.append(len(rows))
        for probs in probabilities(op, rows, columns, width, steps, space):
            yield probs * (1.01 if np.isin(rows, corrupt).any() else 1.0)

    monkeypatch.setattr(evolution, "_node_probabilities", scaled)
    argv = ["detect", "--graph", source, "--coin", "grover", "--mode", "average-finite"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "numerical error: rows of p miss 1 by up to" in err
    assert sum(batches) > graph.degrees[_candidate_order(graph)[:8]].sum()
