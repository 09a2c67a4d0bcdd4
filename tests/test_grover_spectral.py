"""The Grover spectral-mapping eigenbasis against the Schur oracle.

``grover_decompose`` builds the Grover eigenbasis from an N x N ``eigh`` and
the incidence null spaces; the dense Schur decomposition of U is kept here
only as the oracle it must reproduce.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cesaro_kernel import connected_graphs

import arcwalk as aw
from arcwalk import cli, spectral
from arcwalk.cli import main


def star(n):
    return aw.Graph.from_edges([(0, i) for i in range(1, n + 1)])


GRAPHS = {
    "three_community": aw.builtin("three_community"),
    "karate": aw.builtin("karate"),
    "square_triangle": aw.builtin("square_triangle"),
    # T = (J - I)/(n - 1) and A/2 on a cycle have repeated eigenvalues
    "complete(4)": aw.builtin("complete(4)"),
    "complete(5)": aw.builtin("complete(5)"),
    "complete(6)": aw.builtin("complete(6)"),
    "cycle(5)": aw.builtin("cycle(5)"),
    "cycle(6)": aw.builtin("cycle(6)"),
    "cycle(7)": aw.builtin("cycle(7)"),
    "cycle(8)": aw.builtin("cycle(8)"),
    # trees: b1 = 0, bipartite
    "path(2)": aw.builtin("path(2)"),
    "path(5)": aw.builtin("path(5)"),
    "star(5)": star(5),
}


def schur_oracle(graph):
    op = aw.build_walk_operator(graph, aw.CoinKind.GROVER)
    return aw.decompose(aw.materialize_dense(op))


def assert_matches_schur(graph):
    dec = aw.grover_decompose(graph)
    ref = schur_oracle(graph)
    p, norm = aw.infinite_time_average_matrix(dec, graph)
    p_ref, norm_ref = aw.infinite_time_average_matrix(ref, graph)
    assert np.abs(p - p_ref).max() <= 1e-12
    assert np.abs(norm - norm_ref).max() <= 1e-12
    assert sorted(len(g) for g in dec.groups) == sorted(len(g) for g in ref.groups)
    # residual and orthonormality, recomputed against the dense U
    u = aw.materialize_dense(aw.build_walk_operator(graph, aw.CoinKind.GROVER))
    v = dec.eigenvectors
    assert v.shape == (graph.arc_count, graph.arc_count)
    assert np.abs(np.abs(dec.eigenvalues) - 1.0).max() <= 1e-10
    assert np.linalg.norm(u @ v - v * dec.eigenvalues, axis=0).max() <= 1e-8
    assert np.abs(v.conj().T @ v - np.eye(graph.arc_count)).max() <= 1e-10
    report = aw.degeneracy_report(dec, graph)
    b1 = aw.betti_number(graph)
    expected_minus = b1 + 1 if aw.is_bipartite(graph) else b1 - 1
    assert (report.plus_one, report.minus_one) == (b1 + 1, expected_minus)
    assert report.matches_prediction


@pytest.mark.parametrize("name", list(GRAPHS))
def test_matches_schur_oracle(name):
    assert_matches_schur(GRAPHS[name])


@settings(max_examples=20, deadline=None)
@given(graph=st.booleans().flatmap(lambda bip: connected_graphs(bip)))
def test_matches_schur_oracle_on_random_graphs(graph):
    assert_matches_schur(graph)


def test_dense_cap_guards_the_eigenbasis(karate):
    with pytest.raises(aw.DenseCapExceeded, match="D=156 exceeds dense materialization cap 100"):
        aw.grover_decompose(karate, cap=100)


def corrupt(how):
    """Wrap the eigenbasis builder so that ``how`` edits its output."""
    build = spectral._grover_eigenbasis

    def corrupted(graph):
        eigenvalues, vectors = build(graph)
        how(eigenvalues, vectors)
        return eigenvalues, vectors

    return corrupted


def _swap_two_columns(eigenvalues, vectors):
    # two eigenvectors of different eigenvalues trade places
    j = int(np.argmax(np.abs(eigenvalues - eigenvalues[0])))
    vectors[:, [0, j]] = vectors[:, [j, 0]]


def _stretch_column(eigenvalues, vectors):
    vectors[:, 0] *= 1 + 1e-6


def _leave_the_circle(eigenvalues, vectors):
    eigenvalues[-1] *= 1 + 1e-6


@pytest.mark.parametrize(
    "how,message",
    [
        (_swap_two_columns, "residual"),
        (_stretch_column, "not orthonormal"),
        (_leave_the_circle, "unit circle"),
    ],
)
def test_corrupted_basis_raises(karate, monkeypatch, how, message):
    monkeypatch.setattr(spectral, "_grover_eigenbasis", corrupt(how))
    with pytest.raises(aw.SpectralError, match=message):
        aw.grover_decompose(karate)


def test_null_space_rank_is_checked():
    # signed incidence of the triangle has rank 2: a one-dimensional null space
    incidence = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
    assert spectral._left_null_space(incidence, 1).shape == (3, 1)
    for dim in (0, 2):
        with pytest.raises(aw.SpectralError, match="expected rank"):
            spectral._left_null_space(incidence, dim)


def test_cli_numerical_failure_exits_4_without_a_partition(monkeypatch, capsys):
    monkeypatch.setattr(spectral, "_grover_eigenbasis", corrupt(_swap_two_columns))
    assert main(["detect", "--graph", "builtin:karate", "--coin", "grover"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert "numerical error" in out.err and "residual" in out.err


def test_cli_grover_detect_over_dense_cap(capsys):
    argv = ["detect", "--graph", "builtin:karate", "--coin", "grover", "--dense-cap", "100"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "D=156 exceeds dense materialization cap 100" in err
    assert "--mode average-finite" in err and "--dense-cap" in err


# golden check: the CLI documents from the spectral map against Schur

SWEEP_Q = {"three_community": "0.01,0.0128205128205,0.015", "karate": "0.005,0.00641025641026,0.008"}


def cli_documents(name, capsys):
    docs = {}
    for command, extra in [
        ("detect", []),
        ("sweep", ["--q-list", SWEEP_Q[name]]),
        ("average", []),
        ("average", ["--start", "1"]),
    ]:
        argv = [command, "--graph", f"builtin:{name}", "--coin", "grover", *extra]
        assert main(argv) == 0
        docs[" ".join(argv)] = json.loads(capsys.readouterr().out)
    return docs


def assert_same_document(got, ref, path="doc"):
    if isinstance(ref, dict):
        assert sorted(got) == sorted(ref), path
        for key in ref:
            assert_same_document(got[key], ref[key], f"{path}.{key}")
    elif isinstance(ref, list):
        assert len(got) == len(ref), path
        for i, (g, r) in enumerate(zip(got, ref)):
            assert_same_document(g, r, f"{path}[{i}]")
    elif isinstance(ref, float):
        assert abs(got - ref) <= 1e-9, path
    else:
        assert type(got) is type(ref) and got == ref, path


@pytest.mark.parametrize("name", ["three_community", "karate"])
def test_cli_documents_match_the_schur_path(name, monkeypatch, capsys):
    new = cli_documents(name, capsys)
    monkeypatch.setattr(
        cli, "grover_decompose", lambda graph, tol, cap=None: schur_oracle(graph)
    )
    ref = cli_documents(name, capsys)
    for key, doc in new.items():
        assert doc["metadata"]["parameters"].pop("eigensolver") == "grover-spectral-map"
        ref[key]["metadata"]["parameters"].pop("eigensolver")
        assert_same_document(doc, ref[key], key)


@pytest.mark.parametrize(
    "coin,mode,solver",
    [
        ("grover", "average-infinite", "grover-spectral-map"),
        ("fourier", "average-infinite", "schur"),
        ("grover", "average-finite", None),
    ],
)
@pytest.mark.parametrize("command", ["detect", "sweep", "average"])
def test_documents_name_the_eigensolver(command, coin, mode, solver, capsys):
    argv = [command, "--graph", "builtin:three_community", "--coin", coin, "--mode", mode]
    if command == "sweep":
        argv += ["--q-list", "0.01,0.02"]
    assert main(argv) == 0
    params = json.loads(capsys.readouterr().out)["metadata"]["parameters"]
    assert params.get("eigensolver") == solver
