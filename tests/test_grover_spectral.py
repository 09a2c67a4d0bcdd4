"""The node-space Grover kernel against the Schur and spectral-map oracles.

``grover_average_matrix`` builds the Grover walk's exact averages from the
N x N ``eigh`` of T alone.  Two oracles are kept here: the complex Schur
form of the dense U (``test_cayley.schur_decomposition``), and the D x D
eigenbasis that the spectral mapping theorem builds from that ``eigh`` and
the incidence null spaces (``grover_decompose``), which scales to graphs
where Schur is slow.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cayley import schur_decomposition
from test_cesaro_kernel import connected_graphs

import arcwalk as aw
from arcwalk import evolution, spectral
from arcwalk.cli import main
from arcwalk.spectral import SpectralError, _check_basis, _group_by_argument


# the spectral-map oracle: a dense D x D eigenbasis of U


def grover_decompose(graph):
    """Eigendecomposition of the Grover walk unitary by the spectral mapping
    theorem, checked with U applied through the structured operator."""
    eigenvalues, vectors = _grover_eigenbasis(graph)
    apply = aw.build_walk_operator(graph, aw.CoinKind.GROVER).apply
    _check_basis(eigenvalues, vectors, apply, np.abs(np.abs(eigenvalues) - 1.0))
    return aw.SpectralDecomposition(eigenvalues, vectors, _group_by_argument(eigenvalues))


def _grover_eigenbasis(graph):
    """Eigenvalues and (D, D) eigenvectors of U = S(2 d*d - I), where
    (d* f)_a = f(tail a) / sqrt(k_tail) and T = d S d* = K^-1/2 A K^-1/2."""
    n, d = graph.node_count, graph.arc_count
    tail, head = graph.arc_tail, graph.arc_head
    t = np.zeros((n, n))
    t[tail, head] = 1.0 / np.sqrt(graph.degrees[tail] * graph.degrees[head])
    lam, f = np.linalg.eigh(t)  # ascending
    colors = graph.colors
    # T's eigenvalue 1 (top) is simple on a connected graph and -1 (bottom)
    # exists, simple, iff it is bipartite; U inherits them as the uniform
    # vector and the vector signed by the tail's color
    inner = slice(0 if colors is None else 1, n - 1)
    lam, f = lam[inner], f[:, inner]
    inherited = [(1.0, np.full((d, 1), 1 / np.sqrt(d)))]
    if colors is not None:
        inherited.append((-1.0, (1.0 - 2.0 * colors[tail])[:, None] / np.sqrt(d)))
    # every other (cos theta, f) gives (I - e^{+-i theta} S) d*f / (sqrt2 sin theta)
    x = f[tail] / np.sqrt(graph.degrees[tail])[:, None]
    sin = np.sqrt(1.0 - lam**2)
    mu = lam + 1j * sin
    pairs = [(m, (x - m * x[graph.reverse_arc]) / (np.sqrt(2) * sin)) for m in (mu, mu.conj())]
    # birth spaces: arc flows c_e on i->j and -+c_e on j->i, with c in the
    # null space of the signed (+1 space, dim b1) or unsigned (-1 space,
    # dim b1 - 1, or b1 when bipartite) edge x node incidence matrix
    fwd = np.flatnonzero(tail < head)
    b1 = aw.betti_number(graph)
    births = []
    for value, sign, dim in ((1.0, -1.0, b1), (-1.0, 1.0, b1 - (colors is None))):
        incidence = np.zeros((fwd.size, n))
        incidence[np.arange(fwd.size), tail[fwd]] = 1.0
        incidence[np.arange(fwd.size), head[fwd]] = sign
        c = _left_null_space(incidence, dim) / np.sqrt(2)
        v = np.zeros((d, dim))
        v[fwd] = c
        v[graph.reverse_arc[fwd]] = sign * c
        births.append((value, v))
    parts = inherited + births + pairs
    eigenvalues = np.concatenate(
        [np.broadcast_to(np.asarray(val, dtype=complex), v.shape[1]) for val, v in parts]
    )
    return eigenvalues, np.hstack([v for _, v in parts]).astype(complex)


def _left_null_space(matrix, dim):
    """Orthonormal basis (rows, dim) of the vectors c with c^T matrix = 0,
    whose dimension ``dim`` is known; raises if the singular values
    do not show rank rows - dim."""
    rows, cols = matrix.shape
    rank = rows - dim
    u, sv, _ = np.linalg.svd(matrix, full_matrices=True)
    tol = max(rows, cols) * np.finfo(float).eps * sv[0]
    if (rank > 0 and not sv[rank - 1] > tol) or np.any(sv[rank:] > tol):
        raise SpectralError(f"incidence matrix does not have the expected rank {rank}")
    return u[:, rank:]


def test_null_space_rank_is_checked():
    # signed incidence of the triangle has rank 2: a one-dimensional null space
    incidence = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
    assert _left_null_space(incidence, 1).shape == (3, 1)
    for dim in (0, 2):
        with pytest.raises(aw.SpectralError, match="expected rank"):
            _left_null_space(incidence, dim)


def star(n):
    return aw.Graph.from_edges([(0, i) for i in range(1, n + 1)])


def planted(blocks, edges_in, edges_out, seed):
    """Seeded planted-partition graph with fixed edge counts; a chain through
    all nodes keeps it connected."""
    rng = np.random.default_rng(seed)
    label = np.repeat(np.arange(len(blocks)), blocks)
    n = label.size
    chain = {(i, i + 1) for i in range(n - 1)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in chain]
    inside = [e for e in pairs if label[e[0]] == label[e[1]]]
    across = [e for e in pairs if label[e[0]] != label[e[1]]]
    picked = [
        pool[k]
        for pool, count in ((inside, edges_in), (across, edges_out))
        for k in rng.choice(len(pool), count, replace=False)
    ]
    return sorted(chain | set(picked))


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
    # trees: b1 = 0, bipartite; the star's eigenvalue 0 of T has multiplicity
    # 4 > sqrt(D), which takes the X, Y form
    "path(2)": aw.builtin("path(2)"),
    "path(5)": aw.builtin("path(5)"),
    "star(5)": star(5),
}


def schur_oracle(graph):
    op = aw.build_walk_operator(graph, aw.CoinKind.GROVER)
    return schur_decomposition(aw.materialize_dense(op))


def assert_matches(graph, ref):
    p, norm = spectral.grover_average_matrix(graph)
    p_ref, norm_ref = aw.infinite_time_average_matrix(ref, graph)
    assert np.abs(p - p_ref).max() <= 1e-12
    assert np.abs(norm - norm_ref).max() <= 1e-12
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-10
    assert np.abs(norm - norm.T).max() <= 1e-12


def assert_matches_schur(graph):
    ref = schur_oracle(graph)
    assert_matches(graph, ref)
    # the spectral-map oracle reproduces Schur and the Betti multiplicities
    dec = grover_decompose(graph)
    p, _ = aw.infinite_time_average_matrix(dec, graph)
    assert np.abs(p - aw.infinite_time_average_matrix(ref, graph)[0]).max() <= 1e-12
    assert sorted(len(g) for g in dec.groups) == sorted(len(g) for g in ref.groups)
    report = aw.degeneracy_report(dec, graph)
    b1 = aw.betti_number(graph)
    expected_minus = b1 + 1 if aw.is_bipartite(graph) else b1 - 1
    assert (report.plus_one, report.minus_one) == (b1 + 1, expected_minus)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_matches_schur_oracle(name):
    assert_matches_schur(GRAPHS[name])


@settings(max_examples=20)
@given(graph=st.booleans().flatmap(lambda bip: connected_graphs(bip)))
def test_matches_schur_oracle_on_random_graphs(graph):
    assert_matches_schur(graph)


@pytest.mark.parametrize(
    "graph",
    [
        aw.Graph.from_edges(planted((27, 27, 26), 280, 72, seed=1)),
        # R's entries grow like effective resistances (~N here): squaring the
        # +-1 projectors' N x N terms before differencing lost 1e-11 at
        # path(300) and put rows of p 2.3e-10 off 1 at path(600)
        aw.builtin("path(600)"),
    ],
    ids=["planted-80", "path(600)"],
)
def test_matches_the_spectral_map_oracle_on_larger_graphs(graph):
    assert_matches(graph, grover_decompose(graph))


def corrupt(monkeypatch, how):
    """Make ``np.linalg.eigh`` hand ``how``-edited eigenpairs to the kernel."""
    eigh = np.linalg.eigh

    def corrupted(matrix):
        eigenvalues, vectors = eigh(matrix)
        how(eigenvalues, vectors)
        return eigenvalues, vectors

    monkeypatch.setattr(np.linalg, "eigh", corrupted)


def _swap_two_columns(eigenvalues, vectors):
    # two eigenvectors of different eigenvalues trade places
    j = int(np.argmax(np.abs(eigenvalues - eigenvalues[0])))
    vectors[:, [0, j]] = vectors[:, [j, 0]]


def _stretch_column(eigenvalues, vectors):
    vectors[:, 0] *= 1 + 1e-6


def _leave_the_circle(eigenvalues, vectors):
    # T's top eigenvalue 1 moves to 1 + 1e-6: its pair leaves the unit circle
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
    corrupt(monkeypatch, how)
    with pytest.raises(aw.SpectralError, match=message):
        spectral.grover_average_matrix(karate)


def test_wrong_bipartition_fails_the_trace_check():
    # taken as not bipartite, cycle(6) keeps T's eigenvalue -1 in the
    # pseudo-inverse of (I + T)/2
    graph = aw.builtin("cycle(6)")
    object.__setattr__(graph, "colors", None)
    with pytest.raises(aw.SpectralError, match="-1 eigenprojector has trace"):
        spectral.grover_average_matrix(graph)


def test_lost_group_fails_the_row_check(karate, monkeypatch):
    group = spectral._group_by_argument
    monkeypatch.setattr(spectral, "_group_by_argument", lambda *args: group(*args)[1:])
    with pytest.raises(aw.SpectralError, match="rows of p miss 1"):
        spectral.grover_average_matrix(karate)


def test_cli_numerical_failure_exits_4_without_a_partition(monkeypatch, capsys):
    corrupt(monkeypatch, _swap_two_columns)
    assert main(["detect", "--graph", "builtin:karate", "--coin", "grover"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert "numerical error" in out.err and "residual" in out.err


def test_cli_grover_detect_ignores_the_dense_cap(capsys):
    # complete(79) has D = 6162 arcs, above the cap that stops exact Fourier
    assert main(["detect", "--graph", "builtin:complete(79)", "--coin", "grover"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["graph"]["arcs"] == 6162
    assert doc["metadata"]["parameters"]["eigensolver"] == "grover-spectral-map"
    assert len(doc["payload"]["assignment"]) == 79


def test_exact_grover_detect_above_the_dense_cap_holds_no_dense_array(tmp_path, capsys):
    edges = planted((50, 50, 50, 50), 2700, 500, seed=5)
    path = tmp_path / "planted.txt"
    path.write_text("".join(f"{a + 1} {b + 1}\n" for a, b in edges))
    d = 2 * len(edges)
    assert d > 6000
    tracemalloc.start()
    try:
        code = main(["detect", "--graph", f"edgelist:{path}", "--coin", "grover"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["graph"]["arcs"] == d
    assert len(doc["payload"]["assignment"]) == 200
    # below even one real D x D array (a complex one takes 16 D^2 bytes)
    assert peak < 8 * d**2


# golden check: the CLI documents from the node-space kernel against Schur

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
        evolution,
        "grover_average_matrix",
        lambda graph: aw.infinite_time_average_matrix(schur_oracle(graph), graph),
    )
    ref = cli_documents(name, capsys)
    for key, doc in new.items():
        assert doc["metadata"]["parameters"]["eigensolver"] == "grover-spectral-map"
        assert_same_document(doc, ref[key], key)


@pytest.mark.parametrize(
    "coin,mode,solver",
    [
        ("grover", "average-infinite", "grover-spectral-map"),
        ("fourier", "average-infinite", "cayley-real-evd"),
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
