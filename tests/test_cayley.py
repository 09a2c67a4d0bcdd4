"""The Cayley eigensolvers behind ``walk_decompose`` and ``decompose`` against
the Schur oracle.

``walk_decompose`` writes the symmetric unitary U' = Q*UQ = Q^T C Q straight
from the coin blocks, and diagonalizes its real Cayley image with numpy's
``eigh``, the map's pole placed by an eigenvalues-only pass.  U' made from
the dense U by pair combinations over its columns and rows is kept here as
its bit-exact oracle.  ``decompose`` runs the same pole-placed core on the
complex Cayley image of any dense unitary.  The complex Schur form of U,
from ``scipy.linalg.schur``, is kept here as the oracle whose Cesaro
averages and degeneracy groups both must reproduce.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cesaro_kernel import BUILTINS, COINS, connected_graphs

import arcwalk as aw
from arcwalk import spectral
from arcwalk.cli import main
from arcwalk.operators import DENSE_CAP
from arcwalk.spectral import SpectralError, _group_by_argument


def schur_decomposition(u):
    """The SpectralDecomposition of U from its complex Schur form."""
    t, z = scipy.linalg.schur(u, output="complex")
    eigenvalues = np.diag(t).copy()
    return aw.SpectralDecomposition(eigenvalues, z, _group_by_argument(eigenvalues))


def projector_kernel(dec):
    """sum_g |P_g|^2 over the eigenspace projectors: the arc-level Cesaro
    limit, which does not depend on the basis chosen inside a group."""
    kernel = 0.0
    for group in dec.groups:
        v = dec.eigenvectors[:, group]
        kernel = kernel + np.abs(v @ v.conj().T) ** 2
    return kernel


def assert_same_groups(dec, ref):
    assert sorted(len(g) for g in dec.groups) == sorted(len(g) for g in ref.groups)


def separation(dec):
    """Smallest angle between two eigenvalue groups."""
    args = np.sort([np.angle(dec.eigenvalues[g[0]]) for g in dec.groups])
    return np.min(np.diff(args, append=args[0] + 2 * np.pi))


def assert_matches_schur(graph, coin):
    op = aw.build_walk_operator(graph, coin)
    dec = aw.walk_decompose(op)
    ref = schur_decomposition(aw.materialize_dense(op))
    p, norm = aw.infinite_time_average_matrix(dec, graph)
    p_ref, norm_ref = aw.infinite_time_average_matrix(ref, graph)
    # groups closer than 1e-3 leave every solver's eigenvectors, and so the
    # averages, uncertain by about eps / gap (seen: 2.8e-11 at a gap of
    # 1.6e-5 on a random graph), so the bound widens below that gap
    tol = 1e-12 * max(1.0, 1e-3 / separation(ref))
    assert np.abs(p - p_ref).max() <= tol
    assert np.abs(norm - norm_ref).max() <= tol
    assert_same_groups(dec, ref)
    # the returned basis is U's, in the arc basis
    v = dec.eigenvectors
    assert np.abs(op.apply(v) - v * dec.eigenvalues).max() <= 1e-10
    assert np.abs(v.conj().T @ v - np.eye(op.dimension)).max() <= 1e-10
    return dec


@pytest.mark.parametrize("coin", COINS, ids=lambda c: c.value)
@pytest.mark.parametrize("name", [*BUILTINS, "path(2)", "cycle(8)", "complete(6)"])
def test_matches_schur_on_builtins(name, coin):
    assert_matches_schur(aw.builtin(name), coin)


@pytest.mark.parametrize("name", ["complete(5)", "cycle(6)"])
def test_degenerate_groups_match_schur(name):
    dec = assert_matches_schur(aw.builtin(name), aw.CoinKind.GROVER)
    assert max(len(g) for g in dec.groups) > 1


@settings(max_examples=20)
@given(
    graph=st.booleans().flatmap(lambda bip: connected_graphs(bip)),
    coin=st.sampled_from(COINS),
)
def test_matches_schur_on_random_graphs(graph, coin):
    assert_matches_schur(graph, coin)


def combine_pairs(m, fwd, rev, phase):
    """In place over the rows of m: row a <- row a + row rev a and row rev a
    <- phase (row a - row rev a), for the arcs a in ``fwd``.  With phase -i
    that makes m sqrt2 Q* m, and on the columns (m.T) with phase +i sqrt2 m Q."""
    a, b = m[fwd], m[rev]
    m[fwd] = a + b
    a -= b
    a *= phase
    m[rev] = a
    return m


def two_pass_symmetric_unitary(op):
    """U' = Q* U Q from the dense U by two passes of pair combinations."""
    fwd = np.flatnonzero(np.arange(op.dimension) < op.shift)
    rev = op.shift[fwd]
    u = aw.materialize_dense(op)
    combine_pairs(u.T, fwd, rev, 1j)  # U Q
    combine_pairs(u, fwd, rev, -1j)  # Q* (U Q)
    u /= 2
    return u


def assert_symmetric_unitary_matches_two_passes(graph, coin):
    op = aw.build_walk_operator(graph, coin)
    u = spectral._symmetric_unitary(op)
    assert np.array_equal(u, two_pass_symmetric_unitary(op))
    assert np.array_equal(u, u.T)


# cycle(6), karate and three_community have edges whose two ends share a
# degree class: a fancy += keeps one end of their diagonal blocks only
@pytest.mark.parametrize("coin", COINS, ids=lambda c: c.value)
@pytest.mark.parametrize("name", [*BUILTINS, "path(3)"])
def test_symmetric_unitary_matches_two_passes_on_builtins(name, coin):
    assert_symmetric_unitary_matches_two_passes(aw.builtin(name), coin)


@pytest.mark.parametrize("coin", COINS, ids=lambda c: c.value)
def test_symmetric_unitary_matches_two_passes_on_planted_80(planted_80, coin):
    assert_symmetric_unitary_matches_two_passes(planted_80, coin)


@settings(max_examples=40)
@given(
    graph=st.booleans().flatmap(lambda bip: connected_graphs(bip)),
    coin=st.sampled_from(COINS),
)
def test_symmetric_unitary_matches_two_passes_on_random_graphs(graph, coin):
    assert_symmetric_unitary_matches_two_passes(graph, coin)


def test_walk_decompose_above_the_cap_allocates_no_dense_array():
    # degree-2 fans only, and complete(79) (D = 6162), one class of degree 78
    cases = [
        (f"cycle({DENSE_CAP // 2 + 1})", aw.CoinKind.FOURIER),
        ("complete(79)", aw.CoinKind.FOURIER),
        ("complete(79)", aw.CoinKind.GROVER),
    ]
    for name, coin in cases:
        op = aw.build_walk_operator(aw.builtin(name), coin)
        d = op.dimension
        tracemalloc.start()
        try:
            with pytest.raises(aw.ConfigError) as raised:
                aw.walk_decompose(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(raised.value) == f"D={d} exceeds dense materialization cap {DENSE_CAP}"
        # below even one real D x D array (a complex one takes 16 D^2 bytes)
        assert peak < 8 * d**2


def spectrum_with(angles, seed=None):
    """A symmetric unitary O diag(e^{i angles}) O^T: diagonal, or with O a
    seeded random real orthogonal matrix."""
    phases = np.exp(1j * np.asarray(angles))
    if seed is None:
        return np.diag(phases)
    rng = np.random.default_rng(seed)
    o, _ = np.linalg.qr(rng.normal(size=(len(angles), len(angles))))
    return (o * phases) @ o.T


def recording_poles(image, poles):
    """``image`` that appends each pole it is asked for to ``poles``."""

    def recording(u, pole):
        poles.append(pole)
        return image(u, pole)

    return recording


def solve_recording_poles(u):
    """The core solver on U' with the real image, the poles it tried, and its
    result as a SpectralDecomposition of U'."""
    poles = []
    scratch = u.copy()
    eigenvalues, o = spectral._cayley_eigh(scratch, recording_poles(spectral._cayley_image, poles))
    # the solver forms its real pencils in place and puts U' back
    assert np.abs(scratch - u).max() <= 1e-15
    assert o.dtype == np.float64
    return aw.SpectralDecomposition(eigenvalues, o, _group_by_argument(eigenvalues)), poles


def assert_kernel_matches_schur(u, dec):
    ref = schur_decomposition(u)
    assert np.abs(projector_kernel(dec) - projector_kernel(ref)).max() <= 1e-12
    assert_same_groups(dec, ref)


# the other eigenvalues stay well away from the first pole and its antipode
AWAY = list(np.linspace(-0.6, 0.6, 7)) + [2.5, 3.0, -2.5, -2.0]


@pytest.mark.parametrize("seed", [None, 7], ids=["diagonal", "rotated"])
def test_eigenvalue_on_the_first_pole(seed):
    u = spectrum_with([spectral._FIRST_POLE, *AWAY], seed)
    dec, poles = solve_recording_poles(u)
    # too close to place a gap: the full solve puts the pole opposite
    assert poles == [spectral._FIRST_POLE, spectral._FIRST_POLE + np.pi]
    assert_kernel_matches_schur(u, dec)


def test_cluster_straddling_the_first_pole():
    cluster = spectral._FIRST_POLE + np.array([-1e-10, 0.0, 1e-10])
    u = spectrum_with([*cluster, *AWAY], seed=11)
    dec, poles = solve_recording_poles(u)
    assert poles == [spectral._FIRST_POLE, spectral._FIRST_POLE + np.pi]
    assert sorted(len(g) for g in dec.groups) == [1] * len(AWAY) + [3]
    assert_kernel_matches_schur(u, dec)


def test_full_solve_puts_the_pole_in_the_widest_gap():
    # 1e-4 from the first pole I + A has an eigenvalue of about 5e-9, and the
    # eigenvalues-only pass is still off by far less than 1e-6, which places
    # the widest gap: from 0.6 to the near one
    near = spectral._FIRST_POLE + 1e-4
    u = spectrum_with([near, *np.linspace(-2.8, 0.6, 12), 3.1], seed=3)
    dec, poles = solve_recording_poles(u)
    assert poles[0] == spectral._FIRST_POLE
    assert len(poles) == 2 and abs(poles[1] - (0.6 + near) / 2) < 1e-6
    assert_kernel_matches_schur(u, dec)


def test_singular_first_lu_moves_the_pole(monkeypatch):
    solve = np.linalg.solve
    calls = []

    def singular_once(a, b):
        calls.append(a.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    u = spectrum_with(AWAY, seed=5)
    dec, poles = solve_recording_poles(u)
    assert poles == [spectral._FIRST_POLE, spectral._FIRST_POLE + np.pi]
    assert len(calls) == 2
    assert_kernel_matches_schur(u, dec)


def test_singular_at_both_poles_is_a_spectral_error(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SpectralError, match="singular at both places"):
        spectral._cayley_eigh(spectrum_with(AWAY, seed=5), spectral._cayley_image)


def random_unitary(angles, seed):
    """Z diag(e^{i angles}) Z* with Z a seeded random complex unitary: no
    symmetry for the real Cayley form to use."""
    rng = np.random.default_rng(seed)
    n = len(angles)
    z, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (z * np.exp(1j * np.asarray(angles))) @ z.conj().T


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decompose_matches_schur_on_random_unitaries(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    angles = [spectral._FIRST_POLE, 0.7, 0.7, 0.7, *rng.uniform(-np.pi, np.pi, 12)]
    u = random_unitary(angles, seed)
    poles = []
    image = recording_poles(spectral._hermitian_cayley_image, poles)
    monkeypatch.setattr(spectral, "_hermitian_cayley_image", image)
    dec = aw.decompose(u)
    # the eigenvalue on the first pole sends the full solve to the opposite one
    assert poles == [spectral._FIRST_POLE, spectral._FIRST_POLE + np.pi]
    assert sorted(len(g) for g in dec.groups) == [1] * 13 + [3]
    assert_kernel_matches_schur(u, dec)


@pytest.mark.parametrize(
    "corrupt,match",
    [
        (lambda b: np.roll(b, 1, axis=0), "degree-4 coin is not symmetric within 1e-12"),
        (lambda b: 1.01 * b, "degree-4 coin is not unitary within 1e-10"),
        (lambda b: np.where(np.eye(len(b)), np.nan, b), "degree-4 coin is not symmetric"),
    ],
    ids=["row-rotated", "scaled", "nan"],
)
def test_bad_coin_block_is_a_spectral_error(corrupt, match):
    op = aw.build_walk_operator(aw.builtin("karate"), aw.CoinKind.FOURIER)
    op.blocks[4] = corrupt(op.blocks[4])
    with pytest.raises(SpectralError, match=match):
        aw.walk_decompose(op)


@pytest.mark.parametrize("coin", COINS, ids=lambda c: c.value)
@pytest.mark.parametrize("name", ["three_community", "karate"])
def test_wrong_symmetric_unitary_is_a_spectral_error(name, coin, monkeypatch, capsys):
    # conj(U') is still symmetric and unitary, but its eigenpairs are not
    # U's: only the residual check, with U applied by the operator, sees it
    symmetric_unitary = spectral._symmetric_unitary
    monkeypatch.setattr(spectral, "_symmetric_unitary", lambda op: symmetric_unitary(op).conj())
    op = aw.build_walk_operator(aw.builtin(name), coin)
    with pytest.raises(SpectralError, match="residual"):
        aw.walk_decompose(op)
    assert main(["detect", "--graph", "builtin:karate"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "arcwalk: numerical error:" in err and "residual" in err


def corrupt_eigh(monkeypatch, how):
    eigh = np.linalg.eigh

    def corrupted(h):
        lam, o = eigh(h)
        if how == "swapped":
            # the two sides of the widest gap, so never one degenerate group
            o[:, [0, -1]] = o[:, [-1, 0]]
        elif how == "stretched":
            o[:, 0] *= 1 + 1e-6
        else:
            o[0, 0] = np.nan
        return lam, o

    monkeypatch.setattr(np.linalg, "eigh", corrupted)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "how,match",
    [("swapped", "residual"), ("stretched", "not orthonormal"), ("nan", "residual")],
)
@pytest.mark.parametrize("coin", COINS, ids=lambda c: c.value)
def test_corrupted_eigh_is_a_spectral_error(coin, how, match, monkeypatch, capsys):
    # Grover detect checks the eigh of the node-space T, not walk_decompose's
    corrupt_eigh(monkeypatch, how)
    op = aw.build_walk_operator(aw.builtin("three_community"), coin)
    with pytest.raises(SpectralError, match=match):
        aw.walk_decompose(op)
    assert main(["detect", "--graph", "builtin:karate", "--coin", coin.value]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "arcwalk: numerical error:" in err and match in err
