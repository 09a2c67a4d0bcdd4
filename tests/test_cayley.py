"""The Cayley-map eigensolver behind ``decompose`` against the Schur oracle.

``decompose`` diagonalizes the Hermitian Cayley image of U with an MRRR
``eigh``, the map's pole placed by an eigenvalues-only pass.  The complex
Schur form of U itself, from ``scipy.linalg.schur``, is kept here only as
the oracle whose Cesaro averages and degeneracy groups it must reproduce.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cesaro_kernel import BUILTINS, COINS, connected_graphs

import arcwalk as aw
from arcwalk import spectral
from arcwalk.spectral import DEFAULT_DEGENERACY_TOL, _group_by_argument


def schur_decomposition(u, tol=DEFAULT_DEGENERACY_TOL):
    """The SpectralDecomposition of U from its complex Schur form."""
    t, z = scipy.linalg.schur(u, output="complex")
    eigenvalues = np.diag(t).copy()
    return aw.SpectralDecomposition(eigenvalues, z, _group_by_argument(eigenvalues, tol), tol)


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
    u = aw.materialize_dense(aw.build_walk_operator(graph, coin))
    dec = aw.decompose(u)
    ref = schur_decomposition(u)
    p, norm = aw.infinite_time_average_matrix(dec, graph)
    p_ref, norm_ref = aw.infinite_time_average_matrix(ref, graph)
    # groups closer than 1e-3 leave every solver's eigenvectors, and so the
    # averages, uncertain by about eps / gap (seen: 2.8e-11 at a gap of
    # 1.6e-5 on a random graph), so the bound widens below that gap
    tol = 1e-12 * max(1.0, 1e-3 / separation(ref))
    assert np.abs(p - p_ref).max() <= tol
    assert np.abs(norm - norm_ref).max() <= tol
    assert_same_groups(dec, ref)
    return dec


@pytest.mark.parametrize("coin", COINS, ids=lambda c: c.value)
@pytest.mark.parametrize("name", [*BUILTINS, "path(2)", "cycle(8)", "complete(6)"])
def test_matches_schur_on_builtins(name, coin):
    assert_matches_schur(aw.builtin(name), coin)


@pytest.mark.parametrize("name", ["complete(5)", "cycle(6)"])
def test_degenerate_groups_match_schur(name):
    dec = assert_matches_schur(aw.builtin(name), aw.CoinKind.GROVER)
    assert max(len(g) for g in dec.groups) > 1


@settings(max_examples=20, deadline=None)
@given(
    graph=st.booleans().flatmap(lambda bip: connected_graphs(bip)),
    coin=st.sampled_from(COINS),
)
def test_matches_schur_on_random_graphs(graph, coin):
    assert_matches_schur(graph, coin)


def spectrum_with(angles, seed=None):
    """A unitary with eigenvalues e^{i angles}: diagonal, or in the basis of a
    seeded random unitary."""
    if seed is None:
        return np.diag(np.exp(1j * np.asarray(angles)))
    rng = np.random.default_rng(seed)
    d = len(angles)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (q * np.exp(1j * np.asarray(angles))) @ q.conj().T


def solve_recording_poles(u, monkeypatch):
    poles = []
    solve = spectral._cayley_eigh

    def recording(u, pole, vectors=True):
        poles.append(pole)
        return solve(u, pole, vectors)

    monkeypatch.setattr(spectral, "_cayley_eigh", recording)
    return aw.decompose(u), poles


def assert_kernel_matches_schur(u, dec):
    ref = schur_decomposition(u)
    assert np.abs(projector_kernel(dec) - projector_kernel(ref)).max() <= 1e-12
    assert_same_groups(dec, ref)


# the other eigenvalues stay well away from the first pole and its antipode
AWAY = list(np.linspace(-0.6, 0.6, 7)) + [2.5, 3.0, -2.5, -2.0]


@pytest.mark.parametrize("seed", [None, 7], ids=["diagonal", "rotated"])
def test_eigenvalue_on_the_first_pole(seed, monkeypatch):
    u = spectrum_with([spectral._FIRST_POLE, *AWAY], seed)
    dec, poles = solve_recording_poles(u, monkeypatch)
    # too close to place a gap: the full solve puts the pole opposite
    assert poles == [spectral._FIRST_POLE, spectral._FIRST_POLE + np.pi]
    assert_kernel_matches_schur(u, dec)


def test_cluster_straddling_the_first_pole(monkeypatch):
    cluster = spectral._FIRST_POLE + np.array([-1e-10, 0.0, 1e-10])
    u = spectrum_with([*cluster, *AWAY], seed=11)
    dec, poles = solve_recording_poles(u, monkeypatch)
    assert poles == [spectral._FIRST_POLE, spectral._FIRST_POLE + np.pi]
    assert sorted(len(g) for g in dec.groups) == [1] * len(AWAY) + [3]
    assert_kernel_matches_schur(u, dec)


def test_full_solve_puts_the_pole_in_the_widest_gap(monkeypatch):
    # 1e-4 from the first pole the eigenvalues-only pass is off by about
    # 1e-10, which still places the widest gap: from 0.6 to the near one
    near = spectral._FIRST_POLE + 1e-4
    u = spectrum_with([near, *np.linspace(-2.8, 0.6, 12), 3.1], seed=3)
    dec, poles = solve_recording_poles(u, monkeypatch)
    assert poles[0] == spectral._FIRST_POLE
    assert len(poles) == 2 and abs(poles[1] - (0.6 + near) / 2) < 1e-6
    assert_kernel_matches_schur(u, dec)


def test_singular_first_lu_moves_the_pole(monkeypatch):
    getrf = scipy.linalg.lapack.zgetrf
    calls = []

    def singular_once(a, overwrite_a=0):
        lu, piv, info = getrf(a, overwrite_a=overwrite_a)
        calls.append(info)
        return lu, piv, 1 if len(calls) == 1 else info

    monkeypatch.setattr(scipy.linalg.lapack, "zgetrf", singular_once)
    u = spectrum_with(AWAY, seed=5)
    dec, poles = solve_recording_poles(u, monkeypatch)
    assert poles == [spectral._FIRST_POLE, spectral._FIRST_POLE + np.pi]
    assert_kernel_matches_schur(u, dec)
