from pathlib import Path

import numpy as np
import pytest

import arcwalk as aw

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def three_community():
    return aw.builtin("three_community")


@pytest.fixture(scope="session")
def karate():
    return aw.builtin("karate")


@pytest.fixture(scope="session")
def three_fourier_dec(three_community):
    return aw.walk_decompose(aw.build_walk_operator(three_community, aw.CoinKind.FOURIER))


@pytest.fixture(scope="session")
def three_grover_dec(three_community):
    return aw.walk_decompose(aw.build_walk_operator(three_community, aw.CoinKind.GROVER))


@pytest.fixture(scope="session")
def karate_fourier_dec(karate):
    return aw.walk_decompose(aw.build_walk_operator(karate, aw.CoinKind.FOURIER))


@pytest.fixture(scope="session")
def three_fourier_avg(three_community):
    return aw.average_matrices(three_community, aw.CoinKind.FOURIER)[1:]


@pytest.fixture(scope="session")
def karate_fourier_avg(karate):
    return aw.average_matrices(karate, aw.CoinKind.FOURIER)[1:]


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)


@pytest.fixture(scope="session")
def perfbench():
    """``perfbench/`` on sys.path, for its graph generator and traced runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        yield PERFBENCH


@pytest.fixture(scope="session")
def planted_80(perfbench):
    """The benchmark's planted-80 graph (seed 1), loaded as the CLI loads it."""
    from planted import planted_partition
    from workloads import PLANTED

    return aw.load_edge_list(planted_partition(*PLANTED["planted-80"], seed=1).edge_list_text())
