import numpy as np
import pytest

import arcwalk as aw


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
def three_fourier_avg(three_fourier_dec, three_community):
    return aw.infinite_time_average_matrix(three_fourier_dec, three_community)


@pytest.fixture(scope="session")
def karate_fourier_avg(karate_fourier_dec, karate):
    return aw.infinite_time_average_matrix(karate_fourier_dec, karate)


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
