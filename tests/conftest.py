from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import arcwalk as aw
from arcwalk import evolution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# one Hypothesis profile for every property test, which then sets only its
# max_examples: no deadline, since an example's time varies with the graph
# drawn and the machine's load.  Re-registering the active profile takes
# effect at once; under CI Hypothesis loads its own "ci" profile, which is
# derandomized and has no deadline either
settings.register_profile("default", deadline=None)


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
    return aw.average_rows(three_community, aw.CoinKind.FOURIER)[1](slice(None))


@pytest.fixture(scope="session")
def karate_fourier_avg(karate):
    return aw.average_rows(karate, aw.CoinKind.FOURIER)[1](slice(None))


def _averaged(*args, **kwargs):
    raise AssertionError("an average was computed before the inputs were checked")


@pytest.fixture
def no_averages(monkeypatch):
    """Every kernel that ``average_rows`` may run, made to fail."""
    for name in ("_window_rows", "walk_decompose", "infinite_time_average_matrix", "grover_average_matrix"):
        monkeypatch.setattr(evolution, name, _averaged)


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
