"""The partition agreement measures on cases worked out by hand."""

import numpy as np
import pytest
from agreement import adjusted_rand, contingency, nmi

# contingency table [[2, 1, 0], [0, 1, 2]]
A = [0, 0, 0, 1, 1, 1]
B = [0, 0, 1, 1, 2, 2]


def test_contingency_counts_the_shared_nodes():
    assert contingency(A, B).tolist() == [[2, 1, 0], [0, 1, 2]]
    assert contingency(["x", "y", "x"], [5, 5, 7]).tolist() == [[1, 1], [1, 0]]


@pytest.mark.parametrize("measure", [nmi, adjusted_rand])
@pytest.mark.parametrize(
    "a,b",
    [
        (A, A),
        (B, [7, 7, 3, 3, 9, 9]),  # relabelled
        ([0, 0, 1, 2, 2, 2], [2, 2, 0, 1, 1, 1]),
        ([0] * 5, [4] * 5),  # one block each
        (list(range(5)), list(range(5))[::-1]),  # singletons
    ],
)
def test_identical_partitions_agree_fully(measure, a, b):
    assert measure(a, b) == pytest.approx(1.0, abs=1e-15)


def test_independent_two_by_two_split():
    # every block of one partition meets every block of the other in one node
    a, b = [0, 0, 1, 1], [0, 1, 0, 1]
    assert nmi(a, b) == 0.0
    # index 0, expected 2 * 2 / 6 = 2/3, max 2: (0 - 2/3) / (2 - 2/3)
    assert adjusted_rand(a, b) == pytest.approx(-0.5, rel=1e-15)


def test_hand_worked_table():
    # pairs within cells 1 + 1 = 2; rows 3 + 3 = 6; columns 1 + 1 + 1 = 3;
    # all pairs 15: expected 6 * 3 / 15 = 1.2, max (6 + 3) / 2 = 4.5
    assert adjusted_rand(A, B) == pytest.approx((2 - 1.2) / (4.5 - 1.2), rel=1e-15)
    assert adjusted_rand(A, B) == adjusted_rand(B, A)
    # -2 (2 log 2 + 2 log 2) over -6 log 2 - 6 log 3
    assert nmi(A, B) == pytest.approx(4 * np.log(2) / (3 * np.log(6)), rel=1e-15)
    assert nmi(A, B) == nmi(B, A)
