"""Agreement between two partitions of the same nodes, in numpy alone: the
normalized mutual information of Danon, Diaz-Guilera, Duch and Arenas
(J. Stat. Mech. 2005, P09008) and the adjusted Rand index of Hubert and
Arabie (J. Classif. 2, 1985).  A partition is a sequence of labels, one
per node; only which nodes share a label matters."""

import numpy as np


def contingency(a, b) -> np.ndarray:
    """N[i, j]: the nodes with the i-th label of ``a`` and the j-th of ``b``."""
    _, rows = np.unique(np.asarray(a), return_inverse=True)
    _, cols = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((rows.max() + 1, cols.max() + 1), dtype=np.int64)
    np.add.at(table, (rows, cols), 1)
    return table


def nmi(a, b) -> float:
    """-2 sum N_ij log(N_ij N / (N_i. N_.j)) over sum N_i. log(N_i. / N) +
    sum N_.j log(N_.j / N); 1 when both partitions are one block each."""
    table = contingency(a, b)
    n = table.sum()
    row, col = table.sum(axis=1), table.sum(axis=0)
    i, j = np.nonzero(table)
    joint = table[i, j]
    num = -2.0 * np.sum(joint * np.log(joint * n / (row[i] * col[j])))
    den = np.sum(row * np.log(row / n)) + np.sum(col * np.log(col / n))
    return 1.0 if den == 0 else float(num / den)


def adjusted_rand(a, b) -> float:
    """(index - expected) / (max - expected) over pairs of nodes; 1 when max
    equals expected, as when both partitions are all singletons or both one
    block."""
    table = contingency(a, b)

    def pairs(x):
        return np.sum(x * (x - 1) / 2)

    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    total = pairs(table.sum())
    expected = rows * cols / total if total else 0.0
    best = (rows + cols) / 2
    return 1.0 if best == expected else float((index - expected) / (best - expected))
