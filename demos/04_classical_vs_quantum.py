"""Why the classical random walk cannot see the communities.

The classical walk's stationary distribution is proportional to degree, so
the degree-normalized stationary probability is exactly 1/D at every node --
perfectly flat, no community signal.  The quantum time averages keep a
degree-normalized structure that deviates strongly from 1/D inside
communities; that residual structure is what the detection threshold reads.
The two coins also behave differently in time: the Fourier walk spreads
through its community while the Grover walk mostly stays home.
"""

import numpy as np

import arcwalk as aw


def main() -> None:
    g = aw.builtin("three_community")
    d = g.arc_count
    q = 1.0 / d

    flat = aw.stationary(g) / g.degrees
    print(f"classical normalized stationary: min {flat.min():.8f}, "
          f"max {flat.max():.8f} (1/D = {q:.8f}) -- flat to machine precision")

    _, tv = aw.relaxation_trace(g, 1, 200)
    first = int(np.argmax(tv < 0.01)) + 1
    print(f"classical walk from node 1 relaxes below TV=0.01 after {first} steps")

    _, rows = aw.average_rows(g, aw.CoinKind.FOURIER)
    _, norm = rows(slice(None))
    intra = norm[np.ix_(range(7), range(7))]
    off = intra[~np.eye(7, dtype=bool)]
    print(f"\nquantum (Fourier) intra-community normalized averages deviate from"
          f" 1/D by up to {100 * np.abs(off - q).max() / q:.0f}%")
    inter = norm[np.ix_(range(1, 7), range(14, 21))]
    print(f"hub-free inter-community entries stay below q: max {inter.max():.6f} < {q:.6f}")

    print("\nself-return of the T=100 finite-time average (node 1):")
    for kind in aw.CoinKind:
        # node 1's row alone: only its start arcs are stepped
        _, rows_t = aw.average_rows(g, kind, "average-finite", steps=100)
        p, norm_t = rows_t(0)
        print(f"  {kind.value:8s} p(1->1) = {p[0]:.4f}   "
              f"(row peak at node {int(np.argmax(norm_t)) + 1})")
    print("the Grover walk self-localizes; the Fourier walk explores its community.")


if __name__ == "__main__":
    main()
