"""Grover-walk eigenvalue degeneracies counted by the first Betti number.

On a connected graph with E edges and N nodes, b1 = E - N + 1 counts the
independent loops.  The Grover walk's +1 eigenspace has dimension b1 + 1, and
its -1 eigenspace has dimension b1 + 1 (bipartite) or b1 - 1 (otherwise).
The degenerate eigenvectors can be built directly on loops: amplitudes
+-1/sqrt(2n) on the 2n arcs of an n-cycle, zero elsewhere.  The Fourier walk
shows no degeneracy at all on the same graphs.
"""

import numpy as np

import arcwalk as aw


def census(name: str) -> None:
    g = aw.builtin(name)
    op = aw.build_walk_operator(g, aw.CoinKind.GROVER)
    dec = aw.decompose(aw.materialize_dense(op))
    r = aw.degeneracy_report(dec, g)
    b1 = aw.betti_number(g)
    print(f"{name:16s} b1={b1:2d} bipartite={aw.is_bipartite(g)!s:5s} "
          f"observed (+1,-1)=({r.plus_one},{r.minus_one}) "
          f"predicted ({r.predicted_plus_one},{r.predicted_minus_one}) "
          f"{'OK' if r.matches_prediction else 'MISMATCH'}")


def main() -> None:
    print("Grover-walk +-1 multiplicities vs the loop-count prediction:")
    for name in ["three_community", "karate", "square_triangle",
                 "cycle(4)", "cycle(5)", "path(4)", "complete(5)"]:
        census(name)

    g = aw.builtin("three_community")
    print("\nexplicit loop eigenvector on the triangle 1-2-3 (hub 1 plus two "
          "adjacent members of its 6-cycle):")
    amplitudes, lam = aw.loop_eigenvector(g, [1, 2, 3], eigenvalue=1)
    support = np.flatnonzero(np.abs(amplitudes) > 1e-12)
    print(f"  eigenvalue {lam:+d}, supported on arcs {support.tolist()}, "
          f"norm {np.linalg.norm(amplitudes):.12f}")
    print("  a triangle (odd cycle) admits only the +1 eigenvector;")

    square = aw.builtin("cycle(4)")
    for lam in (1, -1):
        found = aw.loop_eigenvector(square, [1, 2, 3, 4], eigenvalue=lam)
        print(f"  the square admits eigenvalue {lam:+d}: {found is not None}")

    print("\nFourier walk on karate for contrast:")
    karate = aw.builtin("karate")
    op = aw.build_walk_operator(karate, aw.CoinKind.FOURIER)
    dec = aw.decompose(aw.materialize_dense(op))
    print(f"  largest eigenvalue group size: {max(len(grp) for grp in dec.groups)} "
          "(simple spectrum)")
    values = aw.ipr(aw.eigenstate_node_probability(dec, karate))
    print(f"  eigenvector IPR range: {values.min():.4f} .. {values.max():.4f} "
          f"(mean {values.mean():.4f})")


if __name__ == "__main__":
    main()
