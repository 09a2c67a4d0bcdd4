"""Detect three planted communities with a Fourier coined walk.

The built-in ``three_community`` graph has 21 nodes: three hubs (1, 13, 21)
that are mutually connected, each wired to six member nodes that sit on a
6-cycle of their own.  Time-averaged, degree-normalized transition
probabilities P(i -> l) concentrate inside communities; thresholding them at
the classical stationary value q = 1/D recovers the planted partition
exactly.
"""

import numpy as np

import arcwalk as aw


def main() -> None:
    g = aw.builtin("three_community")
    print(f"graph: N={g.node_count} nodes, D={g.arc_count} directed arcs")

    op = aw.build_walk_operator(g, aw.CoinKind.FOURIER)
    dec = aw.walk_decompose(op)
    p, norm = aw.infinite_time_average_matrix(dec, g)

    q = 1.0 / g.arc_count
    print(f"\nclassical stationary level 1/D = {q:.6f}")
    print("normalized averages from hub 1 (targets 1..21):")
    print("  " + " ".join(f"{v:.4f}" for v in norm[0]))
    print("values above q mark community members; the drop after node 7")
    print("(and at the other hubs) is the community boundary.")

    part = aw.detect(norm, g, q)
    print(f"\ndetected {part.community_count} communities, hubs {part.hubs}:")
    for idx, hub in enumerate(part.hubs):
        print(f"  hub {hub:2d}: members {part.members(idx)}")

    # membership margins: how far above threshold each member sits
    report = aw.margin_report(norm, part)
    worst = min((m for m in report if m.margin > 0), key=lambda m: m.margin)
    print(f"\nsmallest positive margin: node {worst.node} over hub {worst.hub} "
          f"({worst.margin:.2e}); no node is marginal on this graph.")

    # the finite-time average at T=100 tells the same story
    _, norm_fin = aw.finite_time_average_matrix(op, steps=100)
    dev = np.abs(norm - norm_fin).max() / norm.max()
    print(f"T=100 finite-time average deviates from the Cesaro limit by "
          f"{100 * dev:.1f}% of the matrix maximum.")


if __name__ == "__main__":
    main()
