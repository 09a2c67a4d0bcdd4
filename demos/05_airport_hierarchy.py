"""Hierarchical communities of the 1997 US airport network (USAir97).

The USAir97 Pajek file is not redistributed with this package.  Download it
from a network-data archive (search for "USAir97.net", N=332 airports,
D=4252 arcs) and place it at data/usair97.net in the repository root, or
point the ARCWALK_USAIR97 environment variable at it.

Sweeping the detection threshold just above 1/D = 0.0002351834 peels the
network apart hierarchically: 2 communities at q = 1/D, then 3, then 5 as q
rises by fractions of a percent.  This run uses the infinite-time average,
which diagonalizes a 4252 x 4252 unitary -- expect a few minutes.
"""

import os
import sys

import arcwalk as aw

Q_LIST = [0.0002351834, 0.0002354634, 0.0002355834]


def main() -> None:
    path = os.environ.get("ARCWALK_USAIR97", "data/usair97.net")
    if not os.path.exists(path):
        print(f"airport file not found at {path!r}; see this script's docstring.")
        sys.exit(1)

    with open(path, encoding="utf-8") as handle:
        g = aw.load_pajek(handle.read())
    print(f"airport network: N={g.node_count}, D={g.arc_count}, "
          f"b1={aw.betti_number(g)}")

    op = aw.build_walk_operator(g, aw.CoinKind.GROVER)
    print("checking Grover degeneracies (prediction b1+1, b1-1)...")
    dec = aw.walk_decompose(op, cap=5000)
    r = aw.degeneracy_report(dec, g)
    print(f"  observed (+1,-1) = ({r.plus_one},{r.minus_one}), "
          f"predicted ({r.predicted_plus_one},{r.predicted_minus_one})")

    print("computing Fourier infinite-time averages...")
    op = aw.build_walk_operator(g, aw.CoinKind.FOURIER)
    dec = aw.walk_decompose(op, cap=5000)
    _, norm = aw.infinite_time_average_matrix(dec, g)

    print("\nthreshold sweep:")
    for q, count, sizes in aw.sweep(norm, g, Q_LIST):
        print(f"  q = {q:.10f}: {count} communities, sizes {sizes}")


if __name__ == "__main__":
    main()
