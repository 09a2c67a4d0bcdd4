"""Coined discrete-time quantum walks on undirected graphs.

Walks live in the directed-arc basis; the unitary is an arc-reversal shift
composed with per-node Fourier or Grover coin blocks.  Time-averaged,
degree-normalized transition probabilities drive hub identification and
threshold-based community detection, with a classical random-walk baseline
for comparison.
"""

__version__ = "0.1.0"

from .classical import relaxation_trace, stationary
from .community import CommunityPartition, MarginEntry, detect, margin_report, sweep
from .evolution import finite_time_average_matrix, transition_rows
from .graph import (
    Graph,
    GraphError,
    betti_number,
    builtin,
    is_bipartite,
    load_edge_list,
    load_pajek,
)
from .io import OutputDocument, emit_heatmap_csv
from .operators import (
    CoinKind,
    DenseCapExceeded,
    WalkOperator,
    build_walk_operator,
    fourier_coin,
    grover_coin,
    materialize_dense,
)
from .spectral import (
    DegeneracyReport,
    SpectralDecomposition,
    SpectralError,
    argument_histogram,
    decompose,
    degeneracy_report,
    eigenstate_node_probability,
    grover_average_matrix,
    infinite_time_average_matrix,
    ipr,
    loop_eigenvector,
    walk_decompose,
)

__all__ = [
    "__version__",
    "Graph",
    "GraphError",
    "load_edge_list",
    "load_pajek",
    "betti_number",
    "is_bipartite",
    "builtin",
    "CoinKind",
    "WalkOperator",
    "DenseCapExceeded",
    "fourier_coin",
    "grover_coin",
    "build_walk_operator",
    "materialize_dense",
    "transition_rows",
    "finite_time_average_matrix",
    "SpectralDecomposition",
    "SpectralError",
    "DegeneracyReport",
    "decompose",
    "walk_decompose",
    "grover_average_matrix",
    "degeneracy_report",
    "infinite_time_average_matrix",
    "eigenstate_node_probability",
    "ipr",
    "loop_eigenvector",
    "argument_histogram",
    "CommunityPartition",
    "MarginEntry",
    "detect",
    "sweep",
    "margin_report",
    "stationary",
    "relaxation_trace",
    "OutputDocument",
    "emit_heatmap_csv",
]
