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
from .evolution import average_rows, finite_time_average_matrix, transition_rows
from .graph import (
    ConfigError,
    Graph,
    GraphError,
    betti_number,
    builtin,
    is_bipartite,
    load_edge_list,
    load_pajek,
)
from .io import OutputDocument
from .operators import CoinKind, WalkOperator, build_walk_operator, materialize_dense
from .spectral import (
    DegeneracyReport,
    SpectralDecomposition,
    SpectralError,
    decompose,
    degeneracy_report,
    eigenstate_node_probability,
    infinite_time_average_matrix,
    ipr,
    loop_eigenvector,
    walk_decompose,
)

__all__ = [
    "__version__",
    "Graph",
    "GraphError",
    "ConfigError",
    "load_edge_list",
    "load_pajek",
    "betti_number",
    "is_bipartite",
    "builtin",
    "CoinKind",
    "WalkOperator",
    "build_walk_operator",
    "materialize_dense",
    "average_rows",
    "transition_rows",
    "finite_time_average_matrix",
    "SpectralDecomposition",
    "SpectralError",
    "DegeneracyReport",
    "decompose",
    "walk_decompose",
    "degeneracy_report",
    "infinite_time_average_matrix",
    "eigenstate_node_probability",
    "ipr",
    "loop_eigenvector",
    "CommunityPartition",
    "MarginEntry",
    "detect",
    "sweep",
    "margin_report",
    "stationary",
    "relaxation_trace",
    "OutputDocument",
]
