"""Coined discrete-time quantum walks on undirected graphs.

Walks live in the directed-arc basis; the unitary is an arc-reversal shift
composed with per-node Fourier or Grover coin blocks.  Time-averaged,
degree-normalized transition probabilities drive hub identification and
threshold-based community detection, with a classical random-walk baseline
for comparison.
"""

__version__ = "0.1.0"

from .classical import (
    ClassicalDistribution,
    classical_step,
    relaxation_trace,
    stationary,
    total_variation,
)
from .community import (
    CommunityPartition,
    MarginEntry,
    SweepResult,
    detect,
    margin_report,
    sweep,
)
from .evolution import (
    TransitionRow,
    WalkState,
    basis_state,
    evolve,
    finite_time_average,
    finite_time_average_matrix,
    node_probability,
    step,
    transition_probability,
)
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
    verify_shift_equivalence,
)
from .spectral import (
    DegeneracyReport,
    SpectralDecomposition,
    SpectralError,
    argument_histogram,
    decompose,
    degeneracy_report,
    eigenstate_profile,
    grover_decompose,
    infinite_time_average,
    infinite_time_average_matrix,
    ipr,
    loop_eigenvector,
    participation_ratio,
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
    "verify_shift_equivalence",
    "WalkState",
    "TransitionRow",
    "basis_state",
    "step",
    "evolve",
    "node_probability",
    "transition_probability",
    "finite_time_average",
    "finite_time_average_matrix",
    "SpectralDecomposition",
    "SpectralError",
    "DegeneracyReport",
    "decompose",
    "grover_decompose",
    "degeneracy_report",
    "infinite_time_average",
    "infinite_time_average_matrix",
    "ipr",
    "participation_ratio",
    "eigenstate_profile",
    "loop_eigenvector",
    "argument_histogram",
    "CommunityPartition",
    "SweepResult",
    "MarginEntry",
    "detect",
    "sweep",
    "margin_report",
    "ClassicalDistribution",
    "classical_step",
    "stationary",
    "relaxation_trace",
    "total_variation",
    "OutputDocument",
    "emit_heatmap_csv",
]
