"""Spectral analysis of directed graphs via their asymmetric random-walk
transition matrices: mixing inequalities over subset pairs, exact directed
toughness, and the spectral toughness lower bound.
"""

from .errors import (
    ConvergenceError,
    DefectiveMatrixError,
    DgspecError,
    EdgeListParseError,
    NumericalError,
    PreconditionError,
    SingularMatrixError,
)
from .graph import (
    DirectedGraph,
    chord_cycle,
    complete_bidirected,
    de_bruijn,
    generate,
    graph_from_edges,
    is_strongly_connected,
    parse_edge_list,
    period,
    petersen,
    random_strongly_connected,
    undirected_cycle,
    write_edge_list,
)
from .linalg import (
    EigenDecomposition,
    eigendecompose_nonsymmetric,
    invert,
    operator_norm,
)
from .markov import (
    SpectralProfile,
    build_transition_matrix,
    spectral_profile,
    stationary_distribution,
)
from .mixing import (
    EmlReport,
    SubsetPair,
    verify_eml,
)
from .reports import (
    AnalysisReport,
    analysis_report,
    render,
    to_json,
)
from .toughness import (
    INFINITE,
    BoundComparison,
    ToughnessResult,
    compare_bounds,
    exact_toughness,
    toughness_spectral_bound,
)

__version__ = "0.1.0"
